"""Every demo script runs to completion against the current library.

Each takes a few seconds; 05 is the one demo that drives the joint solve
(and so ``apply_precision``) end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdekit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_prior_sampling.py",
                                    "02_interpolation.py",
                                    "03_posterior_ensemble.py",
                                    "04_parameter_fit.py",
                                    "05_joint_nonstationary.py",
                                    "06_scaling.py"])
def test_demo_runs(script, tmp_path):
    # the child imports the same spdekit as the tests, installed or not
    src = str(Path(spdekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
