"""Scale smoke test: one `sample-posterior` run at 48x48x10 under a memory bound.

    python3 tools/scale_smoke.py

Run from the root of a checkout; the program is imported from ./src. The
run uses a white start, the preset parameters, simulated (twin)
observations and 4 members, in a child process with its outputs in a
temporary directory. The script prints the child's exit code, wall time
and peak resident set size (getrusage RUSAGE_CHILDREN), and exits 1
unless the child exited 0 with a peak below LIMIT_MB.

At 48x48x10 the posterior band is the largest array of the run: 434 MB
in the time-major order and 178 MB in the row-time order the posterior
solver picks for a white start, so a solver that factors in the wider
order goes past the limit.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# largest allowed peak RSS of the run, in MB
LIMIT_MB = 450.0

CONFIG = """\
[grid]
nx = 48
ny = 48
nt = 10

[params]
source = preset

[observations]
source = simulate
pattern = random
density = 0.2
noise_var = 0.05

[sampler]
p0_mode = white
n_members = 4
"""


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "spdekit").is_dir():
        print("run from the root of a checkout (no src/spdekit here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "experiment.cfg"
        cfg.write_text(CONFIG, encoding="utf-8")
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "spdekit", "sample-posterior",
             "--config", str(cfg), "--seed", "1",
             "--out-dir", str(Path(work) / "out")], env=env).returncode
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit code {code}, wall {wall:.2f} s, "
          f"peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB:.0f} MB)")
    return 0 if code == 0 and peak_mb < LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
