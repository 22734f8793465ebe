"""Process set-up shared by the benchmark scripts; imports no numpy.

``prepare`` must run before numpy is imported: it fixes the BLAS/OpenMP
thread count to the number of usable cores (what OpenBLAS would pick by
default, stated explicitly so that it is recorded and cannot drift) and
puts the checkout's ``src`` on the import path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(Exception):
    """The checkout holds no spdekit sources to benchmark."""


def prepare(root: Path) -> int:
    """Pin BLAS threads to the usable core count and import from root/src."""
    src = root / "src"
    if not (src / "spdekit" / "cli.py").is_file():
        raise MissingProgram(f"no spdekit sources under {src}")
    threads = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    # compiling afresh each run keeps import time the same on every run and
    # leaves no bytecode behind in the checkout (children inherit the env)
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(src))
    return threads


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"            # an exported checkout, not a git tree
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts outside git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "spdekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment_record(root: Path, threads: int) -> dict:
    """Versions and thread settings that move the timings."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
    }
