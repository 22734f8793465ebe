"""Write the stored reference fingerprints of one workload's outputs.

    python3 perfbench/make_reference.py --workload fit_trace --seeds 0-19

Run from the root of a checkout at the commit whose outputs are the
reference; it replaces perfbench/reference/<workload>.json. Only the
commit that defines the benchmark does this: a later change that moves the
outputs beyond the tolerances in checks.py is a different answer, not a
new reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True     # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bootstrap  # noqa: E402  (imports no numpy)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-19")
    args = parser.parse_args(argv)
    root = Path.cwd()
    threads = bootstrap.prepare(root)

    import checks
    import workloads
    work = workloads.WORKLOADS[args.workload]
    scratch = root / ".perfbench_work" / f"reference-{work.name}"
    seeds = {}
    try:
        for seed in _seeds(args.seeds):
            inputs = scratch / f"inputs{seed}"
            cfg = workloads.write_inputs(work, seed, inputs)
            out = scratch / f"out{seed}"
            code = workloads.run_op(work, cfg, out)
            if code != 0:
                raise SystemExit(f"seed {seed}: op exited with {code}")
            problems = workloads.oracle_problems(work, inputs, out)
            if problems:
                raise SystemExit(f"seed {seed}: {problems}")
            outputs = workloads.read_outputs(work, out)
            seeds[str(seed)] = {name: checks.fingerprint(name, values)
                                for name, values in outputs.items()}
            print(f"{work.name} seed {seed}: ok", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = bootstrap.environment_record(root, threads)
    path = Path(__file__).resolve().parent / "reference" / f"{work.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(layout(env, seeds), encoding="utf-8")


def layout(env: dict, seeds: dict) -> str:
    """The reference file: one line for the environment, one per seed."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items()]
    return ('{"made_at": ' + json.dumps(env) + ',\n "seeds": {\n'
            + ",\n".join(lines) + "}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
