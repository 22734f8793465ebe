"""spdekit benchmark: one workload timed through the real CLI, outputs checked.

    python3 perfbench/run.py --workload interp_burnin --seed 1 --seconds 24 \
        --trace 0

Run it from the root of a checkout: the program is imported from ./src and
scratch files go to ./.perfbench_work, which is removed on exit. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines before it
give every metric by name and unit, the workload's own throughput unit,
`failed_share`, and a record of the versions and thread settings.

See README.md next to this file for the workloads and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True     # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bootstrap  # noqa: E402  (imports no numpy)

SETUP_REPS = 3
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One benchmark process: set-up, timed ops, checks, result line."""

    def __init__(self, args, root: Path, threads: int):
        import checks
        import workloads
        self.checks, self.wl = checks, workloads
        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; choose "
                             f"from {sorted(workloads.WORKLOADS)}")
        self.args, self.root, self.threads = args, root, threads
        self.work = workloads.WORKLOADS[args.workload]
        self.spec = json.loads((root / "BENCHMARK.json").read_text())
        self.scratch = root / ".perfbench_work" / \
            f"{self.work.name}-{args.seed}-{os.getpid()}"
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.reference_checked = "none"
        self.setup_parts: dict[str, list[float]] = {}

    # -- set-up ------------------------------------------------------------

    def _import_probe_s(self) -> float:
        """Wall time of a fresh interpreter that only imports the CLI."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spdekit.cli"],
                       cwd=self.root, env=env, check=True, timeout=120)
        return time.perf_counter() - start

    def setup(self) -> tuple[float, Path]:
        """Median import time plus median input-writing time; the inputs."""
        imports = [self._import_probe_s() for _ in range(SETUP_REPS)]
        writes, dirs = [], []
        for rep in range(SETUP_REPS):
            d = self.scratch / f"inputs{rep}"
            start = time.perf_counter()
            self.wl.write_inputs(self.work, self.args.seed, d)
            writes.append(time.perf_counter() - start)
            dirs.append(d)
        first = {p.relative_to(dirs[0]): p.read_bytes()
                 for p in dirs[0].rglob("*.stgf")}
        for d in dirs[1:]:
            again = {p.relative_to(d): p.read_bytes()
                     for p in d.rglob("*.stgf")}
            if again != first:
                self.problems.append(
                    "inputs differ between set-up repetitions")
            shutil.rmtree(d)
        self.setup_parts = {"import_s": imports, "inputs_s": writes}
        return _median(imports) + _median(writes), dirs[0]

    # -- ops ---------------------------------------------------------------

    def op(self, inputs: Path, out: Path) -> tuple[float, int]:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()            # every op starts from the same heap state
        start = time.perf_counter()
        code = self.wl.run_op(self.work, inputs / "experiment.cfg", out)
        return time.perf_counter() - start, code

    def timed_ops(self, inputs: Path, tracer=None):
        """Ops until the next one would end past --seconds; at least one.

        Without a tracer every op is timed. With one, untraced and traced
        ops alternate, starting untraced, until at least one of each ran:
        the untraced ones are the overhead baseline, and each traced op's
        per-layer metrics are kept.
        """
        out, keep = self.scratch / "out", self.scratch / "first"
        durations, traced, layers = [], [], []
        first_bytes = None
        begin = time.perf_counter()
        while True:
            use_trace = tracer is not None and self.attempted % 2 == 1
            if use_trace:
                tracer.reset()
                tracer.install()
            try:
                seconds, code = self.op(inputs, out)
            finally:
                if use_trace:
                    tracer.uninstall()
            self.attempted += 1
            (traced if use_trace else durations).append(seconds)
            if code != 0:
                self.failed += 1
                self.problems.append(f"op {self.attempted} exited with {code}")
            else:
                got = self.wl.output_bytes(out)
                if first_bytes is None:
                    first_bytes = got
                    out.rename(keep)
                elif got != first_bytes:
                    self.failed += 1
                    self.problems.append(
                        f"op {self.attempted}: outputs differ from the first"
                        + (" (traced vs untraced)" if use_trace else ""))
                if use_trace:
                    layers.append(tracer.metrics(
                        seconds, self._blocks_rebuilt(out)))
            elapsed = time.perf_counter() - begin
            if elapsed + _median(durations + traced) > self.args.seconds \
                    and (tracer is None or traced):
                break
        return durations, traced, layers, first_bytes is not None

    def _blocks_rebuilt(self, out: Path) -> int:
        path = out / "diagnostics.csv"
        if not path.is_file():
            return 0
        return int(sum(self.wl.csv_column(path, "blocks_rebuilt")))

    # -- checks ------------------------------------------------------------

    def check(self, inputs: Path, out: Path) -> list[str]:
        """Oracle checks, plus the stored reference when this seed has one."""
        problems = self.wl.oracle_problems(self.work, inputs, out)
        ref = self._reference()
        seed = str(self.args.seed)
        if seed in ref:
            outputs = self.wl.read_outputs(self.work, out)
            problems += self.checks.compare_reference(self.work.name, outputs,
                                                      ref[seed])
            self.reference_checked = f"seed {seed}"
        else:
            problems += self._check_reference_seed(ref)
        return problems

    def _reference(self) -> dict:
        path = REFERENCE_DIR / f"{self.work.name}.json"
        return json.loads(path.read_text())["seeds"]

    def _check_reference_seed(self, ref: dict) -> list[str]:
        """One untimed op on a seed that has a stored reference."""
        seed = min(ref, key=int)
        inputs = self.wl.write_inputs(self.work, int(seed),
                                      self.scratch / "ref_inputs").parent
        out = self.scratch / "ref_out"
        _, code = self.op(inputs, out)
        self.reference_checked = f"seed {seed} (extra op)"
        if code != 0:
            return [f"reference seed {seed}: op exited with {code}"]
        outputs = self.wl.read_outputs(self.work, out)
        return [f"reference seed {seed}: {p}" for p in
                self.checks.compare_reference(self.work.name, outputs,
                                              ref[seed])]

    # -- the run -----------------------------------------------------------

    def execute(self) -> dict:
        setup_s, inputs = self.setup()
        tracer = None
        if self.args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        durations, traced, layers, any_ok = self.timed_ops(inputs, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if any_ok:
            found = self.check(inputs, self.scratch / "first")
            if found:
                # every op that matched op 1 shares its wrong outputs
                self.failed = self.attempted
                self.problems += found
        else:
            self.problems.append("no op succeeded")

        metrics = {}
        record = {"workload": self.work.name, "seed": self.args.seed,
                  "seconds": self.args.seconds, "trace": self.args.trace,
                  "ops_timed": len(durations), "ops_traced": len(traced),
                  "reference_checked": self.reference_checked,
                  "setup_parts": self.setup_parts,
                  "environment": bootstrap.environment_record(
                      self.root, self.threads)}
        if tracer is None:
            op_p50 = _median(durations)
            work_rate = self.work.work_per_op / op_p50
            values = {"op_p50_s": op_p50, "work_per_s": work_rate,
                      "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
            for m in self.spec["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}
            quartiles = statistics.quantiles(durations, n=4) \
                if len(durations) > 1 else [op_p50] * 3
            record.update(op_s=durations, op_quartiles_s=quartiles)
            extra = {f"{self.work.work_unit}_per_s": (work_rate, "1/s"),
                     "op_samples": (len(durations), "count")}
        else:
            merged = {k: _median([lay[k] for lay in layers])
                      for k in (layers[0] if layers else {})}
            # the first op of a process also pays first-touch costs, so it
            # is left out of the baseline when another untraced op ran
            baseline = durations[1:] or durations
            merged["trace_overhead_share"] = \
                _median(traced) / _median(baseline) - 1.0
            for m in self.spec["per_layer"]:
                metrics[m["name"]] = {"value": merged.get(m["name"], 0),
                                      "unit": m["unit"]}
            record.update(untraced_op_s=durations, traced_op_s=traced)
            extra = {}
        share = self.failed / self.attempted if self.attempted else 1.0
        extra["failed_share"] = (share, "share")
        for name, (value, unit) in extra.items():
            print(f"{name} = {value:.6g} {unit}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"ops: {self.attempted} attempted, {self.failed} failed")
        for problem in self.problems:
            print(f"problem: {problem}")
        print("record " + json.dumps(record, sort_keys=True))
        correct = not self.problems and self.failed == 0
        return {"correct": correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    try:
        threads = bootstrap.prepare(root)
    except bootstrap.MissingProgram as exc:
        print(f"cannot benchmark here: {exc}", file=sys.stderr)
        return 2
    run = Run(args, root, threads)
    try:
        result = run.execute()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
        try:
            run.scratch.parent.rmdir()
        except OSError:
            pass            # another run still uses it, or already gone
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
