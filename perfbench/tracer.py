"""Spans around calls into spdekit's functions, recorded outside the library.

The tracer replaces each traced function under every name a caller looks
it up by: the module attribute in every loaded ``spdekit`` module that
holds the same function object (``oi.sparse_cholesky`` and
``estimation.sparse_cholesky`` as well as ``linalg.sparse_cholesky``), or
the attribute on its class for methods. A name that does not exist is
skipped and reports zero calls, so the benchmark keeps running when a
later change removes or renames a function.

Open spans live on a stack, so each closed span knows its parent; its
duration adds to the parent's child time and to its own name's totals. A
span's self time is its duration minus the durations of its direct
children. Counts that a hook derives from argument or result shapes are
labelled "computed" in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    start: float
    child_s: float = 0.0


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)   # computed quantities


def _columns(v) -> int:
    shape = getattr(v, "shape", ())
    return int(shape[1]) if len(shape) > 1 else 1


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


# (module, qualified name, hook). A hook maps (args, kwargs, result) to the
# computed counts of one call; "sum" counts add up, "max" counts keep the
# largest single call.
TRACED = (
    ("cli", "main", None),
    ("experiment", "read_observations", None),
    ("grid", "write_field",
     lambda a, k, r: {"bytes": ("sum", _nbytes(a[0].values))}),
    ("grid", "read_field",
     lambda a, k, r: {"bytes": ("sum", os.path.getsize(a[0]))}),
    ("operators", "assemble_fdm_operator", None),
    ("state_space", "build_transition", None),
    ("state_space", "splu", None),
    ("state_space", "TransitionStep.propagate",
     lambda a, k, r: {"columns": ("sum", _columns(a[1]))}),
    ("state_space", "initial_condition",
     lambda a, k, r: {"dense_bytes": ("max", _nbytes(r.cov, r.prec))}),
    ("state_space", "_draw_member", None),
    ("precision", "assemble_block_precision",
     lambda a, k, r: {"q_nnz": ("max", r.nnz)}),
    ("precision", "posterior_precision", None),
    ("precision", "apply_precision", None),
    ("linalg", "sparse_cholesky",
     lambda a, k, r: {"factor_band_bytes": ("max", _nbytes(r.band))}),
    ("linalg", "CholeskyFactor.solve",
     lambda a, k, r: {"rhs_columns": ("sum", _columns(a[1]))}),
    ("linalg", "log_det_block", None),
    ("linalg", "cholesky_backward", None),
    ("oi", "PosteriorSolver.__init__", None),
    ("oi", "PosteriorSolver.solve", None),
    ("uncertainty", "conditional_sample",
     lambda a, k, r: {"members": ("sum", len(r.members))}),
    ("estimation", "nll", None),
    ("estimation", "nll_grad", None),
    ("estimation", "_burnin_adjoint", None),
    ("solver", "run_solver", None),
)


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        stats = self.stats.setdefault(name, Stats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - span.start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - span.child_s
            if hook is not None:
                for key, (how, value) in hook(args, kwargs, result).items():
                    old = stats.counts.get(key, 0)
                    stats.counts[key] = old + value if how == "sum" \
                        else max(old, value)
            return result

        return traced

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls, stats.total_s, stats.self_s = 0, 0.0, 0.0
            stats.counts.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        loaded = {n: m for n, m in sys.modules.items()
                  if n == "spdekit" or n.startswith("spdekit.")}
        for module_name, qualname, hook in TRACED:
            name = f"{module_name}.{qualname}"
            self.stats.setdefault(name, Stats())
            home = loaded.get(f"spdekit.{module_name}")
            if home is None:
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(home, cls_name, None)
                if cls is not None and attr in vars(cls):
                    self._patch(cls, attr, self._wrap(name, vars(cls)[attr],
                                                      hook))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook)
            for module in loaded.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def metrics(self, op_s: float, blocks_rebuilt: int) -> dict[str, float]:
        """Per-layer metrics of one traced op, by `<module>.<function>.<q>`."""
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            out[f"{name}.total_s"] = stats.total_s
            for key, value in stats.counts.items():
                out[f"{name}.{key}"] = value
        sample = self.stats["uncertainty.conditional_sample"]
        members = sample.counts.get("members", 0)
        out["uncertainty.conditional_sample.member_s"] = \
            sample.total_s / members if members else 0.0
        root = self.stats["cli.main"]
        out["trace_coverage_share"] = \
            (root.total_s - root.self_s) / op_s if op_s > 0 else 0.0
        out["solver.blocks_rebuilt"] = blocks_rebuilt
        return out
