"""Output checks: independent oracles for any seed, stored references for some.

The oracles recompute what each command's output must satisfy from the
model's definition, without the library's precision, factor, log-det or
solver code: the slab operators A_t = I + dt L_t^{alpha/2} come from
``spdekit.operators`` and everything above them is rebuilt here.

- interpolate / sample-posterior: x_star solves the posterior normal
  equations (Q + H^T R^-1 H) x = H^T R^-1 y. The time-zero block is checked
  as x_0 = P_0 g_0, with the burn-in covariance P_0 applied to a vector by
  its own recursion, so P_0 is never inverted.
- sample-posterior: mean/std are the statistics of the written members,
  and the member mean scatters around x_star as sampling error predicts.
- fit: the first loss and the loss at theta_star equal the trajectory nll
  computed from residuals and log|det A_t| (no Cholesky, no log_det_block).
- joint-solve: the last diagnostics row equals the interpolation cost of
  x_star under theta_star.

The stored references (``reference/<workload>.json``) hold fingerprints of
the outputs made at the commit that defined the benchmark. Each entry of a
fingerprint is a linear functional of norm at most one (or the norm
itself), so a difference above ``tol * ||reference||`` in any entry means
the output moved by more than that.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from spdekit.operators import apply_fractional, assemble_fdm_operator

_N_PROBES = 4
_N_SAMPLES = 8

# relative tolerances per output. Direct solves and the statistics built on
# them admit the round-off of an exact reformulation (a different
# factorization, batched solves); Adam steps amplify round-off, so fitted
# parameters are held loosely and the curves more tightly
TOLERANCES = {
    "x_star": 1e-7, "posterior_mean": 1e-7, "posterior_std": 1e-7,
    "n_member_files": 0.0,
    "loss": 1e-6, "diagnostics.cost": 1e-6, "diagnostics.data_term": 1e-6,
    "diagnostics.prior_term": 1e-6, "diagnostics.grad_norm": 1e-4,
    "diagnostics.blocks_rebuilt": 0.0,
}
_THETA_TOL = {"fit_trace": 1e-4, "joint_alternating": 1e-5}
_JOINT_X_TOL = 1e-5
_CURVES = ("loss", "diagnostics.cost", "diagnostics.data_term",
           "diagnostics.prior_term", "diagnostics.grad_norm",
           "diagnostics.blocks_rebuilt", "n_member_files")
ORACLE_TOL = 1e-8     # the library's own posterior-solve residual contract


def tolerance(workload: str, name: str) -> float:
    if name.startswith("theta_star."):
        return _THETA_TOL[workload]
    if workload == "joint_alternating" and name == "x_star":
        return _JOINT_X_TOL
    return TOLERANCES[name]


# --- fingerprints ------------------------------------------------------------

def _probes(size: int) -> np.ndarray:
    p = np.random.default_rng((size, 17)).standard_normal((_N_PROBES, size))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def _sample_index(size: int) -> np.ndarray:
    return np.random.default_rng((size, 23)).choice(
        size, size=min(_N_SAMPLES, size), replace=False)


def fingerprint(name: str, values: np.ndarray) -> dict:
    """Curves are kept whole; fields become a few bounded functionals."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if name in _CURVES:
        return {"values": flat.tolist()}
    return {"norm": float(np.linalg.norm(flat)),
            "mean": float(flat.sum() / math.sqrt(flat.size)),
            "probes": (_probes(flat.size) @ flat).tolist(),
            "samples": flat[_sample_index(flat.size)].tolist()}


def compare_fingerprint(name: str, got: dict, ref: dict,
                        tol: float) -> str | None:
    """None when got matches ref within tol, else a one-line reason."""
    if "values" in ref:
        a, b = np.array(got["values"]), np.array(ref["values"])
        if a.shape != b.shape:
            return f"{name}: {a.size} entries, reference has {b.size}"
        scale = np.maximum(np.abs(b), 1e-300)
        worst = float(np.max(np.abs(a - b) / scale)) if a.size else 0.0
        return None if worst <= tol else \
            f"{name}: relative difference {worst:.3e} > {tol:.1e}"
    scale = max(ref["norm"], 1e-300)
    diffs = [abs(got["norm"] - ref["norm"]), abs(got["mean"] - ref["mean"])]
    for key in ("probes", "samples"):
        diffs += [abs(x - y) for x, y in zip(got[key], ref[key])]
    worst = max(diffs) / scale
    return None if worst <= tol else \
        f"{name}: difference {worst:.3e} of the reference norm > {tol:.1e}"


def compare_reference(workload: str, outputs: dict, ref: dict) -> list[str]:
    problems = []
    for name, fp in ref.items():
        if name not in outputs:
            problems.append(f"{name}: output missing")
            continue
        reason = compare_fingerprint(name, fingerprint(name, outputs[name]),
                                     fp, tolerance(workload, name))
        if reason:
            problems.append(reason)
    return problems


# --- model pieces rebuilt from the operators ---------------------------------

class Model:
    """A_t, step weights W_t = 1/(dt tau_t)^2 and the time-zero covariance."""

    def __init__(self, theta, p0_mode: str, sigma0: float = 1.0,
                 burn_in: int = 20):
        grid = theta.grid
        self.m, self.nt = grid.m, grid.nt
        self.p0_mode, self.sigma0, self.burn_in = p0_mode, sigma0, burn_in
        eye = sparse.identity(self.m, format="csr")
        self.a = [None]
        self.w = [None]
        for t in range(1, grid.nt):
            power = apply_fractional(assemble_fdm_operator(theta, t, grid),
                                     theta.alpha).to_sparse()
            self.a.append(sparse.csc_array(eye + grid.dt * power))
            self.w.append(1.0 / (grid.dt * theta.tau.values[t].ravel())**2)
        self._lu1 = splu(self.a[1])

    def apply_p0(self, v: np.ndarray) -> np.ndarray:
        """P_0 v; burn-in: P_{k+1} = M (P_k + D) M^T, P_0 = I, M = A_1^-1."""
        if self.p0_mode == "white":
            return self.sigma0**2 * v
        d = 1.0 / self.w[1]                      # (dt tau_1)^2
        if v.ndim == 2:
            d = d[:, None]

        def apply(k, u):
            if k == 0:
                return u
            y = self._lu1.solve(u, trans="T")    # M^T u
            return self._lu1.solve(apply(k - 1, y) + d * y)

        return apply(self.burn_in, np.ascontiguousarray(v))

    def step_residual(self, x: np.ndarray, t: int) -> np.ndarray:
        """A_t x_t - x_{t-1} for a (nt, m) trajectory."""
        return self.a[t] @ x[t] - x[t - 1]

    def quad(self, x: np.ndarray) -> float:
        """x^T Q x = x_0^T P_0^-1 x_0 + sum_t r_t^T W_t r_t."""
        if self.p0_mode == "white":
            x0_term = float(x[0] @ x[0]) / self.sigma0**2
        else:
            p0 = self.apply_p0(np.eye(self.m))
            x0_term = float(x[0] @ np.linalg.solve(0.5 * (p0 + p0.T), x[0]))
        return x0_term + float(sum(
            np.sum(self.w[t] * self.step_residual(x, t)**2)
            for t in range(1, self.nt)))

    def logdet_q(self) -> float:
        """log|Q| = log|P_0^-1| + sum_t (2 log|det A_t| + sum log W_t).

        White start only, which is what fit_trace uses.
        """
        if self.p0_mode != "white":
            raise ValueError("the oracle log-determinant needs p0_mode white")
        total = -2.0 * self.m * math.log(self.sigma0)
        for t in range(1, self.nt):
            u = splu(self.a[t]).U.diagonal()
            total += 2.0 * float(np.sum(np.log(np.abs(u))))
            total += float(np.sum(np.log(self.w[t])))
        return total

    def apply_q_rows(self, x: np.ndarray) -> np.ndarray:
        """(Q x)_t for t >= 1, and the part of (Q x)_0 without P_0^-1 x_0.

        Q = sum_t E_t^T W_t E_t + P_0^-1 on block (0, 0), where E_t x =
        A_t x_t - x_{t-1}, so Q x gathers W_t r_t into rows t and t-1.
        """
        out = np.zeros_like(x)
        for t in range(1, self.nt):
            wr = self.w[t] * self.step_residual(x, t)
            out[t] += self.a[t].T @ wr
            out[t - 1] -= wr
        return out


def nll(model: Model, trajectories: list[np.ndarray]) -> float:
    """Mean negative log-likelihood of (nt, m) trajectories."""
    quad = float(np.mean([model.quad(x) for x in trajectories]))
    dim = model.nt * model.m
    return 0.5 * (quad - model.logdet_q()) + 0.5 * dim * math.log(2 * math.pi)


# --- oracles -----------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_posterior_mean(x: np.ndarray, model: Model, obs) -> list[str]:
    """x solves (Q + H^T R^-1 H) x = H^T R^-1 y."""
    nt, m = model.nt, model.m
    x = x.reshape(nt, m)
    info = np.zeros(nt * m)
    info[obs.indices] = 1.0 / obs.noise_var
    info = info.reshape(nt, m)
    rhs = np.zeros(nt * m)
    rhs[obs.indices] = obs.values / obs.noise_var
    rhs = rhs.reshape(nt, m)
    resid = rhs - model.apply_q_rows(x) - info * x
    problems = []
    rel_rows = float(np.linalg.norm(resid[1:])) / float(np.linalg.norm(rhs))
    if not rel_rows <= ORACLE_TOL:
        problems.append(f"x_star: normal-equation residual {rel_rows:.3e} "
                        f"in steps 1..{nt - 1}")
    # block 0 reads P_0^-1 x_0 = resid_0, i.e. x_0 = P_0 resid_0
    rel0 = float(np.linalg.norm(x[0] - model.apply_p0(resid[0]))) \
        / max(float(np.linalg.norm(x[0])), 1e-300)
    if not rel0 <= ORACLE_TOL:
        problems.append(f"x_star: time-zero block off by {rel0:.3e}")
    return problems


def check_ensemble(outputs: dict, members: list[np.ndarray],
                   n_members: int) -> list[str]:
    problems = []
    if len(members) != n_members:
        return [f"{len(members)} member files, expected {n_members}"]
    stack = np.stack(members)
    mean, std = stack.mean(axis=0), stack.std(axis=0, ddof=1)
    for name, ours in (("posterior_mean", mean), ("posterior_std", std)):
        got = outputs[name].reshape(ours.shape)
        err = float(np.max(np.abs(got - ours))) / float(np.max(np.abs(ours)))
        if not err <= 1e-12:
            problems.append(f"{name}: differs from the members by {err:.3e}")
    std = outputs["posterior_std"].reshape(-1)
    if not np.all(np.isfinite(std)) or not np.all(std > 0):
        problems.append("posterior_std: not finite and positive everywhere")
        return problems
    # member mean - x_star is sampling error: t-distributed per cell
    diff = outputs["posterior_mean"].reshape(-1) \
        - outputs["x_star"].reshape(-1)
    z = diff * math.sqrt(n_members) / std
    rms = float(np.sqrt(np.mean(z**2)))
    if not 0.85 <= rms <= 1.15:
        problems.append(f"posterior_mean: rms z-score {rms:.3f} vs x_star")
    return problems


def check_fit(loss: np.ndarray, model0: Model, model_star: Model,
              trajectories: list[np.ndarray]) -> list[str]:
    problems = []
    first = nll(model0, trajectories)
    if not _rel(loss[0], first) <= 1e-9:
        problems.append(f"loss[0] = {loss[0]!r}, oracle nll {first!r}")
    best = nll(model_star, trajectories)
    if not _rel(float(np.min(loss)), best) <= 1e-9:
        problems.append(f"min loss {np.min(loss)!r}, nll(theta_star) {best!r}")
    if not np.min(loss) < loss[0]:
        problems.append("fit did not lower the loss")
    return problems


def check_joint(outputs: dict, model_star: Model, obs,
                lam: float) -> list[str]:
    x = outputs["x_star"].reshape(model_star.nt, model_star.m)
    resid = obs.values - x.reshape(-1)[obs.indices]
    data = float(np.sum(resid**2 / obs.noise_var))
    prior = lam * model_star.quad(x)
    problems = []
    for name, ours in (("data_term", data), ("prior_term", prior),
                       ("cost", data + prior)):
        got = float(outputs[f"diagnostics.{name}"][-1])
        if not _rel(got, ours) <= 1e-8:
            problems.append(
                f"diagnostics.{name}[-1] = {got!r}, oracle {ours!r}")
    return problems
