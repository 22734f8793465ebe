"""Independent dense oracles used across the test suite.

The operator oracle re-derives every stencil entry cell by cell with plain
loops; it shares no code with the vectorized assembly in the package.
"""

import numpy as np

from spdekit import ParamFields, SpaceTimeGrid


def random_theta(grid: SpaceTimeGrid, seed: int, advect: bool = True,
                 anisotropic: bool = True, alpha: int = 2) -> ParamFields:
    """A random parameter set that is comfortably inside the valid region."""
    rng = np.random.default_rng(seed)
    shape = grid.shape
    h11 = 0.6 + 0.5 * rng.random(shape)
    h22 = 0.6 + 0.5 * rng.random(shape)
    if anisotropic:
        # keep |h12| <= 0.6 sqrt(h11 h22): well clear of degeneracy
        h12 = 0.6 * np.sqrt(h11 * h22) * (2.0 * rng.random(shape) - 1.0)
    else:
        h12 = np.zeros(shape)
    return ParamFields.from_arrays(
        grid,
        kappa=0.35 + 0.4 * rng.random(shape),
        m_u=0.4 * rng.standard_normal(shape) if advect else np.zeros(shape),
        m_v=0.4 * rng.standard_normal(shape) if advect else np.zeros(shape),
        h11=h11, h12=h12, h22=h22,
        tau=0.7 + 0.6 * rng.random(shape),
        alpha=alpha)


def dense_operator_oracle(theta: ParamFields, t: int) -> np.ndarray:
    """Loop-built dense slab operator (damping + upwind + flux + cross)."""
    grid = theta.grid
    ny, nx = grid.ny, grid.nx
    dx, dy = grid.dx, grid.dy
    m = ny * nx
    kappa = theta.kappa.values[t]
    m_u = theta.m_u.values[t]
    m_v = theta.m_v.values[t]
    h11 = theta.h11.values[t]
    h12 = theta.h12.values[t]
    h22 = theta.h22.values[t]

    def lin(y, x):
        return y * nx + x

    op = np.zeros((m, m))
    for y in range(ny):
        for x in range(nx):
            j = lin(y, x)
            op[j, j] += kappa[y, x] ** 2
            # x faces
            if x + 1 < nx:
                c = 0.5 * (h11[y, x] + h11[y, x + 1]) / dx**2
                op[j, j] += c
                op[j, lin(y, x + 1)] -= c
            if x - 1 >= 0:
                c = 0.5 * (h11[y, x - 1] + h11[y, x]) / dx**2
                op[j, j] += c
                op[j, lin(y, x - 1)] -= c
            # y faces
            if y + 1 < ny:
                c = 0.5 * (h22[y, x] + h22[y + 1, x]) / dy**2
                op[j, j] += c
                op[j, lin(y + 1, x)] -= c
            if y - 1 >= 0:
                c = 0.5 * (h22[y - 1, x] + h22[y, x]) / dy**2
                op[j, j] += c
                op[j, lin(y - 1, x)] -= c
            # upwind advection (reflected ghosts: boundary term vanishes)
            mu = m_u[y, x]
            if mu > 0 and x + 1 < nx:
                op[j, j] += mu / dx
                op[j, lin(y, x + 1)] -= mu / dx
            elif mu < 0 and x - 1 >= 0:
                op[j, j] -= mu / dx
                op[j, lin(y, x - 1)] += mu / dx
            mv = m_v[y, x]
            if mv > 0 and y + 1 < ny:
                op[j, j] += mv / dy
                op[j, lin(y + 1, x)] -= mv / dy
            elif mv < 0 and y - 1 >= 0:
                op[j, j] -= mv / dy
                op[j, lin(y - 1, x)] += mv / dy

    # mixed term through dense central-difference matrices
    dxc = np.zeros((m, m))
    dyc = np.zeros((m, m))
    for y in range(ny):
        for x in range(nx):
            j = lin(y, x)
            dxc[j, lin(y, min(x + 1, nx - 1))] += 1.0 / (2 * dx)
            dxc[j, lin(y, max(x - 1, 0))] -= 1.0 / (2 * dx)
            dyc[j, lin(min(y + 1, ny - 1), x)] += 1.0 / (2 * dy)
            dyc[j, lin(max(y - 1, 0), x)] -= 1.0 / (2 * dy)
    cross = dxc.T @ np.diag(h12.reshape(-1)) @ dyc
    op += cross + cross.T
    return op


def dense_q_from_blocks(q) -> np.ndarray:
    return q.to_csr().toarray()


def dense_posterior_cov(q, obs) -> np.ndarray:
    """Dense inverse of the posterior precision (small grids only)."""
    qd = dense_q_from_blocks(q)
    add = np.zeros(qd.shape[0])
    add[obs.indices] = 1.0 / obs.noise_var
    return np.linalg.inv(qd + np.diag(add))


def cholesky_adjoint_trace_gradient(xs, theta, p0_opts) -> dict:
    """Trace gradient with the step log-determinant differentiated through
    the per-step Cholesky factors of S_t^{-1} (``cholesky_backward``) and
    the quadratic term through dense m x m trajectory moments.

    This is the algorithm the library used before the closed-form step
    log-determinant; the x_0 marginal and its adjoint come from the SuperLU
    burn-in oracles below. It shares only the operator scatter with the
    library's trace gradient.
    """
    from scipy import sparse

    from spdekit.estimation import PARAM_NAMES, _chain_operator_adjoint
    from spdekit.linalg import cholesky_backward, sparse_cholesky
    from spdekit.state_space import build_transition

    grid = theta.grid
    dt, m = grid.dt, grid.m
    states = np.stack([x.states for x in xs])          # (n, nt, m)
    n = states.shape[0]
    diag = np.einsum("kti,ktj->tij", states, states) / n
    cross = np.einsum("kti,ktj->tij", states[:, :-1], states[:, 1:]) / n
    transitions = build_transition(theta, grid)
    grads = {name: np.zeros(grid.shape) for name in PARAM_NAMES}
    for step in transitions:
        t = step.t
        tau = step.noise_scale
        a = step.a_solve
        a_dense = a.toarray()
        w = 1.0 / (dt * tau)**2

        # quadratic term through the residual moments
        c_t = cross[t - 1]                      # E[x_{t-1} x_t^T]
        am = a @ diag[t]
        a_bar = w[:, None] * (am - c_t)
        r_sq = (np.einsum("ij,ij->i", am, a_dense)
                - 2.0 * np.einsum("ij,ij->i", a_dense, c_t)
                + np.diag(diag[t - 1]))
        tau_bar = r_sq * (-1.0 / (dt**2 * tau**3))

        # log-determinant term: S_t^{-1} = A^T diag(w) A, factored, and
        # d(-1/2 log|S^{-1}|)/dL = -diag(1/L_ii) pulled back through it
        s_inv = (a.T @ (sparse.diags_array(w) @ a)).tocsr()
        fac = sparse_cholesky(s_inv)
        l_bar = np.zeros((m, m))
        np.fill_diagonal(l_bar, -1.0 / fac.diagonal)
        g = cholesky_backward(fac, l_bar)       # = -S_t / 2
        a_bar += 2.0 * (w[:, None] * a_dense) @ g
        w_bar = np.einsum("ij,ij->i", a_dense @ g, a_dense)
        tau_bar += w_bar * (-2.0 / (dt**2 * tau**3))

        grads["tau"][t] += tau_bar.reshape(grid.ny, grid.nx)
        _chain_operator_adjoint(dt * a_bar, theta, t, grads)
    if p0_opts["p0_mode"] == "burnin":
        burnin_adjoint_oracle(diag[0], theta, transitions[0],
                              p0_opts["burn_in"], grads)
    return grads


def _burnin_covariances(step, dt, burn_in) -> list:
    """P_0 = I, ..., P_B of the burn-in recursion, each step two SuperLU
    solves with m right-hand sides: P_k = M (P_{k-1} + diag(d)) M^T."""
    m = step.a_solve.shape[0]
    noise_var = (dt * step.noise_scale)**2
    covs = [np.eye(m)]
    for _ in range(burn_in):
        y = step.propagate(covs[-1] + np.diag(noise_var))
        p_next = step.propagate(y.T).T
        covs.append(0.5 * (p_next + p_next.T))
    return covs


def burnin_marginal_oracle(theta, burn_in) -> tuple:
    """(cov, prec, logdet_prec) of the burn-in x_0 marginal, from the
    SuperLU recursion, a dense inverse and slogdet."""
    from spdekit.state_space import build_transition

    step = build_transition(theta, theta.grid)[0]
    cov = _burnin_covariances(step, theta.grid.dt, burn_in)[-1]
    prec = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return cov, 0.5 * (prec + prec.T), -logdet


def burnin_adjoint_oracle(second_moment_0, theta, step, burn_in,
                          grads) -> None:
    """Adds the burn-in marginal's share of the mean-nll gradient to grads,
    applying M = A_1^{-1} and M^T only through SuperLU solves."""
    from spdekit.estimation import _chain_operator_adjoint

    grid = theta.grid
    dt = grid.dt
    tau1 = step.noise_scale
    noise_var = (dt * tau1)**2

    def solve_t(v):                                   # M^T v
        return step.lu.solve(np.ascontiguousarray(v), trans="T")

    covs = _burnin_covariances(step, dt, burn_in)
    w_mat = np.linalg.inv(covs[-1])
    p_bar = 0.5 * (w_mat - w_mat @ second_moment_0 @ w_mat)
    m_bar = np.zeros((grid.m, grid.m))
    tau_bar = np.zeros(grid.m)
    for k in range(burn_in, 0, -1):
        mx = step.propagate(covs[k - 1] + np.diag(noise_var))
        m_bar += 2.0 * p_bar @ mx
        x_bar = solve_t(solve_t(p_bar).T).T           # M^T pbar M
        tau_bar += np.diag(x_bar) * 2.0 * dt**2 * tau1
        p_bar = 0.5 * (x_bar + x_bar.T)
    a_bar = -solve_t(step.propagate(m_bar.T).T)       # -M^T m_bar M^T
    grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    _chain_operator_adjoint(dt * a_bar, theta, step.t, grads)
