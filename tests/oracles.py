"""Independent dense oracles used across the test suite.

The operator oracle re-derives every stencil entry cell by cell with plain
loops; it shares no code with the vectorized assembly in the package. The
operator adjoint reference scatters d/dL_t to the fields term by term, with
no use of the package's stencil table, and d/dL_t comes from d/dA_t through
dense powers of the assembled operator. The central-difference gradient
reads nothing but the nll.
"""

from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

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


def slab_neighbors(grid: SpaceTimeGrid) -> SimpleNamespace:
    """Per-cell neighbor indices, clamped at the boundary (reflected
    ghosts) and flattened to (m,); the has_* masks flag cells whose face in
    that direction is interior."""
    ny, nx = grid.ny, grid.nx
    idx = np.arange(grid.m).reshape(ny, nx)
    xp = np.minimum(np.arange(nx) + 1, nx - 1)
    xm = np.maximum(np.arange(nx) - 1, 0)
    yp = np.minimum(np.arange(ny) + 1, ny - 1)
    ym = np.maximum(np.arange(ny) - 1, 0)
    return SimpleNamespace(
        xp=idx[:, xp].ravel(), xm=idx[:, xm].ravel(),
        yp=idx[yp, :].ravel(), ym=idx[ym, :].ravel(),
        has_xp=np.tile(np.arange(nx) < nx - 1, ny),
        has_xm=np.tile(np.arange(nx) > 0, ny),
        has_yp=np.repeat(np.arange(ny) < ny - 1, nx),
        has_ym=np.repeat(np.arange(ny) > 0, nx))


def operator_adjoint_reference(l_bar: np.ndarray, theta: ParamFields,
                               t: int, grads: dict[str, np.ndarray]) -> None:
    """Scatter d(loss)/dL_t into the slab-t parameter gradients.

    l_bar is the dense gradient with respect to the assembled slab
    operator; the assembly is linear in (kappa^2, m, H), so each field's
    adjoint is a short stencil-weighted sum of l_bar entries, derived here
    term by term and independently of the library's stencil table.
    """
    grid = theta.grid
    ny, nx = grid.ny, grid.nx
    m = grid.m
    cells = np.arange(m)
    nb = slab_neighbors(grid)

    kappa = theta.kappa.values[t].ravel()
    grads["kappa"][t] += (2.0 * kappa * l_bar[cells, cells]).reshape(ny, nx)

    # advection: branch on the upwind side actually used
    for name, vel_field, plus, minus, has_p, has_m, step in (
            ("m_u", theta.m_u, nb.xp, nb.xm, nb.has_xp, nb.has_xm, grid.dx),
            ("m_v", theta.m_v, nb.yp, nb.ym, nb.has_yp, nb.has_ym, grid.dy)):
        vel = vel_field.values[t].ravel()
        g = np.zeros(m)
        pos = (vel >= 0) & has_p
        neg = (vel < 0) & has_m
        g[pos] = (l_bar[cells[pos], cells[pos]]
                  - l_bar[cells[pos], plus[pos]]) / step
        g[neg] = (-l_bar[cells[neg], cells[neg]]
                  + l_bar[cells[neg], minus[neg]]) / step
        grads[name][t] += g.reshape(ny, nx)

    # axis diffusion: each interior face feels both adjacent cells at 1/2
    idx = cells.reshape(ny, nx)
    lo, hi = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    face = (l_bar[lo, lo] + l_bar[hi, hi] - l_bar[lo, hi] - l_bar[hi, lo]) \
        / (2.0 * grid.dx**2)
    acc = np.zeros((ny, nx))
    acc[:, :-1] += face.reshape(ny, nx - 1)
    acc[:, 1:] += face.reshape(ny, nx - 1)
    grads["h11"][t] += acc
    lo, hi = idx[:-1, :].ravel(), idx[1:, :].ravel()
    face = (l_bar[lo, lo] + l_bar[hi, hi] - l_bar[lo, hi] - l_bar[hi, lo]) \
        / (2.0 * grid.dy**2)
    acc = np.zeros((ny, nx))
    acc[:-1, :] += face.reshape(ny - 1, nx)
    acc[1:, :] += face.reshape(ny - 1, nx)
    grads["h22"][t] += acc

    # mixed term: the cross stencil of cell c reads l_bar at 2x2 offsets
    c = 1.0 / (4.0 * grid.dx * grid.dy)
    term1 = (l_bar[nb.xp, nb.yp] - l_bar[nb.xp, nb.ym]
             - l_bar[nb.xm, nb.yp] + l_bar[nb.xm, nb.ym])
    term2 = (l_bar[nb.yp, nb.xp] - l_bar[nb.ym, nb.xp]
             - l_bar[nb.yp, nb.xm] + l_bar[nb.ym, nb.xm])
    grads["h12"][t] += (c * (term1 + term2)).reshape(ny, nx)


def central_difference_gradient(xs, theta, p0_opts, stationary=False,
                                step_scale=1e-5):
    """Central differences of the mean nll of the trajectories xs: along
    each cell of each field (a dict of (nt, ny, nx) arrays), or with
    stationary along each whole field (7 values, the cell sums of the
    per-cell gradient). The step is step_scale (1 + the largest |value|
    moved)."""
    from spdekit import nll
    from spdekit.estimation import PARAM_NAMES

    arrays = theta.field_arrays()
    out = {}
    for name in PARAM_NAMES:
        field = arrays[name]
        grad = np.zeros(field.shape)
        for cells in ([slice(None)] if stationary else range(field.size)):
            h = step_scale * (1.0 + np.max(np.abs(field.flat[cells])))
            ends = []
            for shift in (h, -h):
                probe = field.copy()
                probe.flat[cells] += shift
                ends.append(nll(xs, theta.replace_fields(**{name: probe}),
                                **p0_opts))
            grad.flat[cells] = (ends[0] - ends[1]) / (2.0 * h)
        out[name] = grad
    if stationary:
        return np.array([out[name].flat[0] for name in PARAM_NAMES])
    return out


def operator_bar_reference(a_bar, theta, t) -> np.ndarray:
    """The dense d(loss)/dL_t of d(loss)/dA_t = a_bar for
    A_t = I + dt L_t^k, k = alpha/2: dt sum_{j<k} (L^j)^T a_bar
    (L^{k-1-j})^T, with powers of the dense assembled operator."""
    from spdekit import assemble_fdm_operator

    k = theta.alpha // 2
    lt = assemble_fdm_operator(theta, t).toarray().T
    return theta.grid.dt * sum(
        np.linalg.matrix_power(lt, j) @ a_bar
        @ np.linalg.matrix_power(lt, k - 1 - j) for j in range(k))


def block_precision_reference(transitions, ic, dt, add=None
                              ) -> sparse.csr_array:
    """Q assembled block by block from the D_t / U_t formulas and glued
    with one bmat, plus the observation information ``add`` (flat, dim)
    on the diagonal when given."""
    m = ic.m
    if ic.mode == "white":
        diag = [sparse.identity(m, format="csr") / ic.sigma0**2]
    else:
        diag = [sparse.csr_array(ic.prec)]
    upper = []
    for step in transitions:
        w = 1.0 / (dt * step.noise_scale)**2
        a = step.a_solve
        wa = sparse.csr_array(sparse.diags_array(w) @ a)
        s_inv = sparse.csr_array(a.T @ wa)
        s_inv.sum_duplicates(); s_inv.sort_indices(); s_inv.eliminate_zeros()
        block = sparse.csr_array(diag[-1] + sparse.diags_array(w))
        block.sort_indices()
        diag[-1] = block
        diag.append(s_inv)
        upper.append(-wa)
    nt = len(diag)
    if add is not None:
        add = np.asarray(add).reshape(nt, m)
        for t in range(nt):
            if np.any(add[t]):
                block = sparse.csr_array(diag[t] + sparse.diags_array(add[t]))
                block.sort_indices()
                diag[t] = block
    blocks = [[None] * nt for _ in range(nt)]
    for t in range(nt):
        blocks[t][t] = diag[t]
    for t in range(nt - 1):
        blocks[t][t + 1] = upper[t]
        blocks[t + 1][t] = upper[t].T
    return sparse.csr_array(sparse.bmat(blocks, format="csr"))


def dense_q_from_blocks(q) -> np.ndarray:
    return q.to_csr().toarray()


def dense_posterior_cov(q, obs) -> np.ndarray:
    """Dense inverse of the posterior precision (small grids only)."""
    qd = dense_q_from_blocks(q)
    add = np.zeros(qd.shape[0])
    add[obs.indices] = 1.0 / obs.noise_var
    return np.linalg.inv(qd + np.diag(add))


def posterior_moments(x_star, obs, q) -> tuple:
    """(diag, cross): the posterior second moments E[x_t x_t^T] and
    E[x_{t-1} x_t^T] about the mean x_star, from the dense posterior
    covariance, as cholesky_adjoint_moments_gradient takes them."""
    g = q.grid
    cov = dense_posterior_cov(q, obs).reshape(g.nt, g.m, g.nt, g.m)
    mean = x_star.states
    diag = [cov[t, :, t] + np.outer(mean[t], mean[t]) for t in range(g.nt)]
    cross = [cov[t - 1, :, t] + np.outer(mean[t - 1], mean[t])
             for t in range(1, g.nt)]
    return diag, cross


def cholesky_adjoint_trace_gradient(xs, theta, p0_opts) -> dict:
    """cholesky_adjoint_moments_gradient fed the empirical moments of the
    sample trajectories xs: the means of x_t x_t^T and x_{t-1} x_t^T."""
    states = np.stack([x.states for x in xs])          # (n, nt, m)
    n = states.shape[0]
    diag = np.einsum("kti,ktj->tij", states, states) / n
    cross = np.einsum("kti,ktj->tij", states[:, :-1], states[:, 1:]) / n
    return cholesky_adjoint_moments_gradient(diag, cross, theta, p0_opts)


def cholesky_adjoint_moments_gradient(diag, cross, theta, p0_opts) -> dict:
    """Trace gradient from second moments diag[t] = E[x_t x_t^T] and
    cross[t-1] = E[x_{t-1} x_t^T], with the step log-determinant
    differentiated through the per-step Cholesky factors of S_t^{-1}
    (``cholesky_backward``) and the quadratic term through the dense m x m
    moments.

    This is the algorithm the library used before the closed-form step
    log-determinant; the x_0 marginal and its adjoint come from the SuperLU
    burn-in oracles below, d/dL_t from operator_bar_reference and the
    operator scatter from operator_adjoint_reference, so it shares no
    adjoint code with the library's trace gradient.
    """
    from scipy import sparse

    from spdekit.estimation import PARAM_NAMES
    from spdekit.linalg import cholesky_backward, sparse_cholesky
    from spdekit.state_space import build_transition

    grid = theta.grid
    dt, m = grid.dt, grid.m
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
        operator_adjoint_reference(operator_bar_reference(a_bar, theta, t),
                                   theta, t, grads)
    if p0_opts["p0_mode"] == "burnin":
        burnin_adjoint_oracle(diag[0], theta, transitions[0],
                              p0_opts["burn_in"], grads)
    return grads


def _burnin_covariances(step, lu, dt, burn_in) -> list:
    """P_0 = I, ..., P_B of the burn-in recursion, each step two solves
    with m right-hand sides against the SuperLU factor lu of A_1:
    P_k = M (P_{k-1} + diag(d)) M^T."""
    m = step.a_solve.shape[0]
    noise_var = (dt * step.noise_scale)**2
    covs = [np.eye(m)]
    for _ in range(burn_in):
        y = lu.solve(covs[-1] + np.diag(noise_var))
        p_next = lu.solve(np.ascontiguousarray(y.T)).T
        covs.append(0.5 * (p_next + p_next.T))
    return covs


def burnin_marginal_oracle(theta, burn_in) -> tuple:
    """(cov, prec, logdet_prec) of the burn-in x_0 marginal, from the
    SuperLU recursion, a dense inverse and slogdet."""
    from spdekit.state_space import build_transition

    step = build_transition(theta, theta.grid)[0]
    lu = splu(step.a_solve.tocsc())
    cov = _burnin_covariances(step, lu, theta.grid.dt, burn_in)[-1]
    prec = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return cov, 0.5 * (prec + prec.T), -logdet


def burnin_adjoint_oracle(second_moment_0, theta, step, burn_in,
                          grads) -> None:
    """Adds the burn-in marginal's share of the mean-nll gradient to grads,
    applying M = A_1^{-1} and M^T only through SuperLU solves against
    its own factor of A_1."""
    grid = theta.grid
    dt = grid.dt
    tau1 = step.noise_scale
    noise_var = (dt * tau1)**2
    lu = splu(step.a_solve.tocsc())

    def solve(v):                                     # M v
        return lu.solve(np.ascontiguousarray(v))

    def solve_t(v):                                   # M^T v
        return lu.solve(np.ascontiguousarray(v), trans="T")

    covs = _burnin_covariances(step, lu, dt, burn_in)
    w_mat = np.linalg.inv(covs[-1])
    p_bar = 0.5 * (w_mat - w_mat @ second_moment_0 @ w_mat)
    m_bar = np.zeros((grid.m, grid.m))
    tau_bar = np.zeros(grid.m)
    for k in range(burn_in, 0, -1):
        mx = solve(covs[k - 1] + np.diag(noise_var))
        m_bar += 2.0 * p_bar @ mx
        x_bar = solve_t(solve_t(p_bar).T).T           # M^T pbar M
        tau_bar += np.diag(x_bar) * 2.0 * dt**2 * tau1
        p_bar = 0.5 * (x_bar + x_bar.T)
    a_bar = -solve_t(solve(m_bar.T).T)                # -M^T m_bar M^T
    grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    operator_adjoint_reference(operator_bar_reference(a_bar, theta, step.t),
                               theta, step.t, grads)


# --- per-member ensemble reference ------------------------------------------
#
# The sampler as it ran before members were drawn and solved in blocks: one
# member at a time, every draw keyed by (base_seed, member, stream, step),
# and one PosteriorSolver.solve per conditional member.

_STREAM_INIT, _STREAM_STEP, _STREAM_OBS = 0, 1, 2


def _keyed_normal(base_seed, member, stream, step, size) -> np.ndarray:
    rng = np.random.default_rng((base_seed, member, stream, step))
    return rng.standard_normal(size)


def draw_member_reference(transitions, grid, ic, base_seed,
                          member_id) -> np.ndarray:
    """One prior member, (nt, m), drawn on its own."""
    m, dt = grid.m, grid.dt
    x = _keyed_normal(base_seed, member_id, _STREAM_INIT, 0, m)
    if ic.mode == "white":
        x = ic.sigma0 * x
    else:
        step = transitions[0]
        for k in range(1, ic.burn_in + 1):
            z = _keyed_normal(base_seed, member_id, _STREAM_INIT, k, m)
            x = step.propagate(x + dt * step.noise_scale * z)
    states = [x]
    for step in transitions:
        z = _keyed_normal(base_seed, member_id, _STREAM_STEP, step.t, m)
        states.append(step.propagate(states[-1] + dt * step.noise_scale * z))
    return np.stack(states)


def sample_prior_reference(theta, n_members, base_seed, p0_mode,
                           sigma0=1.0, burn_in=20) -> list:
    """sample_prior's members, (nt, m) each, one member at a time."""
    from spdekit.state_space import InitialCondition, build_transition

    grid = theta.grid
    transitions = build_transition(theta, grid)
    ic = InitialCondition(mode=p0_mode, sigma0=sigma0, burn_in=burn_in,
                          m=grid.m)
    return [draw_member_reference(transitions, grid, ic, base_seed, i)
            for i in range(n_members)]


def conditional_sample_reference(x_star, post, n_members,
                                 base_seed) -> list:
    """conditional_sample's members, (nt, m) each: a keyed prior draw,
    pseudo-observations with keyed N(0, R) noise, and one solve each."""
    prior, obs = post.prior, post.obs
    idx = obs.indices
    members = []
    for i in range(n_members):
        x_s = draw_member_reference(prior.transitions, x_star.grid, prior.ic,
                                    base_seed, i)
        pseudo = x_s.reshape(-1)[idx]
        if idx.size:
            z = _keyed_normal(base_seed, i, _STREAM_OBS, 0, idx.size)
            pseudo = pseudo + np.sqrt(obs.noise_var) * z
        members.append(x_star.states + x_s - post.solve(pseudo).states)
    return members
