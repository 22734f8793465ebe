"""Recover stationary model parameters from simulated trajectories.

Classic twin setup: simulate a handful of trajectories from known
parameters, perturb the damping and noise scales by a factor of two, and
descend the exact likelihood gradient with each field's step tied (from
this flat start, 7 scalar degrees of freedom). Damping and noise both scale the marginal
variance, so the descent first fixes the overall level and then crawls
along the weakly identified ridge separating the two.
"""

from spdekit import ParamFields, SpaceTimeGrid, fit_params, sample_prior

grid = SpaceTimeGrid(nx=10, ny=10, nt=8)
true_kappa, true_tau = 0.5, 1.0
theta_true = ParamFields.stationary(grid, kappa=true_kappa, m=(0.15, 0.0),
                                    h=(0.8, 0.0, 0.8), tau=true_tau)
trajectories = sample_prior(theta_true, grid, n_members=12, base_seed=31,
                            p0_mode="white").members
print(f"simulated {len(trajectories)} trajectories on a "
      f"{grid.nx}x{grid.ny}x{grid.nt} grid")

theta0 = ParamFields.stationary(grid, kappa=2 * true_kappa, m=(0.15, 0.0),
                                h=(0.8, 0.0, 0.8), tau=2 * true_tau)
print(f"starting from kappa={2 * true_kappa}, tau={2 * true_tau} "
      f"(true {true_kappa}, {true_tau})")

history = []
fitted, curve = fit_params(
    trajectories, theta0, max_steps=150, stationary=True, p0_mode="white",
    step_kind="adam", step_params={"lr": 0.05},
    callback=lambda it, loss, th: history.append(
        (it, th.kappa.values[1, 0, 0], th.tau.values[1, 0, 0])))

for it, k, t in history[9::30] + [history[-1]]:
    print(f"  step {it:>3d}: kappa {k:.3f}  tau {t:.3f}")

kappa_hat = fitted.kappa.values[1, 0, 0]
tau_hat = fitted.tau.values[1, 0, 0]
print(f"recovered kappa {kappa_hat:.3f} "
      f"({abs(kappa_hat - true_kappa) / true_kappa:.1%} off), "
      f"tau {tau_hat:.3f} ({abs(tau_hat - true_tau) / true_tau:.1%} off)")
print(f"negative log-likelihood: {curve[0]:.1f} -> {min(curve):.1f}")
