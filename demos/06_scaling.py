"""Scaling of the interpolation paths with problem size.

Runs the benchmark ladder and prints the report. The dense covariance
path is cubic in the trajectory dimension and is skipped automatically
above its guard; the sparse direct path factors a banded matrix whose
half-bandwidth is the narrower of a time-major order's, about one
spatial slab (m + nx + 1), and a row-time order's, 2 (nt min(nx, ny) + 1),
which wins from 24 cells a side at nt = 10; conjugate gradients with the
per-step block preconditioner stay at a flat iteration count.
"""

from spdekit import benchmark

rows = benchmark(sizes=(8, 12, 16, 24), nt=10, obs_density=0.2,
                 methods=("dense", "direct_sparse", "pcg"), seed=0,
                 p0_mode="white")

print(f"{'dim':>6} {'method':>14} {'wall(s)':>9} {'nnz(Q)':>9} "
      f"{'resid':>9} {'iters':>6} {'vs direct':>10}")
for r in rows:
    print(f"{r.dim:>6d} {r.method:>14} {r.wall_time:>9.3f} {r.nnz:>9d} "
          f"{r.residual:>9.1e} {r.iterations:>6d} "
          f"{r.max_diff_vs_direct:>10.1e}")

dense = {r.dim: r.wall_time for r in rows if r.method == "dense"}
sparse_t = {r.dim: r.wall_time for r in rows if r.method == "direct_sparse"}
common = sorted(set(dense) & set(sparse_t))
if len(common) >= 2:
    print("\ndense/sparse time ratio by dimension "
          "(grows with size, reported not asserted):")
    for dim in common:
        print(f"  dim {dim:>5d}: {dense[dim] / max(sparse_t[dim], 1e-9):8.1f}x")
