"""The search-direction engine: convex QP over the probability simplex.

Every step of both solvers reduces to

    min  0.5 * || sum_j lam_j g_j ||^2 + penalty * sum_j lam_j e_j
    s.t. lam on the simplex,

where g_j are sampled gradients (plus an aggregated one) and e_j their
linearization errors.  With zero errors this is the classical minimum-norm
point of the convex hull of the g_j.
"""

import numpy as np

from bundlegs import SimplexQpInstance, min_norm_point, solve_simplex_qp

# minimum-norm point: the hull of these three gradients contains the origin
grads = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.1]])
sol = solve_simplex_qp(SimplexQpInstance(grads, np.zeros(3), 1.0))
print("min-norm point of a hull containing 0:")
print(f"  lambda = {np.round(sol.lam, 6)},  ||g~|| = {np.linalg.norm(sol.g_tilde):.2e}")

# the gradient-sampling baseline's own kernel for the zero-error hull: every
# violating gradient enters at once; only the hull point is meant to match
rng = np.random.default_rng(0)
hull = rng.standard_normal((101, 50)) + 0.3
a = solve_simplex_qp(SimplexQpInstance(hull, np.zeros(101), 1.0))
b = min_norm_point(hull)
print("\n101 gradients in n=50:")
print(f"  solve_simplex_qp: ||g~|| = {np.linalg.norm(a.g_tilde):.12f} in {a.iterations} pivots")
print(f"  min_norm_point:   ||g~|| = {np.linalg.norm(b.g_tilde):.12f} in {b.iterations} pivots")

# errors tilt the combination toward cheap atoms
inst = SimplexQpInstance(np.array([[3.0, 0.0], [0.0, 1.0]]), [0.0, 0.4], 2.0)
sol = solve_simplex_qp(inst)
print("\nwith weighted atoms (penalty 2.0, errors [0, 0.4]):")
print(f"  lambda = {np.round(sol.lam, 6)}")
print(f"  g~ = {np.round(sol.g_tilde, 6)},  e~ = {sol.e_tilde:.4f},  w = {sol.w:.6f}")
print(f"  KKT residual = {sol.kkt_residual:.2e} in {sol.iterations} pivots")

print("\nplain-text dump for offline inspection:")
print(inst.to_text())
