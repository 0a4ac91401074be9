"""Watch the third-moment fixed point collapse onto a vertex.

With the exact gradient the update squares the coordinates of the iterate
in the simplex frame every step, so whichever coordinate starts largest
takes over doubly exponentially.  With estimated gradients the same
trajectory flattens out at the sampling noise floor instead of
converging; both traces are printed side by side.
"""

import numpy as np

from simplexlearn import (
    IterationConfig,
    empirical_m3_grad,
    exact_grad_m3,
    find_vertex,
    simplex_source,
    standard_simplex,
)

n = 4
config = IterationConfig(iterations=12, seed=3, record_trace=True)
source = simplex_source(standard_simplex(n - 1), 5)

exact = find_vertex(exact_grad_m3, n, config)
# a fresh block of 20k points per iteration
sampled = find_vertex(lambda u: empirical_m3_grad(source(20_000), u), n, config)

print(f"{'iter':>4}  {'exact step':>12}  {'sampled step':>12}")
for row_e, row_s in zip(exact.trace, sampled.trace):
    print(f"{row_e['iteration']:>4}  {row_e['step']:>12.3e}  {row_s['step']:>12.3e}")

print(f"\nexact run converged: {exact.converged}; final iterate {np.round(exact.u, 6)}")
best = np.abs(sampled.u).argmax()
print(f"sampled run locked onto coordinate {best}; final iterate {np.round(sampled.u, 3)}")
