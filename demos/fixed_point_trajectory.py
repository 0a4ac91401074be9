"""Watch the third-moment fixed point collapse onto a vertex.

With the exact gradient the update squares the coordinates of the iterate
in the simplex frame every step, so whichever coordinate starts largest
takes over doubly exponentially, and the run stops once a step falls to
1e-9.  With estimated gradients the same trajectory flattens out at the
sampling noise floor instead of converging: the two halves of the block
estimate the noise the sample puts on a step, and the run stops once its
step is at most twice that noise.  Both traces are printed side by side,
each up to the step where it stopped.  Both runs start from one unit
Gaussian column drawn from seed 3, a one-column frame, so every trace
row and result holds one column, printed as column 0.
"""

import itertools

import numpy as np

from simplexlearn import (
    empirical_m3_grad,
    exact_grad_m3,
    find_vertex,
    simplex_source,
    standard_simplex,
    substream,
)

n = 4
cap = 12
start = substream(3, 23).standard_normal((n, 1))
start /= np.linalg.norm(start)
# one block of 20k points serves every step, as in the learner: the
# gradient is the mean of its two halves' gradients, and half their
# difference its error
block = simplex_source(standard_simplex(n - 1), 5)(20_000)


def sampled_gradient(u):
    first, second = empirical_m3_grad(block[:10_000], u), empirical_m3_grad(block[10_000:], u)
    return (first + second) / 2, (first - second) / 2


exact = find_vertex(exact_grad_m3, start, cap)
sampled = find_vertex(sampled_gradient, start, cap)

print(f"{'iter':>4}  {'exact step':>12}  {'sampled step':>12}  {'noise':>12}")
for i, (row_e, row_s) in enumerate(itertools.zip_longest(exact.trace, sampled.trace)):
    exact_step = f"{row_e['step'][0]:>12.3e}" if row_e else " " * 12
    sampled_step = f"{row_s['step'][0]:>12.3e}  {row_s['noise'][0]:>12.3e}" if row_s else ""
    print(f"{i:>4}  {exact_step}  {sampled_step}")

print(f"\nexact run stopped after step {exact.iterations_run} of {cap} (converged: {exact.converged[0]})")
print(f"exact run final iterate {np.round(exact.u[:, 0], 6)}")
best = np.abs(sampled.u[:, 0]).argmax()
print(f"sampled run stopped after step {sampled.iterations_run} of {cap} (at its noise floor: {sampled.converged[0]})")
print(f"sampled run locked onto coordinate {best}; final iterate {np.round(sampled.u[:, 0], 3)}")
