"""Watch the third-moment fixed point collapse onto a vertex.

With the exact gradient the update squares the coordinates of the iterate
in the simplex frame every step, so whichever coordinate starts largest
takes over doubly exponentially, and the run stops once a step falls to
1e-9.  With gradients estimated from one fixed block the map is still
deterministic, and the trajectory converges to the block's own fixed
point, which lies off the vertex by the block's sampling error; a run
over a sample stops once its step is at most 1e-2.  The sampled run is
one ``find_vertex`` run over the block's rows, which goes coarse to fine
as the learner and ICA do on a large block: its first steps read only
the first eighth of the block, until a step of at most 1e-2, which is
enough to reach the vertex's basin, and from there the last steps read
every row, to the same stop.  Both traces are printed side by side, each up to the step where it
stopped, with the rows each sampled step read.  Both runs start from one
unit Gaussian column drawn from seed 3, a one-column frame, so every
trace row and result holds one column, printed as column 0.
"""

import itertools

import numpy as np

from simplexlearn import (
    empirical_m3_grad,
    exact_grad_m3,
    find_vertex,
    sample_standard_simplex,
    substream,
)

n = 4
cap = 12
start = substream(3, 23).standard_normal((n, 1))
start /= np.linalg.norm(start)
# one block of 80k points of the standard simplex in R^n serves every
# step, as in the learner; its first 10k rows are above the prefix floor
block = sample_standard_simplex(n, 80_000, 5)


def sampled_gradient(u, rows):
    """The gradient over the block's first ``rows`` rows."""
    return empirical_m3_grad(block[:rows], u)


exact = find_vertex(exact_grad_m3, start, cap)
# one run over the block's rows, as the learner's: the loop picks the rows
sampled = find_vertex(sampled_gradient, start, cap, len(block))

print(f"{'iter':>4}  {'exact step':>12}  {'rows':>6}  {'sampled step':>12}")
for i, (row_e, row_s) in enumerate(itertools.zip_longest(exact.trace, sampled.trace)):
    exact_step = f"{row_e['step'][0]:>12.3e}" if row_e else " " * 12
    sampled_step = f"{row_s['rows']:>6}  {row_s['step'][0]:>12.3e}" if row_s else ""
    print(f"{i:>4}  {exact_step}  {sampled_step}")

print(f"\nexact run stopped after step {exact.iterations_run} of {cap} (converged: {exact.converged[0]})")
print(f"exact run final iterate {np.round(exact.u[:, 0], 6)}")
whole = sampled.iterations_run - sampled.prefix_steps
print(
    f"sampled run: {sampled.prefix_steps} steps on the first {sampled.trace[0]['rows']} rows, then "
    f"{whole} on all {len(block)}, of {cap} (converged: {sampled.converged[0]})"
)
best = np.abs(sampled.u[:, 0]).argmax()
print(f"sampled run locked onto coordinate {best}; final iterate {np.round(sampled.u[:, 0], 3)}")
