"""Learn a hidden simplex from nothing but uniform samples.

We synthesize a rotated, shifted simplex in R^3, hand the learner one
block of uniform points from it, and score the recovered vertex set
against the truth it never saw.  Finishes in a few seconds.
"""

import numpy as np

from simplexlearn import (
    LearnerConfig,
    Simplex,
    isotropic_simplex,
    learn_simplex,
    match_vertices,
    simplex_source,
    substream,
    tv_distance_mc,
)

n = 3
rng = substream(12, 97)
q, r = np.linalg.qr(rng.standard_normal((n, n)))
truth = Simplex(isotropic_simplex(n).vertices @ (q * np.sign(np.diag(r))).T + rng.standard_normal(n))
print(f"hidden simplex: {n + 1} vertices in R^{n}, circumradius {truth.circumscribed_radius():.3f}")

points = simplex_source(truth, 1)(100_000)
config = LearnerConfig(seed=0)
print(f"budget: one block of {len(points)} points for the frame and every step, {n + 1} starts, at most {config.r} steps")

learned = learn_simplex(points, config)

match = match_vertices(truth, learned.simplex)
tv = tv_distance_mc(truth, learned.simplex, 100_000, rng=2)
fit = learned.fit
print(f"found {len(learned.simplex.vertices)} vertices in {fit.iterations_run} steps, {fit.prefix_steps} of them on the first {len(points) // 8} rows")
print(f"every vertex's last step at most 1e-2: {fit.converged.tolist()}")
for i, err in enumerate(match.per_vertex_error):
    print(f"  vertex {i}: matched with error {err:.4f}")
print(f"max vertex error {match.max_error:.4f}, estimated TV {tv.value:.4f} (+- {tv.std_error:.4f})")
