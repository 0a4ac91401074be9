"""Learn a hidden simplex from nothing but uniform samples.

We take the command line's seeded hidden simplex in R^3 (a rotated,
shifted regular simplex) with one block of uniform points from it, hand
the learner the points, and score the recovered vertex set against the
truth it never saw.  Finishes in a few seconds.
"""

from simplexlearn import MAX_STEPS, hidden_instance, learn_simplex, match_vertices, tv_distance_mc

n = 3
truth, points = hidden_instance("learn", n, 100_000, 12)
print(f"hidden simplex: {n + 1} vertices in R^{n}, circumradius {truth.circumscribed_radius():.3f}")

print(f"budget: one block of {len(points)} points for the frame and every step, {n + 1} starts, at most {MAX_STEPS} steps")

learned = learn_simplex(points, r=MAX_STEPS, seed=0)

match = match_vertices(truth, learned.simplex)
tv = tv_distance_mc(truth, learned.simplex, 100_000, rng=2)
fit = learned.fit
print(f"found {len(learned.simplex.vertices)} vertices in {fit.iterations_run} steps, {fit.prefix_steps} of them on the first {len(points) // 8} rows")
print(f"every vertex's last step at most 1e-2: {fit.converged.tolist()}")
for i, err in enumerate(match.per_vertex_error):
    print(f"  vertex {i}: matched with error {err:.4f}")
print(f"max vertex error {match.max_error:.4f}, estimated TV {tv.value:.4f} (+- {tv.std_error:.4f})")
