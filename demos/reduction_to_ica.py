"""Turn simplex and lp-ball learning into ICA problems.

Uniform samples from a simplex, lifted by a constant coordinate and
rescaled with Gamma radii, become linear mixtures of independent
exponentials; uniform samples from a mapped lp ball become mixtures of
independent exp(-|t|^p) sources.  A fixed-point ICA routine then reads
the hidden geometry straight out of the mixing matrix, with the skew
contrast for the skewed exponentials and kurtosis for the symmetric
lp sources.
"""

import numpy as np

from simplexlearn import (
    Simplex,
    lp_symmetric_difference,
    match_vertices,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
    sample_lp_ball,
    sample_simplex,
    separation_index,
    substream,
)

# a triangle, recovered vertex by vertex
triangle = Simplex(substream(4, 500).standard_normal((3, 2)))
sample = sample_simplex(triangle, 200_000, 30)
reduction = reduce_simplex_to_ica(sample, seed=0)
match = match_vertices(triangle.vertices, reduction.vertices)
print("triangle vertices (true -> recovered):")
for i, j in enumerate(match.permutation):
    print(f"  {np.round(triangle.vertices[i], 3)} -> {np.round(reduction.vertices[j], 3)}")
print(f"max vertex error {match.max_error:.4f}; contrast {reduction.estimate.contrast}")


def print_sweeps(estimate, t):
    """The sweeps on the first t // 8 rows apart from those on all t, from
    the fixed point's own record."""
    fit = estimate.fit
    whole = fit.iterations_run - fit.prefix_steps
    print(f"{fit.prefix_steps} sweeps on the first {t // 8} rows, then {whole} on all {t}; converged {fit.converged.tolist()}")


print_sweeps(reduction.estimate, len(sample))

# a stretched cross-polytope, recovered as a linear map
a = np.diag([2.0, 1.0])
mapped = sample_lp_ball(2, 1.0, 200_000, 40) @ a.T
lp = reduce_lp_to_ica(mapped, 1.0, seed=0)
print("\nrecovered map for A = diag(2, 1) (up to signed permutation):")
print(np.round(lp.mixing, 3))
print(f"separation index of inv(A) @ recovered (0 for a signed permutation): {separation_index(np.linalg.inv(a) @ lp.mixing):.4f}")
print(f"symmetric-difference volume ratio: {lp_symmetric_difference(a, lp.mixing, 1.0, seed=1):.4f}")
print(f"contrast {lp.estimate.contrast}")
print_sweeps(lp.estimate, len(mapped))
