"""Learning high-dimensional simplices from uniform samples.

The package has three layers:

- geometry, sampling, moments: simplices and their affine/isometric
  embeddings, seeded samplers for simplices and lp balls with the
  Gamma rescalings that make their coordinates independent, and the
  closed-form third moment whose local maxima are the vertices;
- vertex_finder, learner: the third-moment fixed-point iteration and the
  full pipeline (frame estimation, embedding, vertex collection, boosting);
- ica, evaluation, diagnostics, cli: reductions of simplex and lp-ball
  learning to ICA, recovery scoring (total variation, vertex matching),
  statistical verification suites, and the experiment harness.
"""

from .evaluation import (
    MatchResult,
    SandwichReport,
    TVEstimate,
    check_sandwich_bound,
    coupon_trials_bound,
    hoeffding_sample_size,
    match_vertices,
    tv_distance_mc,
)
from .geometry import (
    AffineFrame,
    DegenerateSimplexError,
    EmbedMap,
    Simplex,
    barycentric_coordinates,
    contains,
    contains_points,
    isotropic_simplex,
    isotropic_vertex_norms,
    load_simplex,
    make_embed_map,
    save_simplex,
    simplex_from_json,
    simplex_to_json,
    standard_simplex,
)
from .ica import (
    LpReduction,
    MixingEstimate,
    SimplexReduction,
    align_signed_permutation,
    compute_c_pn,
    ica_estimate,
    lp_symmetric_difference,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
    separation_index,
    signed_permutation_deviation,
)
from .learner import (
    BoostFailureError,
    BoostResult,
    DegenerateSampleError,
    ExperimentReport,
    LearnedSimplex,
    LearnerConfig,
    boost,
    estimate_frame,
    learn_simplex,
)
from .moments import (
    PowerSums,
    certify_landscape,
    empirical_m3_grad,
    exact_grad_m3,
    exact_m3,
    power_sums,
    projected_p3_gradient,
    two_value_critical_point,
)
from .sampling import (
    GammaParams,
    SampleExhaustedError,
    array_source,
    generalized_gaussian_std,
    rescale_lp_sample,
    rescale_simplex_sample,
    sample_cone_measure,
    sample_gamma,
    sample_generalized_gaussian,
    sample_lp_ball,
    sample_simplex,
    sample_standard_simplex,
    simplex_source,
    substream,
)
from .vertex_finder import (
    IterationConfig,
    VertexResult,
    find_vertex,
    reconstruct_squares,
    save_trace,
    theoretical_parameters,
)
from .diagnostics import landscape_suite, run_suite, scaling_suite, tv_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Simplex",
    "AffineFrame",
    "EmbedMap",
    "DegenerateSimplexError",
    "standard_simplex",
    "isotropic_simplex",
    "isotropic_vertex_norms",
    "make_embed_map",
    "barycentric_coordinates",
    "contains",
    "contains_points",
    "simplex_to_json",
    "simplex_from_json",
    "save_simplex",
    "load_simplex",
    # sampling
    "GammaParams",
    "SampleExhaustedError",
    "substream",
    "sample_gamma",
    "sample_standard_simplex",
    "sample_simplex",
    "sample_generalized_gaussian",
    "generalized_gaussian_std",
    "sample_lp_ball",
    "sample_cone_measure",
    "rescale_simplex_sample",
    "rescale_lp_sample",
    "simplex_source",
    "array_source",
    # moments
    "PowerSums",
    "power_sums",
    "exact_m3",
    "exact_grad_m3",
    "empirical_m3_grad",
    "two_value_critical_point",
    "projected_p3_gradient",
    "certify_landscape",
    # vertex finder
    "IterationConfig",
    "VertexResult",
    "reconstruct_squares",
    "find_vertex",
    "save_trace",
    "theoretical_parameters",
    # learner
    "LearnerConfig",
    "ExperimentReport",
    "LearnedSimplex",
    "BoostResult",
    "DegenerateSampleError",
    "BoostFailureError",
    "estimate_frame",
    "learn_simplex",
    "boost",
    # ica
    "MixingEstimate",
    "SimplexReduction",
    "LpReduction",
    "ica_estimate",
    "reduce_simplex_to_ica",
    "reduce_lp_to_ica",
    "compute_c_pn",
    "separation_index",
    "align_signed_permutation",
    "signed_permutation_deviation",
    "lp_symmetric_difference",
    # evaluation
    "TVEstimate",
    "SandwichReport",
    "MatchResult",
    "tv_distance_mc",
    "check_sandwich_bound",
    "match_vertices",
    "coupon_trials_bound",
    "hoeffding_sample_size",
    # diagnostics
    "scaling_suite",
    "tv_suite",
    "landscape_suite",
    "run_suite",
]
