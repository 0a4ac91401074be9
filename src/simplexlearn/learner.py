"""End-to-end simplex learning from uniform samples.

The pipeline: take one block of points, estimate an affine frame (mean
and covariance factor) from it, move the data into that frame where the
hidden simplex is nearly isotropic, embed it onto the hyperplane
{y . 1 = 1} where it becomes a nearly standard simplex rotated about the
all-ones direction (both maps compose into one, built once per run), and
run the third-moment fixed point on one orthonormal frame of n+1 random
starts, so that each column ends on its own vertex.  The steps, one
run of the fixed point, go coarse to fine: on a large block the first
ones read only its first t // 8 rows, up to a step of 1e-2, which
carries the frame into the basin of the block's fixed point, and the
last ones read the whole block, up to a step of 1e-2 again, which lands
on that fixed point; r steps cap both together, and the prefix at most
r // 2.  Each column is mapped back through the embedding, whose inverse
ignores the all-ones direction, and the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evaluation import hoeffding_sample_size, tv_distance_mc
from .geometry import AffineFrame, EmbedMap, Simplex, make_embed_map
from .moments import DegenerateSampleError, _power_moment, _sample, _sample_frame
from .sampling import _check_count, _check_seed, child_seed, substream
from .vertex_finder import MAX_STEPS, VertexResult, find_vertex

__all__ = [
    "BoostFailureError",
    "LearnedSimplex",
    "BoostResult",
    "estimate_frame",
    "embedded_m3_grad",
    "learn_simplex",
    "boost",
]


class BoostFailureError(RuntimeError):
    """No boosted run had enough nearby neighbors to be selected."""


def estimate_frame(points: np.ndarray) -> AffineFrame:
    """Mean and symmetric square root of the biased (1/t) covariance of a
    (t, d) point block, from ``moments._sample_frame``, like ICA's whitening.
    Raises ValueError naming any other shape or when a point or the
    covariance is not finite, and DegenerateSampleError when the covariance
    is singular (fewer than d+1 points, or points on a lower-dimensional flat)."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"points must form a (t, d) array, got shape {x.shape}")
    return _sample_frame(x)[0]


def embedded_m3_grad(frame: AffineFrame, emb: EmbedMap, block: np.ndarray) -> Callable[..., np.ndarray]:
    """(u, stop) -> ``empirical_m3_grad(emb.forward(frame.forward(block[:stop])), u)``
    without building the embedded block; the first ``stop`` rows, all of
    them by default.

    Both maps compose into y = x L + b, with L = scale factor^-T basis^T and
    b = offset - mean L solved once here, and the gradient is
    3 E[y (y u)^2], one moment pass over the raw block (see
    ``moments._power_moment``).  u is (n+1,) or a frame (n+1, k).
    """
    linear = emb.scale * np.linalg.solve(frame.factor.T, emb.basis.T)
    shift = emb.offset - frame.mean @ linear

    def gradient(u: np.ndarray, stop: int | None = None) -> np.ndarray:
        return 3.0 * _power_moment(block, linear, shift, u.reshape(u.shape[0], -1), 2, stop).reshape(u.shape)

    return gradient


@dataclass
class LearnedSimplex:
    """Result of :func:`learn_simplex`.

    simplex has the n+1 found vertices, one per start of the frame, as
    the rows of simplex.vertices.  fit is the fixed point's own record
    (:class:`~simplexlearn.vertex_finder.VertexResult`): the final frame
    u, whose column k maps back to vertex k; one converged flag per
    vertex; iterations_run, the step where the stop fired on the whole
    block, or the cap r; and prefix_steps, those of them that read only
    the block's prefix.
    """

    simplex: Simplex
    fit: VertexResult


def learn_simplex(points: np.ndarray, r: int = MAX_STEPS, seed: int = 0) -> LearnedSimplex:
    """Learn an n-dimensional simplex from t uniform samples.

    Args:
        points: a finite (t, n) array of iid uniform points from the
            unknown simplex in R^n, t >= n+2 (see ``moments._sample``).
            The frame and every fixed-point step read this one block, the
            first steps on a large block only its first
            t // PREFIX_DIVISOR rows; n is read from its width.
        r: cap on the fixed-point steps of the frame, the loop's
            MAX_STEPS by default, prefix and whole-block steps together.
            The whole-block steps stop at the first step that moves every
            column by at most STEP_TOL = 1e-2 (see
            :func:`~simplexlearn.vertex_finder.find_vertex`); at most
            r // 2 steps read only the prefix, so the last step reads the
            whole block, and r = 1 is one whole-block step.
        seed: master seed; start k begins from child_seed(seed, 41, k).

    Returns:
        LearnedSimplex.  The n+1 starts (start k a unit Gaussian from
        substream(child_seed(seed, 41, k), 23)) run as one frame: every
        fixed-point step serves all columns and orthonormalizes them
        symmetrically, so the columns end on distinct vertices and no
        start is spent twice on one.  The frame extends the paper's
        procedure and is not that procedure: the paper runs independent
        starts until every vertex has been hit.  The frame is the tensor
        power method of Anandkumar, Ge, Hsu, Kakade and Telgarsky (JMLR
        2014) with the symmetric decorrelation of FastICA (Hyvarinen,
        IEEE TNN 1999).  Nor are its points the
        paper's: the paper draws an independent block for the frame and
        for every step, which its analysis needs, while here the frame and
        every step share one block (the prefix steps read its first rows),
        and the block is then exactly isotropic in its own frame, as
        FastICA whitens once and iterates on one sample.
        The steps are one ``find_vertex`` run over the t-row block,
        coarse to fine: when t // PREFIX_DIVISOR >= PREFIX_MIN_ROWS, they
        read that prefix of the block until a step of at most STEP_TOL
        or r // 2 steps, and then the whole block until a step of at most
        STEP_TOL, with r steps in all as the cap; fit is the run's record,
        with a converged flag per vertex.

    Raises:
        ValueError, naming the argument, unless r is an integer >= 1 and
        seed one >= 0, both checked before the sample is read; ValueError,
        naming the shape, when points is not a 2-D array with at least one
        column and at least two more rows than columns, and
        ValueError ("points and their covariance must be finite") for a
        NaN or infinite point, which the frame's one pass reads off the
        mean and covariance; DegenerateSampleError for points on a flat.
    """
    r, seed = _check_count(r, "r"), _check_seed(seed)
    block = _sample(points, "n", 2)
    t, n = block.shape

    frame = estimate_frame(block)
    emb = make_embed_map(n)
    starts = [substream(child_seed(seed, 41, k), 23).standard_normal(n + 1) for k in range(n + 1)]
    start = np.column_stack([u / np.linalg.norm(u) for u in starts])
    fit = find_vertex(embedded_m3_grad(frame, emb, block), start, r, t)
    return LearnedSimplex(Simplex(frame.inverse(emb.inverse(fit.u.T))), fit)


@dataclass
class BoostResult:
    """Consensus pick across repeated learning runs."""

    simplex: Simplex
    index: int
    neighbor_count: int
    threshold: float
    pairwise: np.ndarray


def boost(
    learn_runs: list[Simplex],
    eps_prime: float,
    tv_estimator: Callable[[Simplex, Simplex], float] | None = None,
    seed: int = 0,
) -> BoostResult:
    """Pick one run from many by pairwise total-variation consensus.

    If at least 2/3 of the runs are within eps_prime of the truth, some run
    has at least floor(2t/3) of all runs (itself included) within estimated
    distance (2 + 1/10) eps_prime, and any such run is within
    (3 + 2/10) eps_prime of the truth.  The first qualifying run is
    returned; BoostFailureError is raised when none qualifies.

    Args:
        learn_runs: at least 3 learned simplices.
        eps_prime: target accuracy of the individual runs.
        tv_estimator: pairwise distance estimate; defaults to Monte Carlo
            TV with a Hoeffding sample size for additive error eps_prime/10
            at confidence 0.95, every pair drawn from the integer seed
            child_seed(seed, 53).
        seed: seed for the default estimator, an integer >= 0, checked
            first whichever estimator runs (ValueError naming it).
    """
    seed = _check_seed(seed)
    t = len(learn_runs)
    if t < 3:
        raise ValueError("boosting needs at least 3 runs")
    if not 0 < eps_prime < math.inf:
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime!r}")
    if tv_estimator is None:
        mc = hoeffding_sample_size(eps_prime / 10.0, 0.05)

        def tv_estimator(a: Simplex, b: Simplex, _mc=mc) -> float:
            return tv_distance_mc(a, b, _mc, seed=child_seed(seed, 53)).value

    pairwise = np.zeros((t, t))
    for i in range(t):
        for j in range(i + 1, t):
            pairwise[i, j] = pairwise[j, i] = tv_estimator(learn_runs[i], learn_runs[j])

    threshold = (2.0 + 0.1) * eps_prime
    needed = (2 * t) // 3
    counts = (pairwise <= threshold).sum(axis=1)  # diagonal counts the run itself
    for i in range(t):
        if counts[i] >= needed:
            return BoostResult(
                simplex=learn_runs[i],
                index=i,
                neighbor_count=int(counts[i]),
                threshold=threshold,
                pairwise=pairwise,
            )
    raise BoostFailureError(f"no run had {needed} of {t} runs within {threshold:.4g}")
