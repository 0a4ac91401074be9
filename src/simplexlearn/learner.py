"""End-to-end simplex learning from uniform samples.

The pipeline: draw one block of points, estimate an affine frame (mean
and covariance factor) from it, move the data into that frame where the
hidden simplex is nearly isotropic, embed it onto the hyperplane
{y . 1 = 1} where it becomes a nearly standard simplex rotated about the
all-ones direction (both maps compose into one, built once per run), and
run the third-moment fixed point on one orthonormal frame of n+1 random
starts, every step on that same block, so that each column ends on its
own vertex.  The frame stops at the first step that is within its
sampling noise, which the two halves of the block estimate, or after r
steps.  Each column is projected exactly onto the hyperplane and mapped
back through the frame.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .evaluation import hoeffding_sample_size, tv_distance_mc
from .geometry import AffineFrame, EmbedMap, Simplex, make_embed_map
from .moments import _mean_and_covariance, _split_half_power_sums
from .sampling import child_seed, substream
from .vertex_finder import IterationConfig, find_vertex

__all__ = [
    "DegenerateSampleError",
    "BoostFailureError",
    "LearnerConfig",
    "ExperimentReport",
    "LearnedSimplex",
    "BoostResult",
    "estimate_frame",
    "embedded_m3_grad",
    "learn_simplex",
    "boost",
]

# the version of every report the command line writes
SCHEMA_VERSION = 9


class DegenerateSampleError(ValueError):
    """The sample covariance is singular, so no frame can be estimated."""


class BoostFailureError(RuntimeError):
    """No boosted run had enough nearby neighbors to be selected."""


def estimate_frame(points: np.ndarray) -> AffineFrame:
    """Mean and Cholesky covariance factor of a point block.

    The covariance uses the biased 1/t normalizer and comes from one pass
    over the block in cache-sized row blocks (the pass ICA whitening
    shares), with no centered copy of the block.  Raises
    DegenerateSampleError when the covariance is not positive definite
    (fewer than d+1 points, or points on a lower-dimensional flat).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t, d = pts.shape
    if t < d + 1:
        raise DegenerateSampleError(f"{t} points cannot determine a {d}-dimensional frame")
    mean, cov = _mean_and_covariance(pts)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSampleError("sample covariance is singular") from exc
    return AffineFrame(mean=mean, factor=factor)


def embedded_m3_grad(
    frame: AffineFrame, emb: EmbedMap
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(x, u) -> (``empirical_m3_grad(emb.forward(frame.forward(x)), u)``,
    its standard error) without building the embedded block.

    Both maps compose into y = x L + b, with L = scale factor^-T basis^T and
    b = offset - mean L solved once here.  With s = y u = x (L u) + b . u the
    gradient (3/t) y^T s^2 is (3/t) (L^T (x^T s^2) + b sum(s^2)): one
    blocked pass over the raw block gives x^T s^2 and sum(s^2) for each of
    its two halves, and s is never formed for more than one cache-sized
    row block.  The halves give gradients g_A and g_B at no extra cost; the
    gradient is their point-weighted mean and the standard error of each
    entry is estimated by |g_A - g_B| / 2 (the block needs two points).
    u is (n+1,) or a frame (n+1, k).
    """
    linear = emb.scale * np.linalg.solve(frame.factor.T, emb.basis.T)
    shift = emb.offset - frame.mean @ linear

    def gradient(x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        columns = u.reshape(u.shape[0], -1)
        moments, sums = _split_half_power_sums(x, linear @ columns, shift @ columns, 2)
        t, half = x.shape[0], x.shape[0] // 2
        g_a, g_b = (
            (3.0 / count) * (linear.T @ moments[part] + np.outer(shift, sums[part]))
            for part, count in enumerate((half, t - half))
        )
        return ((half * g_a + (t - half) * g_b) / t).reshape(u.shape), (0.5 * (g_a - g_b)).reshape(u.shape)

    return gradient


@dataclass(frozen=True)
class LearnerConfig:
    """Parameters for :func:`learn_simplex`.

    t1, t3: the two parts of the one block a run draws, t1 + t3 points
        in all; the frame and every fixed-point step use the whole block.
        t1 must be >= n+2 and t3 >= 2.
    r: cap on the fixed-point steps of the frame.  The frame stops at the
       first step where every column has reached its sampling noise floor
       (see :func:`~simplexlearn.vertex_finder.find_vertex`); the steps
       draw no points, so a run draws t1 + t3 points however many run.
    m: start budget.  The learner runs one frame of min(m, n+1) starts;
       None means n+1, and a budget below n+1 cuts the frame and returns
       an incomplete run.
    seed: master seed; start k begins from child_seed(seed, 41, k).
    """

    t1: int = 50_000
    t3: int = 50_000
    m: int | None = None
    r: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.t1 < 2 or self.t3 < 2:
            raise ValueError("t1 and t3 must be at least 2 (t1 >= n+2 is checked at run time)")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be >= 1 when given")


@dataclass
class ExperimentReport:
    """JSON-ready record of a learning run.

    per_vertex_match_error and tv_estimate need ground truth and are filled
    by harnesses that have it; the learner itself leaves them None.
    found_count counts the fixed-point starts, the columns of the frame,
    and the vertices they found; iterations_run counts the frame's steps,
    the step where the noise-floor stop fired or the cap r; points_drawn
    counts the one block, t1 + t3.  wall_time_ms is excluded from any
    byte-for-byte comparisons.
    """

    n: int
    config: dict
    found_count: int
    vertices: list
    per_vertex_match_error: list | None
    tv_estimate: float | None
    wall_time_ms: float
    seed: int
    points_drawn: int
    iterations_run: int
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LearnedSimplex:
    """Result of :func:`learn_simplex`; ``simplex`` is None when the start
    budget cut the frame below n+1 vertex directions (the run is
    incomplete, never padded)."""

    simplex: Simplex | None
    found_count: int
    directions: np.ndarray
    report: ExperimentReport

    @property
    def complete(self) -> bool:
        return self.simplex is not None


def learn_simplex(sample_source: Callable[[int], np.ndarray], n: int, config: LearnerConfig) -> LearnedSimplex:
    """Learn an n-dimensional simplex from uniform samples.

    Args:
        sample_source: draw(count) callable yielding fresh iid uniform
            points from the unknown simplex in R^n; called once, for
            t1 + t3 points.
        n: ambient (and simplex) dimension.
        config: see :class:`LearnerConfig`.

    Returns:
        LearnedSimplex.  The n+1 starts (start k from child_seed(seed, 41,
        k)) run as one frame: every fixed-point step serves all columns
        and orthonormalizes them symmetrically, so the columns end on
        distinct vertices and no start is spent twice on one.  The frame
        extends the paper's procedure and is not that procedure: the paper
        runs independent starts until every vertex has been hit.  The
        frame is the tensor power method of Anandkumar, Ge, Hsu, Kakade
        and Telgarsky (JMLR 2014) with the symmetric decorrelation of
        FastICA (Hyvarinen, IEEE TNN 1999).  Nor are its points the
        paper's: the paper draws an independent block for the frame and
        for every step, which its analysis needs, while here the frame and
        every step share one pooled block, which is then exactly isotropic
        in its own frame, as FastICA whitens once and iterates on one
        sample.  The frame stops at the first step where every column has
        reached the noise floor the block's split-half standard error
        sets, with r steps as the cap; the report's iterations_run says
        where.  A budget m below n+1 runs only m columns, and the result
        is flagged incomplete and carries those m vertices.

    Raises:
        ValueError when the block is not a finite (t1 + t3, n) array.
    """
    started = time.perf_counter()
    if config.t1 < n + 2:
        raise ValueError(f"t1 must be at least n+2 = {n + 2}")
    count = config.t1 + config.t3
    block = np.asarray(sample_source(count), dtype=float)
    if block.shape != (count, n):
        raise ValueError(f"sample source returned shape {block.shape}, expected {(count, n)}")
    if not np.isfinite(block).all():
        raise ValueError("sample source returned non-finite values")

    frame = estimate_frame(block)
    emb = make_embed_map(n)
    block_gradient = embedded_m3_grad(frame, emb)

    def gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return block_gradient(block, u)

    starts = n + 1 if config.m is None else min(config.m, n + 1)
    seeds = tuple(child_seed(config.seed, 41, k) for k in range(starts))
    found = find_vertex(gradient, n + 1, IterationConfig(iterations=config.r, seed=seeds))
    # exact projection of each column onto the hyperplane {u . 1 = 1}
    directions = (found.u + (1.0 - found.u.sum(axis=0)) / (n + 1)).T
    vertices = frame.inverse(emb.inverse(directions))
    simplex = Simplex(vertices) if starts == n + 1 else None

    report = ExperimentReport(
        n=n,
        config=asdict(config),
        found_count=starts,
        vertices=vertices.tolist(),
        per_vertex_match_error=None,
        tv_estimate=None,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
        seed=config.seed,
        points_drawn=count,
        iterations_run=found.iterations_run,
    )
    return LearnedSimplex(simplex=simplex, found_count=starts, directions=directions, report=report)


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
            at confidence 0.95.
        seed: seed for the default estimator.
    """
    t = len(learn_runs)
    if t < 3:
        raise ValueError("boosting needs at least 3 runs")
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    if tv_estimator is None:
        mc = hoeffding_sample_size(eps_prime / 10.0, 0.05)

        def tv_estimator(a: Simplex, b: Simplex, _mc=mc) -> float:
            return tv_distance_mc(a, b, _mc, rng=substream(seed, 53)).value

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
