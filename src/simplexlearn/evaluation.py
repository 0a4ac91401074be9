"""Evaluation tools: Monte Carlo total-variation distance between uniform
simplex distributions, the sandwich bound check, vertex matching, and the
Hoeffding sample size for a Monte Carlo mean."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MEMBERSHIP_TOL, Simplex, _coordinates, contains_points
from .sampling import _check_count, _exponential_rows, substream

__all__ = [
    "TVEstimate",
    "SandwichReport",
    "MatchResult",
    "tv_distance_mc",
    "check_sandwich_bound",
    "match_vertices",
    "hoeffding_sample_size",
]


@dataclass(frozen=True)
class TVEstimate:
    """Monte Carlo estimate of d_TV between two uniform simplex
    distributions, with its binomial standard error."""

    value: float
    std_error: float


def tv_distance_mc(k: Simplex, l: Simplex, mc_points: int, seed: int = 0) -> TVEstimate:
    """Estimate d_TV(uniform on K, uniform on L).

    Uses the identity d_TV = vol(K \\ L) / vol(K) for vol(K) >= vol(L):
    points are sampled only from the larger-volume simplex and tested for
    membership in the other, so the estimate is exact in expectation and
    identically zero when K equals L.  No point is built: the barycentric
    coordinates in the smaller simplex are affine in those in the larger,
    so one (n+1, n+1) matrix C maps the weights straight to them.  Nor are
    the weights: the point of weights e / sum(e), e a row of iid Exp(1)
    draws from the stream and row blocks that ``sampling`` uses for
    uniform weights, is inside when min_i (C e)_i + tol sum(e) >= 0, the
    membership test C (e / sum(e)) >= -tol multiplied through by sum(e) >
    0.  One (n+2, n+1) product [C; tol 1^T] e^T gives both terms.  Each
    block of e is reduced to a count of points inside before the next is
    drawn, so the estimate keeps no array of mc_points rows.

    Args:
        k, l: simplices of equal dimension.
        mc_points: Monte Carlo sample size, an integer >= 1.
        seed: integer >= 0; the points come from substream(seed, 31),
            so equal arguments give equal estimates.

    Returns:
        TVEstimate with value v and std_error = sqrt(v(1-v)/mc_points).
    """
    if k.dim != l.dim:
        raise ValueError("simplices must have equal dimension")
    mc_points = _check_count(mc_points, "mc_points")
    stream = substream(seed, 31)
    big, small = (k, l) if k.volume() >= l.volume() else (l, k)
    # weights w summing to 1 give the point w V_big coordinates C w^T in
    # the smaller simplex, column j of C holding those of big's vertex j;
    # the last row of the kernel sums each row of e, times the tolerance
    m = big.dim + 1
    kernel = np.vstack([_coordinates(small, big.vertices), np.full((1, m), MEMBERSHIP_TOL)])
    inside = 0
    for _, e in _exponential_rows(stream, m, mc_points):
        products = kernel @ e.T
        margin = products[:-1].min(axis=0)
        margin += products[-1]
        inside += int(np.count_nonzero(margin >= 0.0))
    outside = 1.0 - inside / mc_points
    return TVEstimate(float(outside), math.sqrt(outside * (1.0 - outside) / mc_points))


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of :func:`check_sandwich_bound`."""

    tv: TVEstimate
    bound: float
    holds: bool


def check_sandwich_bound(
    k: Simplex,
    l: Simplex,
    alpha: float,
    beta: float,
    mc_points: int,
    seed: int = 0,
) -> SandwichReport:
    """Verify alpha K <= L <= beta K by vertex membership, then check the
    sandwich bound d_TV <= 2 (1 - (alpha/beta)^n) against the Monte Carlo
    estimate (with a 3 sigma allowance), drawn by :func:`tv_distance_mc`
    from the integer ``seed``.

    Scaling is about the origin, so K should contain it.  Raises ValueError
    when the claimed containments fail.
    """
    if not 0 < alpha <= beta:
        raise ValueError("need 0 < alpha <= beta")
    if not contains_points(l, k.scaled(alpha).vertices).all():
        raise ValueError("alpha K is not contained in L")
    if not contains_points(k.scaled(beta), l.vertices).all():
        raise ValueError("L is not contained in beta K")
    tv = tv_distance_mc(k, l, mc_points, seed)
    bound = 2.0 * (1.0 - (alpha / beta) ** k.dim)
    return SandwichReport(tv=tv, bound=bound, holds=bool(tv.value <= bound + 3.0 * tv.std_error))


@dataclass(frozen=True)
class MatchResult:
    """A bijection between true and estimated vertices.

    permutation[i] is the estimate index matched to truth vertex i;
    per_vertex_error the corresponding distances; max_error their maximum,
    minimized over all bijections.
    """

    permutation: tuple
    per_vertex_error: np.ndarray
    max_error: float


def _vertex_array(x, name: str) -> np.ndarray:
    if isinstance(x, Simplex):
        return x.vertices
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"{name} vertices must form a (k, d) array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} vertices must be finite")
    return v


def _min_sum_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row by a minimum-total-cost bijection of the
    square matrix ``cost``; ``inf`` forbids a pair.

    Kuhn's Hungarian method with row and column potentials (Kuhn 1955):
    each row in turn is added by a shortest augmenting path over reduced
    costs, O(k^3) in all.  Raises ValueError when no bijection of finite
    cost exists.
    """
    k = cost.shape[0]
    # row_of[j] is the row holding column j; column k is the virtual root
    # from which each new row's search starts
    row_of = np.full(k + 1, -1)
    via = np.zeros(k + 1, dtype=int)
    u = np.zeros(k)
    v = np.zeros(k + 1)
    for i in range(k):
        row_of[k] = i
        j0 = k
        slack = np.full(k, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used[:k]
            reduced = cost[i0] - u[i0] - v[:k]
            closer = free & (reduced < slack)
            slack[closer] = reduced[closer]
            via[:k][closer] = j0
            candidates = np.where(free, slack, np.inf)
            j1 = int(np.argmin(candidates))
            delta = candidates[j1]
            if not np.isfinite(delta):
                raise ValueError("no assignment of finite cost exists")
            u[row_of[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        while j0 != k:
            row_of[j0] = row_of[via[j0]]
            j0 = via[j0]
    cols = np.empty(k, dtype=int)
    cols[row_of[:k]] = np.arange(k)
    return cols


def match_vertices(truth, estimate) -> MatchResult:
    """Minimum-max-error bijection between two equal-size vertex sets.

    The optimal bottleneck value is the smallest feasible pairwise
    distance.  A threshold is feasible when the min-sum assignment on the
    0/1 costs ``dist > threshold`` costs nothing, that is when some
    bijection keeps every pair within it.  Every vertex of either set has
    a partner in any bijection, so no bottleneck is below L, the largest
    row-wise or column-wise minimum distance: one solve at L settles it
    when L is feasible, as it is for an estimate near the truth, and
    otherwise a bisection over the sorted distances above L finds it.  The
    levels are the k^2 distances sorted, repeats kept: a repeated level
    changes no feasibility test, so the bisection stops on the same value,
    and a sort, unlike ``np.unique``, does not load numpy.ma.  Among the
    bijections achieving the bottleneck, total error is then minimized by
    a second min-sum assignment that forbids the pairs beyond it.  Both
    use the package's own Hungarian method, so matching needs numpy only.

    Args:
        truth, estimate: Simplex instances or (k, d) arrays of finite
            vertices, k and d at least 1, else ValueError naming the shape,
            whose pairwise distances are finite too, else ValueError
            naming the overflow.

    Returns:
        MatchResult ordered by truth index.
    """
    a = _vertex_array(truth, "truth")
    b = _vertex_array(estimate, "estimate")
    if a.shape != b.shape:
        raise ValueError("vertex sets must have matching shapes")
    if a.size == 0:
        raise ValueError(f"vertex sets must not be empty, got shape {a.shape}")
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    if not np.isfinite(dist).all():
        raise ValueError("vertex distances overflow the float range")
    rows = np.arange(len(dist))

    def feasible(threshold: float) -> bool:
        cols = _min_sum_assignment((dist > threshold).astype(float))
        return bool((dist[rows, cols] <= threshold).all())

    levels = np.sort(dist, axis=None)
    lo = int(np.searchsorted(levels, max(dist.min(axis=1).max(), dist.min(axis=0).max())))
    lo, hi = (lo, lo) if feasible(levels[lo]) else (lo + 1, len(levels) - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    bottleneck = levels[lo]

    perm = _min_sum_assignment(np.where(dist <= bottleneck, dist, np.inf))
    errors = dist[rows, perm]
    return MatchResult(tuple(int(j) for j in perm), errors, float(errors.max()))


def hoeffding_sample_size(eps: float, delta: float) -> int:
    """Points for a [0,1]-bounded Monte Carlo mean to sit within eps of its
    expectation with probability >= 1 - delta: ceil(ln(2/delta) / (2 eps^2))."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))
