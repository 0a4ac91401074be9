"""Reductions from simplex and lp-ball learning to ICA, plus a small
self-contained ICA routine to consume them.

Scaling a uniform simplex sample (lifted by a constant coordinate) with
independent Gamma(n+1, 1) radii turns it into a linear mixture of iid
exponentials; scaling a uniform lp-ball sample with Gamma(n/p + 1, 1)^(1/p)
radii turns it into a mixture of iid exp(-|t|^p) coordinates.  Any ICA
routine that unmixes those products recovers the simplex vertices or the
ball's linear map, up to signed permutation.

Each reduction fixes its source law, so it fixes the contrast too: the
Exp(1) sources are skewed and separate on the third cumulant, while the
exp(-|t|^p) sources are symmetric and separate only on the fourth.
:func:`ica_estimate` runs that one contrast on a whole orthonormal frame,
in the one fixed-point loop of :mod:`simplexlearn.vertex_finder`, coarse
to fine as the learner runs it on its own map.

Neither reduction builds its rescaled sample.  ICA reads a sample only
through its shape and its row blocks, so each reduction hands it the
caller's points with one (t,) vector of radii, and every pass rebuilds
the rescaled rows, lifted for the simplex, one row block at a time: no
(t, d) array is allocated beside the input.

The radii are a stream of their own, independent of the points.  One
private helper, :func:`_reduction_radii`, is the one radius law, with
both reductions' spawn keys, and one, :func:`_reduction_rows`, is the one
recipe for the rows: the ``_ScaledRows`` of the points with those radii,
lifted for the simplex.  Both reductions and ``verify --suite scaling``
build their rows through it; a caller that has drawn the radii already,
on another thread beside the sample, hands a reduction its
``_ScaledRows`` in place of the points.
The symmetric-difference scorer's ball is likewise a stream of its own,
with a private draw into caller-allocated arrays and a private score of
a drawn ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import _power_moment, _sample, _sample_frame
from .sampling import (
    _check_count,
    _check_p,
    _check_seed,
    _lp_ball_points,
    _row_blocks,
    _row_sums,
    child_seed,
    generalized_gaussian_std,
    substream,
)
from .vertex_finder import MAX_STEPS, VertexResult, _fixed_point

__all__ = [
    "MixingEstimate",
    "SimplexReduction",
    "LpReduction",
    "ica_estimate",
    "reduce_simplex_to_ica",
    "reduce_lp_to_ica",
    "compute_c_pn",
    "separation_index",
    "lp_symmetric_difference",
]

CONTRASTS = ("skew", "kurtosis")
# points in the uniform ball draw that scores an lp reduction
SYMDIFF_POINTS = 100_000


@dataclass
class MixingEstimate:
    """ICA output: ``separating`` M with M (Y - mean) isotropic with
    independent coordinates, ``mixing`` its inverse, the ``contrast`` the
    fixed point ran on, and ``fit``, the fixed point's own record
    (:class:`~simplexlearn.vertex_finder.VertexResult`): the whole-frame
    sweeps it took as ``iterations_run``, ``prefix_steps`` of them on a
    prefix of the sample only, and one ``converged`` flag per component,
    true when that component's last sweep, on the whole sample, moved it
    by at most STEP_TOL.  ``permutation_note`` records the inherent
    ambiguity."""

    separating: np.ndarray
    mixing: np.ndarray
    mean: np.ndarray
    contrast: str
    fit: VertexResult
    permutation_note: str = "components are recovered up to signed permutation"


def _reduction_radii(out: np.ndarray, n: int, p: float | None, seed: int) -> np.ndarray:
    """Fill ``out``, (t,), with the radii that the reduction of an
    n-column sample scales its rows by, and return it: Gamma(n+1, 1) keyed
    67 for the simplex (``p`` None), Gamma(n/p + 1, 1)^(1/p) keyed 71 for
    the lp ball.  The one home of the radius law: the Gamma variates are
    drawn straight into ``out``, so the draw builds no other array."""
    shape, key = (n + 1.0, 67) if p is None else (n / p + 1.0, 71)
    substream(seed, key).standard_gamma(shape, out=out)
    if p is not None:
        out **= 1.0 / p
    return out


class _ScaledRows:
    """A reduction's sample as ICA reads it: row i of ``points`` times
    ``radii[i]``, with a last column of the radii themselves when ``lift``.
    With the radii of :func:`_reduction_radii`, every value equals the
    rescaled array's.

    ICA's passes read only ``shape`` and blocks ``[rows]`` of rows.  A
    block is built transposed into one reused C-ordered (d, rows) buffer
    and handed out as its (rows, d) transpose, whose products then read
    contiguous memory; it lasts until the next block is built.
    """

    def __init__(self, points: np.ndarray, radii: np.ndarray, lift: bool):
        t, n = points.shape
        self.points, self.radii = points, radii
        self.shape = (t, n + lift)
        self._buffer = np.empty(0)

    def __getitem__(self, rows: slice) -> np.ndarray:
        d, n, count = self.shape[1], self.points.shape[1], rows.stop - rows.start
        if self._buffer.size < d * count:
            self._buffer = np.empty(d * count)
        block = self._buffer[: d * count].reshape(d, count)
        np.multiply(self.points[rows].T, self.radii[rows], out=block[:n])
        block[n:] = self.radii[rows]  # the lift row, if any
        return block.T


def _reduction_rows(points: np.ndarray, p: float | None, seed: int) -> _ScaledRows:
    """The rows that the reduction with ``seed`` hands ICA for the (t, n)
    ``points``: their ``_ScaledRows`` with the radii of
    :func:`_reduction_radii`, lifted for the simplex (``p`` None)."""
    t, n = points.shape
    return _ScaledRows(points, _reduction_radii(np.empty(t), n, p, seed), lift=p is None)


def ica_estimate(
    points: np.ndarray,
    contrast: str = "skew",
    seed: int = 0,
) -> MixingEstimate:
    """Symmetric fixed-point ICA with one contrast for every component.

    Iterates a whole orthonormal frame W of d directions on the sample
    z = (x - mu) S^-1, whitened by the learner's frame
    (``moments._sample_frame``): its mean mu and the symmetric square root
    S of its covariance.  Each sweep maps W to E[z (z W)^2] for the
    third-cumulant contrast ``"skew"``, or to E[z (z W)^3] - 3 W for the
    fourth-cumulant contrast ``"kurtosis"``, and takes its polar factor,
    the symmetric decorrelation of FastICA (Hyvarinen, IEEE TNN 1999) and
    the tensor power method of Anandkumar, Ge, Hsu, Kakade and Telgarsky
    (JMLR 2014).  The caller knows its source law: skew separates skewed
    sources such as Exp(1), and only kurtosis separates symmetric ones,
    whose third cumulant is 0.

    z is never formed: a sweep is one moment pass over the raw sample
    (``moments._power_moment``), and the frame comes from one
    blocked pass over the whole sample too, which also shows whether the
    sample is finite.  The passes read only the shape and row blocks of
    ``points``, so the reductions hand in their rescaled rows, built a
    block at a time.  The sweeps are one run of the learner's loop
    (``vertex_finder._fixed_point``) over the t-row sample, from a random
    orthonormal frame drawn from ``seed``, coarse to fine: on a large
    sample the first sweeps read only its first t // PREFIX_DIVISOR rows,
    up to a sweep that moves the frame by at most STEP_TOL or half the
    cap, and the last ones read all of them, up to such a sweep again,
    with the loop's checks and one cap of ``MAX_STEPS`` sweeps in all.

    Returns:
        MixingEstimate with ``separating`` W^T S^-1 and ``mixing`` S W,
        its inverse, and the loop's record as ``fit``.  Non-convergence
        is flagged per component, in ``fit.converged``, not raised.

    Raises:
        ValueError unless ``contrast`` is one of ``CONTRASTS`` and
        ``seed`` an integer >= 0, both checked before any pass over the
        sample, and the sample a (t, d) array with d >= 1 and t >= d+2
        (see ``moments._sample``) whose mean and covariance are finite,
        and naming the sweep, counted over the whole run, when a sweep's
        update is not finite;
        DegenerateSampleError for a singular covariance; RuntimeError when
        the frame's update collapses.
    """
    if contrast not in CONTRASTS:
        raise ValueError(f"contrast must be one of {CONTRASTS}, got {contrast!r}")
    _check_seed(seed)
    if not isinstance(points, _ScaledRows):
        points = _sample(points, "d", 2)
    frame, whitener = _sample_frame(points)
    power, shift = (2 if contrast == "skew" else 3), -(frame.mean @ whitener.T)

    def sweep(w: np.ndarray, stop: int) -> np.ndarray:
        update = _power_moment(points, whitener.T, shift, w, power, stop)
        if contrast == "kurtosis":
            update -= 3.0 * w
        return update

    start, _ = np.linalg.qr(substream(seed, 61).standard_normal(whitener.shape))
    fit = _fixed_point(sweep, start, MAX_STEPS, points.shape[0])
    return MixingEstimate(separating=fit.u.T @ whitener, mixing=frame.factor @ fit.u, mean=frame.mean, contrast=contrast, fit=fit)


@dataclass
class SimplexReduction:
    """Vertices recovered through the ICA reduction (rows, arbitrary
    order), plus the underlying estimate."""

    vertices: np.ndarray
    estimate: MixingEstimate


def reduce_simplex_to_ica(points: np.ndarray, seed: int = 0) -> SimplexReduction:
    """Recover simplex vertices from uniform samples via ICA.

    Each point p is lifted to (p, 1) and scaled by an independent
    Gamma(n+1, 1) radius R, which makes the result a product of iid Exp(1)
    coordinates under the lifted vertex matrix.  ICA reads the lifted rows
    (R p, R) of :func:`_reduction_rows`, built from the sample and one
    (t,) array of radii one row block at a time, so no (t, n+1) lift is
    built.
    The inverted separating matrix has columns proportional to (v_j, 1) up
    to sign; multiplying every column by the sign of its last entry fixes
    the orientation, and dropping the last row leaves the vertices.

    Raises ValueError naming the sample's shape unless it is a (t, n)
    array with n >= 1 and t >= n+3, the rows ICA needs for the lift.
    A lifted ``_ScaledRows`` whose radii are drawn already is taken as is.
    """
    if not isinstance(points, _ScaledRows):
        points = _reduction_rows(_sample(points, "n", 3), None, seed)
    estimate = ica_estimate(points, "skew", seed=seed)
    mixing = estimate.mixing.copy()
    signs = np.sign(mixing[-1, :])
    signs[signs == 0] = 1.0
    mixing = mixing * signs
    return SimplexReduction(vertices=mixing[:-1, :].T.copy(), estimate=estimate)


@dataclass
class LpReduction:
    """Linear map recovered through the lp-ball reduction."""

    mixing: np.ndarray
    estimate: MixingEstimate


def reduce_lp_to_ica(points: np.ndarray, p: float, seed: int = 0) -> LpReduction:
    """Recover the linear map A of a body A(unit lp ball) from uniform
    samples via ICA.

    Each point is scaled by T^(1/p) with T ~ Gamma(n/p + 1, 1), making the
    result A times a vector of iid exp(-|t|^p) coordinates.  The inverted
    separating matrix is divided by the standard deviation of that source
    density, so the recovered map carries the input's scale and matches A
    up to signed permutation of columns.  At p = 2 the ball is rotation
    invariant and only the ellipsoid A A^T is identified.  ICA reads the
    scaled rows of :func:`_reduction_rows`, built from the sample and one
    (t,) array of radii one row block at a time, so no scaled copy is
    built.

    Raises ValueError unless ``p`` lies in [1, 64], or naming the
    sample's shape unless it is a (t, d) array with d >= 1 and t >= d+2.
    A ``_ScaledRows`` whose radii are drawn already is taken as is.
    """
    p = _check_p(p)
    if not isinstance(points, _ScaledRows):
        points = _reduction_rows(_sample(points, "d", 2), p, seed)
    estimate = ica_estimate(points, "kurtosis", seed=seed)
    mixing = estimate.mixing / generalized_gaussian_std(p)
    if abs(p - 2.0) < 1e-12:
        estimate.permutation_note = "p=2 ball is rotation invariant; only the ellipsoid A A^T is identified"
    return LpReduction(mixing=mixing, estimate=estimate)


def compute_c_pn(p: float, n: int) -> float:
    """c_{p,n} = sqrt(E[X_1^2]) for X uniform in the unit lp ball of R^n.

    X T^(1/p) with T ~ Gamma(n/p + 1, 1) independent of X has iid
    exp(-|t|^p) coordinates, so E[X_1^2] E[T^(2/p)] equals their variance,
    which gives c_{p,n}^2 = Gamma(3/p) Gamma(n/p + 1) / (Gamma(1/p) Gamma((n+2)/p + 1))
    (Barthe, Guedon, Mendelson and Naor, Ann. Probab. 2005).  The Gamma
    ratios are taken as differences of ``math.lgamma``.
    """
    p, n = _check_p(p), _check_count(n, "n")
    return generalized_gaussian_std(p) * math.exp(0.5 * (math.lgamma(n / p + 1.0) - math.lgamma((n + 2.0) / p + 1.0)))


def _finite_square(value, name: str) -> np.ndarray:
    """``value`` as a float (d, d) array; ValueError naming ``name`` unless
    it is a finite square matrix with d >= 1."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{name} must be a square matrix of at least one row, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} holds non-finite values")
    return m


def separation_index(g: np.ndarray) -> float:
    """Amari-style distance of a matrix from the signed permutations.

    For each row, sum(|g|)/max(|g|) - 1, likewise for columns, averaged and
    normalized by d-1 so the result lies in [0, 1]; 0 means g is exactly a
    scaled signed permutation.  Raises ValueError unless g is a finite,
    nonempty square matrix with no zero row or column.
    """
    g = np.abs(_finite_square(g, "g"))
    d = g.shape[0]
    for axis, line in ((1, "row"), (0, "column")):
        if not g.max(axis=axis).all():
            raise ValueError(f"g has a zero {line}")
    if d == 1:
        return 0.0
    rows = (g.sum(axis=1) / g.max(axis=1) - 1.0).sum()
    cols = (g.sum(axis=0) / g.max(axis=0) - 1.0).sum()
    return float((rows + cols) / (2.0 * d * (d - 1.0)))


def lp_symmetric_difference(
    a: np.ndarray,
    a_est: np.ndarray,
    p: float,
    mc_points: int = SYMDIFF_POINTS,
    seed: int = 0,
) -> float:
    """Monte Carlo volume of (A B_p symdiff A_est B_p) / vol(A B_p).

    One uniform draw X from B_p scores both halves, since each is an
    expectation under that one law: A X falls outside A_est B_p when
    ||A_est^-1 A X||_p > 1, and A_est X falls outside A B_p when
    ||A^-1 A_est X||_p > 1, the second share weighted by the volume ratio
    |det A_est| / |det A|.  Each term stays unbiased; the sum of |y_i|^p
    is compared with 1 directly, with no root.  The draw is mapped and
    counted in row blocks, so beside it no array of mc_points rows is
    built.  Raises ValueError unless
    ``mc_points`` is an integer >= 1, ``a`` and ``a_est`` are finite,
    nonsingular square matrices of one shape and ``p`` lies in [1, 64].
    """
    mc_points = _check_count(mc_points, "mc_points")
    maps, p = _symdiff_maps(a, a_est), _check_p(p)
    x = np.empty((mc_points, maps[0].shape[0]))
    _symdiff_ball(p, seed, x, np.empty(mc_points))
    return _symdiff_score(x, maps, p)


def _symdiff_ball(p: float, seed: int, out: np.ndarray, sums: np.ndarray) -> None:
    """Fill ``out`` with the uniform ball draw that
    :func:`lp_symmetric_difference` takes for ``seed``, with ``sums`` as
    the draw's (mc_points,) denominators; the caller allocates both."""
    _lp_ball_points(p, child_seed(seed, 79, 0), out, sums)


def _symdiff_maps(a, a_est) -> tuple[np.ndarray, np.ndarray, float]:
    """The composed maps (A_est^-1 A)^T and (A^-1 A_est)^T and the volume
    ratio |det A_est| / |det A|; ValueError unless ``a`` and ``a_est`` are
    finite, nonsingular square matrices of one shape."""
    a, a_est = _finite_square(a, "a"), _finite_square(a_est, "a_est")
    if a_est.shape != a.shape:
        raise ValueError(f"a_est must have the shape {a.shape} of a, got {a_est.shape}")
    for name, m in (("a", a), ("a_est", a_est)):
        if np.linalg.cond(m) * np.finfo(float).eps >= 1.0:
            raise ValueError(f"{name} is singular")
    return np.linalg.solve(a_est, a).T, np.linalg.solve(a, a_est).T, abs(np.linalg.det(a_est)) / abs(np.linalg.det(a))


def _symdiff_score(x: np.ndarray, maps: tuple, p: float) -> float:
    """The symmetric difference that the ball draw ``x`` scores under the
    ``maps`` of :func:`_symdiff_maps`."""
    forward, backward, ratio = maps
    outside = [0, 0]
    for rows in _row_blocks(0, x.shape[0]):
        for half, composed in enumerate((forward, backward)):
            y = x[rows] @ composed
            np.abs(y, out=y)
            y **= p
            outside[half] += int(np.count_nonzero(_row_sums(y) > 1.0))
    return outside[0] / x.shape[0] + ratio * (outside[1] / x.shape[0])
