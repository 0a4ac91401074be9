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
with the polar step and the noise stop of the vertex finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateSimplexError
from .moments import _mean_and_covariance, _split_half_power_sums
from .sampling import (
    _check_count,
    _check_p,
    _gamma_radii,
    _gamma_rescale,
    child_seed,
    generalized_gaussian_std,
    sample_lp_ball,
    substream,
)
from .vertex_finder import _polar_step

__all__ = [
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
]

MAX_SWEEPS = 500
CONTRASTS = ("skew", "kurtosis")


@dataclass
class MixingEstimate:
    """ICA output: ``separating`` M with M (Y - mean) isotropic with
    independent coordinates, ``mixing`` its inverse, the ``contrast`` the
    fixed point ran on, the whole-frame ``sweeps`` it took, and one
    ``converged`` flag per component, true when that component's last step
    was within its noise floor.  ``permutation_note`` records the inherent
    ambiguity."""

    separating: np.ndarray
    mixing: np.ndarray
    mean: np.ndarray
    converged: list
    contrast: str
    sweeps: int
    permutation_note: str = "components are recovered up to signed permutation"


def _whitener(cov: np.ndarray) -> np.ndarray:
    """The symmetric inverse square root of a covariance."""
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    if eigenvalues[0] <= 1e-12 * eigenvalues[-1]:
        raise DegenerateSimplexError("sample covariance is singular; cannot whiten")
    return (eigenvectors / np.sqrt(eigenvalues)) @ eigenvectors.T


def ica_estimate(
    points: np.ndarray,
    contrast: str = "skew",
    seed: int = 0,
    max_sweeps: int = MAX_SWEEPS,
) -> MixingEstimate:
    """Symmetric fixed-point ICA with one contrast for every component.

    Iterates a whole orthonormal frame W of d directions on the sample
    z = (x - mu) V^T, whitened by its mean mu and the inverse square root
    V of its covariance: each sweep maps W to E[z (z W)^2] for the
    third-cumulant contrast ``"skew"``, or to E[z (z W)^3] - 3 W for the
    fourth-cumulant contrast ``"kurtosis"``, and takes its polar factor,
    the symmetric decorrelation of FastICA (Hyvarinen, IEEE TNN 1999) and
    the tensor power method of Anandkumar, Ge, Hsu, Kakade and Telgarsky
    (JMLR 2014).  The caller knows its source law: skew separates skewed
    sources such as Exp(1), and only kurtosis separates symmetric ones,
    whose third cumulant is 0.

    z is never formed.  V folds into the frame, f = z W = (x - mu) (V^T W)
    and E[z f^q] = V E[(x - mu) f^q], so a sweep is one pass over the raw
    sample in cache-sized row blocks, and mu and the covariance come from
    one such pass too: no (t, d) array is built beside the sample.

    The two halves of the sample give the update's standard error, and
    the loop stops at the first sweep where every direction's step is
    within the noise that error puts on it, the stop of
    :func:`~simplexlearn.vertex_finder.find_vertex`; ``max_sweeps`` caps
    the sweeps.

    Returns:
        MixingEstimate; ``separating`` row count equals the sample
        dimension.  Non-convergence is flagged per component, not raised.

    Raises:
        ValueError unless the sample is a finite (t, d) array with t > d,
        ``contrast`` one of ``CONTRASTS`` and ``max_sweeps`` an integer
        >= 1; DegenerateSimplexError for a singular covariance;
        RuntimeError when the frame's update collapses.
    """
    if contrast not in CONTRASTS:
        raise ValueError(f"contrast must be one of {CONTRASTS}, got {contrast!r}")
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, (int, np.integer)) or max_sweeps < 1:
        raise ValueError(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] <= points.shape[1]:
        raise ValueError(f"sample must be a 2-D array with more rows than columns, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("sample holds non-finite values")
    t, d = points.shape
    mean, cov = _mean_and_covariance(points)
    whitener = _whitener(cov)
    power = 2 if contrast == "skew" else 3
    half = t // 2
    w, _ = np.linalg.qr(substream(seed, 61).standard_normal((d, d)))

    for sweep in range(max_sweeps):
        raw_frame = whitener.T @ w
        moments, sums = _split_half_power_sums(points, raw_frame, -(mean @ raw_frame), power)
        first, second = (
            whitener @ (moments[part] - np.outer(mean, sums[part])) / count
            for part, count in enumerate((half, t - half))
        )
        update = (half * first + (t - half) * second) / t
        if contrast == "kurtosis":
            update -= 3.0 * w
        w, _, _, converged = _polar_step(w, update, 0.5 * (first - second), sweep)
        if converged.all():
            break

    separating = w.T @ whitener
    return MixingEstimate(
        separating=separating,
        mixing=np.linalg.inv(separating),
        mean=mean,
        converged=converged.tolist(),
        contrast=contrast,
        sweeps=sweep + 1,
    )


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
    coordinates under the lifted vertex matrix.  The lifted rows (R p, R)
    are written straight into one (t, n+1) array, with no (p, 1) copy.
    The inverted separating matrix has columns proportional to (v_j, 1) up
    to sign; multiplying every column by the sign of its last entry fixes
    the orientation, and dropping the last row leaves the vertices.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"sample must be a 2-D (t, n) array, got shape {points.shape}")
    t, n = points.shape
    radii = _gamma_radii(t, n + 1, 1.0, substream(seed, 67))
    lifted = np.empty((t, n + 1))
    np.multiply(points, radii[:, None], out=lifted[:, :n])
    lifted[:, n] = radii
    estimate = ica_estimate(lifted, "skew", seed=seed)
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
    p: float


def reduce_lp_to_ica(points: np.ndarray, p: float, seed: int = 0) -> LpReduction:
    """Recover the linear map A of a body A(unit lp ball) from uniform
    samples via ICA.

    Each point is scaled by T^(1/p) with T ~ Gamma(n/p + 1, 1), making the
    result A times a vector of iid exp(-|t|^p) coordinates.  The inverted
    separating matrix is divided by the standard deviation of that source
    density, so the recovered map carries the input's scale and matches A
    up to signed permutation of columns.  At p = 2 the ball is rotation
    invariant and only the ellipsoid A A^T is identified.
    """
    p = _check_p(p)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"sample must be a 2-D (t, n) array, got shape {points.shape}")
    scaled = _gamma_rescale(points, points.shape[1] / p + 1.0, p, substream(seed, 71))
    estimate = ica_estimate(scaled, "kurtosis", seed=seed)
    mixing = estimate.mixing / generalized_gaussian_std(p)
    if abs(p - 2.0) < 1e-12:
        estimate.permutation_note = "p=2 ball is rotation invariant; only the ellipsoid A A^T is identified"
    return LpReduction(mixing=mixing, estimate=estimate, p=p)


def compute_c_pn(p: float, n: int) -> float:
    """c_{p,n} = sqrt(E[X_1^2]) for X uniform in the unit lp ball of R^n.

    X T^(1/p) with T ~ Gamma(n/p + 1, 1) independent of X has iid
    exp(-|t|^p) coordinates, so E[X_1^2] E[T^(2/p)] equals their variance,
    which gives c_{p,n}^2 = Gamma(3/p) Gamma(n/p + 1) / (Gamma(1/p) Gamma((n+2)/p + 1))
    (Barthe, Guedon, Mendelson and Naor, Ann. Probab. 2005).  The Gamma
    ratios are taken as differences of ``math.lgamma``.
    """
    p = _check_p(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    return generalized_gaussian_std(p) * math.exp(0.5 * (math.lgamma(n / p + 1.0) - math.lgamma((n + 2.0) / p + 1.0)))


def _finite_square(value, name: str) -> np.ndarray:
    """``value`` as a float (d, d) array; ValueError naming ``name`` unless
    it is a finite square matrix."""
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} holds non-finite values")
    return m


def separation_index(g: np.ndarray) -> float:
    """Amari-style distance of a matrix from the signed permutations.

    For each row, sum(|g|)/max(|g|) - 1, likewise for columns, averaged and
    normalized by d-1 so the result lies in [0, 1]; 0 means g is exactly a
    scaled signed permutation.  Raises ValueError unless g is a finite
    square matrix with no zero row or column.
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


def align_signed_permutation(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy signed-permutation alignment of a near-signed-permutation
    matrix: repeatedly take the largest remaining |entry|.

    Returns (perm, signs) such that column perm[i], flipped by signs[i],
    is the one matched to row i.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    work = np.abs(g).copy()
    perm = np.full(d, -1, dtype=int)
    signs = np.ones(d)
    for _ in range(d):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        signs[i] = 1.0 if g[i, j] >= 0 else -1.0
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return perm, signs


def signed_permutation_deviation(g: np.ndarray) -> float:
    """Max per-entry deviation of g from the nearest greedy-aligned signed
    permutation matrix."""
    g = np.asarray(g, dtype=float)
    perm, signs = align_signed_permutation(g)
    target = np.zeros_like(g)
    target[np.arange(g.shape[0]), perm] = signs
    return float(np.abs(g - target).max())


def lp_symmetric_difference(
    a: np.ndarray,
    a_est: np.ndarray,
    p: float,
    mc_points: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo volume of (A B_p symdiff A_est B_p) / vol(A B_p).

    One uniform draw X from B_p scores both halves, since each is an
    expectation under that one law: A X falls outside A_est B_p when
    ||A_est^-1 A X||_p > 1, and A_est X falls outside A B_p when
    ||A^-1 A_est X||_p > 1, the second share weighted by the volume ratio
    |det A_est| / |det A|.  Each term stays unbiased; the sum of |y_i|^p
    is compared with 1 directly, with no root.  Raises ValueError unless
    ``mc_points`` is an integer >= 1 and ``a`` and ``a_est`` are finite,
    nonsingular square matrices of one shape.
    """
    mc_points = _check_count(mc_points, "mc_points")
    a, a_est = _finite_square(a, "a"), _finite_square(a_est, "a_est")
    if a_est.shape != a.shape:
        raise ValueError(f"a_est must have the shape {a.shape} of a, got {a_est.shape}")
    for name, m in (("a", a), ("a_est", a_est)):
        if np.linalg.cond(m) * np.finfo(float).eps >= 1.0:
            raise ValueError(f"{name} is singular")
    x = sample_lp_ball(a.shape[0], p, mc_points, seed=child_seed(seed, 79, 0))
    shares = []
    for composed in (np.linalg.solve(a_est, a), np.linalg.solve(a, a_est)):
        y = x @ composed.T
        np.abs(y, out=y)
        y **= p
        shares.append(float((y.sum(axis=1) > 1.0).mean()))
    ratio = abs(np.linalg.det(a_est)) / abs(np.linalg.det(a))
    return shares[0] + ratio * shares[1]
