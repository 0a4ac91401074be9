"""Reductions from simplex and lp-ball learning to ICA, plus a small
self-contained ICA routine to consume them.

Scaling a uniform simplex sample (lifted by a constant coordinate) with
independent Gamma(n+1, 1) radii turns it into a linear mixture of iid
exponentials; scaling a uniform lp-ball sample with Gamma(n/p + 1, 1)^(1/p)
radii turns it into a mixture of iid exp(-|t|^p) coordinates.  Any ICA
routine that unmixes those products recovers the simplex vertices or the
ball's linear map, up to signed permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateSimplexError
from .sampling import (
    _check_count,
    _check_p,
    _gamma_rescale,
    child_seed,
    generalized_gaussian_std,
    sample_lp_ball,
    substream,
)

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
DIRECTION_TOL = 1e-8
# A direction's third cumulant is treated as absent (and the component
# re-run with the fourth-cumulant contrast) unless it clears both this
# absolute floor and 4 standard errors of its own estimate; a fixed floor
# alone lets sampling noise pass for symmetric heavy-tailed sources.  The
# same rule ends a skew pass at its second sweep, the first whose iterate
# lies in the complement of the finished components, when the norm of the
# projected candidate E[z s^2] clears neither the floor nor 4 of its
# split-half standard errors: for a symmetric source the candidate is pure
# noise, while for Exp(1) sources a unit iterate in the complement gives a
# norm of at least 2/sqrt(d - k).
SKEW_FLOOR = 0.02

@dataclass
class MixingEstimate:
    """ICA output: ``separating`` M with M (Y - mean) isotropic with
    independent coordinates, ``mixing`` its inverse, per-component
    convergence flags, the contrast each component ended up using and the
    sweeps it spent, one ``[skew, kurtosis]`` pair per component (the
    kurtosis count is 0 when the skew pass was kept).
    ``permutation_note`` records the inherent ambiguity."""

    separating: np.ndarray
    mixing: np.ndarray
    mean: np.ndarray
    converged: list
    contrast: list
    sweeps: list
    permutation_note: str = "components are recovered up to signed permutation"


def _whiten(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = points.mean(axis=0)
    centered = points - mean
    cov = (centered.T @ centered) / points.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    if eigenvalues[0] <= 1e-12 * eigenvalues[-1]:
        raise DegenerateSimplexError("sample covariance is singular; cannot whiten")
    whitener = (eigenvectors / np.sqrt(eigenvalues)) @ eigenvectors.T
    return centered @ whitener.T, whitener, mean


def ica_estimate(
    points: np.ndarray,
    seed: int = 0,
    max_sweeps: int = MAX_SWEEPS,
    tol: float = DIRECTION_TOL,
) -> MixingEstimate:
    """Deflationary fixed-point ICA.

    Whitens with the empirical covariance, then extracts one direction at a
    time by iterating w -> E[z (w . z)^2] (the third-cumulant contrast),
    orthogonalizing against finished components each sweep.  A component
    whose skewness vanishes (or fails to converge) is re-run with the
    kurtosis contrast w -> E[z (w . z)^3] - 3 w.  A direction counts as
    converged when it moves by at most ``tol`` (after sign alignment)
    between sweeps.

    A skew pass is abandoned at its second sweep when the projected
    candidate is within noise (see ``SKEW_FLOOR``): its split-half error
    costs one extra half-length matvec.  The test waits for the second
    sweep because only then does the iterate lie in the complement of the
    finished components; a random start may carry little mass there, so
    a first-sweep candidate can be small for skewed sources too.

    Returns:
        MixingEstimate; ``separating`` row count equals the sample
        dimension, and ``sweeps`` gives each component's skew and kurtosis
        sweeps.  Non-convergence is flagged per component, not raised.
        Raises ValueError unless the sample is a finite (t, d) array with
        t > d, ``max_sweeps`` an integer >= 1 and ``tol`` in [0, 1), and
        DegenerateSimplexError for a singular covariance.
    """
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, (int, np.integer)) or max_sweeps < 1:
        raise ValueError(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must be a finite number in [0, 1), got {tol!r}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] <= points.shape[1]:
        raise ValueError(f"sample must be a 2-D array with more rows than columns, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("sample holds non-finite values")
    t, d = points.shape
    z, whitener, mean = _whiten(points)
    rng = substream(seed, 61)
    half = t // 2

    basis = np.zeros((d, d))
    converged_flags: list[bool] = []
    contrasts: list[str] = []
    sweeps: list[list[int]] = []

    def extract(k: int, contrast: str) -> tuple[np.ndarray, bool, int]:
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        for sweep in range(1, max_sweeps + 1):
            s = z @ w
            if contrast == "skew":
                squares = s * s
                candidate = (z.T @ squares) / t
            else:
                candidate = (z.T @ (s * s * s)) / t - 3.0 * w
            candidate -= basis[:k].T @ (basis[:k] @ candidate)
            norm = np.linalg.norm(candidate)
            if contrast == "skew" and sweep == 2:
                half_candidate = (z[:half].T @ squares[:half]) / half
                half_candidate -= basis[:k].T @ (basis[:k] @ half_candidate)
                if norm <= max(SKEW_FLOOR, 4.0 * np.linalg.norm(half_candidate - candidate)):
                    return w, False, sweep
            if norm < 1e-12:
                w = rng.standard_normal(d)
                w /= np.linalg.norm(w)
                continue
            candidate /= norm
            if 1.0 - abs(w @ candidate) <= tol:
                return candidate, True, sweep
            w = candidate
        return w, False, max_sweeps

    for k in range(d):
        w, ok, skew_sweeps = extract(k, "skew")
        used, kurtosis_sweeps = "skew", 0
        if ok:
            s = z @ w
            cubes = s * s * s
            ok = abs(cubes.mean()) >= max(SKEW_FLOOR, 4.0 * cubes.std() / math.sqrt(t))
        if not ok:
            w, ok, kurtosis_sweeps = extract(k, "kurtosis")
            used = "kurtosis"
        basis[k] = w
        converged_flags.append(bool(ok))
        contrasts.append(used)
        sweeps.append([skew_sweeps, kurtosis_sweeps])

    separating = basis @ whitener
    return MixingEstimate(
        separating=separating,
        mixing=np.linalg.inv(separating),
        mean=mean,
        converged=converged_flags,
        contrast=contrasts,
        sweeps=sweeps,
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
    Gamma(n+1, 1) radius, which makes the result a product of iid Exp(1)
    coordinates under the lifted vertex matrix.  The inverted separating
    matrix has columns proportional to (v_j, 1) up to sign; multiplying
    every column by the sign of its last entry fixes the orientation, and
    dropping the last row leaves the vertices.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"sample must be a 2-D (t, n) array, got shape {points.shape}")
    t, n = points.shape
    lifted = _gamma_rescale(np.hstack([points, np.ones((t, 1))]), n + 1, 1.0, substream(seed, 67))
    estimate = ica_estimate(lifted, seed=seed)
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
    estimate = ica_estimate(scaled, seed=seed)
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


def separation_index(g: np.ndarray) -> float:
    """Amari-style distance of a matrix from the signed permutations.

    For each row, sum(|g|)/max(|g|) - 1, likewise for columns, averaged and
    normalized by d-1 so the result lies in [0, 1]; 0 means g is exactly a
    scaled signed permutation.
    """
    g = np.abs(np.asarray(g, dtype=float))
    d = g.shape[0]
    if g.shape != (d, d):
        raise ValueError("matrix must be square")
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

    Membership of x in M B_p is ||M^-1 x||_p <= 1; the volume ratio between
    the two bodies is |det A_est| / |det A|.  Raises ValueError unless
    ``mc_points`` is an integer >= 1.
    """
    mc_points = _check_count(mc_points, "mc_points")
    a = np.asarray(a, dtype=float)
    a_est = np.asarray(a_est, dtype=float)
    n = a.shape[0]
    a_inv = np.linalg.inv(a)
    a_est_inv = np.linalg.inv(a_est)

    def outside_fraction(sample_map: np.ndarray, other_inv: np.ndarray, key: int) -> float:
        pts = sample_lp_ball(n, p, mc_points, seed=child_seed(seed, 79, key)) @ sample_map.T
        norms = (np.abs(pts @ other_inv.T) ** p).sum(axis=1) ** (1.0 / p)
        return float((norms > 1.0).mean())

    ratio = abs(np.linalg.det(a_est)) / abs(np.linalg.det(a))
    return outside_fraction(a, a_est_inv, 0) + ratio * outside_fraction(a_est, a_inv, 1)
