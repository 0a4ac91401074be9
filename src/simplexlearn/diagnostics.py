"""Statistical verification suites.

Each suite runs a fixed list of named checks, whose names carry their
dimensions and powers, and returns a JSON-ready dict {"checks", "pass"}.
The checks are distribution-level facts the rest of the package relies
on: the rows that the ICA reductions read, built by their one recipe
``ica._reduction_rows``, have iid coordinates of the known laws; the
ball sampler's norm and direction are independent, as are its points
and the denominator it divides by; the total-variation identities used
by the evaluator and the sandwich bound, whose containment ratios come
from the gauges of the simplices' barycentric inverses; and the
third-moment landscape certification.
Every statistic and p-value is computed with numpy and ``math``.

The scaling and tv suites derive all randomness from the suite seed, so a
suite invocation is a deterministic regression test; significance levels
(0.01 for KS and chi-square, 3 sigma for moment and correlation checks)
are chosen so that the fixed-seed runs pass with margin.  The landscape
suite is exact and draws no random numbers, so it takes no seed.  Sizes
are the module constants below; ``n`` restricts a suite's dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluation import check_sandwich_bound, tv_distance_mc
from .geometry import Simplex, _gauge, isotropic_simplex
from .ica import _reduction_rows
from .moments import certify_landscape
from .sampling import _check_count, _lp_ball_points, child_seed, sample_lp_ball, sample_simplex, substream

__all__ = ["scaling_suite", "tv_suite", "landscape_suite"]

KS_ALPHA = 0.01
CHI2_ALPHA = 0.01

SCALING_T = 100_000
SCALING_SIMPLEX_DIMS = (3, 8)
SCALING_LP_POWERS = (1.0, 2.0, 3.0)
SCALING_LP_DIM = 4
TV_POINTS = 20_000
TV_ALPHAS = (0.5, 0.8, 0.95)
TV_DIMS = (2, 3, 4, 5, 6)
LANDSCAPE_DIMS = range(2, 9)


def _finish(checks: list[dict]) -> dict:
    return {"checks": checks, "pass": bool(all(c["passed"] for c in checks))}


def _kolmogorov_sf(z: float) -> float:
    """P(K > z) for the Kolmogorov distribution, the limit law of sqrt(N) D,
    from four terms of whichever of its two series converges fast at z
    (Numerical Recipes, 3rd ed., sec. 6.14)."""
    if z < 1.18:
        y = math.exp(-(math.pi**2) / (8.0 * z * z))
        return 1.0 - math.sqrt(2.0 * math.pi) / z * (y + y**9 + y**25 + y**49)
    y = math.exp(-2.0 * z * z)
    return 2.0 * (y - y**4 + y**9)


def _ks_check(name: str, sample: np.ndarray, cdf) -> dict:
    """Two-sided Kolmogorov-Smirnov check of the pooled ``sample`` against
    the continuous ``cdf``, with the asymptotic p-value Q(sqrt(N) D)."""
    x = np.sort(sample, axis=None)
    f, count = cdf(x), x.size
    d = max(float((np.arange(1.0, count + 1) / count - f).max()), float((f - np.arange(0.0, count) / count).max()))
    p_value = _kolmogorov_sf(math.sqrt(count) * d)
    return {"name": name, "statistic": d, "p_value": p_value, "passed": bool(p_value >= KS_ALPHA)}


def _gamma_cdf(shape: int):
    """CDF of Gamma(shape, 1) for an integer shape >= 1, as the finite sum
    1 - e^-x (1 + x + ... + x^(shape-1) / (shape-1)!)."""

    def cdf(x: np.ndarray) -> np.ndarray:
        term, tail = np.exp(-x), -np.expm1(-x)
        for j in range(1, shape):
            term *= x / j
            tail -= term
        return tail

    return cdf


def _half_variance_normal_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of the normal law with mean 0 and variance 1/2: (1 + erf(x)) / 2."""
    return 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(x).astype(float))


def _chi2_sf_9(x: float) -> float:
    """P(chi^2 > x) on 9 degrees of freedom: erfc(sqrt(x/2)) plus
    sqrt(2x/pi) e^(-x/2) (1 + x/3 + x^2/15 + x^3/105)."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0) * (
        1.0 + x / 3.0 + x * x / 15.0 + x**3 / 105.0
    )


def _correlation_check(name: str, a: np.ndarray, b: np.ndarray) -> dict:
    """Sample correlation of ``a`` and ``b`` within 3 / sqrt(N) of zero."""
    r, tolerance = float(np.corrcoef(a, b)[0, 1]), 3.0 / math.sqrt(a.size)
    return {"name": name, "correlation": r, "tolerance": tolerance, "passed": bool(abs(r) <= tolerance)}


def scaling_suite(seed: int = 0, n: int | None = None) -> dict:
    """Distributional checks on the rows the ICA reductions read and on
    the lp-ball sampler, on numpy and ``math`` alone.

    - simplex reduction: a ``sample_simplex`` draw of the corner simplex
      conv{0, e_1, ..., e_n} becomes, through ``ica._reduction_rows`` as
      ``reduce_simplex_to_ica`` calls it, read as one block, rows
      (E_1, ..., E_n, E_0 + ... + E_n) with E_i iid Exp(1): the first n
      columns are Exp(1) (KS) and pairwise uncorrelated (3 sigma), and the
      last column, the lift, is Gamma(n+1, 1) (KS);
    - lp reduction: a ``sample_lp_ball`` draw, scaled by
      ``ica._reduction_rows`` as ``reduce_lp_to_ica`` calls it, has pooled
      coordinates with E|x|^p = 1/p (3 sigma), with KS checks against the
      explicit densities at p = 1 (|x| is Exp(1)) and p = 2 (normal with
      variance 1/2);
    - norm/direction independence of a ``sample_lp_ball`` draw X:
      ||X||_p and |X_1| / ||X||_p are uncorrelated (3 sigma);
    - joint independence of |X_1|^p and the denominator sum |G_i|^p + Z
      that the ball sampler divides by, chi-square on a 4 x 4 quartile
      binning.  Its edges are the order statistics x_(k), k = floor((t - 1)
      q / 4), of a sort: numpy's interpolated quartile lies between x_(k)
      and x_(k+1), with no sample strictly between them, so every point
      falls in the bin that ``np.quantile`` edges give it, and numpy.ma,
      which ``np.quantile`` loads on its first call, stays unimported.

    KS p-values are the asymptotic Kolmogorov tail, and the chi-square
    tail on its 9 degrees of freedom is a closed form.  Each draw has
    SCALING_T rows.  ``n``, an integer >= 2 else ValueError before any
    draw, replaces SCALING_SIMPLEX_DIMS and SCALING_LP_DIM.
    """
    if n is not None:
        n = _check_count(n, "n", minimum=2)
    t = SCALING_T
    lp_dim = SCALING_LP_DIM if n is None else n
    checks: list[dict] = []

    for dim in SCALING_SIMPLEX_DIMS if n is None else [n]:
        corner = Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))
        points = sample_simplex(corner, t, child_seed(seed, 83, dim, 0))
        rows = _reduction_rows(points, None, child_seed(seed, 83, dim, 1))[0:t]
        checks.append(_ks_check(f"simplex_rescale_exp_ks_n{dim}", rows[:, :dim], _gamma_cdf(1)))
        checks.append(_correlation_check(f"simplex_rescale_decorrelated_n{dim}", rows[:, 0], rows[:, 1]))
        checks.append(_ks_check(f"simplex_rescale_lift_gamma_ks_n{dim}", rows[:, -1], _gamma_cdf(dim + 1)))

    for p in SCALING_LP_POWERS:
        key = int(round(8 * p))
        ball = sample_lp_ball(lp_dim, p, t, child_seed(seed, 84, key, 0))
        rows = _reduction_rows(ball, p, child_seed(seed, 84, key, 1))[0:t]
        powers = np.abs(rows) ** p
        mean, se = float(powers.mean()), float(powers.std(ddof=1) / math.sqrt(powers.size))
        checks.append(
            {
                "name": f"lp_rescale_moment_p{p:g}_n{lp_dim}",
                "mean": mean,
                "expected": 1.0 / p,
                "std_error": se,
                "passed": bool(abs(mean - 1.0 / p) <= 3.0 * se),
            }
        )
        if p == 1.0:
            checks.append(_ks_check(f"lp_rescale_abs_exp_ks_p1_n{lp_dim}", np.abs(rows), _gamma_cdf(1)))
        if p == 2.0:
            checks.append(_ks_check(f"lp_rescale_normal_ks_p2_n{lp_dim}", rows, _half_variance_normal_cdf))

    p_ind, n_ind = 3.0, 4
    x = sample_lp_ball(n_ind, p_ind, t, child_seed(seed, 85))
    norms = (np.abs(x) ** p_ind).sum(axis=1) ** (1.0 / p_ind)
    checks.append(_correlation_check(f"cone_norm_direction_decorrelated_p{p_ind:g}_n{n_ind}", norms, np.abs(x[:, 0]) / norms))

    p_joint, n_joint = 2.0, 3
    x, denominators = np.empty((t, n_joint)), np.empty(t)
    _lp_ball_points(p_joint, child_seed(seed, 86), x, denominators)
    first = np.abs(x[:, 0]) ** p_joint
    quartiles = [(t - 1) * q // 4 for q in (1, 2, 3)]
    bins = [np.searchsorted(np.sort(v)[quartiles], v) for v in (first, denominators)]
    counts = np.bincount(4 * bins[0] + bins[1], minlength=16).reshape(4, 4).astype(float)
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = _chi2_sf_9(statistic)
    checks.append(
        {
            "name": f"joint_independence_chi2_p{p_joint:g}_n{n_joint}",
            "statistic": statistic,
            "p_value": p_value,
            "passed": bool(p_value >= CHI2_ALPHA),
        }
    )

    return _finish(checks)


def tv_suite(seed: int = 0) -> dict:
    """Total-variation identities and the sandwich bound, each TV from
    TV_POINTS Monte Carlo points.

    The grid checks d_TV(K, alpha K) = 1 - alpha^n within 3 standard
    errors over TV_ALPHAS x TV_DIMS.  One table of sandwich cases, run
    through one :func:`check_sandwich_bound` call, covers the identity,
    a pure scaling, and a perturbation drawn first from substream(seed,
    90, 2), whose containment ratios are certified before the bound is
    tested, from gauges that the barycentric coordinates give: gauge_s(x)
    = max_i (1 - lam_i(x) / lam_i(0)); only that case reports them.
    Each case draws its TV from child_seed(seed, 90, key), keys 0, 1, 3.
    """
    checks: list[dict] = []

    k_identity = isotropic_simplex(2)
    est = tv_distance_mc(k_identity, k_identity, TV_POINTS, seed=child_seed(seed, 89, 0))
    checks.append({"name": "identity_zero", "value": est.value, "passed": bool(est.value == 0.0)})

    for n in TV_DIMS:
        k = isotropic_simplex(n)
        for alpha in TV_ALPHAS:
            est = tv_distance_mc(k, k.scaled(alpha), TV_POINTS, seed=child_seed(seed, 89, n, int(round(100 * alpha))))
            expected = 1.0 - alpha**n
            tol = 3.0 * max(est.std_error, 1e-12)
            checks.append(
                {
                    "name": f"scaled_tv_n{n}_alpha{alpha:g}",
                    "value": est.value,
                    "expected": expected,
                    "std_error": est.std_error,
                    "passed": bool(abs(est.value - expected) <= tol),
                }
            )

    k3 = isotropic_simplex(3)
    rng = substream(seed, 90, 2)
    perturbed = Simplex(k3.vertices + 0.05 * rng.standard_normal(k3.vertices.shape))
    alpha_cert = float(1.0 / _gauge(perturbed, k3.vertices).max()) * (1.0 - 1e-9)
    beta_cert = float(_gauge(k3, perturbed.vertices).max()) * (1.0 + 1e-9)
    # (name, L, alpha, beta, key of the TV seed, whether the ratios are certified)
    cases = [
        ("sandwich_identity", k3, 1.0, 1.0, 0, False),
        ("sandwich_scaled_0.9", k3.scaled(0.9), 0.9, 1.0, 1, False),
        ("sandwich_perturbed_certified", perturbed, alpha_cert, beta_cert, 3, True),
    ]
    for name, l, alpha, beta, key, certified in cases:
        report = check_sandwich_bound(k3, l, alpha, beta, TV_POINTS, seed=child_seed(seed, 90, key))
        ratios = {"alpha": alpha, "beta": beta} if certified else {}
        checks.append({"name": name, **ratios, "tv": report.tv.value, "bound": report.bound, "passed": bool(report.holds)})

    return _finish(checks)


def landscape_suite(n: int | None = None) -> dict:
    """Landscape certification of the third power sum at each dimension
    of LANDSCAPE_DIMS, or at ``n`` alone, from the exact Hessian spectrum
    at every critical point.  Each dimension's check holds the per-point
    checks of :func:`simplexlearn.moments.certify_landscape`."""
    checks = []
    for dim in LANDSCAPE_DIMS if n is None else [n]:
        report = certify_landscape(dim)
        checks.append({"name": f"landscape_n{dim}", "passed": report["pass"], "checks": report["checks"]})
    return _finish(checks)

