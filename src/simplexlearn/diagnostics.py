"""Statistical verification suites.

Each suite runs a fixed list of named checks and returns a JSON-ready dict
{"suite", "params", "checks", "pass"}.  The checks are distribution-level
facts the rest of the package relies on: the rescalings that turn simplex
and lp-ball samples into iid coordinates, the norm/direction independence
behind the ball sampler, the total-variation identities used by the
evaluator and the sandwich bound, whose containment ratios come from the
gauges of the simplices' barycentric inverses, and the third-moment
landscape certification.

The scaling and tv suites derive all randomness from the suite seed, so a
suite invocation is a deterministic regression test; significance levels
(0.01 for KS and chi-square, 3 sigma for moment and correlation checks)
are chosen so that the fixed-seed runs pass with margin.  The landscape
suite is exact and draws no random numbers, so it takes no seed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .evaluation import check_sandwich_bound, tv_distance_mc
from .geometry import Simplex, _gauge, isotropic_simplex
from .moments import certify_landscape
from .sampling import (
    child_seed,
    rescale_lp_sample,
    rescale_simplex_sample,
    sample_generalized_gaussian,
    sample_lp_ball,
    sample_standard_simplex,
    substream,
)

__all__ = [
    "scaling_suite",
    "tv_suite",
    "landscape_suite",
    "run_suite",
    "SUITES",
]

KS_ALPHA = 0.01
CHI2_ALPHA = 0.01


def _finish(suite: str, params: dict, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "params": params,
        "checks": checks,
        "pass": bool(all(c["passed"] for c in checks)),
    }


def scaling_suite(
    seed: int = 0,
    t: int = 100_000,
    simplex_dims: Sequence[int] = (3, 8),
    lp_powers: Sequence[float] = (1.0, 2.0, 3.0),
    lp_dim: int = 4,
) -> dict:
    """Distributional checks on the sample rescalings.

    - simplex rescaling: pooled coordinates of a rescaled uniform simplex
      sample are Exp(1) (KS), pairwise uncorrelated (3 sigma), and the row
      sums are Gamma(n, 1) (KS);
    - lp rescaling: pooled coordinates of a rescaled uniform ball sample
      have E|x|^p = 1/p (3 sigma), with KS checks against the explicit
      densities at p = 1 (Laplace) and p = 2 (normal with variance 1/2);
    - norm/direction independence of the normalized-vector representation
      (correlation within 3 sigma of zero);
    - joint independence of the normalized vector and its denominator,
      chi-square on a 4 x 4 quantile binning.

    The only function in the package that uses scipy; it imports
    ``scipy.stats`` on call, so ``learn`` and ``reduce`` never load it.
    """
    from scipy import stats

    checks: list[dict] = []

    for n in simplex_dims:
        x = sample_standard_simplex(n, t, seed=child_seed(seed, 83, n, 0))
        y = rescale_simplex_sample(x, seed=child_seed(seed, 83, n, 1))
        pooled = y.ravel()
        ks = stats.kstest(pooled, "expon")
        checks.append(
            {
                "name": f"simplex_rescale_exp_ks_n{n}",
                "statistic": float(ks.statistic),
                "p_value": float(ks.pvalue),
                "passed": bool(ks.pvalue >= KS_ALPHA),
            }
        )
        r = float(np.corrcoef(y[:, 0], y[:, 1])[0, 1])
        checks.append(
            {
                "name": f"simplex_rescale_decorrelated_n{n}",
                "correlation": r,
                "tolerance": 3.0 / math.sqrt(t),
                "passed": bool(abs(r) <= 3.0 / math.sqrt(t)),
            }
        )
        sums = y.sum(axis=1)
        ks_sum = stats.kstest(sums, "gamma", args=(n,))
        checks.append(
            {
                "name": f"simplex_rescale_rowsum_gamma_ks_n{n}",
                "statistic": float(ks_sum.statistic),
                "p_value": float(ks_sum.pvalue),
                "passed": bool(ks_sum.pvalue >= KS_ALPHA),
            }
        )

    for p in lp_powers:
        x = sample_lp_ball(lp_dim, p, t, seed=child_seed(seed, 84, int(round(8 * p)), 0))
        y = rescale_lp_sample(x, p, seed=child_seed(seed, 84, int(round(8 * p)), 1))
        pooled = np.abs(y.ravel()) ** p
        mean = float(pooled.mean())
        se = float(pooled.std(ddof=1) / math.sqrt(pooled.size))
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
            ks = stats.kstest(np.abs(y.ravel()), "expon")
            checks.append(
                {
                    "name": f"lp_rescale_abs_exp_ks_p1_n{lp_dim}",
                    "statistic": float(ks.statistic),
                    "p_value": float(ks.pvalue),
                    "passed": bool(ks.pvalue >= KS_ALPHA),
                }
            )
        if p == 2.0:
            ks = stats.kstest(y.ravel(), "norm", args=(0.0, math.sqrt(0.5)))
            checks.append(
                {
                    "name": f"lp_rescale_normal_ks_p2_n{lp_dim}",
                    "statistic": float(ks.statistic),
                    "p_value": float(ks.pvalue),
                    "passed": bool(ks.pvalue >= KS_ALPHA),
                }
            )

    # norm/direction independence of X = G / ||G||_p
    p_ind, n_ind = 3.0, 4
    g = sample_generalized_gaussian(p_ind, t * n_ind, substream(seed, 85)).reshape(t, n_ind)
    norms = (np.abs(g) ** p_ind).sum(axis=1) ** (1.0 / p_ind)
    direction_coord = g[:, 0] / norms
    r = float(np.corrcoef(norms, direction_coord)[0, 1])
    checks.append(
        {
            "name": f"cone_norm_direction_decorrelated_p{p_ind:g}_n{n_ind}",
            "correlation": r,
            "tolerance": 3.0 / math.sqrt(t),
            "passed": bool(abs(r) <= 3.0 / math.sqrt(t)),
        }
    )

    # joint independence of H / (sum H + W) and sum H + W, 4 x 4 binning
    p_joint, n_joint = 2.0, 3
    rng = substream(seed, 86)
    h = rng.gamma(1.0 / p_joint, 1.0, size=(t, n_joint))
    w = rng.exponential(1.0, size=t)
    denom = h.sum(axis=1) + w
    first = h[:, 0] / denom
    qx = np.quantile(first, [0.25, 0.5, 0.75])
    qy = np.quantile(denom, [0.25, 0.5, 0.75])
    counts = np.zeros((4, 4))
    ix = np.searchsorted(qx, first)
    iy = np.searchsorted(qy, denom)
    np.add.at(counts, (ix, iy), 1)
    chi2 = stats.chi2_contingency(counts)
    checks.append(
        {
            "name": f"joint_independence_chi2_p{p_joint:g}_n{n_joint}",
            "statistic": float(chi2.statistic),
            "p_value": float(chi2.pvalue),
            "passed": bool(chi2.pvalue >= CHI2_ALPHA),
        }
    )

    return _finish(
        "scaling",
        {
            "seed": seed,
            "t": t,
            "simplex_dims": list(simplex_dims),
            "lp_powers": [float(p) for p in lp_powers],
            "lp_dim": lp_dim,
        },
        checks,
    )


def tv_suite(
    seed: int = 0,
    mc_points: int = 20_000,
    alphas: Sequence[float] = (0.5, 0.8, 0.95),
    dims: Sequence[int] = (2, 3, 4, 5, 6),
) -> dict:
    """Total-variation identities and the sandwich bound.

    The grid checks d_TV(K, alpha K) = 1 - alpha^n within 3 standard
    errors over alphas x dims; the sandwich cases cover the identity, a
    pure scaling, and a random perturbation whose containment ratios are
    certified before the bound is tested, from gauges that the barycentric
    coordinates give: gauge_s(x) = max_i (1 - lam_i(x) / lam_i(0)).
    """
    checks: list[dict] = []

    k_identity = isotropic_simplex(2)
    est = tv_distance_mc(k_identity, k_identity, mc_points, rng=child_seed(seed, 89, 0))
    checks.append({"name": "identity_zero", "value": est.value, "passed": bool(est.value == 0.0)})

    for n in dims:
        k = isotropic_simplex(n)
        for alpha in alphas:
            est = tv_distance_mc(k, k.scaled(alpha), mc_points, rng=child_seed(seed, 89, n, int(round(100 * alpha))))
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
    report = check_sandwich_bound(k3, k3, 1.0, 1.0, mc_points, rng=child_seed(seed, 90, 0))
    checks.append(
        {"name": "sandwich_identity", "tv": report.tv.value, "bound": report.bound, "passed": bool(report.holds)}
    )

    report = check_sandwich_bound(k3, k3.scaled(0.9), 0.9, 1.0, mc_points, rng=child_seed(seed, 90, 1))
    checks.append(
        {"name": "sandwich_scaled_0.9", "tv": report.tv.value, "bound": report.bound, "passed": bool(report.holds)}
    )

    rng = substream(seed, 90, 2)
    perturbed = Simplex(k3.vertices + 0.05 * rng.standard_normal(k3.vertices.shape))
    alpha_cert = float(1.0 / _gauge(perturbed, k3.vertices).max()) * (1.0 - 1e-9)
    beta_cert = float(_gauge(k3, perturbed.vertices).max()) * (1.0 + 1e-9)
    report = check_sandwich_bound(k3, perturbed, alpha_cert, beta_cert, mc_points, rng=child_seed(seed, 90, 3))
    checks.append(
        {
            "name": "sandwich_perturbed_certified",
            "alpha": alpha_cert,
            "beta": beta_cert,
            "tv": report.tv.value,
            "bound": report.bound,
            "passed": bool(report.holds),
        }
    )

    return _finish(
        "tv",
        {"seed": seed, "mc_points": mc_points, "alphas": [float(a) for a in alphas], "dims": list(dims)},
        checks,
    )


def landscape_suite(dims: Iterable[int] = range(2, 9)) -> dict:
    """Landscape certification of the third power sum over a range of
    dimensions, from the exact Hessian spectrum at every critical point;
    see :func:`simplexlearn.moments.certify_landscape`."""
    checks = []
    dims = list(dims)
    for n in dims:
        report = certify_landscape(n)
        checks.append({"name": f"landscape_n{n}", "passed": report["pass"], "report": report})
    return _finish("landscape", {"dims": dims}, checks)


SUITES = {
    "scaling": scaling_suite,
    "tv": tv_suite,
    "landscape": landscape_suite,
}


def run_suite(name: str, seed: int = 0, n: int | None = None) -> dict:
    """Dispatch a named suite; ``n`` restricts landscape/scaling dims when
    given.  The landscape suite draws no random numbers, so ``seed`` does
    not reach it."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name == "landscape":
        return landscape_suite(dims=[n] if n is not None else range(2, 9))
    if name == "scaling":
        if n is not None:
            return scaling_suite(seed=seed, simplex_dims=(n,), lp_dim=max(n, 2))
        return scaling_suite(seed=seed)
    return tv_suite(seed=seed)
