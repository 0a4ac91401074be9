import math

import numpy as np
import pytest
from scipy import stats

from simplexlearn import diagnostics, ica
from simplexlearn.diagnostics import landscape_suite, scaling_suite, tv_suite
from simplexlearn.geometry import Simplex, _gauge, contains_points, isotropic_simplex
from simplexlearn.sampling import _lp_ball_points, child_seed, substream


def assert_suite_shape(report: dict):
    assert list(report) == ["checks", "pass"]
    assert report["checks"]
    for check in report["checks"]:
        assert isinstance(check["name"], str)
        assert isinstance(check["passed"], bool)
    assert report["pass"] == all(c["passed"] for c in report["checks"])


@pytest.fixture(scope="module")
def scaling_n3():
    """The scaling suite at seed 0, restricted to n = 3."""
    return scaling_suite(0, n=3)


class TestScalingSuite:
    def test_passes_at_default_seed(self, scaling_n3):
        assert_suite_shape(scaling_n3)
        assert scaling_n3["pass"]

    def test_check_names_cover_both_rescalings(self, scaling_n3):
        names = {c["name"] for c in scaling_n3["checks"]}
        assert any(name.startswith("simplex_rescale") for name in names)
        assert any(name.startswith("lp_rescale") for name in names)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "SCALING_T", 10_000)
        assert scaling_suite(seed=3, n=3) == scaling_suite(seed=3, n=3)

    def test_dimension_restriction(self, scaling_n3):
        names = [c["name"] for c in scaling_n3["checks"]]
        assert [name for name in names if name.startswith("simplex_rescale")] == [
            "simplex_rescale_exp_ks_n3",
            "simplex_rescale_decorrelated_n3",
            "simplex_rescale_lift_gamma_ks_n3",
        ]
        assert all(name.endswith("_n3") for name in names if name.startswith("lp_rescale"))

    def test_simplex_needs_two_dimensions(self):
        # its decorrelation check reads two Exp(1) columns, not the lift
        with pytest.raises(ValueError, match="^n must be >= 2, got 1"):
            scaling_suite(0, n=1)


def quantile_binned_chi2(seed: int, t: int) -> float:
    """The suite's joint-independence statistic, binned on numpy's
    interpolated quartiles instead of order statistics."""
    x, denominators = np.empty((t, 3)), np.empty(t)
    _lp_ball_points(2.0, child_seed(seed, 86), x, denominators)
    first = np.abs(x[:, 0]) ** 2.0
    bins = [np.searchsorted(np.quantile(v, [0.25, 0.5, 0.75]), v) for v in (first, denominators)]
    counts = np.bincount(4 * bins[0] + bins[1], minlength=16).reshape(4, 4).astype(float)
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
    return float(((counts - expected) ** 2 / expected).sum())


class TestJointIndependenceBins:
    # at t = 100,000 the quartiles interpolate between two order
    # statistics; at t = 100,001 they are order statistics themselves
    @pytest.mark.parametrize("seed, t", [(seed, 100_000) for seed in range(5)] + [(0, 100_001)])
    def test_order_statistics_bin_as_quantiles(self, monkeypatch, seed, t):
        # the suite's own t, with no lp powers to draw
        monkeypatch.setattr(diagnostics, "SCALING_T", t)
        monkeypatch.setattr(diagnostics, "SCALING_LP_POWERS", ())
        report = scaling_suite(seed=seed, n=2)
        [check] = [c for c in report["checks"] if c["name"] == "joint_independence_chi2_p2_n3"]
        assert check["statistic"] == quantile_binned_chi2(seed, t)


# the real helpers, captured before a mutant replaces them on ica, so a
# mutant calls the real one and not itself
REDUCTION_RADII, SCALED_ROWS = ica._reduction_radii, ica._ScaledRows


def radii_of_shape_n(out, n, p, seed):
    # Gamma(n) radii for the simplex, one short of the lift's n + 1
    return REDUCTION_RADII(out, n - 1 if p is None else n, p, seed)


def radii_without_the_root(out, n, p, seed):
    # Gamma(n/p + 1) radii for the lp ball, not their p-th roots
    out = REDUCTION_RADII(out, n, p, seed)
    if p is not None:
        out **= p
    return out


MUTANTS = [
    pytest.param("_reduction_radii", radii_of_shape_n, "simplex_rescale", id="simplex-radii-gamma-n"),
    pytest.param("_reduction_radii", radii_without_the_root, "lp_rescale", id="lp-radii-without-1/p"),
    pytest.param(
        "_ScaledRows",
        lambda points, radii, lift: SCALED_ROWS(points, radii, lift=False),
        "simplex_rescale_lift",
        id="rows-without-the-lift",
    ),
]


class TestScalingSuiteReadsWhatRuns:
    @pytest.mark.parametrize("name, mutant, caught_by", MUTANTS)
    def test_a_broken_reduction_fails_the_suite(self, monkeypatch, name, mutant, caught_by):
        # the suite builds its rows through the reductions' own recipe,
        # ica._reduction_rows, so a fault in its radii or its scaled rows
        # fails it at the fixed seed
        monkeypatch.setattr(ica, name, mutant)
        report = scaling_suite(seed=0)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert not report["pass"]
        assert failed and all(check.startswith(caught_by) for check in failed)


class TestStatistics:
    # the suite's numpy-only laws against scipy's
    @pytest.mark.parametrize("z", [0.3, 0.8, 1.17, 1.18, 1.5, 2.5])
    def test_kolmogorov_tail(self, z):
        assert diagnostics._kolmogorov_sf(z) == pytest.approx(stats.kstwobign.sf(z), rel=0, abs=1e-12)

    @pytest.mark.parametrize("shape", [1, 2, 4, 9])
    def test_gamma_cdf(self, shape):
        x = np.linspace(0.0, 40.0, 401)
        np.testing.assert_allclose(diagnostics._gamma_cdf(shape)(x), stats.gamma.cdf(x, shape), rtol=0, atol=1e-12)

    def test_half_variance_normal_cdf(self):
        x = np.linspace(-5.0, 5.0, 201)
        expected = stats.norm.cdf(x, scale=math.sqrt(0.5))
        np.testing.assert_allclose(diagnostics._half_variance_normal_cdf(x), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("x", [0.5, 3.0, 9.0, 20.0, 40.0])
    def test_chi2_tail_on_nine_degrees(self, x):
        assert diagnostics._chi2_sf_9(x) == pytest.approx(stats.chi2.sf(x, 9), rel=1e-12)

    @pytest.mark.parametrize(
        "draw, cdf, scipy_law",
        [
            pytest.param(lambda rng: rng.exponential(size=20_000), diagnostics._gamma_cdf(1), ("expon",), id="exp"),
            pytest.param(
                lambda rng: rng.normal(0.0, math.sqrt(0.5), size=20_000),
                diagnostics._half_variance_normal_cdf,
                ("norm", (0.0, math.sqrt(0.5))),
                id="normal",
            ),
        ],
    )
    def test_ks_check(self, draw, cdf, scipy_law):
        sample = draw(substream(0, 880))
        check = diagnostics._ks_check("ks", sample, cdf)
        reference = stats.kstest(sample, *scipy_law, method="asymp")
        assert check["statistic"] == pytest.approx(reference.statistic, rel=0, abs=1e-12)
        assert check["p_value"] == pytest.approx(reference.pvalue, rel=0, abs=1e-12)
        assert check["passed"] == (reference.pvalue >= 0.01)


@pytest.fixture(scope="module")
def tv_default():
    """The tv suite at its default seed."""
    return tv_suite()


class TestTvSuite:
    def test_passes_at_default_seed(self, tv_default):
        assert_suite_shape(tv_default)
        assert tv_default["pass"]

    def test_identity_check_is_exact(self):
        byname = {c["name"]: c for c in tv_suite(seed=1)["checks"]}
        assert byname["identity_zero"]["value"] == 0.0
        assert "sandwich_perturbed_certified" in byname
        cert = byname["sandwich_perturbed_certified"]
        assert 0.0 < cert["alpha"] <= 1.0 + 1e-6
        assert cert["beta"] >= cert["alpha"]

    def test_sandwich_checks_keep_their_fields(self, tv_default):
        # only the certified case reports the ratios it certified
        sandwich = [(c["name"], list(c)[1:]) for c in tv_default["checks"] if c["name"].startswith("sandwich_")]
        assert sandwich == [
            ("sandwich_identity", ["tv", "bound", "passed"]),
            ("sandwich_scaled_0.9", ["tv", "bound", "passed"]),
            ("sandwich_perturbed_certified", ["alpha", "beta", "tv", "bound", "passed"]),
        ]


class TestLandscapeSuite:
    def test_single_dimension(self):
        report = landscape_suite(n=3)
        assert_suite_shape(report)
        assert report["pass"]
        [check] = report["checks"]
        # the certificate's per-point checks, one per alpha = 1..3
        assert list(check) == ["name", "passed", "checks"]
        assert check["name"] == "landscape_n3"
        assert [c["alpha"] for c in check["checks"]] == [1, 2, 3]

    def test_default_dims(self):
        report = landscape_suite()
        assert report["pass"]
        assert [c["name"] for c in report["checks"]] == [f"landscape_n{n}" for n in range(2, 9)]


class TestGauge:
    def test_own_vertices_have_unit_gauge(self):
        s = isotropic_simplex(3)
        assert np.allclose(_gauge(s, s.vertices), 1.0, atol=1e-9)

    def test_homogeneous_and_monotone(self):
        s = isotropic_simplex(2)
        x = substream(0, 1).standard_normal(2)
        g1 = _gauge(s, x)[0]
        g2 = _gauge(s, 2.0 * x)[0]
        assert g2 == pytest.approx(2.0 * g1)
        assert _gauge(s, np.zeros(2))[0] == 0.0

    def test_membership_iff_gauge_at_most_one(self):
        s = isotropic_simplex(3)
        pts = substream(0, 2).standard_normal((500, 3))
        inside = contains_points(s, pts)
        assert (inside == (_gauge(s, pts) <= 1.0 + 1e-12)).all()

    def test_equals_the_facet_normal_gauge(self):
        # s = {x : a_i . x <= 1 for all i}, with a_i normal to the facet
        # opposite vertex i, so the gauge is also max_i a_i . x
        rng = substream(0, 3)
        s = Simplex(isotropic_simplex(3).vertices + 0.05 * rng.standard_normal((4, 3)))
        normals = np.array([np.linalg.solve(np.delete(s.vertices, i, axis=0), np.ones(3)) for i in range(4)])
        pts = rng.standard_normal((200, 3))
        np.testing.assert_allclose(_gauge(s, pts), (pts @ normals.T).max(axis=1), rtol=1e-12, atol=1e-12)
