import numpy as np
import pytest

from simplexlearn.diagnostics import (
    SUITES,
    landscape_suite,
    run_suite,
    scaling_suite,
    tv_suite,
)
from simplexlearn.geometry import Simplex, _gauge, contains_points, isotropic_simplex
from simplexlearn.sampling import substream


def assert_suite_shape(report: dict, name: str):
    assert report["suite"] == name
    assert isinstance(report["params"], dict)
    assert report["checks"]
    for check in report["checks"]:
        assert isinstance(check["name"], str)
        assert isinstance(check["passed"], bool)
    assert report["pass"] == all(c["passed"] for c in report["checks"])


class TestScalingSuite:
    def test_passes_at_default_seed(self):
        report = scaling_suite(seed=0, t=30_000, simplex_dims=(3,), lp_powers=(1.0, 2.0), lp_dim=3)
        assert_suite_shape(report, "scaling")
        assert report["pass"]

    def test_check_names_cover_both_rescalings(self):
        report = scaling_suite(seed=0, t=20_000, simplex_dims=(4,), lp_powers=(2.0,), lp_dim=3)
        names = {c["name"] for c in report["checks"]}
        assert any(name.startswith("simplex_rescale") for name in names)
        assert any(name.startswith("lp_rescale") for name in names)

    def test_deterministic(self):
        a = scaling_suite(seed=3, t=10_000, simplex_dims=(3,), lp_powers=(1.0,), lp_dim=3)
        b = scaling_suite(seed=3, t=10_000, simplex_dims=(3,), lp_powers=(1.0,), lp_dim=3)
        assert a == b


class TestTvSuite:
    def test_passes_at_default_seed(self):
        report = tv_suite(seed=0, mc_points=20_000, alphas=(0.8,), dims=(2, 3))
        assert_suite_shape(report, "tv")
        assert report["pass"]

    def test_identity_check_is_exact(self):
        report = tv_suite(seed=1, mc_points=5000, alphas=(0.9,), dims=(2,))
        byname = {c["name"]: c for c in report["checks"]}
        assert byname["identity_zero"]["value"] == 0.0
        assert "sandwich_perturbed_certified" in byname
        cert = byname["sandwich_perturbed_certified"]
        assert 0.0 < cert["alpha"] <= 1.0 + 1e-6
        assert cert["beta"] >= cert["alpha"]


class TestLandscapeSuite:
    def test_single_dimension(self):
        report = landscape_suite(dims=[3])
        assert_suite_shape(report, "landscape")
        assert report["pass"]
        assert report["params"] == {"dims": [3]}
        assert report["checks"][0]["name"] == "landscape_n3"
        assert report["checks"][0]["report"]["n"] == 3

    def test_default_dims(self):
        report = landscape_suite()
        assert report["pass"]
        assert [c["name"] for c in report["checks"]] == [f"landscape_n{n}" for n in range(2, 9)]


class TestRunSuite:
    def test_dispatch_matches_direct_calls(self):
        assert set(SUITES) == {"scaling", "tv", "landscape"}
        report = run_suite("landscape", seed=0, n=4)
        assert [c["name"] for c in report["checks"]] == ["landscape_n4"]

    def test_scaling_dimension_restriction(self):
        report = run_suite("scaling", seed=0, n=3)
        assert report["params"]["simplex_dims"] == [3]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")


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
