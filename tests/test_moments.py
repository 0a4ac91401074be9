import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlearn.moments import (
    certify_landscape,
    empirical_m3_grad,
    exact_grad_m3,
    exact_m3,
    projected_p3_gradient,
    two_value_critical_point,
)
from simplexlearn.sampling import sample_standard_simplex, substream


def brute_force_h3(u: np.ndarray) -> float:
    total = 0.0
    for i, j, k in itertools.combinations_with_replacement(range(u.size), 3):
        total += u[i] * u[j] * u[k]
    return total


coords = st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=6)


class TestPowerSums:
    """exact_m3 and exact_grad_m3 through the power sums p1, p2, p3 of u."""

    @given(coords)
    @settings(max_examples=60, deadline=None)
    def test_newton_identities_match_enumeration(self, values):
        # the numerator p1^3 + 3 p1 p2 + 2 p3 is 6 h3(u)
        u = np.asarray(values)
        m = u.size
        assert exact_m3(u) * m * (m + 1) * (m + 2) == pytest.approx(6.0 * brute_force_h3(u), abs=1e-9)

    def test_known_values(self):
        # u = (1, 2, 3): p1 = 6, p2 = 14, p3 = 36 and h3 = 90, over 3 * 4 * 5
        u = np.array([1.0, 2.0, 3.0])
        assert exact_m3(u) == pytest.approx(540.0 / 60.0)
        # (3 (p1^2 + p2) + 6 p1 u + 6 u^2) / 60
        assert exact_grad_m3(u) == pytest.approx(np.array([192.0, 246.0, 312.0]) / 60.0)

    @given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_frame_gradient_stacks_the_column_gradients(self, m, k, seed, scale):
        # a frame's columns are independent arguments: the power sums run along axis 0
        u = scale * substream(seed, 4).standard_normal((m, k))
        stacked = np.column_stack([exact_grad_m3(column) for column in u.T])
        assert exact_grad_m3(u).shape == (m, k)
        assert np.abs(exact_grad_m3(u) - stacked).max() <= 1e-14 * np.abs(stacked).max()


class TestExactMoment:
    def test_vertex_direction(self):
        # u = e1 in R^3: E[(X.u)^3] = E[X1^3] = 6/(3*4*5)
        u = np.array([1.0, 0.0, 0.0])
        assert exact_m3(u) == pytest.approx(6.0 / 60.0)
        assert exact_grad_m3(u) == pytest.approx(np.array([0.3, 0.1, 0.1]))

    def test_ones_direction(self):
        # X.1 = 1 almost surely
        u = np.ones(4)
        assert exact_m3(u) == pytest.approx(1.0)

    def test_matches_monte_carlo(self):
        rng = substream(0, 1)
        for n in (2, 4):
            sm = sample_standard_simplex(n + 1, 200_000, 100 + n)
            u = rng.standard_normal(n + 1)
            s = sm @ u
            grad = empirical_m3_grad(sm, u)
            grad_tol = 15 * (s**2).std() / math.sqrt(s.size)
            assert np.abs(grad - exact_grad_m3(u)).max() <= grad_tol

    def test_gradient_against_finite_differences(self):
        rng = substream(0, 2)
        for n in (2, 5, 9):
            u = rng.standard_normal(n + 1)
            grad = exact_grad_m3(u)
            h = 1e-6
            for j in range(n + 1):
                step = np.zeros(n + 1)
                step[j] = h
                fd = (exact_m3(u + step) - exact_m3(u - step)) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j]))

    def test_empirical_dimension_check(self):
        sm = sample_standard_simplex(3, 10, 0)
        with pytest.raises(ValueError):
            empirical_m3_grad(sm, np.ones(4))


class TestTangentRestriction:
    def test_m3_on_tangent_plane_reduces_to_p3(self):
        # on u.1 = 0 the numerator collapses to 2*p3
        rng = substream(0, 3)
        for m in (3, 5, 8):
            u = rng.standard_normal(m)
            u -= u.mean()
            denom = m * (m + 1) * (m + 2)
            assert exact_m3(u) == pytest.approx(2.0 * (u**3).sum() / denom, abs=1e-12)


class TestCriticalPoints:
    @pytest.mark.parametrize("n,alpha", [(3, 1), (3, 2), (5, 3), (8, 1)])
    def test_structure(self, n, alpha):
        v, gamma, a, b = two_value_critical_point(n, alpha)
        m = n + 1
        assert v.shape == (m,)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v.sum() == pytest.approx(0.0, abs=1e-12)
        assert gamma == pytest.approx(alpha / m)
        assert sorted(set(np.round(v, 12))) == sorted({round(a, 12), round(b, 12)})
        near_a = np.isclose(v, a).sum()
        near_b = np.isclose(v, b).sum()
        assert near_a == alpha and near_a + near_b == m

    @pytest.mark.parametrize("n,alpha", [(3, 1), (4, 2), (6, 4)])
    def test_projected_gradient_vanishes(self, n, alpha):
        v = two_value_critical_point(n, alpha)[0]
        assert np.abs(projected_p3_gradient(v)).max() <= 1e-12

    def test_vertex_case_is_scaled_basis(self):
        # alpha = 1 is the image of a simplex vertex on the sphere
        v = two_value_critical_point(4, 1)[0]
        assert (v > 0).sum() == 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            two_value_critical_point(3, 0)
        with pytest.raises(ValueError):
            two_value_critical_point(3, 4)

    def test_non_critical_direction_has_gradient(self):
        rng = substream(0, 4)
        u = rng.standard_normal(5)
        u -= u.mean()
        u /= np.linalg.norm(u)
        assert np.abs(projected_p3_gradient(u)).max() > 1e-6


class TestLandscapeCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certifies(self, n):
        report = certify_landscape(n, trials=100, seed=0)
        assert report["pass"]
        assert report["n"] == n
        assert report["vertex_checks"] and report["saddle_checks"]
        assert report["gamma_min"]["matches"]
        assert report["gamma_min"]["value"] == pytest.approx(2.0 / math.sqrt(n + 1))

    def test_random_search_finds_no_better_value(self):
        # vertex value is the global max of p3 on the constraint sphere
        for n in (2, 3, 4):
            m = n + 1
            best = two_value_critical_point(n, 1)[0]
            target = (best**3).sum()
            rng = substream(0, 5, n)
            u = rng.standard_normal((20_000, m))
            u -= u.mean(axis=1, keepdims=True)
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert (u**3).sum(axis=1).max() <= target + 1e-9

    def test_trial_validation(self):
        with pytest.raises(ValueError):
            certify_landscape(1)
