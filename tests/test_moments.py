import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlearn import moments, sampling
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

    @pytest.mark.parametrize("shape", [(4, 2), (4, 1), (), (1, 4), (0,)])
    def test_moment_takes_one_direction(self, shape):
        # a frame would pool its columns' power sums into one number that
        # is the moment of no direction, and an empty u names no simplex
        u = substream(0, 4).standard_normal(shape)
        with pytest.raises(ValueError, match=r"u must have shape \(m,\)"):
            exact_m3(u)


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

    @pytest.mark.parametrize(
        "points_shape,u_shape", [((2, 3, 3), (3,)), ((3,), (3,)), ((4, 3), ()), ((4, 3), (3, 2, 2)), ((0, 3), (3,))]
    )
    def test_empirical_shapes_rejected(self, points_shape, u_shape):
        # a 1-D sample is not read as one point, nor a stack of samples as
        # one, and an empty sample has no mean to estimate
        shapes = rf"got shapes {re.escape(str(points_shape))} and {re.escape(str(u_shape))}$"
        with pytest.raises(ValueError, match=rf"^points must form a \(t, d\) array .*{shapes}"):
            empirical_m3_grad(np.ones(points_shape), np.ones(u_shape))


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

    @pytest.mark.parametrize(
        "n, alpha, name", [(2.0, 1, "n"), (True, 1, "n"), (3, 1.0, "alpha"), (3, True, "alpha"), ("3", 1, "n")]
    )
    def test_arguments_must_be_integers(self, n, alpha, name):
        # a float raised a TypeError, and n = True returned a point
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            two_value_critical_point(n, alpha)

    def test_non_critical_direction_has_gradient(self):
        rng = substream(0, 4)
        u = rng.standard_normal(5)
        u -= u.mean()
        u /= np.linalg.norm(u)
        assert np.abs(projected_p3_gradient(u)).max() > 1e-6


class TestLandscapeCertificate:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_certifies(self, n):
        report = certify_landscape(n)
        assert report["pass"]
        assert report["n"] == n
        assert [c["alpha"] for c in report["checks"]] == list(range(1, n + 1))
        assert [c["strict_max"] for c in report["checks"]] == [True] + [False] * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_vertex_spectrum_is_closed_form(self, n):
        # at alpha = 1 the whole tangent spectrum is 2b - p3 = -sqrt((n+1)/n)
        vertex = certify_landscape(n)["checks"][0]
        for key in ("min_eigenvalue", "max_eigenvalue", "min_closed_form", "max_closed_form"):
            assert vertex[key] == pytest.approx(-math.sqrt((n + 1) / n), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_saddle_escape_curvature_is_at_least_two_over_root_n_plus_one(self, n):
        # 1/sqrt((n+1) gamma (1-gamma)) is smallest at gamma = 1/2, which
        # some alpha in 2..n reaches when n+1 is even
        bound = 2.0 / math.sqrt(n + 1)
        escape = min(c["max_eigenvalue"] for c in certify_landscape(n)["checks"][1:])
        assert escape >= bound - 1e-12
        if (n + 1) % 2 == 0:
            assert escape == pytest.approx(bound, abs=1e-10)
        else:
            assert escape > bound + 1e-6

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the certification drew a random number")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert certify_landscape(6)["pass"]

    def test_non_critical_point_fails(self, monkeypatch):
        def perturbed(n, alpha):
            v, gamma, a, b = two_value_critical_point(n, alpha)
            w = v + 1e-3 * np.cos(np.arange(n + 1))
            w -= w.mean()
            return w / np.linalg.norm(w), gamma, a, b

        monkeypatch.setattr(moments, "two_value_critical_point", perturbed)
        report = certify_landscape(4)
        assert not report["pass"]
        assert all(c["projected_gradient_norm"] > 1e-8 and not c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_swapped_values_fail(self, monkeypatch, n):
        # a on the n+1-alpha entries and b on alpha of them
        def swapped(n, alpha):
            v, gamma, a, b = two_value_critical_point(n, alpha)
            return np.where(v == a, b, a), gamma, b, a

        monkeypatch.setattr(moments, "two_value_critical_point", swapped)
        report = certify_landscape(n)
        assert not report["pass"]
        assert not report["checks"][0]["passed"]

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_antipodal_point_has_the_wrong_strict_max_pattern(self, monkeypatch, n):
        # -v is the critical point with -b on n+1-alpha entries and -a on
        # the rest: the vertex direction becomes a local minimum
        def antipodal(n, alpha):
            v, gamma, a, b = two_value_critical_point(n, alpha)
            return -v, gamma, -b, -a

        monkeypatch.setattr(moments, "two_value_critical_point", antipodal)
        report = certify_landscape(n)
        assert not report["pass"]
        assert all(c["projected_gradient_norm"] <= 1e-8 for c in report["checks"])
        assert [c["strict_max"] for c in report["checks"]] == [False] * (n - 1) + [True]

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

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            certify_landscape(1)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            certify_landscape(n)


def three_layouts(x: np.ndarray) -> list:
    """The rows of x as a C-ordered array, an F-ordered array and the
    ``_ScaledRows`` blocks of ICA with unit radii."""
    from simplexlearn.ica import _ScaledRows

    return [np.ascontiguousarray(x), np.asfortranarray(x), _ScaledRows(np.ascontiguousarray(x), np.ones(len(x)), lift=False)]


class TestMeanAndCovariance:
    # every block is copied transposed into one buffer, and every product
    # reads that buffer, so the three layouts give the same bits.  The
    # last block holds 9193 rows, joined from a short tail
    def test_every_input_layout_reads_the_same_rows(self):
        x = 100.0 + substream(0, 44).standard_exponential((2 * sampling.BLOCK_ROWS + 1001, 5))
        c_ordered, f_ordered, scaled = (moments._mean_and_covariance(rows) for rows in three_layouts(x))
        assert all(np.array_equal(a, b) for a, b in zip(scaled, f_ordered))
        assert all(np.array_equal(a, b) for a, b in zip(c_ordered, f_ordered))

    # a thin sample (variances 1 and 1e-10 on axes at 45 degrees) whose
    # first row lies 1e3 out on the wide axis: the shifted sums lose about
    # eps |c - mean|^2 to cancellation: 2e-10 with the first row as the
    # shift c, past the small eigenvalue, but almost nothing with the
    # first block's mean, which lies within 0.2 of the mean
    def test_a_far_first_row_keeps_the_small_eigenvalue(self):
        z = substream(0, 45).standard_normal((50_000, 2)) * [1.0, 1e-5]
        z[0] = [1e3, 0.0]
        x = z @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)).T
        centered = x - x.mean(axis=0)
        two_pass = np.linalg.eigvalsh(centered.T @ centered / len(x))[0]
        smallest = np.linalg.eigvalsh(moments._mean_and_covariance(x)[1])[0]
        assert abs(smallest - two_pass) <= 1e-2 * two_pass

    # small integers in blocks of BLOCK_ROWS = 2^13 rows: every block mean,
    # centered entry, product and sum is exact in floating point, so any
    # summation order gives the two-pass formula's bits in every layout
    def test_exact_rows_give_the_two_pass_bits_in_every_layout(self):
        x = substream(1, 44).integers(-8, 9, size=(2 * sampling.BLOCK_ROWS, 4)).astype(float) + 100.0
        mean = x.mean(axis=0)
        covariance = (x - mean).T @ (x - mean) / len(x)
        for rows in three_layouts(x):
            got_mean, got_covariance = moments._mean_and_covariance(rows)
            assert np.array_equal(got_mean, mean) and np.array_equal(got_covariance, covariance)

    # no product squares the mean, whose outer product would overflow
    # past about 1.3e154
    def test_a_mean_past_the_square_root_of_the_float_range(self):
        from simplexlearn.ica import ica_estimate
        from simplexlearn.learner import estimate_frame

        x = 1e160 + 1e150 * substream(0, 43).standard_exponential((5000, 3))
        mean, cov = moments._mean_and_covariance(x)
        assert np.isfinite(cov).all() and np.linalg.eigvalsh(cov).min() > 0.0
        assert np.array_equal(estimate_frame(x).mean, mean)
        assert ica_estimate(x, seed=0).mean.shape == (3,)

    # points on a flat: the plane of R^3 even has a Cholesky factor (its
    # last diagonal entry about 4e-9), so only the ratio of the extreme
    # eigenvalues shows it singular, in the learner as in ICA
    def test_a_constant_sample_far_from_zero_is_degenerate(self):
        from simplexlearn.geometry import Simplex
        from simplexlearn.ica import ica_estimate
        from simplexlearn.learner import estimate_frame, learn_simplex

        triangle = sampling.sample_simplex(Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 20_000, 0)
        samples = [
            np.full((10, 3), 1e306),  # ten rows, whose mean is exactly 1e306
            np.column_stack([triangle, triangle @ [0.3, 0.7] + 1.0]),  # a plane of R^3
            np.column_stack([triangle, triangle @ [[0.3, -0.5], [0.7, 0.2]] + [1.0, -2.0]]),  # a plane of R^4
        ]
        for x in samples:
            for estimate in (estimate_frame, learn_simplex, ica_estimate):
                with pytest.raises(moments.DegenerateSampleError, match="^sample covariance is singular$"):
                    estimate(x)


class TestPowerMoment:
    # 7 rows cut the pass into many blocks and a ragged last block; 10**9
    # makes the sample one block.  1001 is odd and no multiple of 7, and
    # d + 2 rows is the smallest sample ICA takes.  The shift cancels the
    # offset of 100 on x, as the learner's and ICA's do.
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t", [1001, 6])
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_the_whole_array(self, monkeypatch, block_rows, t, q):
        d, e, k = 4, 5, 3
        rng = substream(t, 47)
        x = rng.standard_exponential((t, d)) + 100.0
        linear, u = rng.standard_normal((d, e)), rng.standard_normal((e, k))
        shift = rng.standard_normal(e) - 100.0 * linear.sum(axis=0)
        y = x @ linear + shift
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        # the whole sample by default, and its first rows with a stop
        for stop in (None, t - 1):
            rows = y[:stop]
            expected = rows.T @ (rows @ u) ** q / rows.shape[0]
            moment = moments._power_moment(x, linear, shift, u, q, stop)
            assert moment.shape == (e, k)
            assert np.abs(moment - expected).max() <= 1e-12 * np.abs(expected).max()
