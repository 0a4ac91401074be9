import math

import numpy as np
import pytest

from simplexlearn import ica, moments
from simplexlearn.evaluation import match_vertices
from simplexlearn.geometry import DegenerateSimplexError, Simplex
from simplexlearn.ica import (
    MAX_SWEEPS,
    align_signed_permutation,
    compute_c_pn,
    ica_estimate,
    lp_symmetric_difference,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
    separation_index,
    signed_permutation_deviation,
)
from simplexlearn.sampling import (
    _gamma_rescale,
    generalized_gaussian_std,
    sample_lp_ball,
    sample_simplex,
    substream,
)
from simplexlearn.vertex_finder import _polar_step


def exponential_mixture(a: np.ndarray, shift: np.ndarray, t: int, seed: int) -> np.ndarray:
    rng = substream(seed, 600)
    sources = rng.exponential(1.0, size=(t, a.shape[1]))
    return sources @ a.T + shift


class TestIcaEstimate:
    def test_unmixes_exponential_sources(self):
        rng = substream(0, 601)
        a = rng.standard_normal((3, 3))
        x = exponential_mixture(a, rng.standard_normal(3), 100_000, seed=1)
        est = ica_estimate(x, seed=0)
        g = est.separating @ a
        assert separation_index(g) <= 0.05
        assert signed_permutation_deviation(g) <= 0.1
        assert all(est.converged)
        assert est.contrast == "skew"

    def test_separating_whitens_the_input(self):
        rng = substream(0, 602)
        a = rng.standard_normal((3, 3))
        x = exponential_mixture(a, np.zeros(3), 50_000, seed=2)
        est = ica_estimate(x, seed=0)
        centered = x - x.mean(axis=0)
        cov = (centered.T @ centered) / x.shape[0]
        assert np.abs(est.separating @ cov @ est.separating.T - np.eye(3)).max() <= 1e-8

    def test_mixing_inverts_separating(self):
        x = exponential_mixture(np.eye(2), np.zeros(2), 20_000, seed=3)
        est = ica_estimate(x, seed=0)
        assert np.abs(est.separating @ est.mixing - np.eye(2)).max() <= 1e-10

    def test_symmetric_sources_use_kurtosis(self):
        rng = substream(0, 603)
        a = rng.standard_normal((3, 3))
        sources = rng.uniform(-math.sqrt(3), math.sqrt(3), size=(100_000, 3))
        est = ica_estimate(sources @ a.T, "kurtosis", seed=0)
        assert est.contrast == "kurtosis"
        assert all(est.converged)
        assert separation_index(est.separating @ a) <= 0.05

    def test_unknown_contrast_rejected(self):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=6)
        with pytest.raises(ValueError, match="contrast must be one of"):
            ica_estimate(x, "negentropy")

    def test_degenerate_covariance_rejected(self):
        line = np.outer(substream(0, 604).standard_normal(500), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateSimplexError):
            ica_estimate(line)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=5)
        x[7, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            ica_estimate(x)

    @pytest.mark.parametrize("shape", [(500,), (3, 3), (2, 5), (4, 3, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D array with more rows than columns"):
            ica_estimate(np.ones(shape))

    def test_non_convergence_is_flagged_not_raised(self):
        x = exponential_mixture(np.eye(3), np.zeros(3), 5000, seed=4)
        est = ica_estimate(x, seed=0, max_sweeps=1)
        assert not all(est.converged)

    @pytest.mark.parametrize("max_sweeps", [0, -3, 2.5, True])
    def test_invalid_max_sweeps_rejected(self, max_sweeps):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=6)
        with pytest.raises(ValueError, match="max_sweeps must be an integer >= 1"):
            ica_estimate(x, max_sweeps=max_sweeps)


def one_shot_ica(points: np.ndarray, contrast: str, seed: int, max_sweeps: int):
    """The whole-array form of ica_estimate: a centered copy, its whitened
    copy z, and a (t, d) contrast array per sweep.  Returns (separating,
    mean, sweeps, converged)."""
    t, d = points.shape
    mean = points.mean(axis=0)
    centered = points - mean
    eigenvalues, vectors = np.linalg.eigh(centered.T @ centered / t)
    whitener = (vectors / np.sqrt(eigenvalues)) @ vectors.T
    z = centered @ whitener.T
    half = t // 2
    w, _ = np.linalg.qr(substream(seed, 61).standard_normal((d, d)))
    for sweep in range(max_sweeps):
        f = (z @ w) ** (2 if contrast == "skew" else 3)
        first, second = z[:half].T @ f[:half] / half, z[half:].T @ f[half:] / (t - half)
        update = (half * first + (t - half) * second) / t
        if contrast == "kurtosis":
            update -= 3.0 * w
        w, _, _, converged = _polar_step(w, update, 0.5 * (first - second), sweep)
        if converged.all():
            break
    return w.T @ whitener, mean, sweep + 1, converged.tolist()


class TestBlockedPasses:
    # 7 rows cut every pass into many blocks and a ragged last block per
    # half; 10**9 makes each half one block.  The odd t is no multiple of 7,
    # and t = d + 1 is the smallest sample ICA takes.  There the whitened
    # points all have norm^2 d, so each row of the squared projections onto
    # an orthonormal frame sums to d, and the skew update, z^T times those
    # rows, always has the null vector 1: only kurtosis runs at t = d + 1.
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize(
        "t, contrast, max_sweeps", [(1001, "skew", MAX_SWEEPS), (1001, "kurtosis", MAX_SWEEPS), (4, "kurtosis", 3)]
    )
    def test_ica_matches_the_one_shot_formulas(self, monkeypatch, block_rows, t, contrast, max_sweeps):
        rng = substream(2, 611)
        x = exponential_mixture(rng.standard_normal((3, 3)), 50.0 + rng.standard_normal(3), t, seed=16)
        separating, mean, sweeps, converged = one_shot_ica(x, contrast, 3, max_sweeps)
        monkeypatch.setattr(moments, "BLOCK_ROWS", block_rows)
        est = ica_estimate(x, contrast, seed=3, max_sweeps=max_sweeps)
        assert est.sweeps == sweeps
        assert est.converged == converged
        assert np.abs(est.separating - separating).max() <= 1e-12 * np.abs(separating).max()
        assert np.abs(est.mean - mean).max() <= 1e-12 * np.abs(mean).max()

    def test_sweeps_do_not_depend_on_the_block(self, monkeypatch):
        sm = sample_simplex(Simplex(substream(3, 605).standard_normal((4, 3))), 20_001, 33)
        reference = reduce_simplex_to_ica(sm, seed=2)
        monkeypatch.setattr(moments, "BLOCK_ROWS", 7)
        blocked = reduce_simplex_to_ica(sm, seed=2)
        assert blocked.estimate.sweeps == reference.estimate.sweeps
        assert blocked.estimate.converged == reference.estimate.converged
        assert np.abs(blocked.vertices - reference.vertices).max() <= 1e-12 * np.abs(reference.vertices).max()

    def test_simplex_lift_is_unchanged(self, monkeypatch):
        # the lift is written in place, bit for bit the rescaled (p, 1) rows
        seen = []

        def spy(points, contrast="skew", **kwargs):
            seen.append(points.copy())
            return real(points, contrast, **kwargs)

        real = ica.ica_estimate
        monkeypatch.setattr(ica, "ica_estimate", spy)
        points = sample_simplex(Simplex(substream(4, 605).standard_normal((5, 4))), 3001, 34)
        reduce_simplex_to_ica(points, seed=9)
        t, n = points.shape
        expected = _gamma_rescale(np.hstack([points, np.ones((t, 1))]), n + 1, 1.0, substream(9, 67))
        assert np.array_equal(seen[0], expected)


class TestSkewNoiseStop:
    def test_skewed_sources_keep_every_skew_pass(self):
        # nine skewed components in one frame: every one converges at the
        # sample's noise floor, long before the sweep cap
        rng = substream(4, 610)
        a = rng.standard_normal((9, 9))
        x = exponential_mixture(a, rng.standard_normal(9), 200_000, seed=15)
        est = ica_estimate(x, seed=4)
        assert all(est.converged)
        assert est.sweeps <= 10
        assert separation_index(est.separating @ a) <= 0.05

    def test_sweeps_count_each_pass(self):
        x = exponential_mixture(np.eye(3), np.zeros(3), 5000, seed=4)
        assert ica_estimate(x, seed=0, max_sweeps=1).sweeps == 1
        est = ica_estimate(x, seed=0)
        assert all(est.converged)
        assert 1 <= est.sweeps < MAX_SWEEPS


class TestSimplexReduction:
    def test_recovers_triangle_vertices(self):
        rng = substream(0, 605)
        truth = Simplex(rng.standard_normal((3, 2)))
        sm = sample_simplex(truth, 200_000, 30)
        red = reduce_simplex_to_ica(sm, seed=0)
        assert red.vertices.shape == (3, 2)
        assert match_vertices(truth.vertices, red.vertices).max_error <= 0.05

    def test_recovers_segment_endpoints(self):
        pts = substream(3, 606).uniform(2.0, 5.0, size=(100_000, 1))
        red = reduce_simplex_to_ica(pts, seed=1)
        ends = np.sort(red.vertices.ravel())
        assert abs(ends[0] - 2.0) <= 0.05
        assert abs(ends[1] - 5.0) <= 0.05

    def test_deterministic(self):
        rng = substream(1, 605)
        truth = Simplex(rng.standard_normal((3, 2)))
        sm = sample_simplex(truth, 50_000, 31)
        a = reduce_simplex_to_ica(sm, seed=5)
        b = reduce_simplex_to_ica(sm, seed=5)
        assert (a.vertices == b.vertices).all()


class TestContrastRouting:
    def test_each_reduction_passes_its_source_law(self, monkeypatch):
        import simplexlearn.ica as ica

        real, seen = ica.ica_estimate, []

        def spy(points, contrast="skew", **kwargs):
            seen.append(contrast)
            return real(points, contrast, **kwargs)

        monkeypatch.setattr(ica, "ica_estimate", spy)
        reduce_simplex_to_ica(sample_simplex(Simplex(np.eye(3)[:, :2]), 2000, 32))
        reduce_lp_to_ica(sample_lp_ball(2, 3.0, 2000, 0), 3.0)
        assert seen == ["skew", "kurtosis"]


class TestReductionInput:
    @pytest.mark.parametrize("shape", [(10,), (2, 5, 3)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            reduce_simplex_to_ica(np.ones(shape))
        with pytest.raises(ValueError, match="2-D"):
            reduce_lp_to_ica(np.ones(shape), 1.0)

    @pytest.mark.parametrize("p", [0.5, 100.0, math.nan])
    def test_p_checked_before_the_reduction_runs(self, p, monkeypatch):
        import simplexlearn.ica as ica

        def unreachable(*args, **kwargs):
            raise AssertionError("ICA ran on a sample rescaled with an invalid p")

        monkeypatch.setattr(ica, "ica_estimate", unreachable)
        with pytest.raises(ValueError, match="p must lie in"):
            reduce_lp_to_ica(sample_lp_ball(2, 3.0, 1000, 0), p)


class TestLpReduction:
    def test_axis_aligned_cross_polytope(self):
        a = np.diag([2.0, 1.0])
        sm = sample_lp_ball(2, 1.0, 200_000, 40) @ a.T
        red = reduce_lp_to_ica(sm, 1.0, seed=0)
        assert signed_permutation_deviation(np.linalg.inv(a) @ red.mixing) <= 0.1
        assert lp_symmetric_difference(a, red.mixing, 1.0, seed=0) <= 0.1

    def test_p2_identifies_only_the_ellipsoid(self):
        rng = substream(9, 607)
        a = rng.standard_normal((2, 2))
        sm = sample_lp_ball(2, 2.0, 200_000, 50) @ a.T
        red = reduce_lp_to_ica(sm, 2.0, seed=0)
        gram_true = a @ a.T
        rel = np.abs(red.mixing @ red.mixing.T - gram_true).max() / np.abs(gram_true).max()
        assert rel <= 0.05
        assert "rotation invariant" in red.estimate.permutation_note

    def test_source_scale_divided_out(self):
        # identity map, p = 3: recovered mixing should be near a signed
        # permutation with unit entries, not generalized_gaussian_std(3)
        ball = sample_lp_ball(2, 3.0, 200_000, 51)
        red = reduce_lp_to_ica(ball, 3.0, seed=0)
        assert signed_permutation_deviation(red.mixing) <= 0.1
        assert generalized_gaussian_std(3.0) != pytest.approx(1.0, abs=0.1)


class TestCpn:
    def test_euclidean_disc_value(self):
        assert compute_c_pn(2.0, 2) == pytest.approx(0.5, rel=1e-14)

    def test_cross_polytope_value(self):
        assert compute_c_pn(1.0, 2) == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-14)

    @pytest.mark.parametrize("p, n", [(1.0, 2), (1.0, 5), (1.5, 3), (1.5, 4), (3.0, 2), (3.0, 5), (8.0, 3), (8.0, 6)])
    def test_matches_sampled_balls(self, p, n):
        # x_i^2 pooled over the coordinates of each point; rows are
        # independent, coordinates within a row are not
        pts = sample_lp_ball(n, p, 200_000, seed=int(10 * p) + n)
        row_means = (pts * pts).mean(axis=1)
        std_error = row_means.std(ddof=1) / math.sqrt(row_means.size)
        assert abs(row_means.mean() - compute_c_pn(p, n) ** 2) <= 5.0 * std_error

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compute_c_pn(0.5, 3)
        with pytest.raises(ValueError):
            compute_c_pn(65.0, 3)
        with pytest.raises(ValueError):
            compute_c_pn(2.0, 0)


class TestSeparationIndex:
    def test_zero_on_scaled_signed_permutation(self):
        g = np.array([[0.0, -2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        assert separation_index(g) == 0.0

    def test_scale_invariant(self):
        rng = substream(0, 608)
        g = rng.standard_normal((4, 4))
        assert separation_index(3.0 * g) == pytest.approx(separation_index(g))

    def test_bounded_by_one(self):
        assert separation_index(np.ones((5, 5))) <= 1.0

    def test_one_by_one(self):
        assert separation_index(np.array([[7.0]])) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="g must be a square matrix"):
            separation_index(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        g = np.eye(3)
        g[1, 2] = value
        with pytest.raises(ValueError, match="g holds non-finite values"):
            separation_index(g)

    @pytest.mark.parametrize(
        "g, line",
        [(np.zeros((3, 3)), "row"), (np.array([[1.0, 2.0], [0.0, 0.0]]), "row"), (np.array([[1.0, 0.0], [3.0, 0.0]]), "column"), (np.zeros((1, 1)), "row")],
    )
    def test_zero_row_or_column_rejected(self, g, line):
        with pytest.raises(ValueError, match=f"g has a zero {line}"):
            separation_index(g)


class TestSignedPermutationTools:
    def test_align_recovers_construction(self):
        g = np.array([[0.1, 0.98], [-1.02, 0.05]])
        perm, signs = align_signed_permutation(g)
        assert perm.tolist() == [1, 0]
        assert signs.tolist() == [1.0, -1.0]

    def test_deviation_of_crafted_matrix(self):
        g = np.array([[0.1, 0.98], [-1.02, 0.05]])
        assert signed_permutation_deviation(g) == pytest.approx(0.1)

    def test_exact_signed_permutation_has_zero_deviation(self):
        g = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert signed_permutation_deviation(g) == 0.0


class TestLpSymmetricDifference:
    def test_identical_maps(self):
        a = substream(0, 609).standard_normal((3, 3))
        assert lp_symmetric_difference(a, a, 2.0, mc_points=20_000, seed=0) <= 1e-4

    def test_shrunken_copy_closed_form(self):
        a = np.diag([1.0, 2.0])
        value = lp_symmetric_difference(a, 0.9 * a, 1.0, mc_points=200_000, seed=0)
        assert value == pytest.approx(1.0 - 0.81, abs=0.006)

    def test_mc_points_checked(self):
        with pytest.raises(ValueError, match="mc_points must be >= 1"):
            lp_symmetric_difference(np.eye(2), np.eye(2), 1.0, mc_points=0)

    @pytest.mark.parametrize("bad", [1.5, True, "100"])
    def test_mc_points_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="mc_points must be an integer"):
            lp_symmetric_difference(np.eye(2), np.eye(2), 1.0, mc_points=bad)

    @pytest.mark.parametrize("name", ["a", "a_est"])
    def test_non_finite_rejected(self, name):
        bad = {"a": np.eye(3), "a_est": np.eye(3), name: np.full((3, 3), np.nan)}
        with pytest.raises(ValueError, match=f"^{name} holds non-finite values"):
            lp_symmetric_difference(bad["a"], bad["a_est"], 2.0, mc_points=10)

    @pytest.mark.parametrize("name", ["a", "a_est"])
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 3, 3)])
    def test_non_square_rejected(self, name, shape):
        bad = {"a": np.eye(3), "a_est": np.eye(3), name: np.ones(shape)}
        with pytest.raises(ValueError, match=f"^{name} must be a square matrix"):
            lp_symmetric_difference(bad["a"], bad["a_est"], 2.0, mc_points=10)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"a_est must have the shape \(2, 2\) of a"):
            lp_symmetric_difference(np.eye(2), np.eye(3), 2.0, mc_points=10)

    @pytest.mark.parametrize("name", ["a", "a_est"])
    @pytest.mark.parametrize("singular", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_rejected(self, name, singular):
        bad = {"a": np.eye(2), "a_est": np.eye(2), name: singular}
        with pytest.raises(ValueError, match=f"^{name} is singular"):
            lp_symmetric_difference(bad["a"], bad["a_est"], 2.0, mc_points=10)

    def test_deterministic(self):
        a = np.eye(2)
        b = np.diag([1.1, 0.9])
        x = lp_symmetric_difference(a, b, 2.0, mc_points=10_000, seed=7)
        y = lp_symmetric_difference(a, b, 2.0, mc_points=10_000, seed=7)
        assert x == y

    def test_equal_area_ellipse_two_sided(self):
        # Both terms are non-zero here.  The disc and the ellipse with axes
        # 1.25 and 0.8 have equal area, so the ratio is 2 (1 - I / pi) with I
        # their intersection area, (1/2) int_0^2pi min(1, r(theta)^2) dtheta;
        # I / pi is the mean of min(1, r^2) over theta (midpoint rule).
        k = 1_000_000
        theta = (np.arange(k) + 0.5) * (2.0 * math.pi / k)
        r2 = 1.0 / (np.cos(theta) ** 2 / 1.25**2 + np.sin(theta) ** 2 / 0.8**2)
        reference = 2.0 * (1.0 - np.minimum(1.0, r2).mean())
        assert reference == pytest.approx(0.28179, abs=1e-5)
        mc_points = 200_000
        share = reference / 2.0  # each term's Bernoulli share
        se = 2.0 * math.sqrt(share * (1.0 - share) / mc_points)  # sd of a sum <= sum of sds
        value = lp_symmetric_difference(np.eye(2), np.diag([1.25, 0.8]), 2.0, mc_points=mc_points, seed=0)
        assert abs(value - reference) <= 4.0 * se

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_signed_permutation_is_the_same_body(self, p):
        a = substream(1, 609).standard_normal((3, 3))
        perm = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        assert lp_symmetric_difference(a, a @ perm, p, mc_points=50_000, seed=0) <= 1e-4

    def test_one_ball_draw_scores_both_terms(self, monkeypatch):
        # The two terms share one uniform draw from B_p; a second draw per
        # term would double the cost of scoring an lp reduction.
        calls = []

        def counting(n, p, t, seed):
            calls.append(t)
            return sample_lp_ball(n, p, t, seed)

        monkeypatch.setattr(ica, "sample_lp_ball", counting)
        lp_symmetric_difference(np.eye(3), np.diag([1.1, 0.9, 1.0]), 3.0, mc_points=1_000, seed=0)
        assert calls == [1_000]
