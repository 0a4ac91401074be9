import itertools
import math

import numpy as np
import pytest

from simplexlearn.evaluation import (
    check_sandwich_bound,
    hoeffding_sample_size,
    match_vertices,
    tv_distance_mc,
)
from simplexlearn.geometry import Simplex, isotropic_simplex, standard_simplex
from simplexlearn.sampling import substream


def right_simplex(n: int) -> Simplex:
    return Simplex(np.vstack([np.zeros(n), np.eye(n)]))


class TestTVDistance:
    def test_identical_is_exact_zero(self):
        s = isotropic_simplex(3)
        est = tv_distance_mc(s, s, 5000, rng=0)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.mc_points == 5000

    @pytest.mark.parametrize("n,alpha", [(2, 0.5), (3, 0.8), (5, 0.95)])
    def test_scaled_copy_closed_form(self, n, alpha):
        # shrinking about an interior point removes 1 - alpha^n of the mass
        s = isotropic_simplex(n)
        est = tv_distance_mc(s, s.scaled(alpha), 200_000, rng=1)
        target = 1.0 - alpha**n
        assert abs(est.value - target) <= 3.0 * max(est.std_error, 1e-12)

    def test_disjoint_is_one(self):
        a = right_simplex(2)
        b = Simplex(a.vertices + 100.0)
        est = tv_distance_mc(a, b, 2000, rng=2)
        assert est.value == 1.0

    def test_symmetric_in_arguments(self):
        rng = substream(0, 1)
        a = Simplex(rng.standard_normal((4, 3)))
        b = Simplex(a.vertices + 0.2 * rng.standard_normal((4, 3)))
        x = tv_distance_mc(a, b, 150_000, rng=3)
        y = tv_distance_mc(b, a, 150_000, rng=4)
        assert abs(x.value - y.value) <= 3.0 * (x.std_error + y.std_error)

    def test_volume_ordering_drives_sampling(self):
        # K strictly inside L: every draw from L outside K counts, and the
        # value equals the volume deficit no matter the argument order
        outer = right_simplex(3)
        inner = outer.scaled(0.5)
        shifted = Simplex(inner.vertices + 0.1)
        est = tv_distance_mc(shifted, outer, 100_000, rng=5)
        assert abs(est.value - (1.0 - 0.5**3)) <= 3.0 * max(est.std_error, 1e-12)

    def test_generator_argument_accepted(self):
        s = right_simplex(2)
        a = tv_distance_mc(s, s.scaled(0.7), 10_000, rng=substream(9, 31))
        b = tv_distance_mc(s, s.scaled(0.7), 10_000, rng=substream(9, 31))
        assert a.value == b.value

    def test_validation(self):
        tri = standard_simplex(2)  # embedded in R^3
        with pytest.raises(ValueError):
            tv_distance_mc(tri, tri, 100)
        with pytest.raises(ValueError):
            tv_distance_mc(right_simplex(2), right_simplex(3), 100)
        s = right_simplex(2)
        with pytest.raises(ValueError):
            tv_distance_mc(s, s, 0)


class TestSandwichBound:
    def test_equal_simplices(self):
        s = isotropic_simplex(3)
        report = check_sandwich_bound(s, s, 1.0, 1.0, 5000, rng=0)
        assert report.holds
        assert report.bound == 0.0
        assert report.tv.value == 0.0

    def test_scaled_pair(self):
        s = isotropic_simplex(3)
        report = check_sandwich_bound(s, s.scaled(0.9), 0.9, 1.0, 100_000, rng=1)
        assert report.holds
        assert report.bound == pytest.approx(2.0 * (1.0 - 0.9**3))
        assert report.tv.value == pytest.approx(1.0 - 0.9**3, abs=3 * report.tv.std_error + 1e-12)

    def test_claimed_containment_checked(self):
        s = isotropic_simplex(2)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s.scaled(0.5), 0.9, 1.0, 100, rng=0)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s.scaled(1.5), 0.9, 1.0, 100, rng=0)

    def test_alpha_beta_validation(self):
        s = isotropic_simplex(2)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s, 0.0, 1.0, 100)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s, 1.1, 1.0, 100)


class TestMatchVertices:
    def test_permuted_copy_matches_exactly(self):
        rng = substream(0, 2)
        v = rng.standard_normal((5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        result = match_vertices(v, v[perm])
        assert result.max_error == 0.0
        # estimate row j holds truth vertex perm[j]
        recovered = np.argsort(perm)
        assert result.permutation == tuple(recovered[np.arange(5)][np.argsort(np.arange(5))])
        for i, j in enumerate(result.permutation):
            assert np.allclose(v[i], v[perm][j])

    def test_uniform_shift_reports_its_norm(self):
        rng = substream(0, 3)
        v = rng.standard_normal((4, 4))
        eps = np.array([0.01, -0.02, 0.005, 0.0])
        result = match_vertices(v, v + eps)
        assert result.max_error == pytest.approx(np.linalg.norm(eps))
        assert np.allclose(result.per_vertex_error, np.linalg.norm(eps))

    def test_accepts_simplex_arguments(self):
        s = isotropic_simplex(3)
        noisy = Simplex(s.vertices[::-1] + 0.01)
        result = match_vertices(s, noisy)
        assert result.max_error == pytest.approx(0.01 * math.sqrt(3), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_vertices(np.eye(3), np.eye(4))

    def test_optimal_against_brute_force(self):
        rng = substream(0, 4)
        for trial in range(20):
            a = rng.standard_normal((5, 2))
            b = rng.standard_normal((5, 2))
            dist = np.linalg.norm(a[:, None] - b[None, :], axis=2)
            best_bottleneck = np.inf
            best_sum = np.inf
            for perm in itertools.permutations(range(5)):
                errs = dist[np.arange(5), perm]
                key = (errs.max(), errs.sum())
                if key < (best_bottleneck, best_sum):
                    best_bottleneck, best_sum = key
            result = match_vertices(a, b)
            assert result.max_error == pytest.approx(best_bottleneck)
            assert result.per_vertex_error.sum() == pytest.approx(best_sum)

    def test_bottleneck_beats_min_sum_when_they_differ(self):
        # classic trap: min-sum pairing takes one huge edge that the
        # bottleneck pairing avoids
        a = np.array([[0.0], [10.0]])
        b = np.array([[1.5], [9.0]])
        result = match_vertices(a, b)
        assert result.max_error == 1.5
        assert result.permutation == (0, 1)


class TestSampleBounds:
    def test_hoeffding_values(self):
        assert hoeffding_sample_size(0.1, 0.05) == math.ceil(math.log(40.0) / 0.02)
        assert hoeffding_sample_size(0.01, 0.05) == math.ceil(math.log(40.0) / 0.0002)

    def test_hoeffding_validation(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.1, 0.0)
