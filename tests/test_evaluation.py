import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from simplexlearn import evaluation
from simplexlearn.evaluation import (
    TVEstimate,
    _min_sum_assignment,
    check_sandwich_bound,
    hoeffding_sample_size,
    match_vertices,
    tv_distance_mc,
)
from simplexlearn.geometry import Simplex, _coordinates, contains_points, isotropic_simplex
from simplexlearn.sampling import substream


def bisected_match(a: np.ndarray, b: np.ndarray) -> tuple:
    """match_vertices without its lower bound: the bottleneck by bisection
    over every pairwise distance, then the same min-sum tie-break.
    Returns (permutation, per_vertex_error, max_error)."""
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    rows = np.arange(len(dist))
    levels = np.unique(dist)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        cols = _min_sum_assignment((dist > levels[mid]).astype(float))
        if (dist[rows, cols] <= levels[mid]).all():
            hi = mid
        else:
            lo = mid + 1
    perm = _min_sum_assignment(np.where(dist <= levels[lo], dist, np.inf))
    errors = dist[rows, perm]
    return tuple(int(j) for j in perm), errors, float(errors.max())


def right_simplex(n: int) -> Simplex:
    return Simplex(np.vstack([np.zeros(n), np.eye(n)]))


def scipy_bottleneck_match(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference matching: the smallest distance level that admits a
    perfect bipartite matching, then scipy's min-sum assignment over the
    pairs within it."""
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    for level in np.unique(dist):
        if (maximum_bipartite_matching(csr_matrix(dist <= level), perm_type="column") >= 0).all():
            break
    _, cols = linear_sum_assignment(np.where(dist <= level, dist, np.inf))
    return cols


class TestTVDistance:
    def test_identical_is_exact_zero(self):
        s = isotropic_simplex(3)
        est = tv_distance_mc(s, s, 5000, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_estimate_holds_only_the_value_and_its_error(self):
        # the sample size is the caller's argument, not echoed back
        assert [field.name for field in dataclasses.fields(TVEstimate)] == ["value", "std_error"]

    @pytest.mark.parametrize("n,alpha", [(2, 0.5), (3, 0.8), (5, 0.95)])
    def test_scaled_copy_closed_form(self, n, alpha):
        # shrinking about an interior point removes 1 - alpha^n of the mass
        s = isotropic_simplex(n)
        est = tv_distance_mc(s, s.scaled(alpha), 200_000, seed=1)
        target = 1.0 - alpha**n
        assert abs(est.value - target) <= 3.0 * max(est.std_error, 1e-12)

    def test_disjoint_is_one(self):
        a = right_simplex(2)
        b = Simplex(a.vertices + 100.0)
        est = tv_distance_mc(a, b, 2000, seed=2)
        assert est.value == 1.0

    def test_symmetric_in_arguments(self):
        rng = substream(0, 1)
        a = Simplex(rng.standard_normal((4, 3)))
        b = Simplex(a.vertices + 0.2 * rng.standard_normal((4, 3)))
        x = tv_distance_mc(a, b, 150_000, seed=3)
        y = tv_distance_mc(b, a, 150_000, seed=4)
        assert abs(x.value - y.value) <= 3.0 * (x.std_error + y.std_error)

    def test_volume_ordering_drives_sampling(self):
        # K strictly inside L: every draw from L outside K counts, and the
        # value equals the volume deficit no matter the argument order
        outer = right_simplex(3)
        inner = outer.scaled(0.5)
        shifted = Simplex(inner.vertices + 0.1)
        est = tv_distance_mc(shifted, outer, 100_000, seed=5)
        assert abs(est.value - (1.0 - 0.5**3)) <= 3.0 * max(est.std_error, 1e-12)

    def test_generator_rejected(self):
        # the estimate is a function of its integer seed, never of a
        # generator's state
        s = right_simplex(2)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            tv_distance_mc(s, s.scaled(0.7), 100, seed=substream(9, 31))
        with pytest.raises(ValueError, match="^seed must be an integer"):
            check_sandwich_bound(s, s, 1.0, 1.0, 100, seed=substream(9, 31))

    def test_validation(self):
        with pytest.raises(ValueError):
            tv_distance_mc(right_simplex(2), right_simplex(3), 100)
        s = right_simplex(2)
        with pytest.raises(ValueError):
            tv_distance_mc(s, s, 0)

    @pytest.mark.parametrize("bad", [1.5, 100.0, True, False, "100", None])
    def test_mc_points_must_be_an_integer(self, bad):
        s = right_simplex(2)
        with pytest.raises(ValueError, match="mc_points must be an integer"):
            tv_distance_mc(s, s.scaled(0.5), bad)

    def test_numpy_integer_mc_points_gives_the_same_estimate(self):
        s = right_simplex(2)
        est = tv_distance_mc(s, s.scaled(0.5), np.int64(1000), seed=0)
        assert est == tv_distance_mc(s, s.scaled(0.5), 1000, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_weights_kernel_equals_point_membership(self, n):
        # the reference builds the points from the normalized weights and
        # tests them with contains_points; the kernel, which never
        # normalizes, must agree exactly.  The last two pairs move one
        # vertex by about 1e-12, so each point's coordinates in the two
        # simplices differ by about MEMBERSHIP_TOL
        mc = 20_000
        for seed in range(4):
            rng = substream(seed, n, 7)
            k = Simplex(rng.standard_normal((n + 1, n)))
            l = Simplex(k.vertices @ (np.eye(n) + 0.15 * rng.standard_normal((n, n))) + 0.1 * rng.standard_normal(n))
            moved = k.vertices.copy()
            moved[-1] += 1e-12 * rng.standard_normal(n)
            nudged = Simplex(moved)
            for first, second in ((k, l), (l, k), (k, nudged), (nudged, k)):
                big, small = (first, second) if first.volume() >= second.volume() else (second, first)
                e = substream(seed, 31).standard_exponential((mc, n + 1))
                weights = e / e.sum(axis=1, keepdims=True)
                reference = 1.0 - contains_points(small, weights @ big.vertices).mean()
                assert tv_distance_mc(first, second, mc, seed=seed).value == reference
            assert tv_distance_mc(k, Simplex(k.vertices.copy()), mc, seed=seed).value == 0.0

    @pytest.mark.parametrize("tol", [0.0, 0.05])
    def test_tolerance_is_scaled_by_the_row_sum(self, monkeypatch, tol):
        # at tolerance 0.05 a tenth or so of the points of the larger
        # simplex sit in the band the tolerance lets in, so a kernel that
        # compared C e with the bare tolerance would miss the reference
        n, mc = 3, 20_000
        k = isotropic_simplex(n)
        l = Simplex(0.9 * k.vertices + 0.05)
        monkeypatch.setattr(evaluation, "MEMBERSHIP_TOL", tol)
        e = substream(2, 31).standard_exponential((mc, n + 1))
        points = (e / e.sum(axis=1, keepdims=True)) @ k.vertices
        coordinates = _coordinates(l, points)
        inside = (coordinates >= -tol).all(axis=0)
        assert tv_distance_mc(k, l, mc, seed=2).value == 1.0 - inside.mean()
        if tol:
            assert 0.05 < (inside & ~(coordinates >= 0.0).all(axis=0)).mean() < 0.5


class TestSandwichBound:
    def test_equal_simplices(self):
        s = isotropic_simplex(3)
        report = check_sandwich_bound(s, s, 1.0, 1.0, 5000, seed=0)
        assert report.holds
        assert report.bound == 0.0
        assert report.tv.value == 0.0

    def test_scaled_pair(self):
        s = isotropic_simplex(3)
        report = check_sandwich_bound(s, s.scaled(0.9), 0.9, 1.0, 100_000, seed=1)
        assert report.holds
        assert report.bound == pytest.approx(2.0 * (1.0 - 0.9**3))
        assert report.tv.value == pytest.approx(1.0 - 0.9**3, abs=3 * report.tv.std_error + 1e-12)

    def test_claimed_containment_checked(self):
        s = isotropic_simplex(2)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s.scaled(0.5), 0.9, 1.0, 100, seed=0)
        with pytest.raises(ValueError):
            check_sandwich_bound(s, s.scaled(1.5), 0.9, 1.0, 100, seed=0)

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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_vertex_sets_rejected(self, shape):
        with pytest.raises(ValueError, match="vertex sets must not be empty"):
            match_vertices(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 2, 2)])
    @pytest.mark.parametrize("name", ["truth", "estimate"])
    def test_arrays_not_two_dimensional_rejected(self, name, shape):
        # a 1-D array is not read as one vertex: the shape named is the caller's
        arrays = {"truth": np.zeros((2, 2)), "estimate": np.zeros((2, 2)), name: np.zeros(shape)}
        with pytest.raises(ValueError, match=rf"^{name} vertices must form a \(k, d\) array, got shape {re.escape(str(shape))}$"):
            match_vertices(arrays["truth"], arrays["estimate"])

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

    @pytest.mark.parametrize("k", range(1, 26))
    def test_agrees_with_scipy_reference(self, k):
        rng = substream(k, 5)
        # continuous coordinates: one optimal bijection, so the permutations agree
        a = rng.standard_normal((k, 3))
        b = a[rng.permutation(k)] + 0.3 * rng.standard_normal((k, 3))
        result = match_vertices(a, b)
        cols = scipy_bottleneck_match(a, b)
        dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        assert result.permutation == tuple(int(j) for j in cols)
        assert np.array_equal(result.per_vertex_error, dist[np.arange(k), cols])
        # integer grid points: tied distances, so compare the two objectives
        a = rng.integers(0, 3, size=(k, 2)).astype(float)
        b = rng.integers(0, 3, size=(k, 2)).astype(float)
        result = match_vertices(a, b)
        ref = np.linalg.norm(a - b[scipy_bottleneck_match(a, b)], axis=1)
        assert sorted(result.permutation) == list(range(k))
        assert result.max_error == ref.max()
        assert result.per_vertex_error.sum() == pytest.approx(ref.sum(), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertices_rejected(self, bad):
        v = isotropic_simplex(3).vertices
        broken = v.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError, match="estimate vertices must be finite"):
            match_vertices(v, broken)
        with pytest.raises(ValueError, match="truth vertices must be finite"):
            match_vertices(broken, v)
        with pytest.raises(ValueError, match="estimate vertices must be finite"):
            match_vertices(v, np.full_like(v, bad))

    @pytest.mark.parametrize("scale", [1e308, 1e200])
    def test_overflowing_distances_are_named(self, scale):
        # finite vertices whose differences, or their squares, leave the
        # float range warned and then found no assignment of finite cost
        a = scale * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^vertex distances overflow the float range$"):
                match_vertices(a, -a)

    def test_bottleneck_beats_min_sum_when_they_differ(self):
        # classic trap: min-sum pairing takes one huge edge that the
        # bottleneck pairing avoids
        a = np.array([[0.0], [10.0]])
        b = np.array([[1.5], [9.0]])
        result = match_vertices(a, b)
        assert result.max_error == 1.5
        assert result.permutation == (0, 1)


    def assert_as_bisected(self, monkeypatch, a, b) -> int:
        """match_vertices(a, b) is the bisection's result, field for field;
        returns the Hungarian solves it took."""
        calls, real = [], evaluation._min_sum_assignment

        def counting(cost):
            calls.append(1)
            return real(cost)

        monkeypatch.setattr(evaluation, "_min_sum_assignment", counting)
        result = match_vertices(a, b)
        permutation, errors, max_error = bisected_match(a, b)
        assert result.permutation == permutation
        assert np.array_equal(result.per_vertex_error, errors)
        assert result.max_error == max_error
        return len(calls)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13])
    def test_the_lower_bound_keeps_the_bisection_result(self, monkeypatch, k):
        rng = substream(k, 6)
        for trial in range(10):
            # an estimate near the truth, far from it, and tied distances
            a = rng.standard_normal((k, 3))
            self.assert_as_bisected(monkeypatch, a, a[rng.permutation(k)] + 0.05 * rng.standard_normal((k, 3)))
            self.assert_as_bisected(monkeypatch, a, rng.standard_normal((k, 3)))
            grid = rng.integers(0, 3, size=(2, k, 2)).astype(float)
            self.assert_as_bisected(monkeypatch, grid[0], grid[1])

    def test_a_near_estimate_takes_two_solves(self, monkeypatch):
        # the bound is attained: one feasibility solve and the tie-break
        a = substream(0, 7).standard_normal((41, 40))
        assert self.assert_as_bisected(monkeypatch, a, a[::-1] + 1e-3) == 2

    def test_an_infeasible_bound_bisects(self, monkeypatch):
        # both of the first two true vertices are nearest the first
        # estimate, so L = 0.5 admits no bijection: one of them must take
        # the far estimate, about 14 away
        a = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]])
        b = np.array([[0.5, 0.0], [10.0, 10.1], [10.0, 9.9]])
        assert self.assert_as_bisected(monkeypatch, a, b) > 2
        assert match_vertices(a, b).max_error > 13.0


class TestMinSumAssignment:
    @pytest.mark.parametrize("k", range(1, 26))
    def test_optimal_cost_equals_scipy(self, k):
        rng = substream(k, 6)
        uniform = rng.random((k, k))
        ties = np.round(4.0 * rng.random((k, k)))
        # forbid about a third of the pairs but keep one bijection allowed
        forbidden = np.where(rng.random((k, k)) < 0.35, np.inf, rng.random((k, k)))
        forbidden[np.arange(k), rng.permutation(k)] = rng.random(k)
        for cost in (uniform, ties, forbidden, -ties):
            cols = _min_sum_assignment(cost)
            assert sorted(cols) == list(range(k))
            rows, ref = linear_sum_assignment(cost)
            got = cost[np.arange(k), cols].sum()
            assert got == pytest.approx(cost[rows, ref].sum(), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "cost",
        [
            np.full((3, 3), np.inf),
            np.array([[1.0, np.inf], [2.0, np.inf]]),  # a column no row may take
            np.array([[1.0, 2.0, 3.0], [np.inf] * 3, [4.0, 5.0, 6.0]]),  # a row with no pair
        ],
    )
    def test_no_finite_bijection_raises(self, cost):
        with pytest.raises(ValueError, match="no assignment of finite cost"):
            _min_sum_assignment(cost)
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)


class TestSampleBounds:
    def test_hoeffding_values(self):
        assert hoeffding_sample_size(0.1, 0.05) == math.ceil(math.log(40.0) / 0.02)
        assert hoeffding_sample_size(0.01, 0.05) == math.ceil(math.log(40.0) / 0.0002)

    def test_hoeffding_validation(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.1, 0.0)
        # inf used to give a sample size of 0, and nan a failed integer conversion
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^eps must be positive and finite"):
                hoeffding_sample_size(eps, 0.05)
