import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from simplexlearn.moments import empirical_m3_grad, exact_grad_m3
from simplexlearn.sampling import _KEY_SOURCE, _simplex_points, substream
from simplexlearn.vertex_finder import (
    MAX_STEPS,
    STEP_TOL,
    _polar_step,
    find_vertex,
    reconstruct_squares,
    theoretical_parameters,
)


def nearest_vertex_error(u: np.ndarray) -> float:
    best = np.inf
    for i in range(u.size):
        e = np.zeros(u.size)
        e[i] = 1.0
        best = min(best, np.linalg.norm(u - e), np.linalg.norm(u + e))
    return best


def standard_source(n: int, seed: int):
    """A draw(count) callable of fresh uniform blocks on the standard
    simplex in R^n, nonnegative coordinates summing to one, for tests that
    want new points on every gradient call.  Block k comes from
    substream(seed, _KEY_SOURCE, k), so block 0 is the draw of
    ``simplex_source`` (which keeps no counter and always reads block 0);
    its weights times the identity, a product that rounds nothing, are the
    points."""
    blocks = itertools.count()
    return lambda count: _simplex_points(substream(seed, _KEY_SOURCE, next(blocks)), np.eye(n), count)


def start_frame(n: int, *seeds: int) -> np.ndarray:
    """The (n, k) start of one unit Gaussian column per seed, each drawn
    from substream(seed, 23), as the learner draws its starts."""
    columns = [substream(seed, 23).standard_normal(n) for seed in seeds]
    return np.column_stack([column / np.linalg.norm(column) for column in columns])


def rotation_fixing_ones(m: int, seed: int) -> np.ndarray:
    rng = substream(seed, 900)
    a = rng.standard_normal((m, m))
    a[:, 0] = 1.0
    q, _ = np.linalg.qr(a)
    if q[:, 0].sum() < 0:
        q[:, 0] = -q[:, 0]
    inner, _ = np.linalg.qr(rng.standard_normal((m - 1, m - 1)))
    return q @ block_diag(1.0, inner) @ q.T


class TestReconstructSquares:
    def test_exact_gradient_recovers_squares(self):
        rng = substream(0, 1)
        for m in (2, 4, 9):
            u = rng.standard_normal(m)
            assert np.abs(reconstruct_squares(u, exact_grad_m3(u)) - u**2).max() <= 1e-12

    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_identity_everywhere(self, values):
        u = np.asarray(values)
        scale = max(1.0, float(np.abs(u).max()) ** 2)
        assert np.abs(reconstruct_squares(u, exact_grad_m3(u)) - u**2).max() <= 1e-9 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct_squares(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("shape", [(0,), (), (2, 2, 2), (3, 0)])
    def test_direction_or_frame_shape_named(self, shape):
        # an empty u and grad returned []
        with pytest.raises(ValueError, match=rf"^u must have shape .* got {re.escape(str(shape))}$"):
            reconstruct_squares(np.zeros(shape), np.zeros(shape))


class TestSquaringDynamics:
    def test_coordinate_ratios_square_each_step(self):
        u = np.array([0.8, 0.6, 0.0])
        u /= np.linalg.norm(u)
        powers = np.array([0.8, 0.6, 0.0])
        for _ in range(4):
            update = reconstruct_squares(u, exact_grad_m3(u))
            u = update / np.linalg.norm(update)
            powers = powers**2
            expected = powers / np.linalg.norm(powers)
            assert np.abs(u - expected).max() <= 1e-12

    def test_dominant_coordinate_wins(self):
        u = np.array([0.5, 0.4, 0.3, 0.2])
        for _ in range(7):
            update = reconstruct_squares(u, exact_grad_m3(u))
            u = update / np.linalg.norm(update)
        assert nearest_vertex_error(u) <= 1e-9
        assert u.argmax() == 0


class TestExactOracle:
    def test_converges_to_a_vertex(self):
        for seed in range(6):
            result = find_vertex(exact_grad_m3, start_frame(5, seed), 40)
            assert result.converged.tolist() == [True]
            assert nearest_vertex_error(result.u[:, 0]) <= 1e-9

    def test_deterministic_in_seed(self):
        a = find_vertex(exact_grad_m3, start_frame(4, 3), 25)
        b = find_vertex(exact_grad_m3, start_frame(4, 3), 25)
        assert (a.u == b.u).all()
        c = find_vertex(exact_grad_m3, start_frame(4, 4), 25)
        assert (a.u != c.u).any()

    def test_rotated_frame_equivariance(self):
        # the update only uses rotation-equivariant quantities, so feeding
        # the rotated-frame gradient must land on a rotated vertex
        m = 5
        r = rotation_fixing_ones(m, seed=1)

        def rotated_grad(u):
            return r @ exact_grad_m3(r.T @ u)

        result = find_vertex(rotated_grad, start_frame(m, 2), 40)
        assert result.converged.all()
        assert nearest_vertex_error(r.T @ result.u[:, 0]) <= 1e-8

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_raises(self, value):
        calls = {"count": 0}

        def oracle(u):
            calls["count"] += 1
            grad = exact_grad_m3(u)
            if calls["count"] == 4:
                grad[1] = value
            return grad

        with pytest.raises(ValueError, match="not finite at iteration 3$"):
            find_vertex(oracle, start_frame(4, 0), 10)


def collapsing_grad(u):
    """Gradient crafted so that every column's reconstructed square is
    exactly zero."""
    m = u.shape[0]
    c = m * (m + 1) * (m + 2) / 6.0
    p1 = u.sum(axis=0)
    return (0.5 * p1 * p1 + 0.5 * (u * u).sum(axis=0) + p1 * u) / c


def transient_collapse(calls: int, columns=slice(None)):
    """Exact frame gradient whose ``columns`` collapse on its first
    ``calls`` calls."""
    count = itertools.count(1)

    def gradient(u):
        grad = exact_grad_m3(u)
        if next(count) <= calls:
            grad[:, columns] = collapsing_grad(u[:, columns])
        return grad

    return gradient


class TestCollapse:
    def test_always_collapsing_oracle_raises(self):
        with pytest.raises(RuntimeError):
            find_vertex(collapsing_grad, start_frame(4, 0), 30)

    def test_transient_collapse_raises(self):
        with pytest.raises(RuntimeError, match="update collapsed at iteration 0$"):
            find_vertex(transient_collapse(1), start_frame(4, 0), 40)

    def test_one_collapsed_column_stops_the_frame(self):
        with pytest.raises(RuntimeError, match="update collapsed at iteration 0$"):
            find_vertex(transient_collapse(1, columns=[2]), start_frame(4, 7, 8, 9), 40)


class TestBatch:
    @pytest.mark.parametrize("seeds", [(0, 1, 2, 3, 4), (20, 21, 22, 23, 24)])
    def test_frame_ends_on_every_vertex_once(self, seeds):
        # independent runs from these starts repeat a vertex; the frame
        # keeps its columns orthonormal, so they end on all n vertices
        m = 5
        r = rotation_fixing_ones(m, seed=1)

        def rotated_grad(u):
            return r @ exact_grad_m3(r.T @ u)

        result = find_vertex(rotated_grad, start_frame(m, *seeds), 40)
        assert result.converged.all()
        frame = r.T @ result.u
        order = np.abs(frame).argmax(axis=0)
        assert sorted(order) == list(range(m))
        assert np.abs(frame - np.eye(m)[:, order]).max() <= 1e-12

    def test_batch_trace_is_per_column(self):
        result = find_vertex(exact_grad_m3, start_frame(3, 1, 2), 4)
        assert [row["step"].shape for row in result.trace] == [(2,)] * 4


def sampled_gradient(source, t):
    """Gradient callable that spends a fresh block of t points per call."""
    return lambda u: empirical_m3_grad(source(t), u)


class TestStepStop:
    def test_exact_gradient_stops_at_the_tolerance(self):
        for seed in range(6):
            result = find_vertex(exact_grad_m3, start_frame(5, seed), 40)
            steps = [row["step"][0] for row in result.trace]
            assert result.iterations_run == len(steps) < 40
            assert steps[-1] <= 1e-9 < min(steps[:-1])

    def test_frame_stops_when_every_column_is_still(self):
        result = find_vertex(exact_grad_m3, start_frame(4, 0, 1, 2), 40)
        steps = np.array([row["step"] for row in result.trace])
        assert result.converged.all()
        assert (steps[-1] <= 1e-9).all()
        assert (steps[:-1].max(axis=1) > 1e-9).all()

    def test_a_map_over_a_sample_stops_at_the_step_tolerance(self):
        # the exact map handed as one over a 1000-row sample, too few rows
        # for a prefix: the same steps, up to the first of at most STEP_TOL
        exact = find_vertex(exact_grad_m3, start_frame(5, 0, 1), 40)
        sampled = find_vertex(lambda u, rows: exact_grad_m3(u), start_frame(5, 0, 1), 40, 1000)
        steps = np.array([row["step"] for row in sampled.trace])
        assert sampled.converged.all() and sampled.prefix_steps == 0
        assert (steps[-1] <= STEP_TOL).all()
        assert (steps[:-1].max(axis=1) > STEP_TOL).all()
        assert 1 <= sampled.iterations_run < exact.iterations_run
        assert all((row["step"] == kept["step"]).all() for row, kept in zip(sampled.trace, exact.trace))

    def test_converged_names_the_still_columns(self):
        # at the cap, each column's flag is its own last step against the
        # tolerance
        result = find_vertex(lambda u, rows: exact_grad_m3(u), start_frame(5, 0, 1, 2), 2, 1000)
        assert result.iterations_run == 2
        assert (result.converged == (result.trace[-1]["step"] <= STEP_TOL)).all()

    def test_a_fresh_block_per_step_runs_to_the_cap(self):
        # a gradient that reads no sample of its own (t = 0) stops only at
        # a 1e-9 step, which a fresh block per step never takes
        source = standard_source(4, 7)
        result = find_vertex(sampled_gradient(source, 2000), start_frame(4, 0), 9)
        assert result.iterations_run == 9
        assert not result.converged.any()

    def test_gradient_shape_checked(self):
        # the loop sees the gradient's shape before the squares are built
        calls = []

        def flat_third_gradient(u):
            calls.append(1)
            return exact_grad_m3(u).ravel() if len(calls) == 3 else exact_grad_m3(u)

        with pytest.raises(ValueError, match=r"must have the frame's shape \(4, 1\), got \(4,\) at iteration 2$"):
            find_vertex(flat_third_gradient, start_frame(4, 0))


class TestSampledGradients:
    def test_one_gradient_call_per_step(self):
        n = 4
        gradient = sampled_gradient(standard_source(n, 3), 50)
        calls = []

        def counting(u):
            calls.append(u.shape)
            return gradient(u)

        for r in (1, 7):
            calls.clear()
            result = find_vertex(counting, start_frame(n, 0), r)
            assert result.iterations_run == r
            assert calls == [(n, 1)] * r

    def test_finds_vertices_at_moderate_sample_size(self):
        n = 4
        hits = 0
        for seed in range(5):
            source = standard_source(n, seed + 10)
            result = find_vertex(sampled_gradient(source, 30_000), start_frame(n, seed), 20)
            if nearest_vertex_error(result.u[:, 0]) <= 0.05:
                hits += 1
        assert hits >= 4


class TestPolarStep:
    def test_new_frame_is_the_nearest_orthonormal_frame(self):
        rng = substream(0, 901)
        for d, k in ((3, 3), (6, 4), (9, 1)):
            update = rng.standard_normal((d, k))
            left, _, right = np.linalg.svd(update, full_matrices=False)
            u, _ = np.linalg.qr(rng.standard_normal((d, k)))
            new_u, _ = _polar_step(u, update, 0)
            assert np.abs(new_u - left @ right).max() <= 1e-12

    def test_rank_deficient_update_raises(self):
        update = np.ones((4, 2))
        with pytest.raises(RuntimeError, match="update collapsed at iteration 5$"):
            _polar_step(np.eye(4)[:, :2], update, 5)

    def test_exact_update_steps_below_the_tolerance(self):
        u, _ = np.linalg.qr(substream(2, 901).standard_normal((4, 3)))
        _, step = _polar_step(u, 2.0 * u, 0)
        assert (step <= 1e-9).all()
        _, moved = _polar_step(u, 2.0 * u + 1e-6 * np.ones((4, 3)), 0)
        assert (moved > 1e-9).all()

    def test_step_is_sign_aligned(self):
        # a column that flips its sign has not moved
        u, _ = np.linalg.qr(substream(3, 901).standard_normal((4, 3)))
        _, step = _polar_step(u, u * np.array([1.0, -1.0, 1.0]), 0)
        assert (step <= 1e-12).all()


class TestStartAndCap:
    @pytest.mark.parametrize(
        "start",
        [
            np.ones(4),
            np.array([[1.0], [np.nan], [0.0]]),
            np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]),
            np.ones((3, 0)),
            np.eye(3, 4),
        ],
        ids=["1-D", "nan", "inf", "no-column", "more-columns-than-rows"],
    )
    def test_bad_start_rejected(self, start):
        message = re.escape(f"start must be a finite (n, k) frame with 1 <= k <= n, got shape {start.shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            find_vertex(exact_grad_m3, start)

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, "3", None])
    def test_bad_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="^cap must be"):
            find_vertex(exact_grad_m3, start_frame(3, 0), cap)

    @pytest.mark.parametrize("t", [-1, 2.5, True, "3", None])
    def test_bad_row_count_rejected(self, t):
        with pytest.raises(ValueError, match="^t must be"):
            find_vertex(exact_grad_m3, start_frame(3, 0), MAX_STEPS, t)

    def test_cap_defaults_to_max_steps(self):
        # a gradient that reads no sample of its own only stops at a 1e-9
        # step, which a fresh block per step never takes
        source = standard_source(4, 7)
        result = find_vertex(sampled_gradient(source, 200), start_frame(4, 0))
        assert result.iterations_run == len(result.trace) == MAX_STEPS


class TestTrace:
    def test_records_every_step(self):
        # the exact run stops at its 7th step, before the cap of 12; it
        # reads no sample, so every step reads 0 rows
        result = find_vertex(exact_grad_m3, start_frame(3, 0), 12)
        assert len(result.trace) == result.iterations_run == 7
        assert result.prefix_steps == 0
        for row in result.trace:
            assert sorted(row) == ["rows", "step"]
            assert row["rows"] == 0
            assert row["step"].shape == (1,)


class TestCoarseToFine:
    # the exact map over a t-row sample: the prefix steps until a step is
    # at most STEP_TOL or cap // 2 steps have run, and the whole sample
    # until such a step again or the cap
    @pytest.mark.parametrize("t, cap", [(65_536, 30), (65_536, 3), (65_536, 2), (65_536, 1), (65_535, 30)])
    def test_the_trace_names_the_rows_and_counts_on(self, t, cap):
        calls = []

        def gradient(u, rows):
            calls.append(rows)
            return exact_grad_m3(u)

        result = find_vertex(gradient, start_frame(4, 0), cap, t)
        prefix = result.prefix_steps
        rows = [8192] * prefix + [t] * (result.iterations_run - prefix)
        assert calls == [row["rows"] for row in result.trace] == rows
        steps = [row["step"].max() for row in result.trace]
        prefix_steps, whole_steps = steps[:prefix], steps[prefix:]
        assert all(step > STEP_TOL for step in prefix_steps[:-1] + whole_steps[:-1])
        assert result.converged.all() == (whole_steps[-1] <= STEP_TOL)
        if t < 65_536 or cap == 1:
            assert prefix == 0
        elif cap == 30:
            # the exact map squares the step, so one whole-sample step ends it
            assert prefix >= 2 and prefix_steps[-1] <= STEP_TOL
            assert len(whole_steps) == 1 and result.converged.all()
        else:
            assert prefix == cap // 2

    def test_an_error_names_the_step_across_the_prefix(self):
        # a NaN in the first whole-sample step names its step in the run
        prefix = find_vertex(lambda u, rows: exact_grad_m3(u), start_frame(4, 0), 30, 65_536)
        assert prefix.prefix_steps >= 2

        def gradient(u, rows):
            grad = exact_grad_m3(u)
            if rows == 65_536:
                grad[0] = np.nan
            return grad

        with pytest.raises(ValueError, match=f"not finite at iteration {prefix.prefix_steps}$"):
            find_vertex(gradient, start_frame(4, 0), 30, 65_536)


class TestTheoreticalParameters:
    def test_magnitudes_and_monotonicity(self):
        t1, r1 = theoretical_parameters(5, 1.0, 0.1)
        t2, r2 = theoretical_parameters(10, 1.0, 0.1)
        assert isinstance(t1, int) and isinstance(r1, int)
        assert r1 >= 1 and t1 > 10**6
        assert t2 > t1 and r2 >= r1

    # a t past the float range still comes back as an int
    @pytest.mark.parametrize("n, c, delta", [(5, 1000.0, 0.1), (5, 1.0, 1e-300)])
    def test_t_past_the_float_range_is_an_int(self, n, c, delta):
        t, r = theoretical_parameters(n, c, delta)
        assert isinstance(t, int) and isinstance(r, int)
        assert t.bit_length() > 1024 and r >= 1
        assert t > theoretical_parameters(n, 1.0, 0.1)[0]

    def test_t_matches_its_formula(self):
        # below the float range the log form agrees with the direct product
        for n, c, delta in ((2, 0.0, 0.5), (5, 1.0, 0.1), (40, 3.0, 0.05)):
            t, r = theoretical_parameters(n, c, delta)
            assert r == math.ceil(math.log2(4.0 * (c + 3.0) * n * n * math.log(n) / delta))
            direct = 2.0**17 * float(n) ** (2.0 * c + 22.0) / delta**2 * math.log(2.0 * n**5 * r / delta)
            assert abs(t - direct) <= 1e-12 * direct

    def test_t_with_too_many_bits_rejected(self):
        with pytest.raises(ValueError, match="^c must keep t below 2"):
            theoretical_parameters(5, 1e300, 0.1)

    @pytest.mark.parametrize(
        "n, c, delta, name",
        [
            (1, 1.0, 0.1, "n"),
            (2.5, 1.0, 0.1, "n"),
            (True, 1.0, 0.1, "n"),
            (5, -5.0, 0.1, "c"),
            (5, math.inf, 0.1, "c"),
            (5, math.nan, 0.1, "c"),
            (5, 1.0, 0.0, "delta"),
            (5, 1.0, 1.0, "delta"),
            (5, 1.0, math.nan, "delta"),
            (5, 1.0, math.inf, "delta"),
        ],
    )
    def test_validation(self, n, c, delta, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            theoretical_parameters(n, c, delta)
