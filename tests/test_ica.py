import math
import re

import numpy as np
import pytest
from scipy import stats

from simplexlearn import ica, sampling
from simplexlearn.evaluation import match_vertices
from simplexlearn.geometry import Simplex
from simplexlearn.ica import (
    compute_c_pn,
    ica_estimate,
    lp_symmetric_difference,
    reduce_lp_to_ica,
    reduce_simplex_to_ica,
    separation_index,
)
from simplexlearn.moments import DegenerateSampleError
from simplexlearn.sampling import (
    _row_blocks,
    generalized_gaussian_std,
    sample_lp_ball,
    sample_simplex,
    substream,
)
from simplexlearn.vertex_finder import MAX_STEPS, _polar_step


def signed_permutation_deviation(g: np.ndarray) -> float:
    """Max per-entry deviation of g from the signed permutation matrix
    that matches, greedily, the largest remaining |entry| of g."""
    work, target = np.abs(g), np.zeros_like(g)
    for _ in range(g.shape[0]):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        target[i, j] = 1.0 if g[i, j] >= 0 else -1.0
        work[i, :] = work[:, j] = -np.inf
    return float(np.abs(g - target).max())


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
        assert est.fit.converged.all()
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
        assert est.fit.converged.all()
        assert separation_index(est.separating @ a) <= 0.05

    def test_unknown_contrast_rejected(self):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=6)
        with pytest.raises(ValueError, match="contrast must be one of"):
            ica_estimate(x, "negentropy")

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected_before_any_pass(self, monkeypatch, seed):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=6)
        passes, real = [], ica._sample_frame
        monkeypatch.setattr(ica, "_sample_frame", lambda points: passes.append(1) or real(points))
        with pytest.raises(ValueError, match="^seed must be"):
            ica_estimate(x, seed=seed)
        assert passes == []

    def test_degenerate_covariance_rejected(self):
        line = np.outer(substream(0, 604).standard_normal(500), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateSampleError):
            ica_estimate(line)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        x = exponential_mixture(np.eye(2), np.zeros(2), 500, seed=5)
        x[7, 1] = value
        with pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            ica_estimate(x)

    # (4, 3): d+1 points whiten to a regular simplex, where the skew update
    # is singular
    @pytest.mark.parametrize("shape", [(500,), (3, 3), (2, 5), (4, 3, 2), (4, 3), (10, 0)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"2-D array with at least d+2 rows for d columns, d >= 1, got shape {shape}")):
            ica_estimate(np.ones(shape))

    def test_overflow_rejected_without_a_warning(self):
        # the covariance pass overflows; any warning would fail the suite
        with pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            ica_estimate(np.full((50, 3), 1e306))

    def test_non_convergence_is_flagged_not_raised(self, monkeypatch):
        x = exponential_mixture(np.eye(3), np.zeros(3), 5000, seed=4)
        monkeypatch.setattr(ica, "MAX_STEPS", 1)
        est = ica_estimate(x, seed=0)
        assert not est.fit.converged.all()

    # every sweep goes through the loop's checks, which name the iteration
    def test_non_finite_sweep_names_the_iteration(self, monkeypatch):
        x = exponential_mixture(np.eye(3), np.zeros(3), 5000, seed=4)
        calls, real = [], ica._power_moment

        def second_sweep_nan(*args):
            update = real(*args)
            calls.append(1)
            if len(calls) == 2:
                update[1, 2] = np.nan
            return update

        monkeypatch.setattr(ica, "_power_moment", second_sweep_nan)
        with pytest.raises(ValueError, match="^update is not finite at iteration 1$"):
            ica_estimate(x, seed=0)

    def test_a_whole_sample_sweep_is_named_by_its_step(self, monkeypatch):
        # one run holds the prefix sweeps and the rest, so the first
        # whole-sample sweep is named by the sweeps before it
        t = 65_537
        x = exponential_mixture(np.eye(3), np.zeros(3), t, seed=4)
        prefix_sweeps = ica_estimate(x, seed=0).fit.prefix_steps
        stops, real = [], ica._power_moment

        def first_whole_sweep_nan(x, linear, shift, u, q, stop):
            update = real(x, linear, shift, u, q, stop)
            stops.append(stop)
            if stop == t:
                update[0, 0] = np.nan
            return update

        monkeypatch.setattr(ica, "_power_moment", first_whole_sweep_nan)
        with pytest.raises(ValueError, match=f"^update is not finite at iteration {prefix_sweeps}$"):
            ica_estimate(x, seed=0)
        assert stops == [t // 8] * prefix_sweeps + [t]
        assert prefix_sweeps >= 2


def one_shot_ica(points: np.ndarray, contrast: str, seed: int, cap: int):
    """The whole-array form of ica_estimate: a centered copy, its whitened
    copy z, and a contrast array per sweep over the rows it reads.  Sweeps
    run coarse to fine: when the first t // 8 rows number at least 8192,
    sweeps read only those rows until one moves every column by at most
    1e-2 or cap // 2 have run, and the rest, cap in all, every row until
    one moves every column by at most 1e-2 again.  Returns (separating,
    mean, sweeps, converged, prefix_sweeps)."""
    t, d = points.shape
    mean = points.mean(axis=0)
    centered = points - mean
    eigenvalues, vectors = np.linalg.eigh(centered.T @ centered / t)
    whitener = (vectors / np.sqrt(eigenvalues)) @ vectors.T
    z = centered @ whitener.T
    w, _ = np.linalg.qr(substream(seed, 61).standard_normal((d, d)))

    def sweep(rows: np.ndarray, w: np.ndarray) -> tuple:
        update = rows.T @ (rows @ w) ** (2 if contrast == "skew" else 3) / rows.shape[0]
        if contrast == "kurtosis":
            update -= 3.0 * w
        return _polar_step(w, update, 0)

    sweeps = 0
    if t // 8 >= 8192:
        while sweeps < cap // 2:
            w, moved = sweep(z[: t // 8], w)
            sweeps += 1
            if moved.max() <= 1e-2:
                break
    prefix_sweeps = sweeps
    while sweeps < cap:
        w, moved = sweep(z, w)
        sweeps += 1
        if moved.max() <= 1e-2:
            break
    return w.T @ whitener, mean, sweeps, (moved <= 1e-2).tolist(), prefix_sweeps


def stops_read(monkeypatch) -> list:
    """The rows each ICA sweep reads, in order, from a spy on its moment
    pass."""
    rows, real = [], ica._power_moment

    def spy(x, linear, shift, u, q, stop):
        rows.append(stop)
        return real(x, linear, shift, u, q, stop)

    monkeypatch.setattr(ica, "_power_moment", spy)
    return rows


class TestBlockedPasses:
    # 7 rows cut every pass into many blocks and a ragged last block;
    # 10**9 makes the whole sample one block.  The odd t is no multiple of 7,
    # t = d + 2 is the smallest sample ICA takes, and at 65_537 rows the
    # first sweeps read the first 8192.
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize(
        "t, contrast, cap",
        [
            (1001, "skew", MAX_STEPS),
            (1001, "kurtosis", MAX_STEPS),
            (5, "skew", 3),
            (5, "kurtosis", 3),
            (65_537, "skew", MAX_STEPS),
            (65_537, "kurtosis", MAX_STEPS),
            (65_537, "skew", 2),
            (65_537, "kurtosis", 1),
        ],
    )
    def test_ica_matches_the_one_shot_formulas(self, monkeypatch, block_rows, t, contrast, cap):
        rng = substream(2, 611)
        x = exponential_mixture(rng.standard_normal((3, 3)), 50.0 + rng.standard_normal(3), t, seed=16)
        separating, mean, sweeps, converged, prefix_sweeps = one_shot_ica(x, contrast, 3, cap)
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(ica, "MAX_STEPS", cap)
        est = ica_estimate(x, contrast, seed=3)
        assert (est.fit.iterations_run, est.fit.prefix_steps) == (sweeps, prefix_sweeps)
        assert est.fit.converged.tolist() == converged
        assert np.abs(est.separating - separating).max() <= 1e-12 * np.abs(separating).max()
        assert np.abs(est.mean - mean).max() <= 1e-12 * np.abs(mean).max()

    def test_sweeps_do_not_depend_on_the_block(self, monkeypatch):
        sm = sample_simplex(Simplex(substream(3, 605).standard_normal((4, 3))), 65_537, 33)
        reference = reduce_simplex_to_ica(sm, seed=2)
        monkeypatch.setattr(sampling, "BLOCK_ROWS", 7)
        blocked = reduce_simplex_to_ica(sm, seed=2)
        blocked_fit, fit = blocked.estimate.fit, reference.estimate.fit
        assert blocked_fit.iterations_run == fit.iterations_run
        assert blocked_fit.prefix_steps == fit.prefix_steps >= 1
        assert (blocked_fit.converged == fit.converged).all()
        assert np.abs(blocked.vertices - reference.vertices).max() <= 1e-12 * np.abs(reference.vertices).max()

    # at 65_537 rows the first sweeps read the first 8192
    @pytest.mark.parametrize("t", [3001, 65_537])
    @pytest.mark.parametrize("block_rows", [8192, 7])
    @pytest.mark.parametrize("problem", ["simplex", "lp"])
    def test_every_block_is_the_rescaled_sample(self, monkeypatch, block_rows, problem, t):
        # ICA reads each block of the rescaled rows, lifted for the simplex,
        # bit for bit as the rows of the whole rescaled array
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        if problem == "simplex":
            points = sample_simplex(Simplex(substream(4, 605).standard_normal((5, 4))), t, 34)
            t, n = points.shape
            expected = np.hstack([points, np.ones((t, 1))]) * substream(9, 67).gamma(n + 1, 1.0, size=t)[:, None]
            estimate = lambda: reduce_simplex_to_ica(points, seed=9).estimate  # noqa: E731
        else:
            points = sample_lp_ball(4, 3.0, t, 34)
            t, n = points.shape
            expected = points * substream(9, 71).gamma(n / 3.0 + 1.0, 1.0, size=t)[:, None] ** (1.0 / 3.0)
            estimate = lambda: reduce_lp_to_ica(points, 3.0, seed=9).estimate  # noqa: E731
        real, seen = ica._ScaledRows.__getitem__, set()

        def spy(self, rows):
            block = real(self, rows)
            assert np.array_equal(block, expected[rows])
            seen.add((rows.start, rows.stop))
            return block

        monkeypatch.setattr(ica._ScaledRows, "__getitem__", spy)
        est = estimate()
        passes = [*_row_blocks(0, t)]
        if t == 65_537:
            assert est.fit.prefix_steps >= 1
            passes += [*_row_blocks(0, t // 8)]
        assert seen == {(rows.start, rows.stop) for rows in passes}
        built = ica_estimate(expected, est.contrast, seed=9)
        assert (est.fit.iterations_run, est.fit.prefix_steps) == (built.fit.iterations_run, built.fit.prefix_steps)
        assert (est.fit.converged == built.fit.converged).all()
        assert np.abs(est.separating - built.separating).max() <= 1e-12 * np.abs(built.separating).max()


class TestSweepStop:
    def test_skewed_sources_keep_every_skew_pass(self):
        # nine skewed components in one frame: every one converges at a
        # sweep of at most 1e-2, long before the sweep cap
        rng = substream(4, 610)
        a = rng.standard_normal((9, 9))
        x = exponential_mixture(a, rng.standard_normal(9), 200_000, seed=15)
        est = ica_estimate(x, seed=4)
        assert est.fit.converged.all()
        assert est.fit.iterations_run <= 10
        assert separation_index(est.separating @ a) <= 0.05

    def test_sweeps_count_each_pass(self, monkeypatch):
        x = exponential_mixture(np.eye(3), np.zeros(3), 5000, seed=4)
        est = ica_estimate(x, seed=0)
        assert est.fit.converged.all()
        assert 1 <= est.fit.iterations_run < MAX_STEPS
        monkeypatch.setattr(ica, "MAX_STEPS", 1)
        assert ica_estimate(x, seed=0).fit.iterations_run == 1

    @pytest.mark.parametrize("cap", [1, 2, 3, MAX_STEPS])
    def test_one_cap_and_the_last_sweep_reads_every_row(self, monkeypatch, cap):
        # up to cap // 2 sweeps on the first t // 8 rows, then every row to
        # the stop or the cap: a cap of 1 is one whole-sample sweep
        t = 65_537
        x = exponential_mixture(substream(5, 612).standard_normal((4, 4)), np.zeros(4), t, seed=17)
        monkeypatch.setattr(ica, "MAX_STEPS", cap)
        rows = stops_read(monkeypatch)
        fit = ica_estimate(x, seed=1).fit
        assert len(rows) == fit.iterations_run <= cap
        assert rows == [t // 8] * fit.prefix_steps + [t] * (fit.iterations_run - fit.prefix_steps)
        assert (1 <= fit.prefix_steps <= cap // 2) if cap > 1 else rows == [t]

    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t, runs_prefix", [(65_535, False), (65_536, True)])
    def test_the_prefix_floor(self, monkeypatch, block_rows, t, runs_prefix):
        # t // 8 >= 8192 rows, whatever the block size of the passes
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        rows = stops_read(monkeypatch)
        est = ica_estimate(exponential_mixture(np.eye(3), np.zeros(3), t, seed=18), seed=2)
        assert (est.fit.prefix_steps > 0) == runs_prefix
        assert set(rows) == ({t // 8, t} if runs_prefix else {t})


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

    # (4, 2) lifts to (4, 3), one row short of what ICA takes
    @pytest.mark.parametrize("shape", [(10, 0), (4, 2)])
    def test_simplex_shape_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"at least n+3 rows for n columns, n >= 1, got shape {shape}")):
            reduce_simplex_to_ica(np.ones(shape))

    @pytest.mark.parametrize("shape", [(10, 0), (3, 2)])
    def test_lp_shape_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"at least d+2 rows for d columns, d >= 1, got shape {shape}")):
            reduce_lp_to_ica(np.ones(shape), 2.0)

    def test_overflow_rejected_without_a_warning(self):
        with pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            reduce_simplex_to_ica(np.full((50, 2), 1e306))
        with pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            reduce_lp_to_ica(np.full((50, 2), 1e300), 1.0)

    @pytest.mark.parametrize("p", [0.5, 100.0, math.nan])
    def test_p_checked_before_the_reduction_runs(self, p, monkeypatch):
        import simplexlearn.ica as ica

        def unreachable(*args, **kwargs):
            raise AssertionError("ICA ran on a sample rescaled with an invalid p")

        monkeypatch.setattr(ica, "ica_estimate", unreachable)
        with pytest.raises(ValueError, match="p must lie in"):
            reduce_lp_to_ica(sample_lp_ball(2, 3.0, 1000, 0), p)


REDUCTIONS = [
    pytest.param(lambda x: reduce_simplex_to_ica(x), id="simplex"),
    pytest.param(lambda x: reduce_lp_to_ica(x, 2.0), id="lp"),
]


class TestReductionSamples:
    @pytest.mark.parametrize("shape", [(5,), (0, 3), (4, 0), (2, 2, 2)])
    @pytest.mark.parametrize("reduce", REDUCTIONS)
    def test_shape_named_at_the_boundary(self, reduce, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            reduce(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("reduce", REDUCTIONS)
    def test_non_finite_rows_rejected(self, reduce, value):
        bad = sample_lp_ball(3, 2.0, 50, 0)
        bad[4, 1] = value
        with pytest.raises(ValueError, match="finite"):
            reduce(bad)


class _Captured(Exception):
    pass


def rows_handed_to_ica(reduce, monkeypatch) -> np.ndarray:
    """The rows, read as one block, that ``reduce()`` hands ICA."""

    def capture(points, contrast, **kwargs):
        raise _Captured(points[0 : points.shape[0]].copy())

    monkeypatch.setattr(ica, "ica_estimate", capture)
    with pytest.raises(_Captured) as caught:
        reduce()
    return caught.value.args[0]


ROWS_T = 100_000


def corner_rows(n: int, seed: int, monkeypatch) -> np.ndarray:
    # conv{0, e_1, ..., e_n}: the lifted rows are (E_1, ..., E_n, E_0 + ... + E_n)
    corner = Simplex(np.vstack([np.zeros(n), np.eye(n)]))
    points = sample_simplex(corner, ROWS_T, seed)
    return rows_handed_to_ica(lambda: reduce_simplex_to_ica(points, seed=seed + 1), monkeypatch)


def lp_rows(p: float, seed: int, monkeypatch) -> np.ndarray:
    ball = sample_lp_ball(4, p, ROWS_T, seed)
    return rows_handed_to_ica(lambda: reduce_lp_to_ica(ball, p, seed=seed + 1), monkeypatch)


class TestReductionRows:
    def test_simplex_rows_are_exponential(self, monkeypatch):
        rows = corner_rows(4, 6, monkeypatch)
        assert rows.shape == (ROWS_T, 5)
        assert stats.kstest(rows[:, :4].ravel(), "expon").pvalue >= 0.01

    def test_simplex_rows_decorrelate(self, monkeypatch):
        rows = corner_rows(4, 8, monkeypatch)
        assert abs(np.corrcoef(rows[:, 0], rows[:, 1])[0, 1]) <= 3 / math.sqrt(ROWS_T)

    def test_simplex_lift_is_gamma(self, monkeypatch):
        rows = corner_rows(4, 10, monkeypatch)
        assert stats.kstest(rows[:, -1], "gamma", args=(5,)).pvalue >= 0.01

    def test_simplex_weight_of_the_origin_is_exponential(self, monkeypatch):
        # the lift less the first n columns is E_0, the origin's scaled weight
        rows = corner_rows(4, 12, monkeypatch)
        assert stats.kstest(rows[:, -1] - rows[:, :4].sum(axis=1), "expon").pvalue >= 0.01

    def test_lp_rows_p1_are_laplace(self, monkeypatch):
        rows = lp_rows(1.0, 14, monkeypatch)
        assert rows.shape == (ROWS_T, 4)
        assert stats.kstest(np.abs(rows.ravel()), "expon").pvalue >= 0.01

    def test_lp_rows_p2_are_normal(self, monkeypatch):
        rows = lp_rows(2.0, 16, monkeypatch)
        assert stats.kstest(rows.ravel(), "norm", args=(0.0, math.sqrt(0.5))).pvalue >= 0.01

    def test_lp_rows_p3_third_moment(self, monkeypatch):
        a = np.abs(lp_rows(3.0, 18, monkeypatch).ravel()) ** 3
        assert abs(a.mean() - 1 / 3) <= 3 * a.std(ddof=1) / math.sqrt(a.size)


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

    @pytest.mark.parametrize("n", [2.5, True, "3", None])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            compute_c_pn(2.0, n)


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

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="g must be a square matrix"):
            separation_index(np.ones(shape))

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
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 3, 3), (0, 0)])
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
        calls, draw = [], ica._lp_ball_points

        def counting(p, seed, out, sums):
            calls.append(out.shape[0])
            draw(p, seed, out, sums)

        monkeypatch.setattr(ica, "_lp_ball_points", counting)
        lp_symmetric_difference(np.eye(3), np.diag([1.1, 0.9, 1.0]), 3.0, mc_points=1_000, seed=0)
        assert calls == [1_000]
