import math
import re
import warnings

import numpy as np
import pytest

from simplexlearn import learner, sampling
from simplexlearn.evaluation import match_vertices
from simplexlearn.geometry import AffineFrame, Simplex, isotropic_simplex, make_embed_map
from simplexlearn.learner import (
    BoostFailureError,
    DegenerateSampleError,
    boost,
    embedded_m3_grad,
    estimate_frame,
    learn_simplex,
)
from simplexlearn.moments import empirical_m3_grad
from simplexlearn.sampling import child_seed, hidden_instance, sample_simplex, simplex_source, substream
from simplexlearn.vertex_finder import MAX_STEPS, _polar_step, reconstruct_squares


def random_truth(n: int, seed: int) -> Simplex:
    rng = substream(seed, 700)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Simplex(isotropic_simplex(n).vertices @ q.T + rng.standard_normal(n))


def assert_matches_one_shot_gradient(fused, frame, emb, x, u):
    """fused(u), bound to the block x, against the gradient of x pushed
    through both maps."""
    reference = empirical_m3_grad(emb.forward(frame.forward(x)), u)
    grad = fused(u)
    assert grad.shape == u.shape
    assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max()


def symmetric_root(centered: np.ndarray) -> np.ndarray:
    """The symmetric square root of the biased covariance of a centered
    sample, from its eigendecomposition."""
    eigenvalues, vectors = np.linalg.eigh(centered.T @ centered / centered.shape[0])
    return (vectors * np.sqrt(eigenvalues)) @ vectors.T


def one_shot_learn(points: np.ndarray, seed: int, r: int) -> tuple[np.ndarray, int, int]:
    """The whole-array form of learn_simplex: the frame from the centered
    block, the whole block embedded, the gradient of the rows a step
    reads, and the squares and polar step from the child_seed(seed, 41, k)
    starts.  Steps run coarse to fine: when the first t // 8 rows number
    at least 8192, steps read only those rows until one moves every column
    by at most 1e-2 or r // 2 have run, and the rest, r in all, read the
    whole block until one moves every column by at most 1e-2.
    Returns (vertices, iterations_run, prefix_steps)."""
    t, n = points.shape
    mean = points.mean(axis=0)
    frame = AffineFrame(mean=mean, factor=symmetric_root(points - mean))
    emb = make_embed_map(n)
    y = emb.forward(frame.forward(points))
    starts = [substream(child_seed(seed, 41, k), 23).standard_normal(n + 1) for k in range(n + 1)]
    u = np.column_stack([start / np.linalg.norm(start) for start in starts])

    def step(rows: np.ndarray, u: np.ndarray) -> tuple:
        return _polar_step(u, reconstruct_squares(u, empirical_m3_grad(rows, u)), 0)

    steps = 0
    if t // 8 >= 8192:
        while steps < r // 2:
            u, moved = step(y[: t // 8], u)
            steps += 1
            if moved.max() <= 1e-2:
                break
    prefix_steps = steps
    while steps < r:
        u, moved = step(y, u)
        steps += 1
        if moved.max() <= 1e-2:
            break
    directions = (u + (1.0 - u.sum(axis=0)) / (n + 1)).T
    return frame.inverse(emb.inverse(directions)), steps, prefix_steps


def rows_read(monkeypatch) -> list:
    """The rows each fixed-point step of the learner reads, in order, from
    a spy on its moment pass."""
    rows, real = [], learner._power_moment

    def spy(x, linear, shift, u, q, stop):
        rows.append(stop)
        return real(x, linear, shift, u, q, stop)

    monkeypatch.setattr(learner, "_power_moment", spy)
    return rows


class TestEstimateFrame:
    def test_whitens_the_sample(self):
        truth = random_truth(3, 0)
        sm = sample_simplex(truth, 50_000, 1)
        frame = estimate_frame(sm)
        y = frame.forward(sm)
        assert np.abs(y.mean(axis=0)).max() <= 1e-10
        cov = (y.T @ y) / y.shape[0]
        assert np.abs(cov - np.eye(3)).max() <= 1e-10

    def test_accepts_plain_arrays(self):
        pts = substream(0, 2).standard_normal((100, 2))
        frame = estimate_frame(pts)
        assert frame.mean.shape == (2,)

    def test_embedded_map_composes_frame_and_embedding(self):
        # the fused block gradient against the gradient of the block pushed
        # through both maps, for one direction and for a batch of n+1; the
        # odd 20_001-row block spans more than one row block
        assert 10_000 > sampling.BLOCK_ROWS
        for n, seed in ((2, 3), (5, 4), (9, 5)):
            truth = random_truth(n, seed)
            frame = estimate_frame(sample_simplex(truth, 5000, seed))
            emb = make_embed_map(n)
            x = simplex_source(truth, seed + 1)(20_001)
            fused = embedded_m3_grad(frame, emb, x)
            for shape in ((n + 1,), (n + 1, n + 1)):
                u = substream(seed, 6).standard_normal(shape)
                assert_matches_one_shot_gradient(fused, frame, emb, x, u)
                # the second argument reads only the block's first rows
                assert_matches_one_shot_gradient(lambda u: fused(u, 5001), frame, emb, x[:5001], u)

    # 7 rows cut every pass into many blocks and a ragged last block;
    # 10**9 makes the whole block one.  1001 is odd and no multiple
    # of 7, and n + 1 rows is the smallest block a frame takes.
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t", [1001, 6])
    def test_blocked_passes_match_the_one_shot_formulas(self, monkeypatch, block_rows, t):
        n = 5
        truth = random_truth(n, 6)
        x = simplex_source(truth, 7)(t) + 100.0
        mean = x.mean(axis=0)
        factor = symmetric_root(x - mean)
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        frame = estimate_frame(x)
        assert np.abs(frame.mean - mean).max() <= 1e-12 * np.abs(mean).max()
        assert np.abs(frame.factor - factor).max() <= 1e-12 * np.abs(factor).max()
        emb = make_embed_map(n)
        fused = embedded_m3_grad(frame, emb, x)
        for shape in ((n + 1,), (n + 1, n + 1)):
            assert_matches_one_shot_gradient(fused, frame, emb, x, substream(6, 6).standard_normal(shape))

    # the whole run, frame, every step and the back-map, against
    # one_shot_learn; t = n + 2 is the smallest block the learner takes,
    # and at 65_537 rows the first steps read the first 8192
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t, r", [(1001, 30), (7, 30), (65_537, 30), (65_537, 2), (65_537, 1)])
    def test_learner_matches_the_one_shot_formulas(self, monkeypatch, block_rows, t, r):
        n = 5
        x = simplex_source(random_truth(n, 10), 11)(t)
        vertices, iterations_run, prefix_steps = one_shot_learn(x, 2, r)
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        result = learn_simplex(x, r=r, seed=2)
        assert (result.fit.iterations_run, result.fit.prefix_steps) == (iterations_run, prefix_steps)
        assert np.abs(result.simplex.vertices - vertices).max() <= 1e-10 * np.abs(vertices).max()
        if t == 65_537 and r > 1:
            assert prefix_steps >= 1

    @pytest.mark.parametrize("t", [3001, 65_537])
    def test_iterations_do_not_depend_on_the_block(self, monkeypatch, t):
        truth = random_truth(4, 8)
        points = simplex_source(truth, 9)(t)
        reference = learn_simplex(points, seed=8)
        monkeypatch.setattr(sampling, "BLOCK_ROWS", 7)
        blocked = learn_simplex(points, seed=8)
        assert blocked.fit.iterations_run == reference.fit.iterations_run
        assert blocked.fit.prefix_steps == reference.fit.prefix_steps
        assert (reference.fit.prefix_steps > 0) == (t == 65_537)
        scale = np.abs(reference.simplex.vertices).max()
        assert np.abs(blocked.simplex.vertices - reference.simplex.vertices).max() <= 1e-12 * scale

    def test_too_few_points(self):
        with pytest.raises(DegenerateSampleError):
            estimate_frame(np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(3,), (5, 2, 2)])
    def test_points_not_two_dimensional_rejected(self, shape):
        # malformed, not degenerate: one 1-D vector is not read as one point
        with pytest.raises(ValueError, match=rf"^points must form a \(t, d\) array, got shape {re.escape(str(shape))}$") as caught:
            estimate_frame(np.zeros(shape))
        assert not isinstance(caught.value, DegenerateSampleError)

    def test_rank_deficient_points(self):
        line = np.outer(np.arange(10.0), np.ones(3))
        with pytest.raises(DegenerateSampleError):
            estimate_frame(line)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points(self, bad):
        # one bad entry in a later block, so the first block's mean is finite
        points = substream(0, 41).standard_normal((3 * sampling.BLOCK_ROWS, 3))
        points[-1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^points and their covariance must be finite") as caught:
                estimate_frame(points)
        assert not isinstance(caught.value, DegenerateSampleError)

    def test_covariance_past_the_float_range(self):
        points = substream(0, 42).standard_normal((100, 3)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^points and their covariance must be finite"):
                estimate_frame(points)


class TestLearnSimplex:
    def test_recovers_plane_truth(self):
        truth = random_truth(2, 1)
        result = learn_simplex(simplex_source(truth, 10)(8000), seed=0)
        assert len(result.simplex.vertices) == 3
        assert match_vertices(truth, result.simplex).max_error <= 0.3

    def test_recovers_space_truth(self):
        truth = random_truth(3, 2)
        result = learn_simplex(simplex_source(truth, 11)(40_000), seed=0)
        assert match_vertices(truth, result.simplex).max_error <= 0.3

    def test_deterministic(self):
        truth = random_truth(2, 3)
        a = learn_simplex(simplex_source(truth, 12)(6000), seed=5)
        b = learn_simplex(simplex_source(truth, 12)(6000), seed=5)
        assert (a.fit.u == b.fit.u).all()
        assert (a.simplex.vertices == b.simplex.vertices).all()
        other = learn_simplex(simplex_source(truth, 13)(6000), seed=5)
        assert (a.fit.u != other.fit.u).any()

    def test_stops_early_once_complete(self):
        n = 2
        truth = random_truth(n, 4)
        result = learn_simplex(simplex_source(truth, 14)(8000), seed=0)
        # one block serves one frame of n+1 starts; r is a cap, and the
        # frame stops at a step of at most 1e-2 before it
        assert result.fit.iterations_run < MAX_STEPS and result.fit.converged.all()
        assert len(result.simplex.vertices) == n + 1

    def test_one_draw_whatever_the_step_count(self):
        # the caller's one block serves every step, and the learner leaves
        # it as it was
        points = simplex_source(random_truth(2, 4), 14)(4000)
        kept = points.copy()
        steps = set()
        for r in (1, 2, 30):
            steps.add(learn_simplex(points, r=r, seed=0).fit.iterations_run)
            assert (points == kept).all()
        assert len(steps) == 3

    def test_default_n5_run_stops_before_the_cap(self):
        truth, points = hidden_instance("learn", 5, 100_000, 0)
        result = learn_simplex(points, seed=0)
        assert result.fit.iterations_run < MAX_STEPS
        assert match_vertices(truth, result.simplex).max_error <= 0.1 * math.sqrt(5 * 7)

    def test_iterations_run_is_deterministic(self):
        for seed in (0, 1, 2):
            truth = random_truth(3, seed)
            runs = [learn_simplex(simplex_source(truth, 30 + seed)(20_000), seed=seed) for _ in range(2)]
            assert runs[0].fit.iterations_run == runs[1].fit.iterations_run < MAX_STEPS
            assert (runs[0].simplex.vertices == runs[1].simplex.vertices).all()

    def test_completes_the_n15_cli_truth(self):
        # independent starts at the default budget found 15 of 16 vertices
        # here; the frame ends on all of them
        truth, points = hidden_instance("learn", 15, 100_000, 0)
        result = learn_simplex(points, seed=0)
        assert len(result.simplex.vertices) == 16
        assert match_vertices(truth, result.simplex).max_error <= 0.1 * math.sqrt(15 * 17)

    def test_t1_checked_against_dimension(self):
        # the row floor follows n: 4 rows would do in the plane, not in space
        points = simplex_source(random_truth(3, 7), 17)(4)
        with pytest.raises(ValueError, match=r"got shape \(4, 3\)"):
            learn_simplex(points)

    @pytest.mark.parametrize("r", [1, 2, 3, 30])
    def test_one_cap_and_the_last_step_reads_every_row(self, monkeypatch, r):
        # up to r // 2 steps on the first t // 8 rows, then the whole block
        # to the stop or the cap: r = 1 is one whole-block step
        t = 65_537
        rows = rows_read(monkeypatch)
        fit = learn_simplex(simplex_source(random_truth(3, 5), 6)(t), r=r, seed=0).fit
        assert len(rows) == fit.iterations_run <= r
        assert rows == [t // 8] * fit.prefix_steps + [t] * (fit.iterations_run - fit.prefix_steps)
        assert rows[-1] == t
        assert (1 <= fit.prefix_steps <= r // 2) if r > 1 else rows == [t]

    # the floor is on the prefix, t // 8 >= 8192 rows, whatever the block
    # size of the passes
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t, runs_prefix", [(65_535, False), (65_536, True)])
    def test_the_prefix_floor(self, monkeypatch, block_rows, t, runs_prefix):
        monkeypatch.setattr(sampling, "BLOCK_ROWS", block_rows)
        rows = rows_read(monkeypatch)
        result = learn_simplex(simplex_source(random_truth(2, 5), 6)(t), seed=0)
        assert (result.fit.prefix_steps > 0) == runs_prefix
        assert set(rows) == ({t // 8, t} if runs_prefix else {t})

    def test_a_whole_block_step_is_named_by_its_step(self, monkeypatch):
        # one run holds the prefix steps and the rest, so the first
        # whole-block step is named by the steps before it
        t = 65_537
        points = simplex_source(random_truth(3, 5), 6)(t)
        prefix_steps = learn_simplex(points, seed=0).fit.prefix_steps
        stops, real = [], learner._power_moment

        def first_whole_step_nan(x, linear, shift, u, q, stop):
            moment = real(x, linear, shift, u, q, stop)
            stops.append(stop)
            if stop == t:
                moment[0, 0] = np.nan
            return moment

        monkeypatch.setattr(learner, "_power_moment", first_whole_step_nan)
        with pytest.raises(ValueError, match=f"^update is not finite at iteration {prefix_steps}$"):
            learn_simplex(points, seed=0)
        assert stops == [t // 8] * prefix_steps + [t]
        assert prefix_steps >= 2

    def test_report_contents(self):
        # the learner reports what it found; the command line adds the
        # run's configuration, the points drawn and the scores
        result = learn_simplex(simplex_source(random_truth(2, 8), 18)(6000), seed=9)
        assert result.simplex.vertices.shape == (3, 2)
        assert not hasattr(result, "vertices")
        assert result.fit.u.shape == (3, 3)
        assert result.fit.converged.shape == (3,)
        assert 1 <= result.fit.iterations_run <= MAX_STEPS

    def test_back_map_matches_explicit_formula(self):
        # v = sqrt((n+1)(n+2)) (u - 1/(n+1)) B A^T + mu, with B the embedding
        # basis and (mu, A) the frame estimated from the same one block
        n = 3
        points = simplex_source(random_truth(n, 9), 19)(40_000)
        result = learn_simplex(points, seed=0)
        frame = estimate_frame(points)
        basis = make_embed_map(n).basis
        # the frame's columns, projected exactly onto the hyperplane {u . 1 = 1}
        directions = (result.fit.u + (1.0 - result.fit.u.sum(axis=0)) / (n + 1)).T
        explicit = math.sqrt((n + 1) * (n + 2)) * ((directions - 1.0 / (n + 1)) @ basis) @ frame.factor.T + frame.mean
        assert np.abs(result.simplex.vertices - explicit).max() <= 1e-9 * (1.0 + np.abs(explicit).max())


class TestAffineEquivariance:
    # the frame, the embedding and the polar step are all equivariant, so
    # at the block's fixed point learn(F X + c) is F learn(X) + c as a
    # vertex set (each start may end on another vertex).  F has condition
    # number 1e3: a Gaussian F with column scales up to 1e2 reached 1.5e6
    # at n = 20 and raised DegenerateSampleError, as it should.  On the
    # command line's learn samples the worst gap over these cases was
    # 5.5e-7 of the circumradius.
    @pytest.mark.parametrize("n, seed", [*((n, seed) for n in (3, 5, 10) for seed in range(5)), (20, 0)])
    def test_learning_commutes_with_an_affine_map(self, n, seed):
        rng = substream(seed, 800)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        f = q1 @ np.diag(np.logspace(0, 3, n)) @ q2
        shift = 10.0 * rng.standard_normal(n)
        points = hidden_instance("learn", n, 100_000, seed)[1]
        image = Simplex(learn_simplex(points, seed=seed).simplex.vertices @ f.T + shift)
        mapped = learn_simplex(points @ f.T + shift, seed=seed).simplex
        assert match_vertices(image, mapped).max_error <= 1e-5 * image.circumscribed_radius()


class TestRowOrder:
    # the frame and every whole-block step are sums over rows, but the
    # prefix steps read the first t // 8 rows, so a permuted block takes
    # another path to the same fixed point; the 1e-2 stop leaves a residue
    # of at most 3e-5 of the circumradius over these cases
    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (5, 10, 20) for seed in range(3)])
    def test_learning_ignores_the_row_order(self, n, seed):
        points = hidden_instance("learn", n, 100_000, seed)[1]
        learned = learn_simplex(points, seed=seed)
        permuted = learn_simplex(points[substream(seed, 801).permutation(len(points))], seed=seed)
        assert learned.fit.converged.all() and permuted.fit.converged.all()
        image = learned.simplex
        assert match_vertices(image, permuted.simplex).max_error <= 1e-3 * image.circumscribed_radius()


def spoiled_points(row: int, value: float) -> np.ndarray:
    """A (4000, 2) block from a plane truth with entry (row, 0) set to value."""
    points = simplex_source(random_truth(2, 20), 21)(4000)
    points[row, 0] = value
    return points


class TestSourceValidation:
    # a non-finite point is read off the frame's one mean and covariance
    # pass, with no second look at the block
    def test_nan_in_frame_block(self):
        with pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            learn_simplex(spoiled_points(0, np.nan), seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_the_t3_rows(self, value):
        # the block's last row, drawn among the command line's t3 points,
        # raises before any step and with no warning
        with warnings.catch_warnings(), pytest.raises(ValueError, match="^points and their covariance must be finite$"):
            warnings.simplefilter("error", RuntimeWarning)
            learn_simplex(spoiled_points(-1, value), seed=0)

    def test_wrong_width(self):
        # n is read from the width, so a block without one is rejected
        points = simplex_source(random_truth(2, 20), 21)(4000)
        for block in (points[:, 0], points[:, :, None], np.zeros((100, 0))):
            with pytest.raises(ValueError, match=rf"got shape {re.escape(str(block.shape))}"):
                learn_simplex(block, seed=0)

    def test_short_block(self):
        # n+1 points whiten to a regular simplex whatever their law
        points = simplex_source(random_truth(2, 7), 17)(3)
        with pytest.raises(ValueError, match=r"got shape \(3, 2\)"):
            learn_simplex(points)

    def test_n_plus_two_rows_suffice(self):
        for n in (2, 3):
            result = learn_simplex(simplex_source(random_truth(n, 24), 25)(n + 2), seed=0)
            assert len(result.simplex.vertices) == n + 1
            assert np.isfinite(result.simplex.vertices).all()


class TestArguments:
    def test_validation(self):
        # a float r used to fail inside range() and True to run one step; a
        # bad seed failed later, inside SeedSequence, or ran as seed 1.  Both
        # are checked before the sample is read, so a bad sample beside them
        # is not what is reported
        for points in (simplex_source(random_truth(2, 7), 17)(100), np.zeros(3)):
            for r in (0, 2.5, True, None):
                with pytest.raises(ValueError, match="^r must be"):
                    learn_simplex(points, r=r)
            for seed in (-1, 1.5, True, None):
                with pytest.raises(ValueError, match="^seed must be"):
                    learn_simplex(points, seed=seed)


def table_estimator(runs, table):
    index = {id(s): i for i, s in enumerate(runs)}

    def estimate(a, b):
        return table[index[id(a)], index[id(b)]]

    return estimate


def distinct_triangles(count):
    return [Simplex(isotropic_simplex(2).vertices * (1.0 + 1e-9 * i)) for i in range(count)]


class TestBoost:
    def test_majority_cluster_selected(self):
        runs = distinct_triangles(5)
        table = np.full((5, 5), 0.9)
        np.fill_diagonal(table, 0.0)
        for i in range(4):
            for j in range(4):
                if i != j:
                    table[i, j] = 0.01
        result = boost(runs, 0.1, tv_estimator=table_estimator(runs, table))
        assert result.index == 0
        assert result.neighbor_count == 4
        assert result.threshold == pytest.approx(0.21)
        assert (result.pairwise == result.pairwise.T).all()

    def test_first_qualifying_run_wins(self):
        runs = distinct_triangles(4)
        table = np.full((4, 4), 0.9)
        np.fill_diagonal(table, 0.0)
        for i in (1, 2):
            for j in (1, 2):
                if i != j:
                    table[i, j] = 0.01
        # t = 4 needs floor(8/3) = 2 neighbors including self
        result = boost(runs, 0.1, tv_estimator=table_estimator(runs, table))
        assert result.index == 1

    def test_threshold_is_inclusive(self):
        runs = distinct_triangles(3)
        table = np.full((3, 3), 0.21)
        np.fill_diagonal(table, 0.0)
        result = boost(runs, 0.1, tv_estimator=table_estimator(runs, table))
        assert result.index == 0
        assert result.neighbor_count == 3

    def test_no_consensus_raises(self):
        runs = distinct_triangles(5)
        table = np.full((5, 5), 0.9)
        np.fill_diagonal(table, 0.0)
        with pytest.raises(BoostFailureError):
            boost(runs, 0.1, tv_estimator=table_estimator(runs, table))

    def test_input_validation(self):
        runs = distinct_triangles(2)
        with pytest.raises(ValueError):
            boost(runs, 0.1)
        with pytest.raises(ValueError):
            boost(distinct_triangles(3), 0.0)
        # nan used to reach an integer conversion, and inf a sample size of 0
        for eps_prime in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^eps_prime must be positive and finite"):
                boost(distinct_triangles(3), eps_prime)

    def test_default_estimator_on_identical_runs(self):
        runs = [Simplex(isotropic_simplex(2).vertices) for _ in range(3)]
        result = boost(runs, 0.5, seed=0)
        assert result.index == 0
        assert result.neighbor_count == 3
        assert (result.pairwise == 0.0).all()
