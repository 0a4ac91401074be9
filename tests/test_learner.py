import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from simplexlearn import moments
from simplexlearn.cli import _synthesize_simplex
from simplexlearn.evaluation import match_vertices
from simplexlearn.geometry import Simplex, isotropic_simplex, make_embed_map
from simplexlearn.learner import (
    BoostFailureError,
    DegenerateSampleError,
    LearnerConfig,
    boost,
    embedded_m3_grad,
    estimate_frame,
    learn_simplex,
)
from simplexlearn.moments import empirical_m3_grad
from simplexlearn.sampling import (
    SampleExhaustedError,
    array_source,
    child_seed,
    sample_simplex,
    simplex_source,
    substream,
)


def random_truth(n: int, seed: int) -> Simplex:
    rng = substream(seed, 700)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Simplex(isotropic_simplex(n).vertices @ q.T + rng.standard_normal(n))


def counting_source(truth: Simplex, seed: int):
    """simplex_source that records the point count of every call."""
    inner = simplex_source(truth, seed)
    counts = []

    def draw(count):
        counts.append(count)
        return inner(count)

    return draw, counts


def assert_matches_one_shot_gradient(fused, frame, emb, x, u):
    """fused(x, u) against the gradient of x pushed through both maps, and
    its error against half the difference of the gradients of the halves."""
    reference = empirical_m3_grad(emb.forward(frame.forward(x)), u)
    grad, error = fused(x, u)
    assert grad.shape == error.shape == u.shape
    assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max()
    half = x.shape[0] // 2
    first, second = (empirical_m3_grad(emb.forward(frame.forward(part)), u) for part in (x[:half], x[half:]))
    assert np.abs(error - (first - second) / 2).max() <= 1e-12 * np.abs(reference).max()


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
        # through both maps, for one direction and for a batch of n+1; each
        # half of the odd 20_001-row block spans more than one row block
        assert 10_000 > moments.BLOCK_ROWS
        for n, seed in ((2, 3), (5, 4), (9, 5)):
            truth = random_truth(n, seed)
            frame = estimate_frame(sample_simplex(truth, 5000, seed))
            emb = make_embed_map(n)
            x = simplex_source(truth, seed + 1)(20_001)
            fused = embedded_m3_grad(frame, emb)
            for shape in ((n + 1,), (n + 1, n + 1)):
                u = substream(seed, 6).standard_normal(shape)
                assert_matches_one_shot_gradient(fused, frame, emb, x, u)

    # 7 rows cut every pass into many blocks and a ragged last block per
    # half; 10**9 makes each half one block.  1001 is odd and no multiple
    # of 7, and n + 1 rows is the smallest block a frame takes.
    @pytest.mark.parametrize("block_rows", [7, 10**9])
    @pytest.mark.parametrize("t", [1001, 6])
    def test_blocked_passes_match_the_one_shot_formulas(self, monkeypatch, block_rows, t):
        n = 5
        truth = random_truth(n, 6)
        x = simplex_source(truth, 7)(t) + 100.0
        mean = x.mean(axis=0)
        centered = x - mean
        factor = np.linalg.cholesky(centered.T @ centered / t)
        monkeypatch.setattr(moments, "BLOCK_ROWS", block_rows)
        frame = estimate_frame(x)
        assert np.abs(frame.mean - mean).max() <= 1e-12 * np.abs(mean).max()
        assert np.abs(frame.factor - factor).max() <= 1e-12 * np.abs(factor).max()
        emb = make_embed_map(n)
        fused = embedded_m3_grad(frame, emb)
        for shape in ((n + 1,), (n + 1, n + 1)):
            assert_matches_one_shot_gradient(fused, frame, emb, x, substream(6, 6).standard_normal(shape))

    def test_iterations_do_not_depend_on_the_block(self, monkeypatch):
        truth = random_truth(4, 8)
        config = LearnerConfig(t1=1_500, t3=1_501, seed=8)
        reference = learn_simplex(simplex_source(truth, 9), 4, config)
        monkeypatch.setattr(moments, "BLOCK_ROWS", 7)
        blocked = learn_simplex(simplex_source(truth, 9), 4, config)
        assert blocked.report.iterations_run == reference.report.iterations_run
        scale = np.abs(reference.simplex.vertices).max()
        assert np.abs(blocked.simplex.vertices - reference.simplex.vertices).max() <= 1e-12 * scale

    def test_too_few_points(self):
        with pytest.raises(DegenerateSampleError):
            estimate_frame(np.zeros((3, 3)))

    def test_rank_deficient_points(self):
        line = np.outer(np.arange(10.0), np.ones(3))
        with pytest.raises(DegenerateSampleError):
            estimate_frame(line)


class TestLearnSimplex:
    def test_recovers_plane_truth(self):
        truth = random_truth(2, 1)
        config = LearnerConfig(t1=4000, t3=4000, m=12, seed=0)
        result = learn_simplex(simplex_source(truth, 10), 2, config)
        assert result.complete
        assert result.found_count == 3
        assert match_vertices(truth, result.simplex).max_error <= 0.3

    def test_recovers_space_truth(self):
        truth = random_truth(3, 2)
        config = LearnerConfig(t1=20_000, t3=20_000, m=20, seed=0)
        result = learn_simplex(simplex_source(truth, 11), 3, config)
        assert result.complete
        assert match_vertices(truth, result.simplex).max_error <= 0.3

    def test_deterministic(self):
        truth = random_truth(2, 3)
        config = LearnerConfig(t1=3000, t3=3000, m=20, seed=5)
        a = learn_simplex(simplex_source(truth, 12), 2, config)
        b = learn_simplex(simplex_source(truth, 12), 2, config)
        assert a.found_count == b.found_count
        assert (a.directions == b.directions).all()
        assert a.complete
        assert (a.simplex.vertices == b.simplex.vertices).all()
        other = learn_simplex(simplex_source(truth, 13), 2, config)
        assert (a.directions != other.directions).any()

    def test_stops_early_once_complete(self):
        n = 2
        truth = random_truth(n, 4)
        draw, counts = counting_source(truth, 14)
        config = LearnerConfig(t1=4000, t3=4000, m=100, seed=0)
        result = learn_simplex(draw, n, config)
        assert result.complete
        # one block serves one frame of n+1 starts, however large the
        # budget; r is a cap, and the frame stops at its noise floor
        # before it
        report = result.report
        assert report.iterations_run < config.r
        assert counts == [config.t1 + config.t3]
        assert report.found_count == n + 1
        assert report.points_drawn == config.t1 + config.t3

    def test_one_draw_whatever_the_step_count(self):
        truth = random_truth(2, 4)
        steps = set()
        for r in (1, 2, 30):
            draw, counts = counting_source(truth, 14)
            config = LearnerConfig(t1=3000, t3=1000, r=r, seed=0)
            report = learn_simplex(draw, 2, config).report
            assert counts == [4000]
            assert report.points_drawn == 4000
            steps.add(report.iterations_run)
        assert len(steps) == 3

    def test_array_source_of_t1_plus_t3_rows_suffices(self):
        truth = random_truth(2, 24)
        config = LearnerConfig(t1=2000, t3=1000, seed=0)
        points = sample_simplex(truth, 3000, 25)
        assert learn_simplex(array_source(points), 2, config).complete
        with pytest.raises(SampleExhaustedError):
            learn_simplex(array_source(points[:-1]), 2, config)

    def test_default_n5_run_stops_before_the_cap(self):
        truth = _synthesize_simplex(5, 0)
        config = LearnerConfig(seed=0)
        result = learn_simplex(simplex_source(truth, child_seed(0, 98)), 5, config)
        assert result.complete
        assert result.report.iterations_run < config.r
        assert result.report.points_drawn == config.t1 + config.t3
        assert match_vertices(truth, result.simplex).max_error <= 0.1 * math.sqrt(5 * 7)

    def test_iterations_run_is_deterministic(self):
        for seed in (0, 1, 2):
            truth = random_truth(3, seed)
            config = LearnerConfig(t1=10_000, t3=10_000, seed=seed)
            runs = [learn_simplex(simplex_source(truth, 30 + seed), 3, config).report for _ in range(2)]
            assert runs[0].iterations_run == runs[1].iterations_run < config.r
            assert runs[0].vertices == runs[1].vertices

    def test_budget_cuts_the_last_batch(self):
        # m = 2 at n = 2: one frame of 2 starts, not of n+1 = 3
        draw, counts = counting_source(random_truth(2, 6), 16)
        config = LearnerConfig(t1=2000, t3=500, m=2, r=3, seed=0)
        result = learn_simplex(draw, 2, config)
        assert not result.complete
        assert result.report.found_count == 2
        assert result.report.iterations_run == config.r
        assert counts == [config.t1 + config.t3]
        assert result.report.points_drawn == config.t1 + config.t3

    def test_incomplete_run_reports_honestly(self):
        truth = random_truth(2, 5)
        config = LearnerConfig(t1=4000, t3=4000, m=1, seed=0)
        result = learn_simplex(simplex_source(truth, 15), 2, config)
        assert not result.complete
        assert result.simplex is None
        assert result.found_count == 1
        assert result.directions.shape == (1, 3)
        assert result.report.vertices is not None

    def test_completes_the_n15_cli_truth(self):
        # independent starts at the default budget found 15 of 16 vertices
        # here; the frame ends on all of them
        truth = _synthesize_simplex(15, 0)
        result = learn_simplex(simplex_source(truth, child_seed(0, 98)), 15, LearnerConfig(seed=0))
        assert result.complete
        assert result.report.found_count == 16
        assert match_vertices(truth, result.simplex).max_error <= 0.1 * math.sqrt(15 * 17)

    def test_t1_checked_against_dimension(self):
        truth = random_truth(3, 7)
        config = LearnerConfig(t1=4, t3=100, m=2)
        with pytest.raises(ValueError):
            learn_simplex(simplex_source(truth, 17), 3, config)

    def test_report_contents(self):
        truth = random_truth(2, 8)
        config = LearnerConfig(t1=3000, t3=3000, m=10, seed=9)
        result = learn_simplex(simplex_source(truth, 18), 2, config)
        report = result.report.to_dict()
        assert report["schema_version"] == 9
        assert report["n"] == 2
        assert report["seed"] == 9
        assert report["config"]["t1"] == 3000
        assert report["found_count"] == result.found_count
        assert len(report["vertices"]) == 3
        assert report["per_vertex_match_error"] is None
        assert report["tv_estimate"] is None
        assert "starts_run" not in report
        assert 1 <= report["iterations_run"] <= config.r
        assert report["points_drawn"] == 3000 + 3000
        assert report["wall_time_ms"] > 0

    def test_back_map_matches_explicit_formula(self):
        # v = sqrt((n+1)(n+2)) (u - 1/(n+1)) B A^T + mu, with B the embedding
        # basis and (mu, A) the frame estimated from the same one block
        n = 3
        truth = random_truth(n, 9)
        config = LearnerConfig(t1=20_000, t3=20_000, m=20, seed=0)
        result = learn_simplex(simplex_source(truth, 19), n, config)
        assert result.complete
        frame = estimate_frame(simplex_source(truth, 19)(config.t1 + config.t3))
        basis = make_embed_map(n).basis
        explicit = math.sqrt((n + 1) * (n + 2)) * ((result.directions - 1.0 / (n + 1)) @ basis) @ frame.factor.T + frame.mean
        assert np.abs(result.simplex.vertices - explicit).max() <= 1e-9 * (1.0 + np.abs(explicit).max())


def spoiled_source(truth: Simplex, seed: int, spoil):
    """simplex_source whose block is replaced by ``spoil(block)``."""
    inner = simplex_source(truth, seed)

    def draw(count):
        return spoil(inner(count))

    return draw


def set_entry(row: int, value: float):
    def spoil(block):
        block[row, 0] = value
        return block

    return spoil


class TestSourceValidation:
    def test_nan_in_frame_block(self):
        config = LearnerConfig(t1=2000, t3=2000, m=5, seed=0)
        with pytest.raises(ValueError, match="non-finite values"):
            learn_simplex(spoiled_source(random_truth(2, 20), 21, set_entry(0, np.nan)), 2, config)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_the_t3_rows(self, value):
        # the block's last row, which belonged to the last gradient block
        # when each step drew its own, is checked before any arithmetic
        config = LearnerConfig(t1=2000, t3=2000, m=5, seed=0)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite values"):
            warnings.simplefilter("error", RuntimeWarning)
            learn_simplex(spoiled_source(random_truth(2, 20), 21, set_entry(-1, value)), 2, config)

    def test_wrong_width(self):
        config = LearnerConfig(t1=2000, t3=2000, m=5, seed=0)
        with pytest.raises(ValueError, match=r"shape \(4000, 3\), expected \(4000, 2\)"):
            learn_simplex(simplex_source(random_truth(3, 20), 21), 2, config)

    def test_short_block(self):
        config = LearnerConfig(t1=2000, t3=2000, m=5, seed=0)
        with pytest.raises(ValueError, match=r"shape \(3999, 2\), expected \(4000, 2\)"):
            learn_simplex(spoiled_source(random_truth(2, 20), 21, lambda block: block[:-1]), 2, config)


class TestLearnerConfig:
    def test_defaults_resolve(self):
        config = LearnerConfig()
        assert config.t3 == 50_000
        assert config.r == 30
        assert config.m is None
        assert [f.name for f in fields(LearnerConfig)] == ["t1", "t3", "m", "r", "seed"]

    def test_explicit_m_wins(self):
        # the frame holds min(m, n+1) starts, n+1 = 3 by default
        for m, starts in ((None, 3), (1, 1), (2, 2), (3, 3), (7, 3)):
            config = LearnerConfig(t1=500, t3=500, m=m, r=2, seed=0)
            assert learn_simplex(simplex_source(random_truth(2, 22), 23), 2, config).report.found_count == starts

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(t3=0)
        with pytest.raises(ValueError):
            LearnerConfig(t3=1)
        with pytest.raises(ValueError):
            LearnerConfig(m=0)
        with pytest.raises(ValueError):
            LearnerConfig(r=0)


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

    def test_default_estimator_on_identical_runs(self):
        runs = [Simplex(isotropic_simplex(2).vertices) for _ in range(3)]
        result = boost(runs, 0.5, seed=0)
        assert result.index == 0
        assert result.neighbor_count == 3
        assert (result.pairwise == 0.0).all()
