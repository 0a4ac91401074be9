"""Every draw and Monte Carlo scorer runs in row blocks; each is pinned
here, bit for bit, against the whole-array formula it replaced, written
out inline with every row sum added left to right.  The sizes straddle a
block (1, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, and 50_000 rows
for 8192-row blocks or 2_000 for 7-row ones), and the block size of 7
rows cuts every draw into hundreds of blocks; the widths m run from 2 to
21 entries per row sum.  tracemalloc bounds the memory the blocks save,
in the draws and in the ICA reductions."""

import tracemalloc

import numpy as np
import pytest

from simplexlearn import sampling
from simplexlearn.evaluation import tv_distance_mc
from simplexlearn.geometry import MEMBERSHIP_TOL, Simplex, _barycentric
from simplexlearn.ica import _reduction_radii, lp_symmetric_difference, reduce_lp_to_ica, reduce_simplex_to_ica
from simplexlearn.sampling import (
    _row_blocks,
    _row_sums,
    sample_lp_ball,
    sample_simplex,
    sample_standard_simplex,
    simplex_source,
    substream,
)

WIDTHS = [2, 3, 4, 5, 6, 7, 8, 9, 11, 21]
# every p at widths below and above 8, one p per width
LP_CASES = [(n, [1.0, 1.5, 3.0][i % 3]) for i, n in enumerate(WIDTHS)]


@pytest.fixture(params=[(8192, 50_000), (7, 2_000)], ids=["rows8192", "rows7"])
def sizes(request, monkeypatch):
    """Sample sizes around the block size under test, which is set for
    the test's duration, and one of many blocks."""
    b, many = request.param
    monkeypatch.setattr(sampling, "BLOCK_ROWS", b)
    return sorted({1, 7, b - 1, b, b + 1, many})


def whole_weights(rng: np.random.Generator, m: int, t: int) -> np.ndarray:
    e = rng.standard_exponential(size=(t, m))
    e /= np.cumsum(e, axis=1)[:, -1:]
    return e


def whole_lp_ball(rng: np.random.Generator, n: int, p: float, t: int) -> np.ndarray:
    h = rng.gamma(1.0 / p, 1.0, size=(t, n))
    signs = 2.0 * rng.integers(0, 2, size=(t, n)) - 1.0
    g = signs * h ** (1.0 / p)
    z = rng.exponential(1.0, size=t)
    g /= ((np.cumsum(h, axis=1)[:, -1] + z) ** (1.0 / p))[:, None]
    return g


def random_simplex(m: int, seed: int) -> Simplex:
    """m vertices in R^(m-1), full-dimensional."""
    return Simplex(substream(seed, 800, m).standard_normal((m, m - 1)))


def product_sizes(sizes: list, m: int) -> list:
    """The sizes at which a draw of m vertices in R^(m-1) is pinned.

    OpenBLAS runs a product of at most 10^6 multiply-adds in its
    small-matrix kernel, which at 21 vertices in R^20 rounds differently
    from its large one (at up to 11 vertices the two agree).  A draw is
    pinned there where its blocks and the whole product take the same
    kernel.  That holds at every size used here: for BLOCK_ROWS = 8192
    every block of a longer draw has at least 8192 rows, and 7-row blocks
    run to 2_000 rows, which at 21 vertices still fits the small kernel.
    It would not for 7-row blocks of 50_000 rows.
    """
    if m <= 11:
        return sizes
    small = lambda rows: rows * m * (m - 1) <= 10**6  # noqa: E731
    return [t for t in sizes if small(t) == small(min(t, sampling.BLOCK_ROWS))]


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [8192, 7])
    def test_one_rule(self, monkeypatch, rows):
        monkeypatch.setattr(sampling, "BLOCK_ROWS", rows)
        for start in (0, 3, rows):
            for length in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 5 * rows + 3, 50_000}):
                blocks = _row_blocks(start, start + length)
                if length == 0:
                    assert blocks == []
                    continue
                assert blocks[0].start == start and blocks[-1].stop == start + length
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
                assert all(b.stop - b.start >= min(rows, length) for b in blocks)
                assert all(b.stop - b.start == rows for b in blocks[:-1])


def row_cases(m: int) -> dict:
    """The same (500, m) values in C order, in Fortran order and as a
    strided view, every row spanning 16 decades, with a row of -0.0."""
    rng = substream(m, 801)
    a = rng.standard_exponential((500, 2 * m)) * 10.0 ** rng.integers(-8, 8, size=(500, 2 * m))
    a[0] = -0.0
    return {"C": np.ascontiguousarray(a[:, :m]), "F": np.asfortranarray(a[:, :m]), "strided": a[:, ::2]}


class TestRowSums:
    @pytest.mark.parametrize("m", [*range(1, 40), *range(127, 301)])
    def test_left_to_right(self, m):
        for a in row_cases(m).values():
            total = _row_sums(a)
            assert np.array_equal(total, np.cumsum(a, axis=1)[:, -1])
            assert np.signbit(total[0])

    @pytest.mark.parametrize("m", [1, 3, 9, 200])
    def test_input_untouched(self, m):
        a = substream(m, 802).standard_normal((50, m))
        before = a.copy()
        total = _row_sums(a)
        total += 1.0
        assert np.array_equal(a, before)


class TestSimplexDraws:
    @pytest.mark.parametrize("m", WIDTHS)
    def test_standard_simplex(self, sizes, m):
        for t in sizes:
            expected = whole_weights(substream(m, sampling._KEY_STANDARD), m, t)
            assert np.array_equal(sample_standard_simplex(m, t, m), expected)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_sample_simplex(self, sizes, m):
        s = random_simplex(m, 1)
        for t in product_sizes(sizes, m):
            expected = whole_weights(substream(m, sampling._KEY_SIMPLEX), m, t) @ s.vertices
            assert np.array_equal(sample_simplex(s, t, m), expected)

    @pytest.mark.parametrize("m", WIDTHS)
    def test_simplex_source(self, sizes, m):
        # every call of one draw, in any order, reads the same stream from
        # its start, so a longer call's weights begin with a shorter one's
        s = random_simplex(m, 2)
        draw = simplex_source(s, m)
        counts = product_sizes(sizes, m)
        for t in [*counts, *reversed(counts)]:
            expected = whole_weights(substream(m, sampling._KEY_SOURCE, 0), m, t) @ s.vertices
            assert np.array_equal(draw(t), expected)


class TestLpDraws:
    @pytest.mark.parametrize("n, p", LP_CASES)
    def test_lp_ball(self, sizes, n, p):
        for t in sizes:
            expected = whole_lp_ball(substream(n, sampling._KEY_LP_BALL), n, p, t)
            assert np.array_equal(sample_lp_ball(n, p, t, n), expected)


class TestReductionRadii:
    @pytest.mark.parametrize("m", WIDTHS)
    def test_simplex_radii(self, sizes, m):
        for t in sizes:
            expected = substream(5, 67).gamma(m, 1.0, size=t)
            assert np.array_equal(_reduction_radii(np.empty(t), m - 1, None, 5), expected)

    @pytest.mark.parametrize("n, p", LP_CASES)
    def test_lp_radii(self, sizes, n, p):
        for t in sizes:
            expected = substream(7, 71).gamma(n / p + 1.0, 1.0, size=t) ** (1.0 / p)
            assert np.array_equal(_reduction_radii(np.empty(t), n, p, 7), expected)


class TestMonteCarloScorers:
    @pytest.mark.parametrize("m", WIDTHS)
    def test_tv_distance(self, sizes, m):
        n = m - 1
        k = random_simplex(m, 3)
        rng = substream(m, 805)
        l = Simplex(k.vertices @ (np.eye(n) + 0.15 * rng.standard_normal((n, n))) + 0.1 * rng.standard_normal(n))
        big, small = (k, l) if k.volume() >= l.volume() else (l, k)
        to_small = _barycentric(small) @ np.vstack([big.vertices.T, np.ones((1, m))])
        for t in sizes:
            lam = to_small @ whole_weights(substream(9, 31), m, t).T
            expected = 1.0 - (lam.min(axis=0) >= -MEMBERSHIP_TOL).mean()
            assert tv_distance_mc(k, l, t, seed=9).value == expected

    @pytest.mark.parametrize("n, p", LP_CASES)
    def test_lp_symmetric_difference(self, sizes, n, p):
        rng = substream(n, 806)
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        a_est = a @ (np.eye(n) + 0.05 * rng.standard_normal((n, n)))
        for t in sizes:
            x = whole_lp_ball(substream(sampling.child_seed(11, 79, 0), sampling._KEY_LP_BALL), n, p, t)
            shares = []
            for composed in (np.linalg.solve(a_est, a), np.linalg.solve(a, a_est)):
                y = np.abs(x @ composed.T) ** p
                shares.append(float((np.cumsum(y, axis=1)[:, -1] > 1.0).mean()))
            expected = shares[0] + abs(np.linalg.det(a_est)) / abs(np.linalg.det(a)) * shares[1]
            assert lp_symmetric_difference(a, a_est, p, t, seed=11) == expected


def traced_peak(call) -> float:
    """Peak bytes numpy holds while ``call`` runs, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemory:
    # whole-array peaks before blocking: 10.5, 24.1 and 27.2 MB
    def test_tv_distance_keeps_no_point_array(self):
        k = random_simplex(6, 4)
        assert traced_peak(lambda: tv_distance_mc(k, k.scaled(0.9), 100_000, seed=0)) <= 2.0

    def test_lp_ball_keeps_the_output_and_the_row_sums(self):
        output = 200_000 * 5 * 8 / 1e6
        assert traced_peak(lambda: sample_lp_ball(5, 3.0, 200_000, 0)) <= output + 3.0

    def test_radii_are_drawn_into_their_array(self):
        radii = np.empty(200_000)
        assert traced_peak(lambda: _reduction_radii(radii, 5, 3.0, 1)) <= 0.01

    def test_simplex_draw_builds_no_weights(self):
        s = random_simplex(9, 5)
        output = 200_000 * 8 * 8 / 1e6
        assert traced_peak(lambda: sample_simplex(s, 200_000, 0)) <= output + 2.0

    # the rescaled copies the reductions built peaked at 16.3 and 9.0 MB
    def test_simplex_reduction_keeps_one_vector_of_radii(self):
        points = sample_simplex(random_simplex(9, 6), 200_000, 0)
        radii = 200_000 * 8 / 1e6
        assert traced_peak(lambda: reduce_simplex_to_ica(points, seed=0)) <= radii + 3.0

    def test_lp_reduction_keeps_one_vector_of_radii(self):
        points = sample_lp_ball(5, 3.0, 200_000, 0)
        radii = 200_000 * 8 / 1e6
        assert traced_peak(lambda: reduce_lp_to_ica(points, 3.0, seed=0)) <= radii + 3.0
