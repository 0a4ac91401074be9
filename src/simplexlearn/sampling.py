"""Seeded samplers for simplices and lp balls.

Every producer returns a plain (t, d) float array, takes an integer seed
and derives its stream from a keyed ``SeedSequence``, so calling it again
with the same arguments reproduces the points bit for bit.

Every draw fills its stream in the row blocks of :func:`_row_blocks`, in
row order, in one pass or (the lp ball) three, so no intermediate is
larger than a block.  A Generator yields the same variates whether an
array is filled in one call or in consecutive row blocks, so the points
are the whole-array formulas' bit for bit, with every row sum added left
to right.  :func:`hidden_instance` holds the command line's seeded hidden
truths and their samples, with their keys.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .geometry import Simplex, _barycentric, _check_count, isotropic_simplex

__all__ = [
    "substream",
    "child_seed",
    "sample_standard_simplex",
    "sample_simplex",
    "generalized_gaussian_std",
    "sample_lp_ball",
    "simplex_source",
    "hidden_instance",
]

P_MIN, P_MAX = 1.0, 64.0

# Spawn-key namespaces, one per producer, so equal seeds never collide
# across sources.  Keys 4, 5, 6 and 8 are retired and never reused, since
# a reused key would correlate two streams; the others keep their numbers
# so their streams do not change.
_KEY_STANDARD = 1
_KEY_SIMPLEX = 2
_KEY_LP_BALL = 3
_KEY_SOURCE = 7


# Rows per block of every pass over a sample and of every draw; a block
# of intermediates (under 1 MB) stays in a core's 2 MB L2 cache.  Medians
# of 60 interleaved runs, 2 cores of a Xeon with OpenBLAS, in ms per pass
# at 4096 / 8192 / 12288 rows, and for the whole-array pass on a
# precomputed centered copy: a kurtosis ICA sweep on a (200k, 4) sample
# 4.8 / 4.0 / 4.1 against 9.7, on (200k, 9) 11.3 / 11.2 / 12.0 against
# 21.5; a learner step of 6 columns on (100k, 5) 2.5 / 2.0 / 2.0 against
# 3.8.
BLOCK_ROWS = 8192


def _row_blocks(start: int, stop: int) -> list[slice]:
    """Row slices that cover [start, stop) in order, BLOCK_ROWS rows each
    but the last, which holds what is left; a short last block joins the
    one before it, so every block holds at least BLOCK_ROWS rows unless
    the range is shorter than one block.

    A BLAS product of a few rows need not round as the same rows do in a
    long product (OpenBLAS sends a one-row product to gemv and one of at
    most 10^6 multiply-adds to its small-matrix kernel), so no pass ever
    runs one on a stray tail.
    """
    edges = [*range(start, stop, BLOCK_ROWS), stop]
    if len(edges) > 2 and edges[-1] - edges[-2] < BLOCK_ROWS:
        del edges[-2]
    return [slice(low, high) for low, high in zip(edges, edges[1:])]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array with at least one column, added left to
    right column by column into a new array: ``np.cumsum(a, axis=1)[:,
    -1]`` bit for bit, whatever the memory order of ``a``.  One column add
    for every row at once runs far faster than numpy's reduction along
    rows of a few entries."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _check_seed(seed) -> int:
    return _check_count(seed, "seed", minimum=0)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key).

    Streams with different keys are statistically independent, which is how
    per-start and per-block randomness stays reproducible without any
    shared mutable state.  Raises ValueError unless ``seed`` is an
    integer >= 0.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(key)))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed for (seed, key), for APIs that take a seed rather than
    a generator.  Keys play the same role as in :func:`substream`."""
    return int(np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(key)).generate_state(1)[0])


def _exponential_rows(rng: np.random.Generator, m: int, t: int) -> Iterator[tuple[slice, np.ndarray]]:
    """t rows of m iid Exp(1) variates, block by block: each row slice
    with its rows.  Every block is drawn into one buffer, so a block lasts
    until the next block is drawn."""
    blocks = _row_blocks(0, t)
    buffer = np.empty((max((rows.stop - rows.start for rows in blocks), default=0), m))
    for rows in blocks:
        yield rows, rng.standard_exponential(out=buffer[: rows.stop - rows.start])


def _simplex_points(rng: np.random.Generator, vertices: np.ndarray, t: int) -> np.ndarray:
    """t points ``weights @ vertices``, the uniform barycentric weights on
    Delta^(m-1) being the rows of :func:`_exponential_rows` divided in
    place by their sums; each block's product is written straight into
    the output."""
    out = np.empty((t, vertices.shape[1]))
    for rows, e in _exponential_rows(rng, vertices.shape[0], t):
        e /= _row_sums(e)[:, None]
        np.matmul(e, vertices, out=out[rows])
    return out


def sample_standard_simplex(n: int, t: int, seed: int) -> np.ndarray:
    """t points uniform on the standard simplex Delta^(n-1) in R^n
    (nonnegative coordinates summing to one): the weights themselves,
    since a product with the identity rounds nothing."""
    n, t = _check_count(n, "n", minimum=2), _check_count(t, "t")
    return _simplex_points(substream(seed, _KEY_STANDARD), np.eye(n), t)


def sample_simplex(s: Simplex, t: int, seed: int) -> np.ndarray:
    """t points uniform in the simplex ``s``.

    Uniform barycentric weights are pushed through the vertex matrix; an
    affine image of a simplex therefore shares its weight stream, so runs
    on S and F(S) with equal seeds are coupled through F.
    """
    t = _check_count(t, "t")
    _barycentric(s)  # rejects affinely dependent vertices up front
    return _simplex_points(substream(seed, _KEY_SIMPLEX), s.vertices, t)


def _check_p(p) -> float:
    """``p`` as a float; ValueError naming ``p`` unless it is a real number
    (a bool or a string is not) in [P_MIN, P_MAX]."""
    if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
        raise ValueError(f"p must be a real number, got {p!r}")
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {p}")
    return p


def generalized_gaussian_std(p: float) -> float:
    """Standard deviation of the exp(-|x|^p) density:
    sqrt(Gamma(3/p) / Gamma(1/p)), from ``math.lgamma``."""
    p = _check_p(p)
    return math.exp(0.5 * (math.lgamma(3.0 / p) - math.lgamma(1.0 / p)))


def _lp_ball_points(p: float, seed: int, out: np.ndarray, sums: np.ndarray) -> None:
    """Fill ``out``, (t, n), with the points of ``sample_lp_ball(n, p, t,
    seed)`` and ``sums``, (t,), with their denominators sum |G_i|^p + Z; the
    caller allocates both, so a draw on another thread leaves no array
    behind in that thread's allocator.

    The stream goes in three passes over the row blocks, as one whole-array
    draw of each would take it: every Gamma(1/p) block H, raised in place
    to |G| = H^(1/p) once its row sums are kept, then every sign block (-1
    and 1 in its own integer array, so no float temporaries), then every Z
    block, which divides its rows in place.  A longer draw's signs start
    after all of its Gamma variates, so its first t points are not the
    t-point draw.
    """
    rng = substream(seed, _KEY_LP_BALL)
    blocks = _row_blocks(0, out.shape[0])
    for rows in blocks:
        block = out[rows]
        rng.standard_gamma(1.0 / p, out=block)
        sums[rows] = _row_sums(block)
        block **= 1.0 / p
    for rows in blocks:
        signs = rng.integers(0, 2, size=out[rows].shape)
        signs *= 2
        signs -= 1
        out[rows] *= signs
    for rows in blocks:
        denominator = sums[rows]
        denominator += rng.exponential(1.0, size=rows.stop - rows.start)
        out[rows] /= (denominator ** (1.0 / p))[:, None]


def sample_lp_ball(n: int, p: float, t: int, seed: int) -> np.ndarray:
    """t points uniform in the unit lp ball of R^n.

    The exact representation G / (sum |G_i|^p + Z)^(1/p), with G's
    coordinates iid exp(-|x|^p) and Z an independent Exp(1), is uniform in
    the ball with no rejection step.  The denominator sums the Gamma(1/p)
    draws |G_i|^p that G was built from, so no power is taken twice, and
    the draw keeps only the output and those (t,) sums.
    """
    p = _check_p(p)
    n, t = _check_count(n, "n"), _check_count(t, "t")
    out = np.empty((t, n))
    _lp_ball_points(p, seed, out, np.empty(t))
    return out


def simplex_source(s: Simplex, seed: int) -> Callable[[int], np.ndarray]:
    """A draw(count) callable returning the first ``count`` uniform points
    of ``s`` from one keyed stream of ``seed``.

    The callable keeps no state: equal calls return equal points, and a
    longer call draws a shorter one's weights first, so its points begin
    with the shorter call's (bit for bit where BLAS rounds both products
    alike, which a one-row product need not).  Affine images of ``s``
    with the same seed yield the pointwise image of the same draws.
    ``seed`` must be an integer >= 0, else ValueError, and ``s`` have
    affinely independent vertices, else DegenerateSimplexError, both
    before any draw; ``count`` must be an integer >= 0 (not a bool), else
    ValueError naming it.
    """
    seed = _check_seed(seed)
    _barycentric(s)  # rejects affinely dependent vertices up front
    vertices = s.vertices

    def draw(count: int) -> np.ndarray:
        count = _check_count(count, "count", minimum=0)
        return _simplex_points(substream(seed, _KEY_SOURCE, 0), vertices, count)

    return draw


def hidden_instance(problem: str, n: int, t: int, seed: int, p: float | None = None) -> tuple:
    """The command line's seeded hidden instance and t uniform points of it,
    as (truth, sample).  For ``"learn"`` and ``"simplex"`` the truth is the
    isotropic simplex under a Haar rotation (the Q of a Gaussian matrix's
    QR, its columns signed by the diagonal of R) and a normal shift, from
    key 97; learn draws ``simplex_source(truth, child_seed(seed, 98))(t)``
    and reduce ``sample_simplex(truth, t, child_seed(seed, 101))``: two
    streams, since sharing one would move every reduce report.  Both are
    prefix stable from two rows up: a longer draw begins with these t
    points, bit for bit wherever BLAS rounds both products alike.  A
    one-row product goes to gemv and rounds otherwise, and at some widths
    so does a short one in OpenBLAS's small-matrix kernel (at n = 20, up
    to some 2000 rows); the weights always agree.  For
    ``"lp"`` the truth is A = rotation · diag(uniform(0.5, 2)), from key 103,
    and the sample ``sample_lp_ball(n, p, t, child_seed(seed, 104))`` mapped
    by Aᵀ in place, which is not prefix stable: the ball draws every Gamma
    block before any sign.  ``p`` is required for ``"lp"`` and rejected
    otherwise; an unknown ``problem``, or ``n`` or ``t`` not an integer
    >= 1, raises ValueError before any draw."""
    if problem not in ("learn", "simplex", "lp"):
        raise ValueError(f"problem must be 'learn', 'simplex' or 'lp', got {problem!r}")
    if problem != "lp" and p is not None:
        raise ValueError(f"p applies only to problem 'lp', got {p!r}")
    n, t = _check_count(n, "n"), _check_count(t, "t")
    rng = substream(seed, 103 if problem == "lp" else 97)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    rotation = q * np.sign(np.diag(r))
    if problem == "lp":
        truth = rotation * rng.uniform(0.5, 2.0, size=n)
        sample = sample_lp_ball(n, p, t, child_seed(seed, 104))
        for rows in _row_blocks(0, t):  # sample @ truth.T in place
            sample[rows] = sample[rows] @ truth.T
        return truth, sample
    truth = Simplex(isotropic_simplex(n).vertices @ rotation.T + rng.standard_normal(n))
    if problem == "learn":
        return truth, simplex_source(truth, child_seed(seed, 98))(t)
    return truth, sample_simplex(truth, t, child_seed(seed, 101))
