"""Seeded samplers for simplices and lp balls, plus the gamma rescalings
that turn bounded uniform samples into products of independent coordinates.

Every producer returns a plain (t, d) float array, takes an integer seed
and derives its stream from a keyed ``SeedSequence``, so calling it again
with the same arguments reproduces the points bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .geometry import Simplex, _solver

__all__ = [
    "SampleExhaustedError",
    "substream",
    "child_seed",
    "sample_standard_simplex",
    "sample_simplex",
    "sample_generalized_gaussian",
    "generalized_gaussian_std",
    "sample_lp_ball",
    "rescale_simplex_sample",
    "rescale_lp_sample",
    "simplex_source",
    "array_source",
]

P_MIN, P_MAX = 1.0, 64.0

# Spawn-key namespaces, one per producer, so equal seeds never collide
# across sources.  Key 4 is retired; the others keep their numbers so
# their streams do not change.
_KEY_STANDARD = 1
_KEY_SIMPLEX = 2
_KEY_LP_BALL = 3
_KEY_RESCALE_SIMPLEX = 5
_KEY_RESCALE_LP = 6
_KEY_SOURCE = 7


class SampleExhaustedError(RuntimeError):
    """A finite sample source was asked for more points than it holds."""


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key).

    Streams with different keys are statistically independent, which is how
    per-start and per-block randomness stays reproducible without any
    shared mutable state.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed for (seed, key), for APIs that take a seed rather than
    a generator.  Keys play the same role as in :func:`substream`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1)[0])


def _as_rng(rng: int | np.random.Generator) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer >= ``minimum`` (a bool is not an integer here)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _simplex_weights(rng: np.random.Generator, m: int, t: int) -> np.ndarray:
    """Uniform barycentric weights on Delta^(m-1): iid Exp(1) rows divided
    by their sums."""
    e = rng.standard_exponential(size=(t, m))
    e /= e.sum(axis=1, keepdims=True)
    return e


def sample_standard_simplex(n: int, t: int, seed: int) -> np.ndarray:
    """t points uniform on the standard simplex Delta^(n-1) in R^n
    (nonnegative coordinates summing to one)."""
    n, t = _check_count(n, "n", minimum=2), _check_count(t, "t")
    return _simplex_weights(substream(seed, _KEY_STANDARD), n, t)


def sample_simplex(s: Simplex, t: int, seed: int) -> np.ndarray:
    """t points uniform in the simplex ``s``.

    Uniform barycentric weights are pushed through the vertex matrix; an
    affine image of a simplex therefore shares its weight stream, so runs
    on S and F(S) with equal seeds are coupled through F.
    """
    t = _check_count(t, "t")
    _solver(s)  # rejects affinely dependent vertices up front
    return _simplex_weights(substream(seed, _KEY_SIMPLEX), s.dim + 1, t) @ s.vertices


def _check_p(p: float) -> float:
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {p}")
    return p


def _generalized_gaussian_with_power(rng: np.random.Generator, p: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """Signed exp(-|x|^p) variates g and the Gamma(1/p, 1) draws h = |g|^p
    they came from."""
    h = rng.gamma(1.0 / p, 1.0, size=shape)
    signs = 2.0 * rng.integers(0, 2, size=shape) - 1.0
    return signs * h ** (1.0 / p), h


def sample_generalized_gaussian(p: float, count: int, rng: int | np.random.Generator) -> np.ndarray:
    """``count`` draws with density proportional to exp(-|x|^p).

    E|X|^p = 1/p for every p; at p=2 this is a centered normal with
    variance 1/2, at p=1 a Laplace with unit scale.  ``count`` may be 0.
    """
    p = _check_p(p)
    return _generalized_gaussian_with_power(_as_rng(rng), p, _check_count(count, "count", minimum=0))[0]


def generalized_gaussian_std(p: float) -> float:
    """Standard deviation of the exp(-|x|^p) density:
    sqrt(Gamma(3/p) / Gamma(1/p)), from ``math.lgamma``."""
    p = _check_p(p)
    return math.exp(0.5 * (math.lgamma(3.0 / p) - math.lgamma(1.0 / p)))


def sample_lp_ball(n: int, p: float, t: int, seed: int) -> np.ndarray:
    """t points uniform in the unit lp ball of R^n.

    Uses the exact representation G / (sum |G_i|^p + Z)^(1/p) with G having
    iid exp(-|x|^p) coordinates and Z an independent Exp(1), which is
    uniform in the ball with no rejection step.  The denominator sums the
    Gamma(1/p) draws |G_i|^p that G was built from, so no power is taken
    twice.
    """
    p = _check_p(p)
    n, t = _check_count(n, "n"), _check_count(t, "t")
    rng = substream(seed, _KEY_LP_BALL)
    g, h = _generalized_gaussian_with_power(rng, p, (t, n))
    z = rng.exponential(1.0, size=t)
    g /= ((h.sum(axis=1) + z) ** (1.0 / p))[:, None]
    return g


def _gamma_radii(count: int, shape: float, p: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent Gamma(shape, 1)^(1/p) radii: the law behind
    both rescalings below and both ICA reductions."""
    return rng.gamma(shape, 1.0, size=count) ** (1.0 / p)


def _gamma_rescale(points: np.ndarray, shape: float, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each row of ``points`` times an independent radius of
    :func:`_gamma_radii`."""
    return points * _gamma_radii(points.shape[0], shape, p, rng)[:, None]


def rescale_simplex_sample(x: np.ndarray, seed: int) -> np.ndarray:
    """Scale each simplex point by an independent Gamma(n, 1) radius.

    For rows uniform on Delta^(n-1) the output coordinates are iid Exp(1).
    Rows must be finite and sum to one within 1e-9.
    """
    pts = np.asarray(x, dtype=float)
    if not np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-9:  # a NaN or Inf row fails too
        raise ValueError("rows must be finite and lie on the simplex (coordinates summing to one)")
    return _gamma_rescale(pts, pts.shape[1], 1.0, substream(seed, _KEY_RESCALE_SIMPLEX))


def rescale_lp_sample(x: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Scale each lp-ball point by T^(1/p) with T ~ Gamma(n/p + 1, 1).

    For rows uniform in the unit lp ball the output coordinates are iid
    with density proportional to exp(-|t|^p).  Rows must be finite and
    have lp norm at most 1 + 1e-9.
    """
    p = _check_p(p)
    pts = np.asarray(x, dtype=float)
    norms = (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)
    if not norms.max() <= 1.0 + 1e-9:  # a NaN or Inf row fails too
        raise ValueError("rows must be finite and lie in the unit lp ball")
    return _gamma_rescale(pts, pts.shape[1] / p + 1.0, p, substream(seed, _KEY_RESCALE_LP))


def simplex_source(s: Simplex, seed: int) -> Callable[[int], np.ndarray]:
    """A stateful draw(count) callable yielding fresh uniform points from
    ``s`` on every call, deterministically from ``seed``.

    Block k of a given size is always the same array for the same seed, and
    affine images of ``s`` with the same seed yield the pointwise image of
    the same draws.
    """
    counter = itertools.count()
    m = s.dim + 1
    vertices = s.vertices

    def draw(count: int) -> np.ndarray:
        rng = substream(seed, _KEY_SOURCE, next(counter))
        return _simplex_weights(rng, m, count) @ vertices

    return draw


def array_source(points: np.ndarray) -> Callable[[int], np.ndarray]:
    """A draw(count) callable over a fixed point array, consuming rows in
    order and raising :class:`SampleExhaustedError` once depleted."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cursor = 0

    def draw(count: int) -> np.ndarray:
        nonlocal cursor
        if cursor + count > pts.shape[0]:
            raise SampleExhaustedError(
                f"source holds {pts.shape[0]} points, {cursor + count} requested"
            )
        block = pts[cursor : cursor + count]
        cursor += count
        return block

    return draw
