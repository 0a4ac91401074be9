"""Seeded samplers for simplices and lp balls, plus the gamma rescalings
that turn bounded uniform samples into products of independent coordinates.

Every producer that returns a :class:`SampleMatrix` takes an integer seed
and derives its stream from a keyed ``SeedSequence``, so regenerating with
the same seed and source reproduces the points bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .geometry import Simplex, _solver

__all__ = [
    "GammaParams",
    "SampleMatrix",
    "SampleExhaustedError",
    "substream",
    "child_seed",
    "sample_gamma",
    "sample_standard_simplex",
    "sample_simplex",
    "sample_generalized_gaussian",
    "generalized_gaussian_std",
    "sample_lp_ball",
    "sample_cone_measure",
    "rescale_simplex_sample",
    "rescale_lp_sample",
    "simplex_source",
    "array_source",
    "save_sample",
    "load_sample",
]

P_MIN, P_MAX = 1.0, 64.0

# Spawn-key namespaces, one per producer, so equal seeds never collide
# across sources.
_KEY_STANDARD = 1
_KEY_SIMPLEX = 2
_KEY_LP_BALL = 3
_KEY_CONE = 4
_KEY_RESCALE_SIMPLEX = 5
_KEY_RESCALE_LP = 6
_KEY_SOURCE = 7


class SampleExhaustedError(RuntimeError):
    """A finite sample source was asked for more points than it holds."""


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key).

    Streams with different keys are statistically independent, which is how
    per-repetition and per-block randomness stays reproducible without any
    shared mutable state.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed for (seed, key), for APIs that take a seed rather than
    a generator.  Keys play the same role as in :func:`substream`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1)[0])


def _as_rng(rng: int | np.random.Generator) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization; density x^(shape-1) e^(-rate x)."""

    shape: float
    rate: float = 1.0

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")


@dataclass
class SampleMatrix:
    """A (t, d) block of sample points plus the provenance needed to
    regenerate it: the integer seed and a source tag."""

    points: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    @property
    def t(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def sample_gamma(params: GammaParams, count: int, rng: int | np.random.Generator) -> np.ndarray:
    """``count`` gamma variates.  ``rng`` may be an integer seed or a
    numpy Generator."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return _as_rng(rng).gamma(params.shape, 1.0 / params.rate, size=count)


def _simplex_weights(rng: np.random.Generator, m: int, t: int) -> np.ndarray:
    """Uniform barycentric weights on Delta^(m-1): iid Exp(1) rows divided
    by their sums."""
    e = rng.exponential(1.0, size=(t, m))
    return e / e.sum(axis=1, keepdims=True)


def sample_standard_simplex(n: int, t: int, seed: int) -> SampleMatrix:
    """t points uniform on the standard simplex Delta^(n-1) in R^n
    (nonnegative coordinates summing to one)."""
    if n < 2:
        raise ValueError("need n >= 2 coordinates")
    if t < 1:
        raise ValueError("t must be >= 1")
    pts = _simplex_weights(substream(seed, _KEY_STANDARD), n, t)
    return SampleMatrix(pts, seed, f"standard_simplex(n={n})")


def sample_simplex(s: Simplex, t: int, seed: int) -> SampleMatrix:
    """t points uniform in the simplex ``s``.

    Uniform barycentric weights are pushed through the vertex matrix; an
    affine image of a simplex therefore shares its weight stream, so runs
    on S and F(S) with equal seeds are coupled through F.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    _solver(s)  # rejects affinely dependent vertices up front
    w = _simplex_weights(substream(seed, _KEY_SIMPLEX), s.dim + 1, t)
    return SampleMatrix(w @ s.vertices, seed, f"simplex(dim={s.dim})")


def _check_p(p: float) -> float:
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {p}")
    return p


def _generalized_gaussian(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    # |X|^p ~ Gamma(1/p, 1), sign symmetric
    h = rng.gamma(1.0 / p, 1.0, size=shape)
    signs = 2.0 * rng.integers(0, 2, size=shape) - 1.0
    return signs * h ** (1.0 / p)


def sample_generalized_gaussian(p: float, count: int, rng: int | np.random.Generator) -> np.ndarray:
    """``count`` draws with density proportional to exp(-|x|^p).

    E|X|^p = 1/p for every p; at p=2 this is a centered normal with
    variance 1/2, at p=1 a Laplace with unit scale.
    """
    p = _check_p(p)
    if count < 0:
        raise ValueError("count must be >= 0")
    return _generalized_gaussian(_as_rng(rng), p, count)


def generalized_gaussian_std(p: float) -> float:
    """Standard deviation of the exp(-|x|^p) density:
    sqrt(Gamma(3/p) / Gamma(1/p))."""
    p = _check_p(p)
    return math.exp(0.5 * (gammaln(3.0 / p) - gammaln(1.0 / p)))


def sample_lp_ball(n: int, p: float, t: int, seed: int) -> SampleMatrix:
    """t points uniform in the unit lp ball of R^n.

    Uses the exact representation G / (sum |G_i|^p + Z)^(1/p) with G having
    iid exp(-|x|^p) coordinates and Z an independent Exp(1), which is
    uniform in the ball with no rejection step.
    """
    p = _check_p(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = substream(seed, _KEY_LP_BALL)
    g = _generalized_gaussian(rng, p, (t, n))
    z = rng.exponential(1.0, size=t)
    denom = ((np.abs(g) ** p).sum(axis=1) + z) ** (1.0 / p)
    return SampleMatrix(g / denom[:, None], seed, f"lp_ball(n={n}, p={p})")


def sample_cone_measure(n: int, p: float, t: int, seed: int) -> SampleMatrix:
    """t points on the lp sphere of R^n under cone measure: G / ||G||_p
    with G as in :func:`sample_lp_ball`.  The normalizing norm is
    independent of the output point."""
    p = _check_p(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    g = _generalized_gaussian(substream(seed, _KEY_CONE), p, (t, n))
    norms = (np.abs(g) ** p).sum(axis=1) ** (1.0 / p)
    return SampleMatrix(g / norms[:, None], seed, f"cone_measure(n={n}, p={p})")


def rescale_simplex_sample(x: SampleMatrix, seed: int) -> SampleMatrix:
    """Scale each simplex point by an independent Gamma(n, 1) radius.

    For rows uniform on Delta^(n-1) the output coordinates are iid Exp(1).
    Rows must sum to one within 1e-9.
    """
    pts = x.points
    if np.abs(pts.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("rows must lie on the simplex (coordinates summing to one)")
    r = substream(seed, _KEY_RESCALE_SIMPLEX).gamma(pts.shape[1], 1.0, size=pts.shape[0])
    return SampleMatrix(pts * r[:, None], seed, f"rescaled_exponential({x.source})")


def rescale_lp_sample(x: SampleMatrix, p: float, seed: int) -> SampleMatrix:
    """Scale each lp-ball point by T^(1/p) with T ~ Gamma(n/p + 1, 1).

    For rows uniform in the unit lp ball the output coordinates are iid
    with density proportional to exp(-|t|^p).  Rows must have lp norm at
    most 1 + 1e-9.
    """
    p = _check_p(p)
    pts = x.points
    norms = (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)
    if norms.max() > 1.0 + 1e-9:
        raise ValueError("rows must lie in the unit lp ball")
    r = substream(seed, _KEY_RESCALE_LP).gamma(pts.shape[1] / p + 1.0, 1.0, size=pts.shape[0])
    return SampleMatrix(pts * (r ** (1.0 / p))[:, None], seed, f"rescaled_gg({x.source}, p={p})")


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


def save_sample(sm: SampleMatrix, csv_path: str, meta_path: str | None = None) -> None:
    """Write points as CSV (one point per row, 17 significant digits) plus
    a JSON sidecar with seed, source, t, d."""
    if meta_path is None:
        meta_path = csv_path + ".meta.json"
    np.savetxt(csv_path, sm.points, delimiter=",", fmt="%.17g")
    with open(meta_path, "w") as fh:
        json.dump({"seed": sm.seed, "source": sm.source, "t": sm.t, "d": sm.d}, fh, indent=2)
        fh.write("\n")


def load_sample(csv_path: str, meta_path: str | None = None) -> SampleMatrix:
    if meta_path is None:
        meta_path = csv_path + ".meta.json"
    with open(meta_path) as fh:
        meta = json.load(fh)
    pts = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    sm = SampleMatrix(pts, int(meta["seed"]), str(meta["source"]))
    if sm.t != meta["t"] or sm.d != meta["d"]:
        raise ValueError("CSV shape does not match its sidecar")
    return sm
