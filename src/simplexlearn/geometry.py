"""Simplex geometry primitives.

Full-dimensional simplices, n+1 vertices in R^n, whose barycentric
system answers membership and the gauge; the orthonormal embedding of
R^n onto the hyperplane {y . 1 = 1} in R^(n+1); and affine frames for
moving point clouds between coordinate systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSimplexError",
    "Simplex",
    "EmbedMap",
    "AffineFrame",
    "isotropic_simplex",
    "make_embed_map",
    "contains_points",
]

# Barycentric coordinates this far below zero still count as inside.
MEMBERSHIP_TOL = 1e-12


def _check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer >= ``minimum`` (a bool is not an integer here)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class DegenerateSimplexError(ValueError):
    """The operation needs affinely independent vertices and the simplex
    does not have them (singular barycentric system)."""


@dataclass(frozen=True, eq=False)
class Simplex:
    """An n-simplex in R^n given by its vertex list.

    ``vertices`` is an (n+1, n) array, n >= 1, whose rows are the
    vertices; any other shape raises ValueError naming it.  Vertices are
    expected to be affinely independent; operations that must solve the
    barycentric system raise :class:`DegenerateSimplexError` when they are
    not.  A simplex is a frozen, hashable value: ``vertices`` is a
    read-only copy of the input and cannot be rebound, and two simplices
    are equal, and hash alike, when their vertex arrays are.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, copy=True)
        if v.ndim != 2 or v.shape[1] < 1 or v.shape[0] != v.shape[1] + 1:
            raise ValueError(f"vertices must form an (n+1, n) array with n >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        v.flags.writeable = False
        vars(self)["vertices"] = v  # the frozen field, set once through the instance dict

    def __eq__(self, other) -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return bool(np.array_equal(self.vertices, other.vertices))

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.vertices.shape, (self.vertices + 0.0).tobytes()))

    @property
    def dim(self) -> int:
        """Dimension n of the simplex and of the space it lives in."""
        return self.vertices.shape[1]

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def circumscribed_radius(self) -> float:
        """Max vertex distance from the centroid (not the true circumradius
        for irregular simplices, but the scale used for relative errors)."""
        return float(np.linalg.norm(self.vertices - self.centroid(), axis=1).max())

    def volume(self) -> float:
        """n-dimensional volume |det E| / n!, E the edges v_i - v_0 as columns."""
        return abs(np.linalg.det((self.vertices[1:] - self.vertices[0]).T)) / math.factorial(self.dim)

    def scaled(self, factor: float) -> "Simplex":
        """The simplex scaled about the origin."""
        return Simplex(factor * self.vertices)


def _barycentric(s: Simplex) -> np.ndarray:
    """The inverse of the square system [V^T; 1^T] lam = [x; 1]: it maps
    [x; 1] to the barycentric coordinates lam of x, and its last column is
    lam(0).  Raises DegenerateSimplexError when the smallest singular value
    of the system is at most 1e-12 times the largest."""
    system = np.vstack([s.vertices.T, np.ones((1, s.dim + 1))])
    svals = np.linalg.svd(system, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise DegenerateSimplexError("vertices are affinely dependent; barycentric system is singular")
    return np.linalg.inv(system)


def _coordinates(s: Simplex, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates in ``s`` of the t rows of ``points``, (n+1, t)."""
    return _barycentric(s) @ np.vstack([points.T, np.ones((1, points.shape[0]))])


def _gauge(s: Simplex, points: np.ndarray) -> np.ndarray:
    """gauge_s(x) = min {c > 0 : x in c s} = max_i (1 - lam_i(x) / lam_i(0))
    for each row x of ``points``; needs the origin strictly inside ``s``.
    One inverse gives both lam(x) and lam(0)."""
    inverse, pts = _barycentric(s), np.atleast_2d(points)
    return (1.0 - inverse @ np.vstack([pts.T, np.ones((1, pts.shape[0]))]) / inverse[:, -1:]).max(axis=0)


def contains_points(s: Simplex, points: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Membership of each row of ``points``, (t, d) or one (d,) point read
    as one row, a boolean array of length t: a point is inside when every
    barycentric coordinate is >= -tol; other shapes, a 0-D value among
    them, are a ValueError, and so is a NaN or infinite point, which is
    neither inside nor outside."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must form a (t, d) array or one (d,) point, got shape {pts.shape}")
    pts = np.atleast_2d(pts)
    if pts.shape[1] != s.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, simplex lives in {s.dim}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return (_coordinates(s, pts) >= -tol).all(axis=0)


@dataclass
class EmbedMap:
    """Affine embedding of R^n onto the hyperplane {y . 1 = 1} in R^(n+1).

    ``basis`` has orthonormal columns spanning the orthogonal complement of
    the all-ones direction, so ``forward`` composed with ``inverse`` is the
    identity on R^n and sqrt((n+1)(n+2)) * forward is an isometry.  The
    standard simplex pulls back through this map to a simplex in isotropic
    position.
    """

    basis: np.ndarray  # (n+1, n), orthonormal columns, each orthogonal to 1
    scale: float
    offset: float  # every output coordinate is shifted by this amount

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map points of R^n (shape (..., n)) onto the hyperplane."""
        return self.scale * (np.asarray(x, dtype=float) @ self.basis.T) + self.offset

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Pull hyperplane points (shape (..., n+1)) back to R^n."""
        return ((np.asarray(y, dtype=float) - self.offset) @ self.basis) / self.scale


def make_embed_map(n: int) -> EmbedMap:
    """Construct the canonical embedding of R^n into R^(n+1).

    The basis comes from a QR factorization of the (n+1) x (n+1) matrix
    with ones on the diagonal and in the first column: the first Q column
    is then parallel to the all-ones vector and the remaining n columns
    form an orthonormal basis of its complement.

    Args:
        n: dimension of the domain, an integer >= 1, else ValueError.

    Returns:
        EmbedMap with scale 1/sqrt((n+1)(n+2)) and offset 1/(n+1).
    """
    n = _check_count(n, "n")
    m = n + 1
    seed_matrix = np.zeros((m, m))
    np.fill_diagonal(seed_matrix, 1.0)
    seed_matrix[:, 0] = 1.0
    q, _ = np.linalg.qr(seed_matrix)
    return EmbedMap(basis=q[:, 1:], scale=1.0 / math.sqrt((n + 1) * (n + 2)), offset=1.0 / (n + 1))


def isotropic_simplex(n: int) -> Simplex:
    """The regular n-simplex in isotropic position: centroid at the origin,
    uniform-distribution covariance equal to the identity.  Obtained by
    pulling the standard simplex back through the canonical embedding.
    n must be an integer >= 1, else ValueError."""
    emb = make_embed_map(n)
    return Simplex(emb.inverse(np.eye(n + 1)))


@dataclass
class AffineFrame:
    """Affine change of coordinates x -> factor^-1 (x - mean).

    ``mean`` is a (d,) vector and ``factor`` any invertible (d, d) matrix
    (in practice the symmetric square root of a sample covariance, from
    ``moments._sample_frame``); other shapes are a ValueError naming them.
    ``forward`` moves raw points into the frame; ``inverse`` undoes it.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.factor = np.asarray(self.factor, dtype=float)
        if self.mean.ndim != 1 or self.factor.shape != 2 * self.mean.shape:
            raise ValueError(f"mean must be (d,) and factor (d, d), got shapes {self.mean.shape} and {self.factor.shape}")

    def forward(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.linalg.solve(self.factor, np.atleast_2d(pts - self.mean).T).T.reshape(pts.shape)

    def inverse(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.factor.T + self.mean

