"""Simplex geometry primitives.

Vertex-list simplices with cached barycentric solvers, the orthonormal
embedding of R^n onto the hyperplane {y . 1 = 1} in R^(n+1), and affine
frames for moving point clouds between coordinate systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateSimplexError",
    "Simplex",
    "EmbedMap",
    "AffineFrame",
    "standard_simplex",
    "isotropic_simplex",
    "make_embed_map",
    "contains",
    "contains_points",
]

# Barycentric coordinates this far below zero still count as inside.
MEMBERSHIP_TOL = 1e-12

# Relative residual above which a point is considered off the affine hull
# of a lower-dimensional simplex.
HULL_RESIDUAL_TOL = 1e-9


class DegenerateSimplexError(ValueError):
    """The operation needs affinely independent vertices and the simplex
    does not have them (singular barycentric system)."""


@dataclass
class Simplex:
    """A simplex given by its vertex list.

    ``vertices`` is an (n+1, d) array whose rows are the vertices, with n
    the simplex dimension and d >= n the ambient dimension.  Vertices are
    expected to be affinely independent; operations that must solve the
    barycentric system raise :class:`DegenerateSimplexError` when they are
    not.  Instances are immutable by convention; the only mutable state is
    an internal solver cache.
    """

    vertices: np.ndarray
    _solver: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, copy=True)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("vertices must form a (n+1, d) array with n >= 1")
        if v.shape[0] > v.shape[1] + 1:
            raise ValueError(
                f"{v.shape[0]} vertices need ambient dimension >= {v.shape[0] - 1}, got {v.shape[1]}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        self.vertices = v

    @property
    def dim(self) -> int:
        """Simplex dimension n (one less than the number of vertices)."""
        return self.vertices.shape[0] - 1

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    def edge_matrix(self) -> np.ndarray:
        """Columns v_i - v_0, shape (d, n)."""
        return (self.vertices[1:] - self.vertices[0]).T

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def circumscribed_radius(self) -> float:
        """Max vertex distance from the centroid (not the true circumradius
        for irregular simplices, but the scale used for relative errors)."""
        return float(np.linalg.norm(self.vertices - self.centroid(), axis=1).max())

    def volume(self) -> float:
        """n-dimensional volume: |det E| / n! for full-dimensional simplices,
        Gram-determinant generalization for embedded ones."""
        edges = self.edge_matrix()
        n = self.dim
        if edges.shape[0] == n:
            det = abs(np.linalg.det(edges))
        else:
            det = math.sqrt(max(np.linalg.det(edges.T @ edges), 0.0))
        return det / math.factorial(n)

    def scaled(self, factor: float) -> "Simplex":
        """The simplex scaled about the origin."""
        return Simplex(factor * self.vertices)


class _BarycentricSolver:
    """Cached inverse of the system [V^T; 1^T] lam = [x; 1].

    For full-dimensional simplices the square system is inverted once.
    For simplices embedded in a higher-dimensional space the pseudo-inverse
    is cached instead, and membership additionally requires the point to
    sit on the affine hull (small reconstruction residual).
    """

    def __init__(self, simplex: Simplex):
        v = simplex.vertices
        m = v.shape[0]
        system = np.vstack([v.T, np.ones((1, m))])  # (d+1, m)
        svals = np.linalg.svd(system, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise DegenerateSimplexError(
                "vertices are affinely dependent; barycentric system is singular"
            )
        self.system = system
        self.square = system.shape[0] == system.shape[1]
        self.inverse = np.linalg.inv(system) if self.square else np.linalg.pinv(system)

    def coordinates(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric coordinates (t, m) and an on-hull mask (t,)."""
        rhs = np.vstack([points.T, np.ones((1, points.shape[0]))])
        lam = self.inverse @ rhs
        if self.square:
            on_hull = np.ones(points.shape[0], dtype=bool)
        else:
            residual = np.abs(self.system @ lam - rhs).max(axis=0)
            scale = 1.0 + np.abs(rhs).max(axis=0)
            on_hull = residual <= HULL_RESIDUAL_TOL * scale
        return lam.T, on_hull


def _solver(s: Simplex) -> _BarycentricSolver:
    if s._solver is None:
        s._solver = _BarycentricSolver(s)
    return s._solver


def contains_points(s: Simplex, points: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Vectorized membership test; returns a boolean array of length t.

    A point is inside when every barycentric coordinate is >= -tol (and,
    for embedded simplices, the point lies on the affine hull).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != s.ambient_dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, simplex lives in {s.ambient_dim}")
    lam, on_hull = _solver(s).coordinates(pts)
    return (lam >= -tol).all(axis=1) & on_hull


def contains(s: Simplex, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    """True when the single point ``x`` lies in ``s`` (boundary included)."""
    return bool(contains_points(s, np.asarray(x, dtype=float)[None, :], tol=tol)[0])


def standard_simplex(n: int) -> Simplex:
    """The standard n-simplex: convex hull of the n+1 canonical basis
    vectors of R^(n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Simplex(np.eye(n + 1))


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

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

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
        n: dimension of the domain, n >= 1.

    Returns:
        EmbedMap with scale 1/sqrt((n+1)(n+2)) and offset 1/(n+1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    seed_matrix = np.zeros((m, m))
    np.fill_diagonal(seed_matrix, 1.0)
    seed_matrix[:, 0] = 1.0
    q, _ = np.linalg.qr(seed_matrix)
    return EmbedMap(basis=q[:, 1:], scale=1.0 / math.sqrt((n + 1) * (n + 2)), offset=1.0 / (n + 1))


def isotropic_simplex(n: int) -> Simplex:
    """The regular n-simplex in isotropic position: centroid at the origin,
    uniform-distribution covariance equal to the identity.  Obtained by
    pulling the standard simplex back through the canonical embedding."""
    emb = make_embed_map(n)
    return Simplex(emb.inverse(np.eye(n + 1)))


@dataclass
class AffineFrame:
    """Affine change of coordinates x -> factor^-1 (x - mean).

    ``factor`` is any invertible (d, d) matrix (in practice the symmetric
    square root of a sample covariance, from ``moments._sample_frame``).
    ``forward`` moves raw points into the frame; ``inverse`` undoes it.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.factor = np.asarray(self.factor, dtype=float)
        d = self.mean.shape[0]
        if self.factor.shape != (d, d):
            raise ValueError("factor must be square and match the mean dimension")

    def forward(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.linalg.solve(self.factor, np.atleast_2d(pts - self.mean).T).T.reshape(pts.shape)

    def inverse(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.factor.T + self.mean

