"""Third moments of the uniform distribution on the standard simplex.

For X uniform on the standard simplex in R^m (m = n+1 vertices) the third
directional moment has the closed form

    m3(u) = E[(u . X)^3] = (p1^3 + 3 p1 p2 + 2 p3) / ((n+1)(n+2)(n+3)),

where p_k are the power sums of u.  The numerator is 6 h3(u), the complete
homogeneous symmetric polynomial, via the Newton identities.  This module
exposes the exact value and gradient, the empirical gradient, and a
certification of the landscape of p3 on the feasible sphere, whose strict
local maxima are exactly the (projected) vertex directions: the exact
Hessian spectrum at every critical point, with no random trials.

It also holds the two sample passes that the learner and ICA share: the
mean and covariance behind their one affine frame, taken about one
shift, with the same bits for every memory order of the sample, and the
power moment that drives both fixed points.  Each walks the sample in the row
blocks of ``sampling._row_blocks`` that every draw uses too (BLOCK_ROWS
rows, a short last block joined to the one before it), so no
intermediate is larger than a block.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import AffineFrame
from .sampling import _check_count, _row_blocks

__all__ = [
    "DegenerateSampleError",
    "exact_m3",
    "exact_grad_m3",
    "empirical_m3_grad",
    "two_value_critical_point",
    "projected_p3_gradient",
    "certify_landscape",
]


class DegenerateSampleError(ValueError):
    """The sample covariance is singular, so the sample cannot be put in
    an isotropic frame."""


def _mean_and_covariance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased (1/t) covariance of the rows of x, block by block.

    Every row is centered on one shift c, the first block's mean, and the
    pass sums the centered rows s and their scatter M; the mean is
    c + s/t and the covariance M/t - (s/t)(s/t)^T, the shifted-data form
    of Chan, Golub and LeVeque (1983).  So the pass keeps no (t, d) copy,
    and a large offset costs no precision.  A block (and the first one
    once more, for c) is copied transposed into one reused C-ordered
    (d, rows) buffer, since numpy subtracts along long rows much faster
    than along rows of d entries (41 against 84 us for an (8192, 5)
    block); every product then reads that buffer, so the bits do not
    depend on the memory order of x: a C-ordered array, an F-ordered one
    and ICA's rescaled rows give the same bits.

    The shift is the first block's mean and not the first row, since the
    sums lose about eps |c - mean|^2 to cancellation: on 50,000 thin rows
    (variances 1 and 1e-10) whose first row lies 1e3 out, a first-row
    shift read the small eigenvalue as -2.9e-10, against 1.005e-10 for
    the two-pass formula and for this pass.
    """
    t, d = x.shape
    blocks = _row_blocks(0, t)
    longest = blocks[-1].stop - blocks[-1].start  # the last block is the longest
    ones, buffer = np.ones(longest), np.empty(d * longest)
    first = blocks[0].stop
    head = buffer[: d * first].reshape(d, first)
    head[...] = x[blocks[0]].T
    shift = (head @ ones[:first]) / first
    total, scatter = np.zeros(d), np.zeros((d, d))
    for span in blocks:
        rows = span.stop - span.start
        centered = np.subtract(x[span].T, shift[:, None], out=buffer[: d * rows].reshape(d, rows))
        total += centered @ ones[:rows]
        scatter += centered @ centered.T
    offset = total / t
    return shift + offset, scatter / t - np.outer(offset, offset)


def _sample_frame(x) -> tuple[AffineFrame, np.ndarray]:
    """(AffineFrame(mu, S), S^-1) for the rows of x, a (t, d) array or the
    reductions' rescaled rows: the one place the learner and ICA put a
    sample in isotropic position.  One :func:`_mean_and_covariance` pass
    gives mu and C = E diag(lambda) E^T, and S = E diag(sqrt lambda) E^T.

    Raises DegenerateSampleError unless 1 <= d < t and lambda_min >
    1e-12 lambda_max (points on a lower-dimensional flat fail at any
    scale), and ValueError when a point or the covariance is not finite,
    which the pass shows without a second look at the sample.
    """
    t, d = x.shape
    if not 1 <= d < t:
        raise DegenerateSampleError(f"a frame needs d+1 points in d >= 1 dimensions, got shape {x.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a covariance past 1e308
        mean, cov = _mean_and_covariance(x)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("points and their covariance must be finite")
    eigenvalues, vectors = np.linalg.eigh(cov)
    if eigenvalues[0] <= 1e-12 * eigenvalues[-1]:
        raise DegenerateSampleError("sample covariance is singular")
    root = np.sqrt(eigenvalues)
    return AffineFrame(mean=mean, factor=(vectors * root) @ vectors.T), (vectors / root) @ vectors.T


def _sample(points, letter: str, extra: int) -> np.ndarray:
    """``points`` as a float (t, d) array; ValueError naming its shape
    unless d >= 1 and t >= d + ``extra``, with d spelled ``letter``.

    The one home of the rule that the learner, ICA and both reductions
    check before :func:`_sample_frame`: a sample whitened as it is needs
    t >= d+2 rows (``extra`` 2), since d+1 points whiten to the vertices
    of a regular simplex, all of squared norm d, whatever law they came
    from, where the skew update is singular.  The simplex reduction asks
    n+3 rows of its n columns (``extra`` 3), d+2 for the n+1 columns of
    its lift.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1 or x.shape[0] < x.shape[1] + extra:
        raise ValueError(
            f"sample must be a 2-D array with at least {letter}+{extra} rows for {letter} columns, "
            f"{letter} >= 1, got shape {x.shape}"
        )
    return x


def _power_moment(
    x: np.ndarray, linear: np.ndarray, shift: np.ndarray, u: np.ndarray, q: int, stop: int | None = None
) -> np.ndarray:
    """E[y f^q] over the rows of y = x linear + shift, with f = y u.  The
    rows are the first t = ``stop`` rows of x, all of them by default, so
    a prefix of the reductions' rescaled rows is read through the same
    object.

    x has d columns and at least t rows, linear L is (d, e), shift b (e,),
    u a frame (e, k) and q 2 or 3; the result is (e, k).  y is never
    formed: f = x (L u) + b . u and y^T f^q = L^T (x^T f^q) + b sum(f^q),
    so one pass over x, in row blocks, serves both terms, and one pass is
    the unit of cost of both fixed points.  The learner's L and b compose
    its frame and embedding, and its gradient is 3 E[y f^2]; ICA's are
    S^-1 and -mu S^-1.  f is formed transposed, since numpy shifts,
    powers and sums along long rows much faster than along rows of k
    entries.
    """
    t = x.shape[0] if stop is None else stop
    moment, sums = np.zeros((u.shape[1], x.shape[1])), np.zeros(u.shape[1])
    a_t, c = (linear @ u).T, (shift @ u)[:, None]
    for rows in _row_blocks(0, t):
        block = x[rows]
        f = a_t @ block.T
        f += c
        f *= f if q == 2 else f * f
        moment += f @ block
        sums += f.sum(axis=1)
    return (linear.T @ moment.T + np.outer(shift, sums)) / t


def _moment_denominator(m: int) -> float:
    # m coordinates means an (m-1)-simplex: (n+1)(n+2)(n+3) with n = m-1
    return float(m * (m + 1) * (m + 2))


def _direction(u, name: str = "u", frames: bool = False) -> np.ndarray:
    """``u`` as a float array; ValueError naming ``name`` and its shape
    unless it is one direction (m,), or with ``frames`` also a frame
    (m, k) of k columns, with m, k >= 1.  The one check of the direction
    or frame that the closed-form moments and ``reconstruct_squares`` take."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in ((1, 2) if frames else (1,)) or not u.size:
        shapes = "(m,) or (m, k) with m, k" if frames else "(m,) with m"
        raise ValueError(f"{name} must have shape {shapes} >= 1, got {u.shape}")
    return u


def exact_m3(u: np.ndarray) -> float:
    """E[(u . X)^3] for X uniform on the standard simplex with as many
    vertices as u has coordinates.  u must be one direction, of shape (m,)
    with m >= 1, else ValueError; :func:`exact_grad_m3` also takes a frame."""
    u = _direction(u)
    p1, p2, p3 = float(u.sum()), float((u * u).sum()), float((u * u * u).sum())
    return (p1**3 + 3.0 * p1 * p2 + 2.0 * p3) / _moment_denominator(u.shape[0])


def exact_grad_m3(u: np.ndarray) -> np.ndarray:
    """Gradient of :func:`exact_m3`:

        (3 p1^2 + 3 p2) 1 + 6 p1 u + 6 u^(2), all over (n+1)(n+2)(n+3),

    with u^(2) the coordinate-wise square.  u is (n,) or a frame (n, k),
    whose columns get their own gradients: the power sums run along axis 0.
    Any other shape, an empty one among them, is a ValueError naming it.
    """
    u = _direction(u, frames=True)
    p1, p2 = u.sum(axis=0), (u * u).sum(axis=0)
    return (3.0 * (p1**2 + p2) + 6.0 * p1 * u + 6.0 * u * u) / _moment_denominator(u.shape[0])


def empirical_m3_grad(points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Plug-in estimate of the gradient of m3 at u from t sample points:
    (3/t) sum (u . x)^2 x.  points is (t, d) with t >= 1, one point a (1, d)
    row, and u is (d,) or a frame (d, k); other shapes are a ValueError
    naming them."""
    pts = np.asarray(points, dtype=float)
    u = np.asarray(u, dtype=float)
    if pts.ndim != 2 or not len(pts) or u.ndim not in (1, 2):
        raise ValueError(
            f"points must form a (t, d) array with t >= 1 and u a (d,) or (d, k) one, got shapes {pts.shape} and {u.shape}"
        )
    if pts.shape[1] != u.shape[0]:
        raise ValueError("direction and sample dimensions differ")
    s = pts @ u
    return (3.0 / pts.shape[0]) * (pts.T @ (s * s))


def two_value_critical_point(n: int, alpha: int) -> tuple[np.ndarray, float, float, float]:
    """The critical point of p3 on {v . 1 = 0, |v| = 1} in R^(n+1) whose
    coordinates take the value a on alpha entries and b on the rest.

    With gamma = alpha/(n+1):

        a = sqrt((1-gamma) / (gamma (n+1))),  b = -sqrt(gamma / ((1-gamma)(n+1))).

    Returns (v, gamma, a, b).  alpha = 1 gives the vertex directions (the
    strict maxima); 2 <= alpha <= n gives the saddles and minima.  n and
    alpha must be integers with 1 <= alpha <= n, else ValueError.
    """
    n, alpha = _check_count(n, "n"), _check_count(alpha, "alpha")
    m = n + 1
    if alpha > n:
        raise ValueError("alpha must satisfy 1 <= alpha <= n")
    gamma = alpha / m
    a = math.sqrt((1.0 - gamma) / (gamma * m))
    b = -math.sqrt(gamma / ((1.0 - gamma) * m))
    v = np.full(m, b)
    v[:alpha] = a
    return v, gamma, a, b


def projected_p3_gradient(v: np.ndarray) -> np.ndarray:
    """Gradient of p3 at v projected onto the tangent space of
    {v . 1 = 0, |v| = 1}: (I - v v^T - w w^T) (3 v^(2)) with w the
    normalized all-ones vector.  v must have shape (m,) with m >= 1, else
    ValueError naming it."""
    v = _direction(v, "v")
    m = v.shape[0]
    g = 3.0 * v * v
    w = np.ones(m) / math.sqrt(m)
    return g - (g @ v) * v - (g @ w) * w


def certify_landscape(n: int) -> dict:
    """Certify the landscape of p3 on {v . 1 = 0, |v| = 1} in R^(n+1) from
    the exact second-order condition at every critical point.

    A critical point solves 3 v^(2) = lambda v + mu 1, so each coordinate
    is one of the two roots of a quadratic, and permuting coordinates
    changes neither p3 nor the constraints: up to a permutation the
    critical points are the n two-value points of
    :func:`two_value_critical_point`, alpha = 1..n.  At each, lambda =
    3 p3(v), and the Hessian of the Lagrangian is 3 (2 diag(v) - p3(v) I).
    On the tangent space, the vectors orthogonal to v and 1, which are the
    vectors of zero sum on the a entries and on the b entries, it is
    2a - p3 = s on alpha - 1 directions and 2b - p3 = -s on n - alpha,
    with s = 1/sqrt((n+1) gamma (1-gamma)).  So alpha = 1, the vertex
    direction, is the one strict local maximum, where the spectrum is
    -s = -sqrt((n+1)/n) throughout; at every other point a direction of
    curvature s > 0 escapes.

    A point passes when its projected gradient norm is at most 1e-8, the
    tangent spectrum of 2 diag(v) - p3(v) I, on an orthonormal basis from
    one QR, matches the closed form within 1e-10, and it is a strict
    maximum (every tangent eigenvalue negative) exactly when alpha = 1.
    No random numbers are drawn.

    Returns:
        {"n", "checks", "pass"}, one check per alpha: "alpha", "gamma",
        "projected_gradient_norm", "min_eigenvalue" and "max_eigenvalue"
        beside "min_closed_form" and "max_closed_form", "strict_max" and
        "passed"; "pass" when every check passed.  n must be an integer
        >= 2, else ValueError.
    """
    n = _check_count(n, "n", minimum=2)
    m = n + 1
    checks = []
    for alpha in range(1, n + 1):
        v = two_value_critical_point(n, alpha)[0]
        gamma = alpha / m
        s = 1.0 / math.sqrt(m * gamma * (1.0 - gamma))
        closed = np.array([-s] * (n - alpha) + [s] * (alpha - 1))
        q = np.linalg.qr(np.column_stack([v, np.ones(m)]), mode="complete")[0]
        tangent = q[:, 2:]
        spectrum = np.linalg.eigvalsh((tangent.T * (2.0 * v)) @ tangent) - float((v**3).sum())
        grad_norm = float(np.linalg.norm(projected_p3_gradient(v)))
        strict_max = bool(spectrum[-1] < 0.0)
        checks.append(
            {
                "alpha": alpha,
                "gamma": gamma,
                "projected_gradient_norm": grad_norm,
                "min_eigenvalue": float(spectrum[0]),
                "min_closed_form": float(closed[0]),
                "max_eigenvalue": float(spectrum[-1]),
                "max_closed_form": float(closed[-1]),
                "strict_max": strict_max,
                "passed": bool(
                    grad_norm <= 1e-8 and np.abs(spectrum - closed).max() <= 1e-10 and strict_max == (alpha == 1)
                ),
            }
        )
    return {"n": n, "checks": checks, "pass": all(c["passed"] for c in checks)}
