"""Fixed-point recovery of simplex vertices from third-moment gradients.

For X uniform on a rotated standard simplex in R^n (rotation fixing the
all-ones vector), the exact gradient identity

    u^(2) = C grad m3(u) - 1/2 (u . 1)^2 1 - 1/2 (u . u) 1 - (u . 1) u,

with C = n(n+1)(n+2)/6, recovers the coordinate-wise square of u in the
simplex's own frame from quantities that are all rotation-equivariant.
Iterating u -> normalize(u^(2)) squares the coordinate ratios every step,
so the iterate collapses doubly exponentially onto the vertex whose
coordinate dominated the start.  With sampled gradients the same update
runs on gradients estimated from a block of points: :func:`find_vertex`
takes the gradient as a callable, so exact and sampled runs share one
path.

The vertex directions are orthonormal, so u -> u^(2) is the power map of
an orthogonally decomposable tensor, and the tensor power method can run
on a whole frame of starts at once (Anandkumar, Ge, Hsu, Kakade and
Telgarsky, JMLR 2014).  The iterate is a matrix u of shape (n, k) with
one start per column, k = 1 for a single start; every formula works
along axis 0, so one sampled gradient per step serves the whole frame,
and the normalization is the symmetric orthogonalization
U <- M (M^T M)^(-1/2) of FastICA (Hyvarinen, IEEE TNN 1999), which keeps
the columns on distinct vertices.  For one column it is M / |M|.

A sampled gradient may report its own standard error; the loop then
stops once every column's step is no larger than the noise that error
puts on the column, since from there on a step moves the column by less
than the sample's own error on it: with a fresh block per step it only
redraws that error (Hardt and Price, The Noisy Power Method, NeurIPS
2014), and on one fixed block it only nears that block's fixed point,
which carries the error.  An exact gradient has no error and stops at a
1e-9 step.  The whole-frame ICA of :mod:`simplexlearn.ica` runs this one
loop, with its polar step, its checks, its stop and its cap MAX_STEPS, on
its own contrast; each caller hands the loop its own start frame.

On a large sample of t rows the loop runs coarse to fine: its first
steps read only the first t // PREFIX_DIVISOR rows, up to a step of
PREFIX_TOL, which carries the frame into the basin of the sample's fixed
point, and its last steps read every row, to the noise stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .moments import _moment_denominator
from .sampling import _check_count

__all__ = [
    "MAX_STEPS",
    "PREFIX_DIVISOR",
    "PREFIX_MIN_ROWS",
    "PREFIX_TOL",
    "VertexResult",
    "find_vertex",
    "reconstruct_squares",
    "theoretical_parameters",
]

# A frame whose Gram matrix has an eigenvalue this small (squared) has
# lost a direction: the update of some column cancelled, or two columns
# merged.
COLLAPSE_TOL = 1e-14
# The smallest step that counts as movement: the stop of an exact
# gradient, whose noise floor is zero.
CONVERGENCE_TOL = 1e-9
# A column has reached its noise floor once its sign-aligned step is at
# most NOISE_KAPPA times sigma_j, the size of the error the update's
# standard error puts on the column.  With a fresh block per step, two
# successive iterates at the floor carry independent errors of size up to
# sigma_j, so their step is about sqrt(2) sigma_j; 2 leaves room above
# sqrt(2) for the spread of the estimated error, while a step the squaring
# still contracts exceeds the noise many times over and runs on.  On one
# fixed block the steps shrink on below the floor, and the stop fires at
# the first step within it.
NOISE_KAPPA = 2.0
# The cap on the steps of every fixed point, the learner's frame and ICA's
# sweeps alike.  Both stop at their noise floor long before it: a
# converging run takes at most about ten steps.  The proof-grade values of
# theoretical_parameters are far larger.
MAX_STEPS = 30
# The prefix stage of a fixed point on a t-row sample reads the first
# t // PREFIX_DIVISOR rows.  On the reductions at t = 200k (seeds 0-39)
# a prefix of t // 16 landed on the same separation indices as t // 8,
# but left 1.4-1.8 whole-sample sweeps on average against 1.1-1.2.
PREFIX_DIVISOR = 8
# The stage runs only on a prefix of at least this many rows, t >= 65,536;
# below it every step reads the whole sample.  Measured on reduce (lp at
# n = 5, p = 1, 1.5, 3; simplex at n = 3, 5, 8) and learn (n = 5, 10, 20)
# against one whole-sample stage: on prefixes of 512 to 6144 rows the
# prefix of some lp or n = 20 runs never steps below PREFIX_TOL and
# spends every step but one (24 of 180 runs at t = 4096, 3 at 32,768, 1
# of 360 at 49,152), and some of those reductions end unconverged; from
# 8192 rows on none did (0 of 1260 runs at t = 65,536 to 131,072), no
# separation index or vertex error rose by more than the spread between
# seeds, and the mean op time of every case fell, by 1 to 39 %.
PREFIX_MIN_ROWS = 8192
# The prefix stage stops at the first step of at most this size, near
# the prefix's own fixed point, and not at its split-half noise floor: on
# the prefix's halves that floor can read as reached on a frame still
# outside the basin (lp, n = 5, p = 1.5, seed 31 stopped at separation
# index 0.19, against 0.005 with one stage).  On the reductions at
# t = 200k (seeds 0-39) a step of 1e-3 landed on the same separation
# indices, one prefix step later.
PREFIX_TOL = 1e-2
# theoretical_parameters returns no t of this many bits or more.
T_MAX_BITS = 2**20


@dataclass
class VertexResult:
    """Output of :func:`find_vertex` and of its loop, which ICA shares.

    u is the final (n, k) frame of unit iterates with orthonormal columns,
    one per column of the start (not sign-normalized; vertex directions
    are inherently signed).  converged holds one bool per column, whether
    its last step reached its noise floor; all are true when the stop
    fired, and iterations_run is the step count, the cap when it did not.
    trace holds one row per step, the step's index: the rows it read and
    its per-column step and noise.  prefix_steps counts the steps that
    read only a prefix of the sample.
    """

    u: np.ndarray
    converged: np.ndarray
    iterations_run: int
    trace: list
    prefix_steps: int = 0


def reconstruct_squares(u: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinate-wise square of u in the simplex frame, from a gradient of
    the third moment at u (exact or estimated):

        C grad - 1/2 (u . 1)^2 1 - 1/2 (u . u) 1 - (u . 1) u.

    u and grad are (n,) or (n, k); a matrix is a frame of columns.
    """
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != u.shape:
        raise ValueError("u and grad must have the same shape")
    p1 = u.sum(axis=0)
    return _moment_denominator(u.shape[0]) / 6.0 * grad - 0.5 * p1 * p1 - 0.5 * (u * u).sum(axis=0) - p1 * u


def _polar_step(
    u: np.ndarray, update: np.ndarray, error: np.ndarray, iteration: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of a whole-frame fixed point: the polar factor of the update.

    u is the current (d, k) frame, orthonormal after the first step,
    update the fixed-point map M applied to it and error the standard
    error of each entry of M.  The new frame is the polar factor
    M (M^T M)^(-1/2), the orthonormal frame nearest M, the symmetric
    decorrelation of FastICA (Hyvarinen, IEEE TNN 1999).  Column j's noise
    is |error_j| / |M_j|, the error that M's error puts on the column after
    normalization, and its stop fires once its sign-aligned step is at
    most NOISE_KAPPA times that noise, or at most CONVERGENCE_TOL when the
    error is 0.

    Returns (new frame, step, noise, stop), the last three per column.
    Raises RuntimeError naming ``iteration`` when the Gram matrix of M is
    singular: some column of M vanished or two became parallel.
    """
    eigenvalues, vectors = np.linalg.eigh(update.T @ update)
    if eigenvalues[0] <= COLLAPSE_TOL**2:
        raise RuntimeError(f"update collapsed at iteration {iteration}")
    new_u = update @ (vectors / np.sqrt(eigenvalues)) @ vectors.T
    noise = np.linalg.norm(error, axis=0) / np.linalg.norm(update, axis=0)
    step = np.minimum(np.linalg.norm(new_u - u, axis=0), np.linalg.norm(new_u + u, axis=0))
    return new_u, step, noise, step <= np.maximum(NOISE_KAPPA * noise, CONVERGENCE_TOL)


def _fixed_point(update_map: Callable, start: np.ndarray, cap: int, t: int = 0) -> VertexResult:
    """The fixed point that the learner and ICA share: step the frame,
    from the (n, k) start, to the polar factor of the map M that
    update_map(u, rows) returns over the first ``rows`` rows of a t-row
    sample, beside the standard error of each entry of M (see
    :func:`_polar_step`), until every column's stop fires or for cap
    steps, and keep every step in the trace.  The start need not be
    orthonormal: the first step orthonormalizes it.

    The loop runs coarse to fine.  When the first t // PREFIX_DIVISOR rows
    number at least PREFIX_MIN_ROWS and cap > 1, the first steps read only
    that prefix, without the noise stop, until a step is at most
    PREFIX_TOL or cap - 1 steps have run: the prefix only carries the
    frame into the basin of the sample's fixed point, at an eighth of the
    cost of a whole-sample step.  Every later step reads all t rows, so
    the last step always does, and cap 1 is one whole-sample step.  A map
    that reads no sample of its own takes t = 0, and every step is
    handed rows = 0.

    Raises ValueError, naming the argument, unless start is a finite 2-D
    array with 1 <= k <= n columns, cap an integer >= 1 and t one >= 0,
    and, naming the iteration, the step's index in the whole run, when
    the map returns an M or an error that does not have the frame's
    shape or is not finite.
    """
    u = np.asarray(start, dtype=float)
    if u.ndim != 2 or not 1 <= u.shape[1] <= u.shape[0] or not np.isfinite(u).all():
        raise ValueError(f"start must be a finite (n, k) frame with 1 <= k <= n, got shape {u.shape}")
    _check_count(cap, "cap")
    _check_count(t, "t", minimum=0)
    rows = t // PREFIX_DIVISOR if t // PREFIX_DIVISOR >= PREFIX_MIN_ROWS and cap > 1 else t
    trace, prefix_steps = [], 0
    for i in range(cap):
        update, error = update_map(u, rows)
        if update.shape != u.shape or error.shape != u.shape:
            raise ValueError(
                f"update and error must have the frame's shape {u.shape}, got {update.shape} and "
                f"{error.shape} at iteration {i}"
            )
        if not (np.isfinite(update).all() and np.isfinite(error).all()):
            raise ValueError(f"update or error is not finite at iteration {i}")
        u, step, noise, converged = _polar_step(u, update, error, i)
        trace.append({"rows": rows, "step": step, "noise": noise})
        if rows < t:
            prefix_steps += 1
            if step.max() <= PREFIX_TOL or prefix_steps == cap - 1:
                rows = t
        elif converged.all():
            break
    return VertexResult(u=u, converged=converged, iterations_run=i + 1, trace=trace, prefix_steps=prefix_steps)


def find_vertex(
    gradient: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]],
    start: np.ndarray,
    cap: int = MAX_STEPS,
    t: int = 0,
) -> VertexResult:
    """Run the third-moment fixed point until each column of a frame locks
    onto its own vertex.

    Each step maps the frame to the polar factor of its reconstructed
    squares M.  A gradient estimated from a block of points carries a
    standard error e_j per column, which puts an error of about
    sigma_j = C |e_j| / |M_j| on column j after normalization (C as in
    :func:`reconstruct_squares`).  The loop stops after the first step at
    which every column's sign-aligned step is at most NOISE_KAPPA sigma_j,
    or at most 1e-9 for an exact gradient (e = 0), and after cap steps at
    the latest.  A gradient over a t-row sample runs coarse to fine, its
    first steps on a prefix of the sample (see :func:`_fixed_point`).

    Args:
        gradient: U -> grad m3 at each column of the (n, k) frame U, for
            the hidden rotated standard simplex in R^n, called once per
            step, as gradient(U) when t is 0 and as gradient(U, rows),
            over the sample's first ``rows`` rows, when t > 0.  It
            returns the (n, k) gradient, taken as exact
            (``exact_grad_m3``), or a pair (gradient, error) whose error
            has the gradient's shape and holds the standard error of each
            entry, as a gradient averaged over a block of points can
            estimate from the difference of its two halves.
        start: the (n, k) frame of k <= n starts, one per column; the
            first step orthonormalizes it.
        cap: the most steps to run, MAX_STEPS by default.
        t: the rows of the sample the gradient reads, 0 for a gradient
            that reads none (exact, or a fresh block per call).

    Returns:
        VertexResult whose columns approximate distinct vertices of the
        hidden simplex, with every step in its trace.

    Raises:
        ValueError: a start that is not a finite (n, k) frame with
            1 <= k <= n, a cap that is not an integer >= 1, a t that is
            not one >= 0, or a gradient or error that does not have the
            frame's shape, or whose squares or error are not finite,
            naming the iteration.
        RuntimeError: the update collapsed (the Gram matrix of the squared
            columns is singular), naming the iteration.  With the exact
            gradient one column cannot collapse, since |u^(2)| >= 1/sqrt(n)
            for a unit u; a frame can only on a null set of iterates.
    """

    def squares(u: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
        value = gradient(u, rows) if t else gradient(u)
        grad, error = value if isinstance(value, tuple) else (value, np.zeros_like(value))
        grad = np.asarray(grad, dtype=float)
        # a gradient of the wrong shape reaches the loop's check, which names the iteration
        update = reconstruct_squares(u, grad) if grad.shape == u.shape else grad
        return update, _moment_denominator(u.shape[0]) / 6.0 * np.asarray(error, dtype=float)

    return _fixed_point(squares, start, cap, t)


def theoretical_parameters(n: int, c: float, delta: float) -> tuple[int, int]:
    """Proof-grade sample size and iteration count for accuracy n^-c with
    failure probability delta.

    These are the analysis constants, kept as a reference point:

        r = ceil(log2(4 (c+3) n^2 ln(n) / delta)),
        t = ceil(2^17 n^(2c+22) (1/delta)^2 ln(2 n^5 r / delta)).

    Several of the underlying inequalities are loose, so the values are
    astronomically conservative; practical runs stop at their noise floor
    within MAX_STEPS steps instead.  Both are computed as base-2 logs, so
    no product leaves the float range, and returned as Python ints; t
    holds the 53 leading bits of 2^(log2 t), and zeros below them.  Raises
    ValueError, naming the argument, unless n is an integer >= 2, c
    finite and >= 0 and delta in (0, 1), and naming c when t would have
    T_MAX_BITS bits or more.
    """
    n = _check_count(n, "n", minimum=2)
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    log_n, log_delta = math.log2(n), math.log2(delta)
    r = math.ceil(2.0 + math.log2(c + 3.0) + 2.0 * log_n + math.log2(math.log(n)) - log_delta)
    log_ln = math.log2(math.log(2.0) * (1.0 + 5.0 * log_n + math.log2(r) - log_delta))
    log_t = 17.0 + (2.0 * c + 22.0) * log_n - 2.0 * log_delta + log_ln
    if not log_t < T_MAX_BITS:
        raise ValueError(f"c must keep t below 2**{T_MAX_BITS} at n = {n} and delta = {delta!r}, got {c!r}")
    # 2^log_t = 2^(log_t - shift) * 2^shift, the first factor below 2^53
    shift = max(0, math.floor(log_t) - 52)
    return math.ceil(2.0 ** (log_t - shift)) << shift, r
