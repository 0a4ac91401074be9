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

On one fixed sample the map is deterministic and contracts to that
sample's own fixed point, so the loop stops on the step alone, as
FastICA's symmetric fixed point does: once every column's step is at
most STEP_TOL.  A map that reads no sample, t = 0, such as the exact
gradient, steps on to a step of at most 1e-9.  The whole-frame ICA of
:mod:`simplexlearn.ica` runs this one loop, with its polar step, its
checks, its stop and its cap MAX_STEPS, on its own contrast; each caller
hands the loop its own start frame.

On a large sample of t rows the loop runs coarse to fine: its first
steps read only the first t // PREFIX_DIVISOR rows, up to a step of
STEP_TOL, which carries the frame into the basin of the sample's fixed
point, and its last steps read every row, to the same stop.
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
    "STEP_TOL",
    "VertexResult",
    "find_vertex",
    "reconstruct_squares",
    "theoretical_parameters",
]

# A frame whose Gram matrix has an eigenvalue this small (squared) has
# lost a direction: the update of some column cancelled, or two columns
# merged.
COLLAPSE_TOL = 1e-14
# The stop of a map that reads no sample (t = 0), such as the exact
# gradient: a step of at most this size in every column.
CONVERGENCE_TOL = 1e-9
# The cap on the steps of every fixed point, the learner's frame and ICA's
# sweeps alike.  On a clear contrast both stop at STEP_TOL long before it
# (at most 16 steps, at n = 40 and t = 100k); near p = 2 the lp
# reduction's contrast fades, and its sweeps can run to the cap.  The
# proof-grade values of theoretical_parameters are far larger.
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
# prefix of some lp or n = 20 runs never steps below STEP_TOL and
# spends every step but one (24 of 180 runs at t = 4096, 3 at 32,768, 1
# of 360 at 49,152), and some of those reductions end unconverged; from
# 8192 rows on none did (0 of 1260 runs at t = 65,536 to 131,072), no
# separation index or vertex error rose by more than the spread between
# seeds, and the mean op time of every case fell, by 1 to 39 %.
PREFIX_MIN_ROWS = 8192
# The stop of every map over a sample, in both stages: a step of at most
# this size in every column.  On one fixed sample the map contracts to
# that sample's fixed point, and near it each step shrinks the distance
# many times over.  Against a whole-sample stop at CONVERGENCE_TOL, at
# t = 50k (learn at n = 20, seeds 0-39; lp reductions at n = 5 and
# p = 1, 1.5, 3, seeds 0-59), every vertex error agreed to 3 digits and
# every separation index within 2 %, and each run took 3 to 8 steps fewer.
STEP_TOL = 1e-2
# theoretical_parameters returns no t of this many bits or more.
T_MAX_BITS = 2**20


@dataclass
class VertexResult:
    """Output of :func:`find_vertex` and of its loop, which ICA shares.

    u is the final (n, k) frame of unit iterates with orthonormal columns,
    one per column of the start (not sign-normalized; vertex directions
    are inherently signed).  converged holds one bool per column, whether
    its last step was at most the stop's tolerance, STEP_TOL on a sample
    and 1e-9 without one; all are true when the stop fired, and
    iterations_run is the step count, the cap when it did not.  trace
    holds one row per step, the step's index: the rows it read and its
    per-column step.  prefix_steps counts the steps that read only a
    prefix of the sample.
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


def _polar_step(u: np.ndarray, update: np.ndarray, iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """One step of a whole-frame fixed point: the polar factor of the update.

    u is the current (d, k) frame, orthonormal after the first step, and
    update the fixed-point map M applied to it.  The new frame is the
    polar factor M (M^T M)^(-1/2), the orthonormal frame nearest M, the
    symmetric decorrelation of FastICA (Hyvarinen, IEEE TNN 1999).

    Returns (new frame, step), the step per column and sign-aligned.
    Raises RuntimeError naming ``iteration`` when the Gram matrix of M is
    singular: some column of M vanished or two became parallel.
    """
    eigenvalues, vectors = np.linalg.eigh(update.T @ update)
    if eigenvalues[0] <= COLLAPSE_TOL**2:
        raise RuntimeError(f"update collapsed at iteration {iteration}")
    new_u = update @ (vectors / np.sqrt(eigenvalues)) @ vectors.T
    return new_u, np.minimum(np.linalg.norm(new_u - u, axis=0), np.linalg.norm(new_u + u, axis=0))


def _fixed_point(update_map: Callable, start: np.ndarray, cap: int, t: int = 0) -> VertexResult:
    """The fixed point that the learner and ICA share: step the frame,
    from the (n, k) start, to the polar factor of the map M that
    update_map(u, rows) returns over the first ``rows`` rows of a t-row
    sample (see :func:`_polar_step`), until every column's step is at
    most STEP_TOL, or at most CONVERGENCE_TOL for a map that reads no
    sample of its own (t = 0, and every step is handed rows = 0), or for
    cap steps, and keep every step in the trace.  The start need not be
    orthonormal: the first step orthonormalizes it.

    The loop runs coarse to fine.  When the first t // PREFIX_DIVISOR rows
    number at least PREFIX_MIN_ROWS and cap > 1, the first steps read only
    that prefix, until a step is at most STEP_TOL or cap - 1 steps have
    run: the prefix only carries the frame into the basin of the sample's
    fixed point, at an eighth of the cost of a whole-sample step.  Every
    later step reads all t rows, so the last step always does, and cap 1
    is one whole-sample step.

    Raises ValueError, naming the argument, unless start is a finite 2-D
    array with 1 <= k <= n columns, cap an integer >= 1 and t one >= 0,
    and, naming the iteration, the step's index in the whole run, when
    the map returns an M that does not have the frame's shape or is not
    finite.
    """
    u = np.asarray(start, dtype=float)
    if u.ndim != 2 or not 1 <= u.shape[1] <= u.shape[0] or not np.isfinite(u).all():
        raise ValueError(f"start must be a finite (n, k) frame with 1 <= k <= n, got shape {u.shape}")
    _check_count(cap, "cap")
    _check_count(t, "t", minimum=0)
    tol = STEP_TOL if t else CONVERGENCE_TOL
    rows = t // PREFIX_DIVISOR if t // PREFIX_DIVISOR >= PREFIX_MIN_ROWS and cap > 1 else t
    trace, prefix_steps = [], 0
    for i in range(cap):
        update = update_map(u, rows)
        if update.shape != u.shape:
            raise ValueError(f"update must have the frame's shape {u.shape}, got {update.shape} at iteration {i}")
        if not np.isfinite(update).all():
            raise ValueError(f"update is not finite at iteration {i}")
        u, step = _polar_step(u, update, i)
        trace.append({"rows": rows, "step": step})
        converged = step <= tol
        if rows < t:
            prefix_steps += 1
            if converged.all() or prefix_steps == cap - 1:
                rows = t
        elif converged.all():
            break
    return VertexResult(u=u, converged=converged, iterations_run=i + 1, trace=trace, prefix_steps=prefix_steps)


def find_vertex(gradient: Callable[..., np.ndarray], start: np.ndarray, cap: int = MAX_STEPS, t: int = 0) -> VertexResult:
    """Run the third-moment fixed point until each column of a frame locks
    onto its own vertex.

    Each step maps the frame to the polar factor of its reconstructed
    squares (see :func:`reconstruct_squares`).  The loop stops after the
    first step at which every column's sign-aligned step is at most
    STEP_TOL = 1e-2 for a gradient over a t-row sample, or at most 1e-9
    for one that reads none (t = 0), and after cap steps at the latest.
    A gradient over a t-row sample runs coarse to fine, its first steps on
    a prefix of the sample (see :func:`_fixed_point`).

    Args:
        gradient: U -> grad m3 at each column of the (n, k) frame U, for
            the hidden rotated standard simplex in R^n, an (n, k) array,
            called once per step, as gradient(U) when t is 0 and as
            gradient(U, rows), over the sample's first ``rows`` rows, when
            t > 0.
        start: the (n, k) frame of k <= n starts, one per column; the
            first step orthonormalizes it.
        cap: the most steps to run, MAX_STEPS by default.
        t: the rows of the sample the gradient reads, 0 for a gradient
            that reads none: exact (``exact_grad_m3``), or a fresh block
            per call, whose steps never reach 1e-9 and run to the cap.

    Returns:
        VertexResult whose columns approximate distinct vertices of the
        hidden simplex, with every step in its trace.

    Raises:
        ValueError: a start that is not a finite (n, k) frame with
            1 <= k <= n, a cap that is not an integer >= 1, a t that is
            not one >= 0, or a gradient that does not have the frame's
            shape, or whose squares are not finite, naming the iteration.
        RuntimeError: the update collapsed (the Gram matrix of the squared
            columns is singular), naming the iteration.  With the exact
            gradient one column cannot collapse, since |u^(2)| >= 1/sqrt(n)
            for a unit u; a frame can only on a null set of iterates.
    """

    def squares(u: np.ndarray, rows: int) -> np.ndarray:
        grad = np.asarray(gradient(u, rows) if t else gradient(u), dtype=float)
        # a gradient of the wrong shape reaches the loop's check, which names the iteration
        return reconstruct_squares(u, grad) if grad.shape == u.shape else grad

    return _fixed_point(squares, start, cap, t)


def theoretical_parameters(n: int, c: float, delta: float) -> tuple[int, int]:
    """Proof-grade sample size and iteration count for accuracy n^-c with
    failure probability delta.

    These are the analysis constants, kept as a reference point:

        r = ceil(log2(4 (c+3) n^2 ln(n) / delta)),
        t = ceil(2^17 n^(2c+22) (1/delta)^2 ln(2 n^5 r / delta)).

    Several of the underlying inequalities are loose, so the values are
    astronomically conservative; practical runs stop at STEP_TOL within
    MAX_STEPS steps instead.  Both are computed as base-2 logs, so
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
