"""Fixed-point recovery of simplex vertices from third-moment gradients.

For X uniform on a rotated standard simplex in R^n (rotation fixing the
all-ones vector), the exact gradient identity

    u^(2) = C grad m3(u) - 1/2 (u . 1)^2 1 - 1/2 (u . u) 1 - (u . 1) u,

with C = n(n+1)(n+2)/6, recovers the coordinate-wise square of u in the
simplex's own frame from quantities that are all rotation-equivariant.
Iterating u -> normalize(u^(2)) squares the coordinate ratios every step,
so the iterate collapses doubly exponentially onto the vertex whose
coordinate dominated the start.  With sampled gradients the same update is
run on a fresh block of points per iteration: :func:`find_vertex` takes
the gradient as a callable, so exact and sampled runs share one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sampling import substream

__all__ = [
    "IterationConfig",
    "VertexResult",
    "find_vertex",
    "reconstruct_squares",
    "theoretical_parameters",
    "save_trace",
]

# An update this small means the iterate landed on the trouble set where
# the squared vector cancels; restart from a fresh direction.
COLLAPSE_TOL = 1e-14
MAX_RESTARTS = 5
CONVERGENCE_TOL = 1e-9


@dataclass(frozen=True)
class IterationConfig:
    """Knobs for :func:`find_vertex`.

    iterations is the number of fixed-point steps r; seed drives the random
    start and any restarts; record_trace keeps every iterate.  The default
    r is the practical operating point; the proof-grade values from
    :func:`theoretical_parameters` are far larger.
    """

    iterations: int = 30
    seed: int = 0
    record_trace: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class VertexResult:
    """Output of :func:`find_vertex`.

    u is the final unit iterate (not sign-normalized; vertex directions are
    inherently signed).  converged reports whether the last two iterates
    agree to 1e-9 after sign alignment, which is the norm in exact-gradient
    mode and rarely triggers under sampling noise.
    """

    u: np.ndarray
    iterations_run: int
    converged: bool
    restarts: int
    trace: list = field(default_factory=list)


def reconstruct_squares(u: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinate-wise square of u in the simplex frame, from a gradient of
    the third moment at u (exact or estimated):

        C grad - 1/2 (u . 1)^2 1 - 1/2 (u . u) 1 - (u . 1) u.
    """
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    m = u.shape[0]
    if grad.shape != u.shape:
        raise ValueError("u and grad must have the same shape")
    c = m * (m + 1) * (m + 2) / 6.0
    p1 = u.sum()
    return c * grad - 0.5 * p1 * p1 - 0.5 * (u @ u) - p1 * u


def _sign_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def find_vertex(gradient: Callable[[np.ndarray], np.ndarray], n: int, config: IterationConfig) -> VertexResult:
    """Run the third-moment fixed point until it locks onto a vertex.

    Args:
        gradient: u -> grad m3(u) for the hidden rotated standard simplex
            in R^n, called once per iteration: ``exact_grad_m3``, or
            ``empirical_m3_grad`` on a fresh block of points per call.
        n: number of coordinates (the simplex has n vertices).
        config: iteration knobs; config.seed drives the random start and
            any restarts.

    Returns:
        VertexResult whose u approximates a vertex of the hidden simplex.

    Raises:
        ValueError: gradient returned a non-finite value.
        RuntimeError: more than 5 restarts after degenerate updates.
        SampleExhaustedError: propagated from a gradient callable whose
            finite source runs out of points.
    """
    rng = substream(config.seed, 23)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)

    restarts = 0
    trace: list = []
    last_step = math.inf
    for i in range(config.iterations):
        grad = np.asarray(gradient(u), dtype=float)
        if not np.isfinite(grad).all():
            raise ValueError(f"gradient is not finite at iteration {i}")
        update = reconstruct_squares(u, grad)
        norm = np.linalg.norm(update)
        if norm < COLLAPSE_TOL:
            restarts += 1
            if restarts > MAX_RESTARTS:
                raise RuntimeError(f"update collapsed {restarts} times; giving up")
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            last_step = math.inf
            continue
        new_u = update / norm
        last_step = _sign_aligned_distance(new_u, u)
        u = new_u
        if config.record_trace:
            trace.append(
                {
                    "iteration": i,
                    "update_norm": float(norm),
                    "step": last_step,
                    "u": u.copy(),
                }
            )
    converged = last_step <= CONVERGENCE_TOL
    return VertexResult(u=u, iterations_run=config.iterations, converged=converged, restarts=restarts, trace=trace)


def save_trace(result: VertexResult, path: str) -> None:
    """Write a recorded iteration trace as CSV with columns
    iteration, update_norm, step, u_0 .. u_{n-1}."""
    if not result.trace:
        raise ValueError("result has no trace; run with record_trace=True")
    n = result.trace[0]["u"].shape[0]
    header = "iteration,update_norm,step," + ",".join(f"u_{j}" for j in range(n))
    lines = [header]
    for row in result.trace:
        coords = ",".join(format(x, ".17g") for x in row["u"])
        lines.append(
            f"{row['iteration']},{format(row['update_norm'], '.17g')},{format(row['step'], '.17g')},{coords}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def theoretical_parameters(n: int, c: float, delta: float) -> tuple[int, int]:
    """Proof-grade sample size and iteration count for accuracy n^-c with
    failure probability delta.

    These are the analysis constants, kept as a reference point:

        r = ceil(log2(4 (c+3) n^2 ln(n) / delta)),
        t = ceil(2^17 n^(2c+22) (1/delta)^2 ln(2 n^5 r / delta)).

    Several of the underlying inequalities are loose, so the values are
    astronomically conservative; practical runs use the IterationConfig
    defaults instead.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta <= 0 or delta >= 1:
        raise ValueError("delta must lie in (0, 1)")
    r = math.ceil(math.log2(4.0 * (c + 3.0) * n * n * math.log(n) / delta))
    t = math.ceil(2.0**17 * float(n) ** (2.0 * c + 22.0) * (1.0 / delta) ** 2 * math.log(2.0 * n**5 * r / delta))
    return t, r
