"""Self-test of the benchmark: the correctness gate and determinism.

    python3 perfbench/selftest.py

Runs from the root of a source checkout, takes about a minute and exits
non-zero on the first failed check.

- The gate rejects a non-zero exit code, a missing report, a non-finite
  number and a learn op over the vertex-error bar, and passes a good report.
- Two traced runs of the same ops at one workload seed give identical
  counts, quality metrics and reports (every report field but
  wall_time_ms).
- Every instance of a pool has its own CLI seed, and another workload
  seed visits the pool in another order.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Fixed op counts, so that both runs cover the same ops: the first learn
# op and the first seven reduce ops of the seed's order.
OPS = {"learn_n5": 1, "reduce_mix": len(run.REDUCE_OPS)}
DETERMINISTIC = [
    "sampling.points",
    "sampling.draw_calls",
    "vertex_finder.calls",
    "vertex_finder.restarts",
    "ica.kurtosis_frac",
    "samples_per_vertex",
    "match_err_p50",
    "tv_p50",
    "sep_index_p50",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def test_gate() -> None:
    learn = run.WORKLOADS["learn_n5"].pool[0]
    bar = run.MATCH_BAR * math.sqrt(5 * 7)
    good = {"per_vertex_match_error": [0.5 * bar] * 6, "tv_estimate": 0.05, "vertices": [[1.0, None]]}
    check(run.check_op(learn, 0, good) is None, "gate passes a good learn report")
    check(run.check_op(learn, 2, good) is not None, "gate fails a non-zero exit code")
    check(run.check_op(learn, None, None) is not None, "gate fails an op that raised")
    check(run.check_op(learn, 0, None) is not None, "gate fails a missing report")
    check(run.check_op(learn, 0, {**good, "tv_estimate": float("nan")}) is not None, "gate fails a NaN")
    check(run.check_op(learn, 0, {**good, "vertices": [[float("inf")]]}) is not None, "gate fails a nested infinity")
    over = {**good, "per_vertex_match_error": [0.5 * bar] * 5 + [1.01 * bar]}
    check(run.check_op(learn, 0, over) is not None, "gate fails a learn op over the vertex-error bar")
    check(run.check_op(learn, 0, {**good, "per_vertex_match_error": None}) is not None, "gate fails an incomplete learn op")
    reduce_op = run.WORKLOADS["reduce_mix"].pool[0]
    check(run.check_op(reduce_op, 0, {"separation_index": 0.01, "max_match_error": 0.05}) is None, "gate passes a good reduce report")


def traced(cli, name: str, seed: int):
    result = run.measure(cli, run.WORKLOADS[name], seed, seconds=math.inf, trace=True, max_ops=OPS[name])
    check(result.failed == 0, f"{name} seed {seed}: every op passes the gate")
    metrics = {key: value for key, (value, _) in run.per_layer_metrics(result).items()}
    return result, metrics


def test_determinism(cli) -> None:
    for name in OPS:
        first, first_metrics = traced(cli, name, 3)
        second, second_metrics = traced(cli, name, 3)
        for key in DETERMINISTIC:
            check(first_metrics[key] == second_metrics[key], f"{name}: {key} repeats exactly ({first_metrics[key]})")
        check([r.digest for r in first.traced] == [r.digest for r in second.traced], f"{name}: traced reports repeat exactly")
        check([r.digest for r in first.plain] == [r.digest for r in first.traced], f"{name}: the tracer changes no report")


def test_pools() -> None:
    for name in OPS:
        workload = run.WORKLOADS[name]
        seeds = [op.argv[-1] for op in workload.pool]
        check(len(set(seeds)) == len(seeds), f"{name}: every instance has its own CLI seed")
        orders = [[op.argv for op in workload.order(seed)] for seed in (3, 4)]
        check(orders[0] != orders[1], f"{name}: another workload seed gives another order")


def main() -> int:
    run.cap_blas_threads()
    os.makedirs(run.WORK, exist_ok=True)
    test_gate()
    test_pools()
    test_determinism(run.load_package())
    return 0


if __name__ == "__main__":
    sys.exit(main())
