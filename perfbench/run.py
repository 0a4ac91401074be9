"""End-to-end and per-layer benchmark of the simplexlearn CLI.

    python3 perfbench/run.py --workload learn_n5 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy, and the run exits non-zero without
a result when ``src/simplexlearn`` is missing.

One client runs a closed loop in this process: every op is one call to
``simplexlearn.cli.main([...])`` with ``--out`` pointing at a file in ``.perfbench_work/``,
and the next op starts when the last one has returned.  Each workload is a
fixed pool of instances (command lines with their CLI ``--seed``); the
workload seed sets the order in which a run visits them.  A run makes at
least one pass over the pool and starts ops until ``--seconds`` have
passed.  Every op passes a correctness gate (see ``check_op``); a failed
op stays in the timings and counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, once plain and once with the layer tracer installed (alternating
which goes first), and prints the per-layer metrics; the two halves give
the tracing overhead.  Set-up (import plus one small fixed warm-up op) is
timed in fresh interpreters, one after another, because an import is paid
only once per process.  The last line of standard output is the result as JSON.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import COUNT_ONLY, PACKAGE, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 5
# Acceptance criterion 5's bar on the largest vertex error of a learn op,
# as a share of the isotropic circumradius sqrt(n(n+2)).
MATCH_BAR = 0.1
# Repetition budget of learn ops: the coupon-collector bound for n+1
# equally likely vertices at failure probability 1e-5.  The CLI default
# (failure budget 0.1, m = 25 at n = 5) leaves about one instance in twenty
# incomplete by design.  The loop stops at n+1 vertices, so every op that
# completes under the default budget runs exactly as it would there.
LEARN_FAILURE_BUDGET = 1e-5
# Pool sizes: one pass over learn_n5 takes about 53 s, over reduce_mix
# about 11 s, on a 2-vCPU virtual machine.
LEARN_N5_INSTANCES = 5
REDUCE_INSTANCES = 3


@dataclass(frozen=True)
class Op:
    kind: str  # "learn" or "reduce"
    argv: tuple
    n: int
    points: int | None = None  # input points a reduce op consumes (--t)
    simplex: bool = False  # the op recovers simplex vertices


def derive_seed(workload: str, index: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def learn_budget(n: int) -> int:
    return math.ceil((math.log(n + 1) + math.log(1.0 / LEARN_FAILURE_BUDGET)) * (n + 1))


@dataclass(frozen=True)
class Workload:
    """A fixed pool of instances.  A learn op's cost is set by its
    instance's repetition count, a coupon-collector draw (6 to 47 at n = 5),
    and a reduce lp op's by whether its skew pass stops early; so every run
    times the same instances, and the workload seed only orders them."""

    name: str
    pool: tuple  # of Op
    warmup: tuple  # argv of the untimed warm-up op; fixed, so set-up is too

    def order(self, seed: int) -> list:
        ops = list(self.pool)
        random.Random(seed).shuffle(ops)
        return ops


def learn_workload(name: str, n: int, instances: int) -> Workload:
    """``learn --n N`` at the default t1, t3 and r over seeded hidden
    simplices, with the repetition budget above."""
    pool = tuple(
        Op("learn", ("learn", "--n", str(n), "--m", str(learn_budget(n)), "--seed", str(derive_seed(name, i))), n, simplex=True)
        for i in range(instances)
    )
    return Workload(name, pool, ("learn", "--n", str(n), "--t1", "2000", "--t3", "2000", "--r", "5", "--seed", "0"))


REDUCE_OPS = [("simplex", None, 3), ("simplex", None, 5), ("simplex", None, 8), ("lp", 1, 3), ("lp", 1, 5), ("lp", 3, 3), ("lp", 3, 5)]
REDUCE_T = 200_000  # the CLI default --t


def reduce_workload(name: str, instances: int) -> Workload:
    """``instances`` seeded instances of every REDUCE_OPS command at the
    default --t."""
    pool = []
    for index in range(instances * len(REDUCE_OPS)):
        problem, p, n = REDUCE_OPS[index % len(REDUCE_OPS)]
        argv = ["reduce", "--problem", problem, "--n", str(n)]
        if p is not None:
            argv += ["--p", str(p)]
        argv += ["--seed", str(derive_seed(name, index))]
        pool.append(Op("reduce", tuple(argv), n, points=REDUCE_T, simplex=problem == "simplex"))
    # no lp op: its thrown-away skew pass stops early or not by instance
    return Workload(name, tuple(pool), ("reduce", "--problem", "simplex", "--n", "3", "--t", "2000", "--seed", "0"))


WORKLOADS = {
    "learn_n5": learn_workload("learn_n5", 5, LEARN_N5_INSTANCES),
    # Ops take 30-55 s, so a pass takes longer than a gated run may;
    # kept for paired runs by hand.
    "learn_n10": learn_workload("learn_n10", 10, 2),
    "reduce_mix": reduce_workload("reduce_mix", REDUCE_INSTANCES),
}


@dataclass
class OpRecord:
    index: int
    argv: tuple
    wall_s: float
    reason: str | None  # None when the op passed the gate
    points: int | None = None
    vertices: int = 0
    match_err: float | None = None
    tv: float | None = None
    sep_index: float | None = None
    digest: str | None = None


# -- environment and set-up ---------------------------------------------


def cap_blas_threads() -> int:
    """Cap OpenBLAS at the CPUs this process may use (or a lower cap the
    caller set).  Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return cap


def environment(blas_cap: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": blas_cap,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


_PROBE = """
import contextlib, io, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import simplexlearn, simplexlearn.cli
with contextlib.redirect_stdout(io.StringIO()):
    simplexlearn.cli.main(sys.argv[2:])
print(time.perf_counter() - started)
"""


def setup_seconds(warmup: tuple) -> float:
    """One set-up in a fresh interpreter: import simplexlearn and
    simplexlearn.cli, then run the warm-up op."""
    out = os.path.join(WORK, f"warmup-{os.getpid()}.json")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, *warmup, "--out", out],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def load_package():
    sys.path.insert(0, SRC)
    import simplexlearn.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, PACKAGE) + os.sep):
        raise RuntimeError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


# -- one op -----------------------------------------------------------------


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def check_op(op: Op, rc, report: dict | None) -> str | None:
    """The correctness gate: None when the op passed, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "no report written"
    if not _finite(report):
        return "non-finite number in report"
    if op.kind == "learn":
        errors = report.get("per_vertex_match_error") or []
        if len(errors) != op.n + 1:
            return f"{len(errors)} vertex errors for {op.n + 1} vertices"
        ratio = max(errors) / math.sqrt(op.n * (op.n + 2))
        if ratio > MATCH_BAR:
            return f"max vertex error {ratio:.4g} of the circumradius exceeds {MATCH_BAR}"
    return None


def report_digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k != "wall_time_ms"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def run_op(cli, op: Op, index: int, tracer: Tracer) -> OpRecord:
    out = os.path.join(WORK, f"report-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    if op.kind == "reduce":
        # a fresh CLI invocation starts with an empty c_{p,n} memo
        clear = getattr(sys.modules.get(f"{PACKAGE}.ica"), "clear_c_pn_cache", None)
        if clear is not None:
            clear()
    points_before = tracer.counts["sampling.points"]
    tracer.begin_op(index)
    rc, error = None, None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*op.argv, "--out", out])
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    tracer.end_op()

    report = None
    if os.path.exists(out):
        with open(out) as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError as exc:
                error = error or f"unreadable report: {exc}"
    record = OpRecord(index, op.argv, wall, error or check_op(op, rc, report))
    if op.kind == "learn":
        record.points = tracer.counts["sampling.points"] - points_before
    else:
        record.points = op.points
    if report is not None:
        record.digest = report_digest(report)
        radius = math.sqrt(op.n * (op.n + 2))
        if op.kind == "learn":
            record.vertices = int(report.get("found_count") or 0)
            errors = report.get("per_vertex_match_error")
            record.match_err = max(errors) / radius if errors else None
            record.tv = report.get("tv_estimate")
        else:
            record.sep_index = report.get("separation_index")
            if op.simplex and report.get("max_match_error") is not None:
                record.match_err = report["max_match_error"] / radius
                record.vertices = op.n + 1
    return record


# -- the loop -------------------------------------------------------------------


@dataclass
class Run:
    plain: list  # records of the ops run without spans
    traced: list  # records of the same ops run with spans (traced runs)
    failed: int
    attempted: int
    tracer: Tracer


def measure(cli, workload: Workload, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> Run:
    """Closed loop over the pool in the seed's order: start ops until one
    pass is done and ``seconds`` have passed, or ``max_ops`` ops have run.
    A traced run runs each op twice, alternating which half goes first."""
    order = workload.order(seed)
    counter, tracer = Tracer(record_spans=False), Tracer()
    plain, traced = [], []
    failed = attempted = 0
    started = time.perf_counter()
    index = 0
    while max_ops is None or index < max_ops:
        if index >= len(order) and time.perf_counter() - started >= seconds:
            break
        op = order[index % len(order)]
        halves = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for with_spans in halves:
            active = tracer if with_spans else counter
            active.install(None if with_spans else COUNT_ONLY)
            try:
                record = run_op(cli, op, index, active)
            finally:
                active.uninstall()
            (traced if with_spans else plain).append(record)
            attempted += 1
            if record.reason is not None:
                failed += 1
                print(f"op {index} {' '.join(op.argv)} failed: {record.reason}", file=sys.stderr)
        index += 1
    return Run(plain, traced, failed, attempted, tracer)


# -- metrics ----------------------------------------------------------------------


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def op_seconds(records: list) -> float:
    """Geometric mean over the pool's instances of each instance's median
    op wall time.  Every run times the same instances, and each counts
    once however often the run visited it."""
    by_instance: dict[tuple, list[float]] = {}
    for r in records:
        by_instance.setdefault(r.argv, []).append(r.wall_s)
    return statistics.geometric_mean([statistics.median(walls) for walls in by_instance.values()])


def end_to_end_metrics(run: Run, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (op_seconds(run.plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(run: Run) -> dict:
    ops = len(run.traced)
    totals = run.tracer.layer_totals()
    counts = run.tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / ops

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / ops

    plain_s = sum(r.wall_s for r in run.plain)
    vertices = sum(r.vertices for r in run.plain)
    finder_calls = totals.get("vertex_finder.find_vertex", {}).get("calls", 0)
    return {
        "run_s": (plain_s, "s"),
        "points_per_s": (sum(r.points for r in run.plain) / plain_s, "points/s"),
        "samples_per_vertex": (sum(r.points for r in run.plain if r.vertices) / vertices if vertices else 0.0, "points"),
        "failed_frac": (run.failed / run.attempted, "ratio"),
        "match_err_p50": (_median(r.match_err for r in run.plain), "ratio"),
        "tv_p50": (_median(r.tv for r in run.plain), "ratio"),
        "sep_index_p50": (_median(r.sep_index for r in run.plain), "ratio"),
        "sampling.draw_calls": (calls("sampling.draw"), "count"),
        "sampling.points": (counts["sampling.points"] / ops, "points"),
        "sampling.draw_s": (self_s("sampling.draw"), "s"),
        "geometry.frame_fwd_calls": (calls("geometry.frame_fwd"), "count"),
        "geometry.frame_fwd_s": (self_s("geometry.frame_fwd"), "s"),
        "geometry.embed_fwd_calls": (calls("geometry.embed_fwd"), "count"),
        "geometry.embed_fwd_s": (self_s("geometry.embed_fwd"), "s"),
        "vertex_finder.calls": (calls("vertex_finder.find_vertex"), "count"),
        "vertex_finder.restarts": (counts["vertex_finder.restarts"] / ops, "count"),
        "vertex_finder.self_s": (self_s("vertex_finder.find_vertex"), "s"),
        "learner.frame_s": (self_s("learner.estimate_frame"), "s"),
        "learner.self_s": (self_s("learner.learn_simplex"), "s"),
        "learner.hit_ratio": (counts["learner.found"] / finder_calls if finder_calls else 0.0, "ratio"),
        "ica.estimate_calls": (calls("ica.ica_estimate"), "count"),
        "ica.estimate_s": (self_s("ica.ica_estimate"), "s"),
        "ica.kurtosis_frac": (counts["ica.kurtosis"] / counts["ica.components"] if counts["ica.components"] else 0.0, "ratio"),
        "ica.c_pn_s": (self_s("ica.c_pn"), "s"),
        "ica.symdiff_s": (self_s("ica.symdiff"), "s"),
        "ica.reduce_self_s": (self_s("ica.reduce"), "s"),
        "evaluation.tv_s": (self_s("evaluation.tv"), "s"),
        "evaluation.match_s": (self_s("evaluation.match"), "s"),
        "cli.self_s": (self_s("cli.cmd"), "s"),
        "bench.trace_overhead_frac": (sum(r.wall_s for r in run.traced) / plain_s - 1.0, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "cli.py")):
        print(f"error: {SRC}/{PACKAGE} not found; run from the root of a simplexlearn checkout", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload]

    # set-up is an end-to-end metric; a traced run skips its probes
    setup = [] if args.trace else [setup_seconds(workload.warmup) for _ in range(SETUP_PROBES)]
    cli = load_package()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([*workload.warmup, "--out", os.path.join(WORK, f"warmup-{os.getpid()}.json")])

    run = measure(cli, workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run, setup)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run.tracer.write(os.path.join(WORK, f"spans-{tag}.jsonl"))
    env = environment(blas_cap)
    with open(os.path.join(WORK, f"ops-{tag}.json"), "w") as fh:
        json.dump({"env": env, "setup_s": setup, "ops": [vars(r) for r in run.plain + run.traced]}, fh, indent=1)
    print(json.dumps({"env": env, "setup_s": setup, "ops": len(run.plain)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
