"""Experiment harness: ``simplexlearn learn | reduce | verify``.

Commands draw a seeded hidden instance with its sample from
``sampling.hidden_instance`` (a rotated and shifted simplex, or a linearly
mapped lp ball), run the corresponding pipeline, score the result
against the truth, and write one JSON report.  Every
report embeds the resolved configuration and a schema_version, and is
byte-identical across runs with the same configuration except for the
wall_time_ms field.

Exit codes: 0 on success, 2 when some column of learn's or reduce's
fixed point did not converge or a verify check failed, 1 on usage or
schema errors, 3 when the run itself fails; exit 0 reports convergence,
not accuracy.  Reports go to --out, else to
$SIMPLEXLEARN_OUT/<command>-seed<seed>.json, else to stdout; a report
path that cannot name a file (empty, a directory, or below a file) is a
schema error before the run.

One table, ``_FLAGS``, holds each command's keys with their type, rule,
default and help; it builds the parser, the keys a config file may set,
the defaults and the help's bound and "(default X)".  One check per type
holds every value to its key's rule, a flag's and a config file's alike,
so a flag cannot hide a bad config value; the checks that compare fields
stay in their command, and one writer emits every report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import time
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import evaluation, ica, learner, sampling
from .diagnostics import landscape_suite, scaling_suite, tv_suite
from .vertex_finder import MAX_STEPS, PREFIX_DIVISOR, PREFIX_MIN_ROWS, STEP_TOL

OUT_ENV = "SIMPLEXLEARN_OUT"
# the version of every report the command line writes
SCHEMA_VERSION = 17

# each verify suite and the keys it takes, of seed and n; a key that a
# suite does not take is rejected when given and recorded as None
_SUITES = {"scaling": (scaling_suite, ("seed", "n")), "tv": (tv_suite, ("seed",)), "landscape": (landscape_suite, ("n",))}

# every key a command takes, as a flag or in a config file: its type; its
# rule, an integer's minimum, a number's range or a string's choices (None
# for any string); its default when neither sets it; and its help, which
# states the rule and the default
_SHARED = {
    "seed": (int, 0, 0, "master seed"),
    "out": (str, None, None, f"report path; without it ${OUT_ENV}/<command>-seed<seed>.json, else stdout"),
}
_FLAGS = {
    "learn": {
        "n": (int, 2, 5, "simplex dimension"),
        "t1": (int, 1, 50_000, "first part of the one block that the frame and every fixed-point step share; a run draws t1 + t3 points, at least n+2"),
        "t3": (int, 1, 50_000, "second part of that block"),
        "m": (int, 1, None, "kept for old command lines: at least n+1, recorded in the report's cli_config, and otherwise without effect, since every run starts n+1 columns"),
        "r": (int, 1, MAX_STEPS, f"cap on the fixed-point steps of the frame, which stops earlier at a step of at most {STEP_TOL:g}; on a block of at least {PREFIX_DIVISOR * PREFIX_MIN_ROWS} points the first steps, at most r // 2 of them, read only its first t // {PREFIX_DIVISOR} rows, up to a step of {STEP_TOL:g}, and the cap counts them too; so the last step always reads the whole block, and --r 1 runs one whole-block step; a column still moving at the cap exits 2; the one cap of the fixed-point loop, which ICA's sweeps share"),
        **_SHARED,
    },
    "reduce": {
        "problem": (str, ("simplex", "lp"), "simplex", "instance family"),
        "n": (int, 1, 3, "ambient dimension"),
        "p": (float, (sampling.P_MIN, sampling.P_MAX), None, "lp-ball exponent, required for --problem lp and rejected otherwise"),
        "t": (int, 1, 200_000, "sample size"),
        **_SHARED,
    },
    "verify": {
        "suite": (str, tuple(_SUITES), "scaling", "suite name; landscape draws no random numbers and takes no --seed"),
        "n": (int, 2, None, "restrict the scaling or landscape suite to one dimension"),
        **_SHARED,
    },
}


class SchemaError(ValueError):
    """A config file or flag combination violates the command schema."""


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"config file cannot be read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"config file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config file must hold a JSON object")
    unknown = set(raw) - set(_FLAGS[command])
    if unknown:
        raise SchemaError(f"unknown config fields for {command}: {sorted(unknown)}")
    return raw


def _must(kind: type, rule) -> str:
    """What a key's rule asks of its value, as its help and its schema error say it."""
    if kind is int:
        return f"be an integer >= {rule}"
    return f"lie in [{rule[0]:g}, {rule[1]:g}]" if kind is float else f"be one of {sorted(rule)}"


def _check(key: str, value, kind: type, rule, default) -> None:
    """One check per type, with the key's rule, for a flag's value and a
    config file's alike."""
    if value is None:
        # a null would stand in for a default that is not null, such as a
        # seed that then comes from OS entropy
        if default is not None:
            raise SchemaError(f"{key} must not be null")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int) or value < rule:
            raise SchemaError(f"{key} must {_must(kind, rule)}")
    elif kind is float:
        # a JSON integer past the float range has no float to record
        if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > sys.float_info.max:
            raise SchemaError(f"{key} must be a number")
        # NaN is a number, and only the range stops it
        if not rule[0] <= value <= rule[1]:
            raise SchemaError(f"{key} must {_must(kind, rule)}")
    elif not isinstance(value, str):
        raise SchemaError(f"{key} must be a string")
    elif rule is not None and value not in rule:
        raise SchemaError(f"{key} must {_must(kind, rule)}")


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, set]:
    """defaults < config file < explicit flags; returns the merged
    configuration and the keys the config file or a flag set.  Every value
    of both is checked, a config file's too where a flag overrides it."""
    flags = _FLAGS[command]
    given = {} if args.config is None else _load_config_file(args.config, command)
    flagged = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    for key, value in [*given.items(), *flagged.items()]:
        _check(key, value, *flags[key][:3])
    given.update(flagged)
    # a number is recorded as a float, so a config file's 3 and the flag's agree
    given.update({key: float(value) for key, value in given.items() if flags[key][0] is float and value is not None})
    # the report records its own path only when one was given
    defaults = {key: default for key, (_, _, default, _) in flags.items() if key != "out"}
    return {**defaults, **given}, set(given)


def _report_path(cfg: dict, command: str) -> str | None:
    """--out, else $SIMPLEXLEARN_OUT/<command>-seed<seed>.json, else None
    for stdout.  Called before the run: a path that cannot name a file,
    empty, a directory or below a file, is a SchemaError before any draw."""
    out = cfg.get("out")
    if out is None and os.environ.get(OUT_ENV):
        out = os.path.join(os.environ[OUT_ENV], f"{command}-seed{cfg['seed']}.json")
    if out is not None and (not out or out.endswith(os.sep) or os.path.isdir(out)):
        raise SchemaError(f"report path {out!r} does not name a file")
    if out is not None and any(path.exists() and not path.is_dir() for path in Path(os.path.abspath(out)).parents):
        raise SchemaError(f"report path {out!r} lies below a file, which is not a directory")
    return out


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda value: value.tolist()) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}")


def _write_report(command: str, cfg: dict, record: dict, passed: bool, started: float, out: str | None) -> int:
    """Write ``record``, a command's own fields, none of which repeats a
    key of its configuration, beside the command, that configuration, the
    schema version and the wall time since ``started``; return the one
    exit rule: 0 when the run passed, else 2."""
    wall_time_ms = (time.perf_counter() - started) * 1000.0
    _emit({"command": command, "cli_config": cfg, "schema_version": SCHEMA_VERSION, **record, "wall_time_ms": wall_time_ms}, out)
    return 0 if passed else 2


def cmd_learn(args: argparse.Namespace) -> int:
    cfg, _ = _resolve(args, "learn")
    n = cfg["n"]
    if cfg["t1"] + cfg["t3"] < n + 2:
        raise SchemaError(f"t1 + t3 must be at least n+2 = {n + 2}: n+1 points whiten to a regular simplex")
    if cfg["m"] is not None and cfg["m"] < n + 1:
        raise SchemaError(f"m must be at least n+1 = {n + 1}: every run starts n+1 columns")
    out = _report_path(cfg, "learn")

    count = cfg["t1"] + cfg["t3"]
    started = time.perf_counter()
    truth, sample = sampling.hidden_instance("learn", n, count, cfg["seed"])
    learned = learner.learn_simplex(sample, r=cfg["r"], seed=cfg["seed"])
    # the block is freed before scoring runs; TV's draw does not run
    # beside the block, which would hold its 100k x (n+1) weights too,
    # 4.8 MB at n = 5 on a 46 MB peak
    del sample

    tv = evaluation.tv_distance_mc(truth, learned.simplex, 100_000, seed=sampling.child_seed(cfg["seed"], 99))
    fit = learned.fit
    # points_drawn is the one block; found_count, always n+1, stays for
    # the benchmark, which reads it
    record = {
        "points_drawn": count,
        "found_count": len(learned.simplex.vertices),
        "vertices": learned.simplex.vertices,
        "per_vertex_match_error": evaluation.match_vertices(truth, learned.simplex).per_vertex_error,
        "tv_estimate": tv.value,
        "tv_std_error": tv.std_error,
        "iterations_run": fit.iterations_run,
        "prefix_steps": fit.prefix_steps,
        "converged": fit.converged,
    }
    return _write_report("learn", cfg, record, fit.converged.all(), started, out)


@contextlib.contextmanager
def _drawing_beside(*draws):
    """Run ``draws``, callables of no argument, one after another on one
    thread while the body runs.  Leaving the body joins the thread, so it
    never outlives the body, and then raises what a draw raised.

    Only random fills go beside the body: numpy's generators release the
    GIL while they fill, so two ``standard_gamma(1/3)`` fills of 500k
    values took 65 ms one after the other and 34 ms on two threads, while
    two (200k, 5) moment passes took 11.0 and 11.3 ms (2 cores, OpenBLAS,
    medians of 15 and 25).  A draw fills arrays that the calling thread
    allocated, since a thread's own allocations go to its glibc arena,
    which keeps their pages, and calls nothing that the benchmark's
    tracer hooks, since it keeps one span stack per process.  A plain
    thread and not ``concurrent.futures``, whose import, with
    ``logging``, takes 5-9 ms in a process that has numpy loaded.
    """
    errors = []

    def run():
        try:
            for draw in draws:
                draw()
        except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if errors:
        raise errors[0]


def cmd_reduce(args: argparse.Namespace) -> int:
    """Draw a seeded instance and its sample from ``hidden_instance``,
    reduce the sample to ICA and score the result, in one sequence for
    both problems.  The reduction's radii and the lp scorer's ball are
    streams of their own, independent of the sample: one thread draws the
    ball, then the radii, into arrays allocated here while this one draws
    the instance, and is joined before ICA reads the radii.  The simplex
    is scored without a ball, so only its radii are drawn beside it.
    Every stream keeps its seed, key and fill order, so the report is
    that of the serial composition ``reduce_*_to_ica(hidden_instance(...)[1],
    seed)``, then for lp ``lp_symmetric_difference(..., seed=child_seed(seed,
    105))``."""
    cfg, _ = _resolve(args, "reduce")
    if cfg["problem"] == "simplex" and cfg["p"] is not None:
        raise SchemaError("p applies only to --problem lp")
    if cfg["problem"] == "lp" and cfg["p"] is None:
        raise SchemaError("--p is required for --problem lp")
    n, t, seed, p = cfg["n"], cfg["t"], cfg["seed"], cfg["p"]
    dims = n + 1 if p is None else n  # ICA works in n+1 dimensions after the simplex lift
    if t < dims + 2:
        raise SchemaError(f"t must be at least {dims + 2} for --problem {cfg['problem']} at n = {n}")
    out = _report_path(cfg, "reduce")

    started = time.perf_counter()
    radii = np.empty(t)
    draws = [partial(ica._reduction_radii, radii, n, p, seed)]
    if p is not None:
        ball = np.empty((ica.SYMDIFF_POINTS, n))
        draws.insert(0, partial(ica._symdiff_ball, p, sampling.child_seed(seed, 105), ball, np.empty(len(ball))))
    with _drawing_beside(*draws):
        truth, sample = sampling.hidden_instance(cfg["problem"], n, t, seed, p)
    rows = ica._ScaledRows(sample, radii, lift=p is None)
    del sample, radii  # the rows hold both while ICA reads them
    if p is None:
        reduction = ica.reduce_simplex_to_ica(rows, seed=seed)
        match = evaluation.match_vertices(truth.vertices, reduction.vertices)
        mixed = np.vstack([truth.vertices.T, np.ones(n + 1)])
        scores = {"matched_errors": list(match.per_vertex_error), "max_match_error": match.max_error, "symdiff": None}
    else:
        reduction = ica.reduce_lp_to_ica(rows, p, seed=seed)
        del rows  # the scorer reads only the ball
        mixed = truth
        symdiff = ica._symdiff_score(ball, ica._symdiff_maps(truth, reduction.mixing), p)
        scores = {"matched_errors": None, "max_match_error": None, "symdiff": symdiff}

    fit = reduction.estimate.fit
    record = {
        "separation_index": ica.separation_index(reduction.estimate.separating @ mixed),
        "permutation_note": reduction.estimate.permutation_note,
        **scores,
        "iterations_run": fit.iterations_run,
        "prefix_steps": fit.prefix_steps,
        "converged": fit.converged,
    }
    return _write_report("reduce", cfg, record, fit.converged.all(), started, out)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, given = _resolve(args, "verify")
    suite, keys = _SUITES[cfg["suite"]]
    dropped = [key for key in ("seed", "n") if key not in keys]
    for key in dropped:
        if key in given and cfg[key] is not None:
            takers = " or ".join(name for name, (_, taking) in _SUITES.items() if key in taking)
            raise SchemaError(f"{key} applies only to verify --suite {takers}")
    out = _report_path(cfg, "verify")

    started = time.perf_counter()
    result = suite(**{key: cfg[key] for key in keys})
    # the default seed named the $SIMPLEXLEARN_OUT file even where it is dropped
    return _write_report("verify", {**cfg, **dict.fromkeys(dropped)}, result, result["pass"], started, out)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: a parse
    leaves no state in it for the next."""
    parser = argparse.ArgumentParser(
        prog="simplexlearn",
        description="Simplex learning and ICA-reduction experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {
        "learn": "learn a synthesized hidden simplex from uniform samples",
        "reduce": "recover a synthesized instance through the ICA reduction",
        "verify": "run a statistical verification suite",
    }
    for command, flags in _FLAGS.items():
        command_parser = sub.add_parser(command, help=helps[command])
        for key, (kind, rule, default, text) in flags.items():
            text += "" if rule is None else f"; {key} must {_must(kind, rule)}"
            text += "" if default is None else f" (default {default})"
            command_parser.add_argument(f"--{key}", type=kind, choices=rule if kind is str else None, help=text)
        command_parser.add_argument("--config", type=str, help="JSON config file; explicit flags override it")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for failed runs
        return 1 if exc.code else 0
    try:
        # the command's function is looked up by name at each call, so a
        # rebound cmd_* global is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
