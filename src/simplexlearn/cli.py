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

One table, ``_FLAGS``, holds each command's keys with their type,
default and help; it builds the parser, the keys a config file may set,
the defaults and the help's "(default X)".  One rule per type checks
every value, a flag's and a config file's alike; the checks that compare
fields stay in their command.
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

from . import diagnostics, evaluation, ica, learner, sampling
from .vertex_finder import MAX_STEPS, PREFIX_DIVISOR, PREFIX_MIN_ROWS, STEP_TOL, VertexResult

OUT_ENV = "SIMPLEXLEARN_OUT"
# the version of every report the command line writes
SCHEMA_VERSION = 15

# every key a command takes, as a flag or in a config file: its type, its
# default when neither sets it, and its help, which states that default
_SHARED = {
    "seed": (int, 0, "master seed"),
    "out": (str, None, f"report path; without it ${OUT_ENV}/<command>-seed<seed>.json, else stdout"),
}
_FLAGS = {
    "learn": {
        "n": (int, 5, "simplex dimension"),
        "t1": (int, 50_000, "first part of the one block that the frame and every fixed-point step share; a run draws t1 + t3 points, at least n+2"),
        "t3": (int, 50_000, "second part of that block"),
        "m": (int, None, "kept for old command lines: at least n+1, recorded in the report's cli_config, and otherwise without effect, since every run starts n+1 columns"),
        "r": (int, MAX_STEPS, f"cap on the fixed-point steps of the frame, which stops earlier at a step of at most {STEP_TOL:g}; on a block of at least {PREFIX_DIVISOR * PREFIX_MIN_ROWS} points the first steps, at most r // 2 of them, read only its first t // {PREFIX_DIVISOR} rows, up to a step of {STEP_TOL:g}, and the cap counts them too; so the last step always reads the whole block, and --r 1 runs one whole-block step; a column still moving at the cap exits 2; the one cap of the fixed-point loop, which ICA's sweeps share"),
        **_SHARED,
    },
    "reduce": {
        "problem": (str, "simplex", "instance family"),
        "n": (int, 3, "ambient dimension"),
        "p": (float, None, "lp-ball exponent, required for --problem lp and rejected otherwise"),
        "t": (int, 200_000, "sample size"),
        **_SHARED,
    },
    "verify": {
        "suite": (str, "scaling", "suite name; landscape draws no random numbers and takes no --seed"),
        "n": (int, None, "restrict the scaling or landscape suite to one dimension"),
        **_SHARED,
    },
}
_CHOICES = {"problem": ("simplex", "lp"), "suite": tuple(diagnostics.SUITES)}


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


def _check(key: str, value, kind: type, default) -> None:
    """One rule per type, for a flag's value and a config file's alike."""
    if value is None:
        # a null would stand in for a default that is not null, such as a
        # seed that then comes from OS entropy
        if default is not None:
            raise SchemaError(f"{key} must not be null")
    elif kind is int:
        low = 0 if key == "seed" else 1
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise SchemaError(f"{key} must be a {'nonnegative' if low == 0 else 'positive'} integer")
    elif kind is float:
        # a JSON integer past the float range has no float to record
        if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > sys.float_info.max:
            raise SchemaError(f"{key} must be a number")
    elif not isinstance(value, str):
        raise SchemaError(f"{key} must be a string")
    elif key in _CHOICES and value not in _CHOICES[key]:
        raise SchemaError(f"{key} must be one of {sorted(_CHOICES[key])}")


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, set]:
    """defaults < config file < explicit flags; returns the merged
    configuration and the keys the config file or a flag set.  Every value
    of both is checked, a config file's too where a flag overrides it."""
    flags = _FLAGS[command]
    given = {} if args.config is None else _load_config_file(args.config, command)
    flagged = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    for key, value in [*given.items(), *flagged.items()]:
        _check(key, value, *flags[key][:2])
    given.update(flagged)
    # a number is recorded as a float, so a config file's 3 and the flag's agree
    given.update({key: float(value) for key, value in given.items() if flags[key][0] is float and value is not None})
    # the report records its own path only when one was given
    defaults = {key: default for key, (_, default, _) in flags.items() if key != "out"}
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


def cmd_learn(args: argparse.Namespace) -> int:
    cfg, _ = _resolve(args, "learn")
    n = cfg["n"]
    if n < 2:
        raise SchemaError("n must be >= 2 for learn")
    if cfg["t1"] + cfg["t3"] < n + 2:
        raise SchemaError(f"t1 + t3 must be at least n+2 = {n + 2}: n+1 points whiten to a regular simplex")
    if cfg["m"] is not None and cfg["m"] < n + 1:
        raise SchemaError(f"m must be at least n+1 = {n + 1}: every run starts n+1 columns")
    out = _report_path(cfg, "learn")

    count = cfg["t1"] + cfg["t3"]
    started = time.perf_counter()
    truth, sample = sampling.hidden_instance("learn", n, count, cfg["seed"])
    learned = learner.learn_simplex(sample, r=cfg["r"], seed=cfg["seed"])
    del sample  # the block is freed before scoring runs

    tv = evaluation.tv_distance_mc(truth, learned.simplex, 100_000, rng=sampling.child_seed(cfg["seed"], 99))
    # points_drawn is the one block; found_count, always n+1, stays for
    # the benchmark, which reads it
    payload = {
        "command": "learn",
        "cli_config": cfg,
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "seed": cfg["seed"],
        "points_drawn": count,
        "found_count": len(learned.simplex.vertices),
        "vertices": learned.simplex.vertices,
        "per_vertex_match_error": evaluation.match_vertices(truth, learned.simplex).per_vertex_error,
        "tv_estimate": tv.value,
        "tv_std_error": tv.std_error,
    }
    return _finish(payload, learned.fit, started, out)


def _finish(payload: dict, fit: VertexResult, started: float, out: str | None) -> int:
    """Write a learn or reduce report with the fixed point's record under
    the loop's own names and the wall time since ``started``, and return
    both commands' exit code: 2 when some column did not converge, else 0."""
    payload.update(
        iterations_run=fit.iterations_run,
        prefix_steps=fit.prefix_steps,
        converged=fit.converged,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )
    _emit(payload, out)
    return 0 if fit.converged.all() else 2


@contextlib.contextmanager
def _drawing_beside(*draws):
    """Run ``draws``, callables of no argument, one after another on one
    thread while the body runs.  Leaving the body joins the thread, so it
    never outlives the body, and then raises what a draw raised."""
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
    reduce the sample to ICA and score the result.  The reduction's radii
    and, for lp, the scorer's ball are streams of their own, independent
    of the sample: one thread draws them into arrays allocated here while
    this one draws the instance, and is joined before ICA reads the radii.
    Every stream keeps its seed, key and fill order, so the report is that
    of the serial composition ``reduce_*_to_ica(hidden_instance(...)[1],
    seed)``, then ``lp_symmetric_difference(..., seed=child_seed(seed,
    105))``."""
    cfg, _ = _resolve(args, "reduce")
    if cfg["problem"] == "simplex" and cfg["p"] is not None:
        raise SchemaError("p applies only to --problem lp")
    if cfg["problem"] == "lp":
        if cfg["p"] is None:
            raise SchemaError("--p is required for --problem lp")
        if not 1.0 <= cfg["p"] <= sampling.P_MAX:
            raise SchemaError(f"p must lie in [1, {sampling.P_MAX:g}]")
    n, t, seed = cfg["n"], cfg["t"], cfg["seed"]
    dims = n + 1 if cfg["problem"] == "simplex" else n  # ICA works in n+1 dimensions after the simplex lift
    if t < dims + 2:
        raise SchemaError(f"t must be at least {dims + 2} for --problem {cfg['problem']} at n = {n}")
    out = _report_path(cfg, "reduce")

    started = time.perf_counter()
    payload = {
        "command": "reduce",
        "cli_config": cfg,
        "problem": cfg["problem"],
        "n": n,
        "t": t,
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
    }

    if cfg["problem"] == "simplex":
        radii = np.empty(t)
        with _drawing_beside(partial(ica._reduction_radii, radii, n, None, seed)):
            truth, sample = sampling.hidden_instance("simplex", n, t, seed)
        reduction = ica.reduce_simplex_to_ica(ica._ScaledRows(sample, radii, lift=True), seed=seed)
        match = evaluation.match_vertices(truth.vertices, reduction.vertices)
        lifted = np.vstack([truth.vertices.T, np.ones(n + 1)])
        payload.update(
            {
                "p": None,
                "matched_errors": list(match.per_vertex_error),
                "max_match_error": match.max_error,
                "separation_index": ica.separation_index(reduction.estimate.separating @ lifted),
                "c_pn": None,
                "symdiff": None,
            }
        )
    else:
        p = cfg["p"]
        # the ball is drawn first, and its row sums are scratch in the
        # radii's array until the radii overwrite them
        ball, radii = np.empty((ica.SYMDIFF_POINTS, n)), np.empty(max(t, ica.SYMDIFF_POINTS))
        with _drawing_beside(
            partial(ica._symdiff_ball, p, sampling.child_seed(seed, 105), ball, radii[: ica.SYMDIFF_POINTS]),
            partial(ica._reduction_radii, radii[:t], n, p, seed),
        ):
            a, sample = sampling.hidden_instance("lp", n, t, seed, p)
        reduction = ica.reduce_lp_to_ica(ica._ScaledRows(sample, radii[:t], lift=False), p, seed=seed)
        del sample, radii  # the scorer reads only the ball
        payload.update(
            {
                "p": p,
                "matched_errors": None,
                "max_match_error": None,
                "separation_index": ica.separation_index(reduction.estimate.separating @ a),
                "c_pn": ica.compute_c_pn(p, n),
                "symdiff": ica._symdiff_score(ball, ica._symdiff_maps(a, reduction.mixing), p),
            }
        )

    payload["permutation_note"] = reduction.estimate.permutation_note
    return _finish(payload, reduction.estimate.fit, started, out)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, given = _resolve(args, "verify")
    if cfg["suite"] == "tv" and cfg["n"] is not None:
        raise SchemaError("n applies only to verify --suite scaling or landscape")
    if cfg["n"] is not None and cfg["n"] < 2:
        raise SchemaError(f"n must be >= 2 for verify --suite {cfg['suite']}")
    if cfg["suite"] == "landscape" and "seed" in given:
        raise SchemaError("seed applies only to verify --suite scaling or tv: the landscape suite draws no random numbers")
    out = _report_path(cfg, "verify")

    started = time.perf_counter()
    result = diagnostics.run_suite(cfg["suite"], seed=cfg["seed"], n=cfg["n"])
    payload = {
        "command": "verify",
        # the landscape report records no seed; the default one still
        # names the $SIMPLEXLEARN_OUT file
        "cli_config": {**cfg, "seed": None} if cfg["suite"] == "landscape" else cfg,
        "schema_version": SCHEMA_VERSION,
        **result,
        "wall_time_ms": (time.perf_counter() - started) * 1000.0,
    }
    _emit(payload, out)
    return 0 if result["pass"] else 2


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
        for key, (kind, default, text) in flags.items():
            text += "" if default is None else f" (default {default})"
            command_parser.add_argument(f"--{key}", type=kind, choices=_CHOICES.get(key), help=text)
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
