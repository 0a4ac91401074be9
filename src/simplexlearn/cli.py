"""Experiment harness: ``simplexlearn learn | reduce | verify``.

Commands synthesize a seeded ground-truth instance (a rotated and shifted
simplex, or a linearly mapped lp ball), run the corresponding pipeline,
score the result against the truth, and write one JSON report.  Every
report embeds the resolved configuration and a schema_version, and is
byte-identical across runs with the same configuration except for the
wall_time_ms field.

Exit codes: 0 on success (a learned simplex, a converged reduction, or
all checks passed), 2 on an unconverged reduction or a failed check
(learn never exits 2), 1 on usage or schema errors, 3 when the run
itself fails.  Reports go to --out, else to
$SIMPLEXLEARN_OUT/<command>-seed<seed>.json, else to stdout; a report
path that cannot name a file (empty, a directory, or below a file) is a
schema error before the run.
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

from .sampling import child_seed
from .vertex_finder import MAX_STEPS, PREFIX_DIVISOR, PREFIX_MIN_ROWS, PREFIX_TOL

OUT_ENV = "SIMPLEXLEARN_OUT"
# the version of every report the command line writes
SCHEMA_VERSION = 14

# flags each command accepts, for config-file validation (unknown keys are
# rejected rather than ignored)
_ALLOWED = {
    "learn": {"n", "t1", "t3", "m", "r", "seed", "out"},
    "reduce": {"problem", "n", "p", "t", "seed", "out"},
    "verify": {"suite", "n", "seed", "out"},
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
    unknown = set(raw) - _ALLOWED[command]
    if unknown:
        raise SchemaError(f"unknown config fields for {command}: {sorted(unknown)}")
    for key in ("suite", "problem", "out"):
        if key in raw and not isinstance(raw[key], str):
            raise SchemaError(f"{key} must be a string")
    return raw


def _resolve(args: argparse.Namespace, command: str, defaults: dict) -> tuple[dict, set]:
    """defaults < config file < explicit flags; returns the merged
    configuration and the keys the config file or a flag set."""
    given = {}
    if args.config is not None:
        given = _load_config_file(args.config, command)
        # a null would stand in for a default that is not null, such as a
        # seed that then comes from OS entropy
        nulls = sorted(key for key, value in given.items() if value is None and defaults.get(key) is not None)
        if nulls:
            raise SchemaError(f"{nulls[0]} must not be null")
    for key in _ALLOWED[command]:
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    return {**defaults, **given}, set(given)


def _validate_common(cfg: dict, command: str) -> None:
    n = cfg.get("n")
    if n is not None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise SchemaError("n must be an integer")
        floor = 2 if command == "learn" or cfg.get("suite") in ("scaling", "landscape") else 1
        if n < floor:
            where = f"{command} --suite {cfg['suite']}" if command == "verify" else command
            raise SchemaError(f"n must be >= {floor} for {where}")
    seed = cfg.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise SchemaError("seed must be a nonnegative integer")
    for key in ("t", "t1", "t3", "m", "r"):
        value = cfg.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 1):
            raise SchemaError(f"{key} must be a positive integer")
    if command == "learn" and cfg["t1"] + cfg["t3"] < n + 2:
        raise SchemaError(f"t1 + t3 must be at least n+2 = {n + 2}: n+1 points whiten to a regular simplex")
    if command == "learn" and cfg["m"] is not None and cfg["m"] < n + 1:
        raise SchemaError(f"m must be at least n+1 = {n + 1}: every run starts n+1 columns")


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


def _synthesize_simplex(n: int, seed: int):
    """Seeded hidden instance: the isotropic simplex under a Haar-random
    rotation and a normal shift."""
    from .geometry import Simplex, isotropic_simplex
    from .sampling import substream

    rng = substream(seed, 97)
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    shift = rng.standard_normal(n)
    return Simplex(isotropic_simplex(n).vertices @ q.T + shift)


def cmd_learn(args: argparse.Namespace) -> int:
    from .evaluation import match_vertices, tv_distance_mc
    from .learner import LearnerConfig, learn_simplex
    from .sampling import simplex_source

    cfg, _ = _resolve(args, "learn", {"n": 5, "t1": 50_000, "t3": 50_000, "m": None, "r": MAX_STEPS, "seed": 0})
    _validate_common(cfg, "learn")
    out = _report_path(cfg, "learn")

    truth = _synthesize_simplex(cfg["n"], cfg["seed"])
    count = cfg["t1"] + cfg["t3"]
    started = time.perf_counter()
    # no name holds the block, so it is freed before scoring runs
    draw = simplex_source(truth, child_seed(cfg["seed"], 98))
    learned = learn_simplex(draw(count), LearnerConfig(r=cfg["r"], seed=cfg["seed"]))

    tv = tv_distance_mc(truth, learned.simplex, 100_000, rng=child_seed(cfg["seed"], 99))
    # found_count counts the starts of the frame and the vertices they
    # found, iterations_run its steps, prefix_steps those that read only
    # the block's prefix; points_drawn is the one block
    payload = {
        "command": "learn",
        "cli_config": cfg,
        "schema_version": SCHEMA_VERSION,
        "n": cfg["n"],
        "seed": cfg["seed"],
        "config": {key: cfg[key] for key in ("t1", "t3", "m", "r", "seed")},
        "points_drawn": count,
        "found_count": learned.found_count,
        "iterations_run": learned.iterations_run,
        "prefix_steps": learned.prefix_steps,
        "vertices": learned.simplex.vertices,
        "per_vertex_match_error": match_vertices(truth, learned.simplex).per_vertex_error,
        "tv_estimate": tv.value,
        "tv_std_error": tv.std_error,
        "wall_time_ms": (time.perf_counter() - started) * 1000.0,
    }
    _emit(payload, out)
    return 0


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
    """Draw a seeded instance's sample, reduce it to ICA and score the
    result.  The reduction's radii and, for lp, the scorer's ball are
    streams of their own, independent of the sample: one thread draws them
    into arrays allocated here while this one draws the sample, and is
    joined before ICA reads the radii.  Every stream keeps its seed, key
    and fill order, so the report is that of the serial composition
    ``reduce_*_to_ica(sample_*(...), seed)``, then
    ``lp_symmetric_difference(..., seed=child_seed(seed, 105))``."""
    from .evaluation import match_vertices
    from .ica import (
        SYMDIFF_POINTS,
        _reduction_radii,
        _ScaledRows,
        _symdiff_ball,
        _symdiff_maps,
        _symdiff_score,
        compute_c_pn,
        reduce_lp_to_ica,
        reduce_simplex_to_ica,
        separation_index,
    )
    from .sampling import P_MAX, _row_blocks, sample_lp_ball, sample_simplex, substream

    cfg, _ = _resolve(args, "reduce", {"problem": "simplex", "n": 3, "p": None, "t": 200_000, "seed": 0})
    _validate_common(cfg, "reduce")
    if cfg["problem"] not in ("simplex", "lp"):
        raise SchemaError("problem must be 'simplex' or 'lp'")
    if cfg["p"] is not None and (not isinstance(cfg["p"], (int, float)) or isinstance(cfg["p"], bool)):
        raise SchemaError("p must be a number")
    if cfg["problem"] == "simplex" and cfg["p"] is not None:
        raise SchemaError("p applies only to --problem lp")
    if cfg["problem"] == "lp":
        if cfg["p"] is None:
            raise SchemaError("--p is required for --problem lp")
        if not 1.0 <= float(cfg["p"]) <= P_MAX:
            raise SchemaError(f"p must lie in [1, {P_MAX:g}]")
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
        truth = _synthesize_simplex(n, seed)
        radii = np.empty(t)
        with _drawing_beside(partial(_reduction_radii, radii, n, None, seed)):
            sample = sample_simplex(truth, t, child_seed(seed, 101))
        reduction = reduce_simplex_to_ica(_ScaledRows(sample, radii, lift=True), seed=seed)
        match = match_vertices(truth.vertices, reduction.vertices)
        lifted = np.vstack([truth.vertices.T, np.ones(n + 1)])
        payload.update(
            {
                "p": None,
                "matched_errors": list(match.per_vertex_error),
                "max_match_error": match.max_error,
                "separation_index": separation_index(reduction.estimate.separating @ lifted),
                "c_pn": None,
                "symdiff": None,
            }
        )
    else:
        p = float(cfg["p"])
        rng = substream(seed, 103)
        q1, r1 = np.linalg.qr(rng.standard_normal((n, n)))
        q1 = q1 * np.sign(np.diag(r1))
        a = q1 * rng.uniform(0.5, 2.0, size=n)  # rotation times per-axis scale
        # the ball is drawn first, and its row sums are scratch in the
        # radii's array until the radii overwrite them
        ball, radii = np.empty((SYMDIFF_POINTS, n)), np.empty(max(t, SYMDIFF_POINTS))
        with _drawing_beside(
            partial(_symdiff_ball, p, child_seed(seed, 105), ball, radii[:SYMDIFF_POINTS]),
            partial(_reduction_radii, radii[:t], n, p, seed),
        ):
            sample = sample_lp_ball(n, p, t, child_seed(seed, 104))
            for rows in _row_blocks(0, t):  # sample @ a.T in place
                sample[rows] = sample[rows] @ a.T
        reduction = reduce_lp_to_ica(_ScaledRows(sample, radii[:t], lift=False), p, seed=seed)
        del sample, radii  # the scorer reads only the ball
        payload.update(
            {
                "p": p,
                "matched_errors": None,
                "max_match_error": None,
                "separation_index": separation_index(reduction.estimate.separating @ a),
                "c_pn": compute_c_pn(p, n),
                "symdiff": _symdiff_score(ball, _symdiff_maps(a, reduction.mixing), p),
            }
        )

    payload["converged"] = reduction.estimate.converged
    payload["sweeps"] = reduction.estimate.sweeps
    payload["prefix_sweeps"] = reduction.estimate.prefix_sweeps
    payload["permutation_note"] = reduction.estimate.permutation_note
    payload["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    _emit(payload, out)
    return 0 if all(reduction.estimate.converged) else 2


def cmd_verify(args: argparse.Namespace) -> int:
    from .diagnostics import SUITES, run_suite

    cfg, given = _resolve(args, "verify", {"suite": "scaling", "n": None, "seed": 0})
    _validate_common(cfg, "verify")
    if cfg["suite"] not in SUITES:
        raise SchemaError(f"suite must be one of {sorted(SUITES)}")
    if cfg["suite"] == "tv" and cfg["n"] is not None:
        raise SchemaError("n applies only to verify --suite scaling or landscape")
    if cfg["suite"] == "landscape" and "seed" in given:
        raise SchemaError("seed applies only to verify --suite scaling or tv: the landscape suite draws no random numbers")
    out = _report_path(cfg, "verify")

    started = time.perf_counter()
    result = run_suite(cfg["suite"], seed=cfg["seed"], n=cfg["n"])
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--out", type=str, default=None, help=f"report path (default ${OUT_ENV}/<command>-seed<seed>.json, else stdout)")
        p.add_argument("--config", type=str, default=None, help="JSON config file; explicit flags override it")

    learn = sub.add_parser("learn", help="learn a synthesized hidden simplex from uniform samples")
    learn.add_argument("--n", type=int, default=None, help="simplex dimension (default 5)")
    learn.add_argument("--t1", type=int, default=None, help="first part of the one block that the frame and every fixed-point step share; a run draws t1 + t3 points, at least n+2 (default 50000)")
    learn.add_argument("--t3", type=int, default=None, help="second part of that block (default 50000)")
    learn.add_argument("--m", type=int, default=None, help="kept for old command lines: at least n+1, recorded in the report's config, and otherwise without effect, since every run starts n+1 columns")
    learn.add_argument("--r", type=int, default=None, help=f"cap on the fixed-point steps of the frame, which stops earlier at its sampling noise floor; on a block of at least {PREFIX_DIVISOR * PREFIX_MIN_ROWS} points the first steps read only its first t // {PREFIX_DIVISOR} rows, up to a step of {PREFIX_TOL:g}, and the cap counts them too; the last step always reads the whole block, so --r 1 runs one whole-block step; the one cap of the fixed-point loop, which ICA's sweeps share (default {MAX_STEPS})")
    common(learn)

    reduce_ = sub.add_parser("reduce", help="recover a synthesized instance through the ICA reduction")
    reduce_.add_argument("--problem", type=str, default=None, choices=["simplex", "lp"], help="instance family (default simplex)")
    reduce_.add_argument("--n", type=int, default=None, help="ambient dimension (default 3)")
    reduce_.add_argument("--p", type=float, default=None, help="lp-ball exponent, required for --problem lp and rejected otherwise")
    reduce_.add_argument("--t", type=int, default=None, help="sample size (default 200000)")
    common(reduce_)

    verify = sub.add_parser("verify", help="run a statistical verification suite")
    verify.add_argument("--suite", type=str, default=None, choices=["scaling", "tv", "landscape"], help="suite name (default scaling); landscape draws no random numbers and takes no --seed")
    verify.add_argument("--n", type=int, default=None, help="restrict the scaling or landscape suite to one dimension")
    common(verify)

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
