"""Layer tracer for the benchmark.

The tracer wraps the public functions of each simplexlearn module (layer)
by replacing module and class attributes that callers resolve at call
time.  Each wrapped call records a span (name, start, end, parent, op id)
in memory; counts that only a call's arguments or result can give, such as
points drawn or vertices found, are added to ``counts`` at the same
boundary.  Nothing is written until the run ends.

A hooked function that does not exist (because a later version of the
package removed or renamed it) is skipped, so its layer reads as zero calls.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time

PACKAGE = "simplexlearn"


def _rows(result) -> int:
    """Points in a draw: an array, or a SampleMatrix holding one."""
    return int(getattr(result, "points", result).shape[0])


def _count_points(counts, result) -> None:
    counts["sampling.points"] += _rows(result)


def _count_restarts(counts, result) -> None:
    counts["vertex_finder.restarts"] += int(getattr(result, "restarts", 0))


def _count_found(counts, result) -> None:
    counts["learner.found"] += int(getattr(result, "found_count", 0))


def _count_contrasts(counts, result) -> None:
    contrast = list(getattr(result, "contrast", []))
    counts["ica.components"] += len(contrast)
    counts["ica.kurtosis"] += contrast.count("kurtosis")


# (module, attribute, span name, count hook).  "Class.method" attributes are
# patched on the class.  simplex_source is a factory: the draw callable it
# returns is what gets wrapped.
HOOKS = [
    ("sampling", "simplex_source", "sampling.draw", _count_points),
    ("sampling", "sample_simplex", "sampling.draw", _count_points),
    ("sampling", "sample_lp_ball", "sampling.draw", _count_points),
    ("geometry", "AffineFrame.forward", "geometry.frame_fwd", None),
    ("geometry", "EmbedMap.forward", "geometry.embed_fwd", None),
    ("vertex_finder", "find_vertex", "vertex_finder.find_vertex", _count_restarts),
    ("learner", "estimate_frame", "learner.estimate_frame", None),
    ("learner", "learn_simplex", "learner.learn_simplex", _count_found),
    ("ica", "ica_estimate", "ica.ica_estimate", _count_contrasts),
    ("ica", "reduce_simplex_to_ica", "ica.reduce", None),
    ("ica", "reduce_lp_to_ica", "ica.reduce", None),
    ("ica", "compute_c_pn", "ica.c_pn", None),
    ("ica", "lp_symmetric_difference", "ica.symdiff", None),
    ("evaluation", "tv_distance_mc", "evaluation.tv", None),
    ("evaluation", "match_vertices", "evaluation.match", None),
    ("cli", "main", "cli.cmd", None),
    ("cli", "cmd_learn", "cli.cmd", None),
    ("cli", "cmd_reduce", "cli.cmd", None),
]

# The only hook the untraced ops keep: it counts the points a learn op
# draws (one integer add per block) and records no span.
COUNT_ONLY = [("sampling", "simplex_source")]

ROOT_SPAN = "op"


class Tracer:
    """Spans and counts for one run.  ``record_spans=False`` keeps the
    counts and drops the spans and clock reads."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: collections.Counter = collections.Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        if self.record_spans:
            self._root = self._open(ROOT_SPAN)

    def end_op(self) -> None:
        if self.record_spans:
            self._close(self._root)
        self.op = None

    def wrap(self, name: str, fn, count=None):
        counts = self.counts
        if not self.record_spans:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, result)
                return result
            return counted

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(counts, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every simplexlearn module global that holds ``original``
        (``from .x import f`` copies a binding into the importer)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def install(self, hooks=None) -> None:
        """Patch every hook that exists; ``hooks`` limits them by
        (module, attribute)."""
        for module_name, attr, name, count in HOOKS:
            if hooks is not None and (module_name, attr) not in hooks:
                continue
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    continue
                self._set(owner, method, self.wrap(name, vars(owner)[method], count))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if attr == "simplex_source":
                replacement = self._source_factory(name, original, count)
            else:
                replacement = self.wrap(name, original, count)
            self._replace_everywhere(original, replacement)

    def _source_factory(self, name, factory, count):
        def source(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs), count)

        return source

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds (duration minus the time
        covered by direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
