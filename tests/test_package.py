import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import simplexlearn
from simplexlearn import cli, ica, learner, moments, sampling, vertex_finder
from simplexlearn.vertex_finder import MAX_STEPS

MODULES = ["geometry", "sampling", "moments", "vertex_finder", "learner", "ica", "evaluation", "diagnostics"]

# names the package does not provide: no command, demo or benchmark used them
DELETED = [
    "simplex_to_json",
    "simplex_from_json",
    "save_simplex",
    "load_simplex",
    "isotropic_vertex_norms",
    "barycentric_coordinates",
    "GammaParams",
    "sample_gamma",
    "sample_cone_measure",
    "save_trace",
    "PowerSums",
    "power_sums",
    "coupon_trials_bound",
    "array_source",
    "SampleExhaustedError",
    "ExperimentReport",
    "IterationConfig",
    "standard_simplex",
    "rescale_simplex_sample",
    "rescale_lp_sample",
    "align_signed_permutation",
    "signed_permutation_deviation",
    "contains",
    "LearnerConfig",
    "sample_generalized_gaussian",
]


def test_learner_has_one_shape():
    # no start budget: every run starts n+1 columns and learns a simplex;
    # the learner takes (points, r, seed) as ICA takes (points, contrast, seed)
    parameters = inspect.signature(simplexlearn.learn_simplex).parameters
    assert [(p.name, p.default) for p in parameters.values()] == [
        ("points", inspect.Parameter.empty),
        ("r", MAX_STEPS),
        ("seed", 0),
    ]
    assert not hasattr(simplexlearn.LearnedSimplex, "complete")


def test_the_sample_shape_rule_has_one_home():
    # t >= d+2 and its reason are written once, beside the frame that the
    # learner, ICA and both reductions share
    homes = [
        path.name
        for path in Path(simplexlearn.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_sample"
    ]
    assert homes == ["moments.py"]


def test_both_results_keep_the_loops_record():
    # the learner's and ICA's results hold the loop's VertexResult as fit,
    # with no renamed copies of its fields beside it
    assert [f.name for f in dataclasses.fields(simplexlearn.LearnedSimplex)] == ["simplex", "fit"]
    assert not hasattr(simplexlearn.LearnedSimplex, "found_count")
    fields = {f.name for f in dataclasses.fields(simplexlearn.MixingEstimate)}
    assert "fit" in fields and not {"sweeps", "prefix_sweeps", "converged"} & fields
    assert [f.name for f in dataclasses.fields(simplexlearn.LpReduction)] == ["mixing", "estimate"]


def test_every_fixed_point_has_the_one_cap(tmp_path, monkeypatch):
    # the learner's r, the command line's default r and ICA's sweeps: each
    # is one run of the loop over the whole sample, with the one cap, and
    # on a sample whose first t // 8 rows reach the floor the run's first
    # steps read only those rows
    assert inspect.signature(simplexlearn.learn_simplex).parameters["r"].default == MAX_STEPS
    calls, loop = [], vertex_finder._fixed_point

    def spy(update_map, start, cap, t=0):
        found = loop(update_map, start, cap, t)
        calls.append((cap, t, found.iterations_run, found.prefix_steps))
        return found

    for module in (vertex_finder, ica):
        monkeypatch.setattr(module, "_fixed_point", spy)

    out = tmp_path / "learn.json"
    for t in (4000, 65_536):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["learn", "--n", "2", "--t1", str(t // 2), "--t3", str(t // 2), "--out", str(out)]) == 0
        with open(out) as fh:
            report = json.load(fh)
        assert report["cli_config"]["r"] == MAX_STEPS
        assert calls == [(MAX_STEPS, t, report["iterations_run"], report["prefix_steps"])]
        assert (report["prefix_steps"] > 0) == (t // 8 >= 8192)
        calls.clear()
        estimate = ica.ica_estimate(sampling.sample_lp_ball(3, 1.0, t, 0), "kurtosis")
        assert calls == [(MAX_STEPS, t, estimate.fit.iterations_run, estimate.fit.prefix_steps)]
        assert (estimate.fit.prefix_steps > 0) == (t // 8 >= 8192)


def test_both_fixed_points_share_one_frame(monkeypatch):
    # the learner's frame and ICA's whitening are one standardization
    frames, real = [], moments._sample_frame

    def spy(x):
        frames.append(x.shape)
        return real(x)

    for module in (learner, ica):
        monkeypatch.setattr(module, "_sample_frame", spy)
    learner.learn_simplex(sampling.sample_standard_simplex(3, 2000, 0)[:, :2])
    assert frames == [(2000, 2)]
    ica.ica_estimate(sampling.sample_lp_ball(3, 1.0, 2000, 0), "kurtosis")
    assert frames == [(2000, 2), (2000, 3)]


def test_every_exported_name_resolves():
    for name in simplexlearn.__all__:
        assert hasattr(simplexlearn, name), name


def test_exports_are_the_module_lists():
    expected = ["__version__"]
    for module in MODULES:
        expected += importlib.import_module(f"simplexlearn.{module}").__all__
    assert simplexlearn.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(simplexlearn, name)
    with pytest.raises(ImportError):
        exec(f"from simplexlearn import {name}", {})


# keys that named a producer's stream once; none may name another
RETIRED_KEYS = {4, 5, 6, 8}
# the calls that take a stream's key after its seed
STREAM_CALLS = ("substream", "child_seed")


def _place(value: ast.expr, index: int) -> ast.expr | None:
    """The ``index``-th element of a tuple ``value``, in either branch of a
    conditional one; None for any other value."""
    if isinstance(value, ast.IfExp):
        return ast.IfExp(value.test, _place(value.body, index), _place(value.orelse, index))
    return value.elts[index] if isinstance(value, ast.Tuple) else None


def _bound(name: str, scopes: list[ast.AST]) -> list[ast.expr | None]:
    """What the assignments in ``scopes`` bind ``name`` to, a tuple
    target's name its place in the value."""
    bound = []
    for scope in scopes:
        for assign in ast.walk(scope):
            for target in assign.targets if isinstance(assign, ast.Assign) else []:
                if isinstance(target, ast.Name) and target.id == name:
                    bound.append(assign.value)
                elif isinstance(target, ast.Tuple) and name in (places := [getattr(elt, "id", None) for elt in target.elts]):
                    bound.append(_place(assign.value, places.index(name)))
    return bound


def _key_values(node: ast.expr | None, scopes: list[ast.AST]) -> list[int] | None:
    """The integers a key argument can take: a literal, those of both
    branches of a conditional, or those of what ``scopes`` bind a name to;
    None when it can take anything else."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [node.value]
    if isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
    elif isinstance(node, ast.Name):
        branches = _bound(node.id, scopes)
    else:
        return None
    values = [_key_values(branch, scopes) for branch in branches]
    return None if not values or None in values else [value for branch in values for value in branch]


def stream_keys() -> list[tuple[str, tuple]]:
    """(module, key) for every key that a ``substream(...)`` or
    ``child_seed(...)`` call in the package can take: its leading key as an
    integer, the rest as source text.  The leading key is resolved through
    module constants such as ``sampling._KEY_*``, the enclosing functions'
    assignments and conditionals; one that does not resolve fails."""
    found = []
    for path in sorted(Path(simplexlearn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = ast.Module([stmt for stmt in tree.body if isinstance(stmt, ast.Assign)], [])
        parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) not in STREAM_CALLS:
                continue
            site = f"{path.stem}:{call.lineno}"
            assert len(call.args) >= 2, f"{site} draws a stream with no key"
            scopes, node = [constants], call
            while node in parents:
                node = parents[node]
                scopes += [node] if isinstance(node, ast.FunctionDef) else []
            leading = _key_values(call.args[1], scopes)
            assert leading, f"{site}: the leading key {ast.unparse(call.args[1])} does not resolve to integers"
            found += [(path.stem, (key, *map(ast.unparse, call.args[2:]))) for key in leading]
    return found


def test_stream_keys_are_distinct_and_not_retired():
    # a reused key would silently correlate two producers' streams
    keys = stream_keys()
    modules = {}
    for module, key in keys:
        modules.setdefault(key[0], set()).add(module)
    assert not {key: names for key, names in modules.items() if len(names) > 1}
    assert not [key for key, count in Counter(key for _, key in keys).items() if count > 1]
    assert not RETIRED_KEYS & set(modules)
    # the keys are read in every drawing module, both branches of each
    # conditional key too
    assert set().union(*modules.values()) == {"sampling", "learner", "evaluation", "ica", "diagnostics", "cli"}
    assert {67, 71, 97, 103} <= set(modules)


def test_the_package_draws_one_sign_stream():
    # the lp ball is the one exp(-|x|^p) draw, and its signs are the only
    # fair bits the package takes from a stream
    sources = [path.read_text() for path in Path(simplexlearn.__file__).parent.glob("*.py")]
    assert sum(source.count("rng.integers(0, 2") for source in sources) == 1


def callers(callee: str) -> list[str]:
    """``module.function`` of every call in the package that names
    ``callee`` as the function it calls or as the first argument, as
    ``partial`` binds it; one entry per call."""
    found = []
    for path in sorted(Path(simplexlearn.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                found += [
                    f"{path.stem}.{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and callee in [getattr(named, "id", None) or getattr(named, "attr", None) for named in [node.func, *node.args[:1]]]
                ]
    return found


def test_the_reduction_rows_have_one_recipe():
    # the reductions and the scaling suite build their rows through
    # ica._reduction_rows; only the command line, which draws the radii
    # beside the sample, builds them itself, once for both problems
    assert sorted(callers("_ScaledRows")) == ["cli.cmd_reduce", "ica._reduction_rows"]
    assert sorted(callers("_reduction_radii")) == ["cli.cmd_reduce", "ica._reduction_rows"]
    for callee in ("_drawing_beside", "hidden_instance"):
        assert callers(callee).count("cli.cmd_reduce") == 1, callee


def test_only_geometry_reads_a_point_as_one_row():
    # contains_points and the gauge take one point as one row, and a frame
    # keeps a point's shape; every other entry takes the shape it is given
    assert sorted(callers("atleast_2d")) == ["geometry._gauge", "geometry.contains_points", "geometry.forward"]


def test_the_sandwich_bound_is_checked_from_one_place():
    # the tv suite runs its sandwich cases from one table
    assert callers("check_sandwich_bound") == ["diagnostics.tv_suite"]


def test_every_report_has_one_writer():
    # learn, reduce and verify hand their fields to one writer, which adds
    # the header every report carries and sets the exit code
    assert callers("_emit") == ["cli._write_report"]
    assert sorted(callers("_write_report")) == ["cli.cmd_learn", "cli.cmd_reduce", "cli.cmd_verify"]


def test_the_hidden_instance_has_one_home():
    # the command line draws its truths and samples through the library
    assert not hasattr(cli, "_rotation") and not hasattr(cli, "_synthesize_simplex")


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demos_import_only_public_names(demo):
    # a demo shows the package as a user sees it: every name it imports
    # from simplexlearn or a submodule is one the package exports
    imported = [
        alias.name
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simplexlearn"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in simplexlearn.__all__] == []


# every command runs on numpy alone: scipy would add about a second of
# import and a second OpenBLAS thread pool to every invocation, and
# numpy.ma, which np.unique and np.quantile load, about 1.2 MB and 10 ms
_IMPORT_CHECK = """
import contextlib, io, sys
import simplexlearn, simplexlearn.cli
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert simplexlearn.cli.main(["learn", "--n", "3", "--t1", "2000", "--t3", "2000", "--r", "5", "--out", out]) == 0
    assert simplexlearn.cli.main(["reduce", "--problem", "simplex", "--t", "20000", "--out", out]) == 0
    assert simplexlearn.cli.main(["reduce", "--problem", "lp", "--p", "3", "--t", "20000", "--out", out]) == 0
    for suite in ("scaling", "tv", "landscape"):
        assert simplexlearn.cli.main(["verify", "--suite", suite, "--out", out]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"])
assert not loaded, loaded
"""


def test_no_command_imports_scipy_or_numpy_ma(tmp_path):
    # the child imports the package this suite imported, installed or not
    root = os.path.dirname(os.path.dirname(simplexlearn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK, str(tmp_path / "report.json")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    # scipy is a test extra only: no module imports it, at load or on call
    for path in Path(simplexlearn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert [name for name in names if name.split(".")[0] == "scipy"] == [], path.name


def test_every_import_is_at_module_level():
    # a module's dependencies are all named at its top, and it calls into
    # the package through module attributes that a patch or a tracer sees
    for path in Path(simplexlearn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
        assert nested == [], path.name


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_is_reported(tmp_path):
    # the suite's warnings are errors, and a failing @given test makes
    # Hypothesis import libcst, whose import warns: the failure must still
    # be reported as one, not end the session with an internal error
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
