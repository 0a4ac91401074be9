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
