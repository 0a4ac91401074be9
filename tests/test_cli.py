import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import simplexlearn
from simplexlearn import ica, learner, moments, sampling
from simplexlearn.cli import OUT_ENV, _resolve, build_parser, main
from simplexlearn.geometry import isotropic_simplex

LEARN_FAST = ["learn", "--n", "2", "--t1", "4000", "--t3", "4000", "--m", "12"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestLearnCommand:
    def test_complete_run_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "learn.json")
        code = main(LEARN_FAST + ["--seed", "0", "--out", out])
        assert code == 0
        report = read_json(out)
        assert sorted(report) == [
            "cli_config",
            "command",
            "converged",
            "found_count",
            "iterations_run",
            "n",
            "per_vertex_match_error",
            "points_drawn",
            "prefix_steps",
            "schema_version",
            "seed",
            "tv_estimate",
            "tv_std_error",
            "vertices",
            "wall_time_ms",
        ]
        assert report["command"] == "learn"
        assert report["schema_version"] == 15
        assert report["found_count"] == 3
        assert report["converged"] == [True] * 3
        assert 1 <= report["iterations_run"] <= 30
        assert report["prefix_steps"] == 0  # 8000 // 8 rows are below the floor
        assert report["points_drawn"] == 4000 + 4000
        assert report["n"] == 2
        assert len(report["vertices"]) == 3
        assert len(report["per_vertex_match_error"]) == 3
        assert report["tv_estimate"] is not None
        assert report["tv_estimate"] <= 0.5
        assert report["cli_config"] == {"n": 2, "t1": 4000, "t3": 4000, "m": 12, "r": 30, "seed": 0, "out": out}
        assert report["seed"] == 0
        assert "wrote" in capsys.readouterr().out

    def test_start_budget_below_n_plus_one_is_a_schema_error(self, tmp_path, capsys):
        # every run starts n+1 columns, so --m cannot cut a run short
        out = tmp_path / "learn.json"
        assert main(["learn", "--m", "3", "--n", "5", "--out", str(out)]) == 1
        assert "schema error: m must be at least n+1 = 6" in capsys.readouterr().err
        assert not out.exists()
        assert main(["learn", "--m", "6", "--n", "5", "--t1", "2000", "--t3", "2000", "--out", str(out)]) == 0
        assert read_json(out)["cli_config"]["m"] == 6

    def test_byte_determinism_modulo_wall_time(self, tmp_path):
        out = str(tmp_path / "learn.json")
        main(LEARN_FAST + ["--seed", "3", "--out", out])
        first = read_json(out)
        main(LEARN_FAST + ["--seed", "3", "--out", out])
        second = read_json(out)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second

    def test_vertices_are_those_learned_from_the_hidden_instance(self, tmp_path):
        # the command learns the library's seeded instance, one block of
        # t1 + t3 points
        out = str(tmp_path / "learn.json")
        assert main(["learn", "--n", "3", "--t1", "3000", "--t3", "2000", "--r", "12", "--seed", "4", "--out", out]) == 0
        points = sampling.hidden_instance("learn", 3, 5000, 4)[1]
        learned = learner.learn_simplex(points, r=12, seed=4)
        assert read_json(out)["vertices"] == learned.simplex.vertices.tolist()

    def test_iteration_count_flag(self, tmp_path):
        out = str(tmp_path / "learn.json")
        code = main(LEARN_FAST + ["--r", "40", "--seed", "0", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["cli_config"]["r"] == 40


class TestOneExitRule:
    # learn and reduce write the loop's record under its own names and exit
    # 2 when some column did not converge: a learn run cut at one step once
    # exited 0 at a max vertex error of 0.91 of the circumradius
    def test_a_capped_learn_run_names_its_unconverged_columns(self, tmp_path):
        out = str(tmp_path / "learn.json")
        assert main(["learn", "--n", "5", "--r", "1", "--seed", "0", "--out", out]) == 2
        report = read_json(out)
        assert report["iterations_run"] == 1 and report["converged"] == [False] * 6

    def test_a_default_learn_run_converges_in_every_column(self, tmp_path):
        out = str(tmp_path / "learn.json")
        assert main(["learn", "--n", "5", "--seed", "0", "--out", out]) == 0
        assert read_json(out)["converged"] == [True] * 6

    @pytest.mark.parametrize("argv", [LEARN_FAST, ["reduce", "--n", "2", "--t", "3000"]])
    def test_both_reports_share_the_record(self, tmp_path, argv):
        out = str(tmp_path / "report.json")
        assert main([*argv, "--out", out]) == 0
        keys = set(read_json(out))
        assert {"iterations_run", "prefix_steps", "converged"} <= keys
        assert not {"sweeps", "prefix_sweeps", "config"} & keys


def moment_passes(monkeypatch) -> list:
    """The rows each fixed-point step reads, learner and ICA alike, from a
    spy on their moment pass."""
    rows, real = [], moments._power_moment

    def spy(x, linear, shift, u, q, stop=None):
        rows.append(x.shape[0] if stop is None else stop)
        return real(x, linear, shift, u, q, stop)

    for module in (learner, ica):
        monkeypatch.setattr(module, "_power_moment", spy)
    return rows


@pytest.mark.parametrize(
    "argv, t",
    [
        (["learn", "--n", "3"], 100_000),
        (["reduce", "--problem", "simplex", "--n", "3", "--t", "65536"], 65_536),
        (["reduce", "--problem", "lp", "--p", "3", "--n", "3", "--t", "65536"], 65_536),
    ],
)
def test_reports_count_the_prefix_steps(tmp_path, monkeypatch, argv, t):
    # the first steps read the first t // 8 rows, the rest all t, and the
    # report's step count holds both, under the loop's names in both commands
    rows = moment_passes(monkeypatch)
    out = str(tmp_path / "report.json")
    assert main([*argv, "--seed", "1", "--out", out]) == 0
    report = read_json(out)
    steps, prefix = report["iterations_run"], report["prefix_steps"]
    assert isinstance(prefix, int) and 1 <= prefix < steps
    assert rows == [t // 8] * prefix + [t] * (steps - prefix)


class TestStopAtTheFixedPoint:
    """Runs that a stop short of the sample's fixed point once ended with
    exit 0 and a wrong answer: mid-rotation on the whole sample, below the
    prefix floor (t = 50k), and near p = 2, where the kurtosis contrast
    vanishes and no sweep of at most 1e-2 comes within the cap."""

    @pytest.mark.parametrize("seed", [19, 31])
    def test_learn_n20_at_t50k(self, tmp_path, seed):
        out = str(tmp_path / "learn.json")
        assert main(["learn", "--n", "20", "--t1", "25000", "--t3", "25000", "--seed", str(seed), "--out", out]) == 0
        # the truth's circumradius is sqrt(n (n+2)), as in criterion 5
        assert max(read_json(out)["per_vertex_match_error"]) <= 0.1 * (20 * 22) ** 0.5

    @pytest.mark.parametrize("p, seed", [("1.5", 16), ("1.5", 13), ("3", 16)])
    def test_reduce_lp_n5_at_t50k(self, tmp_path, p, seed):
        out = str(tmp_path / "reduce.json")
        argv = ["reduce", "--problem", "lp", "--n", "5", "--t", "50000", "--p", p, "--seed", str(seed), "--out", out]
        assert main(argv) == 0
        assert read_json(out)["separation_index"] <= 0.05

    def test_reduce_lp_at_p2_exits_unconverged(self, tmp_path):
        out = str(tmp_path / "reduce.json")
        assert main(["reduce", "--problem", "lp", "--n", "5", "--p", "2.0", "--seed", "0", "--out", out]) == 2
        report = read_json(out)
        assert report["iterations_run"] == 30 and not all(report["converged"])

    # with up to 29 prefix sweeps these runs left one whole-sample sweep and
    # exited 2 (separation indices 0.172 and 0.018); half the cap leaves
    # the whole sample enough sweeps to land
    @pytest.mark.parametrize("p, seed", [("2.1", 3), ("1.8", 9)])
    def test_reduce_lp_n5_near_p2_keeps_whole_sample_sweeps(self, tmp_path, p, seed):
        out = str(tmp_path / "reduce.json")
        assert main(["reduce", "--problem", "lp", "--n", "5", "--p", p, "--seed", str(seed), "--out", out]) == 0
        report = read_json(out)
        assert report["prefix_steps"] <= 15 and all(report["converged"])
        assert report["separation_index"] <= 0.05


class TestReduceCommand:
    def test_simplex_problem(self, tmp_path):
        out = str(tmp_path / "reduce.json")
        code = main(["reduce", "--problem", "simplex", "--n", "2", "--t", "100000", "--seed", "0", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["problem"] == "simplex"
        assert len(report["matched_errors"]) == 3
        assert report["max_match_error"] <= 0.1
        assert report["separation_index"] <= 0.1
        assert report["c_pn"] is None and report["symdiff"] is None
        assert report["schema_version"] == 15
        assert report["converged"] == [True] * 3
        assert isinstance(report["iterations_run"], int) and 1 <= report["iterations_run"] <= 30

    def test_lp_problem(self, tmp_path):
        out = str(tmp_path / "reduce.json")
        code = main(["reduce", "--problem", "lp", "--p", "1", "--n", "2", "--t", "100000", "--seed", "0", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["p"] == 1.0
        assert report["symdiff"] <= 0.2
        assert report["c_pn"] == pytest.approx(1.0 / 6.0**0.5, abs=1e-12)
        assert report["matched_errors"] is None
        assert report["converged"] == [True] * 2
        assert isinstance(report["iterations_run"], int) and 1 <= report["iterations_run"] <= 30

    @pytest.mark.parametrize("problem", [["--problem", "simplex"], ["--problem", "lp", "--p", "3"]])
    def test_byte_determinism_modulo_wall_time(self, tmp_path, problem):
        out = str(tmp_path / "reduce.json")
        argv = ["reduce", *problem, "--n", "3", "--t", "20000", "--seed", "3", "--out", out]
        main(argv)
        first = read_json(out)
        main(argv)
        second = read_json(out)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second

    def test_lp_op_draws_one_instance_and_one_scoring_sample(self, tmp_path, monkeypatch):
        # the instance draw (--t points) goes through sample_lp_ball, the
        # scoring draw (SYMDIFF_POINTS) through ica on the second thread;
        # both fill through the one private ball draw, and symdiff scores
        # both of its terms on the scoring draw
        calls = []
        original = sampling._lp_ball_points

        def counting(p, seed, out, sums):
            calls.append(out.shape[0])
            original(p, seed, out, sums)

        monkeypatch.setattr(sampling, "_lp_ball_points", counting)
        monkeypatch.setattr(ica, "_lp_ball_points", counting)
        out = str(tmp_path / "reduce.json")
        argv = ["reduce", "--problem", "lp", "--p", "3", "--n", "3", "--t", "2000", "--seed", "0", "--out", out]
        assert main(argv) in (0, 2)  # an unconverged run (exit 2) is still scored
        assert sorted(calls) == [2000, 100_000]

    # below SYMDIFF_POINTS the ball's row sums run past radii[:t]; at
    # 131,072, as at the default 200,000, the radii overwrite all of them
    @pytest.mark.parametrize("t", [65_536, 131_072])
    @pytest.mark.parametrize("problem", ["simplex", "lp"])
    def test_overlapped_draws_match_the_serial_composition(self, tmp_path, problem, t):
        # the radii and the scoring ball drawn beside the sample give the
        # report of the public functions called one after another
        from simplexlearn.evaluation import match_vertices

        n, seed = 3, 5
        out = str(tmp_path / "reduce.json")
        argv = ["reduce", "--problem", problem, "--n", str(n), "--t", str(t), "--seed", str(seed), "--out", out]
        if problem == "lp":
            argv += ["--p", "3"]
        assert main(argv) in (0, 2)
        report = read_json(out)
        if problem == "simplex":
            truth, sample = sampling.hidden_instance("simplex", n, t, seed)
            reduction = ica.reduce_simplex_to_ica(sample, seed=seed)
            match = match_vertices(truth.vertices, reduction.vertices)
            assert report["matched_errors"] == list(match.per_vertex_error)
            assert report["max_match_error"] == match.max_error
            mixed = np.vstack([truth.vertices.T, np.ones(n + 1)])
        else:
            mixed, sample = sampling.hidden_instance("lp", n, t, seed, 3.0)
            reduction = ica.reduce_lp_to_ica(sample, 3.0, seed=seed)
            symdiff = ica.lp_symmetric_difference(mixed, reduction.mixing, 3.0, seed=sampling.child_seed(seed, 105))
            assert report["symdiff"] == symdiff
        assert report["separation_index"] == ica.separation_index(reduction.estimate.separating @ mixed)
        fit = reduction.estimate.fit
        assert report["converged"] == fit.converged.tolist()
        assert (report["iterations_run"], report["prefix_steps"]) == (fit.iterations_run, fit.prefix_steps)

    @pytest.mark.parametrize(
        "problem, draw",
        [("simplex", "_reduction_radii"), ("lp", "_reduction_radii"), ("lp", "_symdiff_ball")],
    )
    def test_failing_draw_beside_the_sample_is_loud(self, capsys, monkeypatch, problem, draw):
        # the error crosses back to the command line and no thread is left
        def failing(*args):
            raise FloatingPointError("the second thread's draw failed")

        monkeypatch.setattr(ica, draw, failing)
        threads = threading.active_count()
        argv = ["reduce", "--problem", problem, "--n", "3", "--t", "2000", "--seed", "0"]
        if problem == "lp":
            argv += ["--p", "3"]
        assert main(argv) == 3
        assert "error: FloatingPointError: the second thread's draw failed" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_failing_sample_joins_the_second_thread(self, capsys, monkeypatch):
        def failing(*args):
            raise MemoryError("no room for the sample")

        monkeypatch.setattr(sampling, "sample_simplex", failing)
        threads = threading.active_count()
        assert main(["reduce", "--problem", "simplex", "--n", "3", "--t", "2000", "--seed", "0"]) == 3
        assert "error: MemoryError: no room for the sample" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_lp_requires_p(self):
        assert main(["reduce", "--problem", "lp", "--n", "2"]) == 1

    def test_p_range_checked(self):
        assert main(["reduce", "--problem", "lp", "--p", "0.5", "--n", "2"]) == 1


class TestVerifyCommand:
    def test_landscape_single_dimension(self, tmp_path):
        out = str(tmp_path / "verify.json")
        code = main(["verify", "--suite", "landscape", "--n", "3", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["suite"] == "landscape"
        assert report["pass"] is True
        assert report["params"] == {"dims": [3]}
        assert [c["name"] for c in report["checks"]] == ["landscape_n3"]

    def test_landscape_report_records_no_seed(self, tmp_path):
        # the suite reads no seed, so its report records none; a seeded
        # suite records the one it ran with
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "landscape", "--n", "2", "--out", str(out)]) == 0
        assert read_json(out)["cli_config"] == {"suite": "landscape", "n": 2, "seed": None, "out": str(out)}
        assert main(["verify", "--suite", "tv", "--out", str(out)]) == 0
        assert read_json(out)["cli_config"]["seed"] == 0

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_landscape_takes_no_seed(self, tmp_path, capsys, seed):
        # the suite draws no random numbers, so a seed would be recorded
        # and ignored
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "landscape", "--seed", seed, "--out", str(out)]) == 1
        assert "schema error: seed applies only to verify --suite scaling or tv" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "landscape", "seed": int(seed)}))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert "schema error: seed applies only to verify --suite scaling or tv" in capsys.readouterr().err
        assert not out.exists()

    def test_tv_suite(self, tmp_path):
        out = str(tmp_path / "verify.json")
        code = main(["verify", "--suite", "tv", "--seed", "0", "--out", out])
        assert code == 0
        assert read_json(out)["pass"] is True


class TestOutputRouting:
    def test_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path))
        code = main(LEARN_FAST + ["--seed", "7"])
        assert code == 0
        report = read_json(tmp_path / "learn-seed7.json")
        assert report["cli_config"]["seed"] == 7

    def test_env_var_names_the_unseeded_suite_by_the_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path))
        assert main(["verify", "--suite", "landscape", "--n", "2"]) == 0
        assert read_json(tmp_path / "verify-seed0.json")["suite"] == "landscape"

    def test_stdout_fallback(self, capsys, monkeypatch):
        monkeypatch.delenv(OUT_ENV, raising=False)
        code = main(["verify", "--suite", "landscape", "--n", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "verify"


    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["learn", "--out", ""], None, "does not name a file"),
            (["reduce", "--out", "{tmp}/"], None, "does not name a file"),
            (["reduce", "--out", "{tmp}"], None, "does not name a file"),
            (["learn", "--out", "{tmp}/file/learn.json"], None, "which is not a directory"),
            (["learn"], "{tmp}/file", "which is not a directory"),
        ],
        ids=["empty", "directory-slash", "directory", "below-a-file", "env-names-a-file"],
    )
    def test_unusable_path_is_a_schema_error_before_any_draw(self, tmp_path, capsys, monkeypatch, argv, env, message):
        # the path is checked before anything is drawn, so a bad one costs no run
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the report path was checked")

        (tmp_path / "file").write_text("")
        monkeypatch.setattr(sampling, "substream", no_draw)
        if env is None:
            monkeypatch.delenv(OUT_ENV, raising=False)
        else:
            monkeypatch.setenv(OUT_ENV, env.format(tmp=tmp_path))
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert "schema error: report path" in captured.err and message in captured.err
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "t1": 4000, "t3": 4000, "m": 12, "seed": 1}))
        out = str(tmp_path / "learn.json")
        code = main(["learn", "--config", str(cfg), "--seed", "4", "--out", out])
        assert code == 0
        report = read_json(out)
        assert report["cli_config"]["t1"] == 4000
        assert report["cli_config"]["seed"] == 4  # flag beats config file

    def test_an_integer_p_is_recorded_as_the_flag_records_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "lp", "p": 3}))
        out = str(tmp_path / "reduce.json")
        common = ["reduce", "--n", "3", "--t", "20000", "--seed", "2", "--out", out]
        reports = []
        for argv in ([*common, "--config", str(cfg)], [*common, "--problem", "lp", "--p", "3"]):
            assert main(argv) == 0
            reports.append(read_json(out))
            reports[-1].pop("wall_time_ms")
        assert reports[0]["cli_config"]["p"] == 3.0 and isinstance(reports[0]["cli_config"]["p"], float)
        assert reports[0] == reports[1]

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["learn", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("p", ["abc", True, [3], pytest.param(10**400, id="past-the-float-range")])
    def test_p_must_be_a_number(self, tmp_path, capsys, p):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "lp", "p": p, "n": 2}))
        assert main(["reduce", "--config", str(cfg)]) == 1
        assert "schema error: p must be a number" in capsys.readouterr().err

    def test_suite_must_be_a_string(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": ["tv"]}))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "schema error: suite must be a string" in capsys.readouterr().err

    def test_problem_must_be_a_string(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": 1}))
        assert main(["reduce", "--config", str(cfg)]) == 1
        assert "schema error: problem must be a string" in capsys.readouterr().err

    def test_out_must_be_a_string_before_any_work(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5, "n": 2}))
        assert main(["verify", "--config", str(cfg), "--suite", "landscape"]) == 1
        captured = capsys.readouterr()
        assert "schema error: out must be a string" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, key",
        [("learn", key) for key in ("n", "t1", "t3", "r", "seed")]
        + [("reduce", key) for key in ("n", "t", "seed")]
        + [("verify", "seed")],
    )
    def test_null_rejected_before_any_work(self, tmp_path, capsys, command, key):
        # a null seed would draw OS entropy; a null count failed mid-run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "report.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"schema error: {key} must not be null" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["[1, 2]", "3"], ids=["array", "number"])
    def test_json_that_is_not_an_object_rejected_before_any_draw(self, tmp_path, capsys, monkeypatch, content):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the config file was checked")

        monkeypatch.setattr(sampling, "substream", no_draw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        out = tmp_path / "report.json"
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "schema error: config file must hold a JSON object" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["learn", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: path, "config file cannot be read"),
            (lambda path: path.mkdir() or path, "config file cannot be read"),
            (lambda path: path.write_bytes(b'{"n": "\xff"}') and path, "config file is not UTF-8 text"),
        ],
        ids=["missing", "directory", "not-utf-8"],
    )
    def test_unreadable_file_is_a_schema_error(self, tmp_path, capsys, make, message):
        cfg = make(tmp_path / "cfg.json")
        out = tmp_path / "report.json"
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"schema error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestValidation:
    def test_n_floor(self):
        assert main(["learn", "--n", "1"]) == 1
        assert main(["reduce", "--n", "0"]) == 1

    def test_positive_counts(self):
        assert main(["learn", "--t1", "0"]) == 1
        assert main(["reduce", "--t", "0"]) == 1

    def test_negative_seed(self):
        assert main(["learn", "--seed", "-1"]) == 1

    def test_argparse_errors_exit_one(self, capsys):
        # 2 is reserved for failed runs
        assert main(["learn", "--n", "abc"]) == 1
        assert main(["learn", "--bogus", "1"]) == 1
        assert main(["reduce", "--problem", "cube"]) == 1
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_usage_limits_are_schema_errors(self, capsys, tmp_path):
        # learn draws one block of t1 + t3 points, however it is split
        assert main(["learn", "--n", "5", "--t1", "3", "--t3", "3"]) == 1
        assert "schema error: t1 + t3 must be at least n+2 = 7" in capsys.readouterr().err
        assert main(["learn", "--n", "5", "--t1", "3", "--t3", "100", "--out", str(tmp_path / "learn.json")]) == 0
        assert main(["learn", "--n", "2", "--t1", "100", "--t3", "1", "--out", str(tmp_path / "learn.json")]) == 0
        for suite in ("scaling", "landscape"):
            assert main(["verify", "--suite", suite, "--n", "1"]) == 1
            assert "schema error: n must be an integer >= 2" in capsys.readouterr().err
        # ICA needs d+2 rows in d = n+1 (simplex) or n (lp) dimensions:
        # d+1 points whiten to a regular simplex
        for t in ("4", "5"):
            assert main(["reduce", "--problem", "simplex", "--n", "3", "--t", t, "--seed", "0"]) == 1
            assert "schema error: t must be at least 6 for --problem simplex" in capsys.readouterr().err
        assert main(["reduce", "--problem", "lp", "--p", "1", "--n", "3", "--t", "4"]) == 1
        assert "schema error: t must be at least 5 for --problem lp" in capsys.readouterr().err
        # flags a command would record in cli_config and otherwise ignore
        assert main(["verify", "--suite", "tv", "--n", "3"]) == 1
        assert "schema error: n applies only to verify --suite scaling or landscape" in capsys.readouterr().err
        assert main(["reduce", "--problem", "simplex", "--p", "3"]) == 1
        assert "schema error: p applies only to --problem lp" in capsys.readouterr().err
        # NaN is a number, and only the range check stops it
        assert main(["reduce", "--problem", "lp", "--p", "nan"]) == 1
        assert "schema error: p must lie in [1, 64]" in capsys.readouterr().err

    def test_runtime_failure_is_not_a_schema_error(self, capsys, monkeypatch):
        import simplexlearn.learner as learner

        def degenerate(*args, **kwargs):
            raise learner.DegenerateSampleError("sample covariance is singular")

        monkeypatch.setattr(learner, "learn_simplex", degenerate)
        assert main(["learn", "--n", "2", "--seed", "0"]) == 3
        err = capsys.readouterr().err
        assert "error: DegenerateSampleError: sample covariance is singular" in err
        assert "schema error" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["learn", "--help"]) == 0
        assert "--t3" in capsys.readouterr().out


def long_options(command: str) -> dict:
    """The command's long options but --help and --config, by name."""
    sub = next(action for action in build_parser()._actions if action.dest == "command")
    return {
        option[2:]: action
        for action in sub.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    }


COMMANDS = ["learn", "reduce", "verify"]
# every integer key's minimum, as --help states it
MINIMUMS = {
    "learn": {"n": 2, "t1": 1, "t3": 1, "m": 1, "r": 1, "seed": 0},
    "reduce": {"n": 1, "t": 1, "seed": 0},
    "verify": {"n": 2, "seed": 0},
}


class TestSchemaTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_keys_are_the_long_options(self, tmp_path, capsys, command):
        # a config file accepts exactly the keys the command's flags name:
        # a list is no key's value, so every accepted key fails on its type
        options = set(long_options(command))
        cfg = tmp_path / "cfg.json"
        for key in sorted(set().union(*map(long_options, COMMANDS)) | {"config", "bogus"}):
            cfg.write_text(json.dumps({key: []}))
            assert main([command, "--config", str(cfg)]) == 1
            unknown = "schema error: unknown config fields" in capsys.readouterr().err
            assert unknown == (key not in options), key

    @pytest.mark.parametrize(
        "command, context, key, value",
        [
            ("learn", {}, "n", 1),
            ("reduce", {}, "n", 0),
            ("verify", {"suite": "scaling"}, "n", 1),
            ("verify", {"suite": "landscape"}, "n", 1),
            *[("learn", {}, key, 0) for key in ("t1", "t3", "m", "r")],
            ("reduce", {}, "t", 0),
            *[(command, {}, "seed", -1) for command in COMMANDS],
            ("learn", {}, "r", True),
            ("reduce", {}, "t", True),
            ("reduce", {}, "problem", "cube"),
            ("verify", {}, "suite", "x"),
            ("reduce", {"problem": "lp"}, "p", "abc"),
        ],
    )
    def test_flag_and_config_file_reject_alike(self, tmp_path, capsys, command, context, key, value):
        # one rule per value, whichever way it comes in
        out = tmp_path / "report.json"
        values = {**context, key: value}
        flags = [arg for name, given in values.items() for arg in (f"--{name}", str(given))]
        assert main([command, *flags, "--out", str(out)]) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, context, key, value, flag, message",
        [
            ("learn", [], "seed", -1, "3", "be an integer >= 0"),
            ("reduce", [], "n", 0, "3", "be an integer >= 1"),
            ("verify", [], "suite", 1, "tv", "be a string"),
            # a per-key bound holds a config value as its type does
            ("learn", [], "n", 1, "2", "be an integer >= 2"),
            ("verify", ["--suite", "landscape"], "n", 1, "2", "be an integer >= 2"),
            ("reduce", ["--problem", "lp"], "p", 100, "3", "lie in [1, 64]"),
        ],
    )
    def test_a_flag_does_not_hide_a_bad_config_value(self, tmp_path, capsys, command, context, key, value, flag, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "report.json"
        assert main([command, *context, "--config", str(cfg), f"--{key}", flag, "--out", str(out)]) == 1
        assert f"schema error: {key} must {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_states_the_resolved_default(self, command):
        # the default a flag's help names is the one a run without the flag
        # uses; before it, the help names the key's bound, one below which
        # test_flag_and_config_file_reject_alike rejects
        resolved, _ = _resolve(build_parser().parse_args([command]), command)
        options = long_options(command)
        assert sorted(MINIMUMS[command]) == sorted(key for key, action in options.items() if action.type is int)
        for key, action in options.items():
            default = resolved.get(key)
            if default is None:
                assert "(default" not in action.help, key
            else:
                assert action.help.endswith(f"(default {default})"), key
            if key in MINIMUMS[command]:
                assert f"; {key} must be an integer >= {MINIMUMS[command][key]}" in action.help.split(" (default")[0], key
        if command == "reduce":
            assert options["p"].help.endswith("; p must lie in [1, 64]")


class TestSharedParser:
    # main parses with one parser per process, so a second call must see
    # nothing of the first: the same output, report and exit code
    @pytest.mark.parametrize(
        "argv, code",
        [
            (LEARN_FAST + ["--seed", "1"], 0),
            (["reduce", "--problem", "lp", "--p", "3", "--n", "2", "--t", "3000", "--seed", "1"], 0),
            (["verify", "--suite", "landscape", "--n", "2"], 0),
            (["learn", "--n", "1"], 1),  # a schema error
            (["reduce", "--problem", "cube"], 1),  # a usage error
            (["verify", "--help"], 0),
        ],
    )
    def test_a_second_call_repeats_the_first(self, tmp_path, capsys, argv, code):
        out = str(tmp_path / "report.json")
        runs = []
        for _ in range(2):
            exit_code = main(argv + ["--out", out])
            report = read_json(out) if os.path.exists(out) else None
            if report is not None:
                os.remove(out)
                report.pop("wall_time_ms")
            runs.append((exit_code, capsys.readouterr(), report))
        assert runs[0][0] == code and runs[0] == runs[1]

    def test_main_calls_the_command_bound_at_call_time(self, tmp_path, monkeypatch):
        from simplexlearn import cli

        assert main(["verify", "--suite", "landscape", "--n", "2", "--out", str(tmp_path / "report.json")]) == 0
        called = []
        monkeypatch.setattr(cli, "cmd_learn", lambda args: called.append(args.n) or 7)
        assert main(["learn", "--n", "4"]) == 7
        assert called == [4]


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, read from its source (which stays
    unchanged) without leaving it in sys.modules or its path edits."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    path_before = list(sys.path)  # run.py puts perfbench/ on the path
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path_before
    return module


def benchmark_argvs():
    """The workloads perfbench/run.py defines and their command lines: the
    warm-up op of each and the first pool op of each command shape, that
    is of each argv up to its trailing "--seed <seed>"."""
    module = load_perfbench("run")
    argvs = {}
    for workload in module.WORKLOADS.values():
        for argv in (workload.warmup, *(op.argv for op in workload.pool)):
            argvs.setdefault(argv[:-2], list(argv))
    return set(module.WORKLOADS), list(argvs.values())


WORKLOAD_NAMES, BENCHMARK_ARGVS = benchmark_argvs()


class TestBenchmarkArgv:
    # a change to the command line that breaks a command the benchmark
    # runs fails here
    def test_every_workload_is_covered(self):
        assert WORKLOAD_NAMES >= {"learn_n5", "learn_n10", "reduce_mix"}

    @pytest.mark.parametrize("argv", BENCHMARK_ARGVS)
    def test_exits_zero(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0


TRACER = load_perfbench("tracer")


class TestTracerHooks:
    # the tracer skips a hook whose target is missing, and its layer then
    # reads 0; a rename of a hooked function fails here instead
    @pytest.mark.parametrize("module_name, attr", [hook[:2] for hook in TRACER.HOOKS])
    def test_hook_resolves(self, module_name, attr):
        module = importlib.import_module(f"simplexlearn.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            assert method in vars(getattr(module, owner_name))
        else:
            assert callable(getattr(module, attr))

    def test_count_only_source_counts_every_point(self):
        assert TRACER.COUNT_ONLY == [("sampling", "simplex_source")]
        draw = sampling.simplex_source(isotropic_simplex(3), 0)
        assert callable(draw) and draw(1234).shape == (1234, 3)
        tracer = TRACER.Tracer(record_spans=False)
        tracer.install(TRACER.COUNT_ONLY)
        try:
            sampling.hidden_instance("learn", 3, 1234, 0)
        finally:
            tracer.uninstall()
        assert tracer.counts["sampling.points"] == 1234


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = str(tmp_path / "verify.json")
        # the child imports the package this suite imported, installed or not
        root = os.path.dirname(os.path.dirname(simplexlearn.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "simplexlearn.cli", "verify", "--suite", "landscape", "--n", "2", "--out", out],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert read_json(out)["pass"] is True
