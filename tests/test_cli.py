"""CLI surface: subcommand plumbing, output schemas, exit-code families,
and byte-level determinism."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kscreen as ks
import kscreen.cli
from kscreen.cli import build_parser, main, run_command

SCREEN_KEYS = [
    "command", "input", "method", "n", "p", "response_columns",
    "epsilon", "m", "seed", "scores", "selected",
]
SIMULATE_KEYS = [
    "command", "suite", "model", "n", "p", "reps", "seed",
    "ar_rho", "methods", "d_values", "results",
]


@pytest.fixture()
def csv_file(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 4))
    y = np.tanh(x[:, 2]) + 0.1 * rng.standard_normal(30)
    lines = ["a,b,c,d,y"]
    for i in range(30):
        lines.append(",".join(repr(float(v)) for v in (*x[i], y[i])))
    path = tmp_path / "input.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_main(argv):
    return main(argv)


class TestParsing:
    def test_screen_config(self, csv_file):
        args = build_parser().parse_args(
            ["screen", "--input", csv_file, "--response", "y",
             "--method", "kcca", "--epsilon", "auto", "--top", "2", "--seed", "4"]
        )
        assert args.command == "screen"
        assert args.response == ["y"]
        assert args.top == 2
        assert args.seed == 4

    def test_simulate_config(self):
        args = build_parser().parse_args(
            ["simulate", "--suite", "sim1", "--model", "2", "--n", "30",
             "--p", "25", "--reps", "3", "--methods", "dc,sis", "--threads", "auto"]
        )
        assert args.suite == "sim1" and args.model == 2
        assert args.methods == (ks.Method.DC, ks.Method.SIS)
        assert args.threads == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                                else os.cpu_count() or 1)

    def test_threads_auto_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        argv = ["simulate", "--suite", "sim1", "--model", "1", "--threads", "auto"]
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert build_parser().parse_args(argv).threads == 3
        # Without an affinity call the host's count is all there is.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().parse_args(argv).threads == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(argv).threads == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen"],  # missing required flags
            ["screen", "--input", "x.csv"],  # missing response
            ["simulate", "--suite", "sim1"],  # missing model
            ["simulate", "--suite", "nope", "--model", "1"],
            ["screen", "--input", "x.csv", "--response", "y", "--method", "magic"],
            ["screen", "--input", "x.csv", "--response", "y", "--epsilon", "-2"],
            ["screen", "--input", "x.csv", "--response", "y", "--top", "0"],
            ["simulate", "--suite", "sim1", "--model", "1", "--methods", ""],
            ["simulate", "--suite", "sim1", "--model", "1", "--d-values", "1,2"],
            ["unknowncmd"],
            ["screen", "--input", "x.csv", "--response", "y", "--threads", "2"],
            ["screen", "--input", "x.csv", "--response", "y", "--seed", "1.5"],
            ["screen", "--input", "x.csv", "--response", "y", "--gcv-subsample", "5"],
            ["simulate", "--suite", "sim1", "--model", "1", "--gcv-subsample", "5"],
            ["simulate", "--suite", "sim1", "--model", "1", "--seed", "-1"],
            ["screen", "--input", "x.csv", "--response", "y", "--seed", "-1"],
        ],
    )
    def test_malformed_flags_are_usage_errors(self, argv):
        assert run_main(argv) == 2

    def test_version_exits_zero(self, capsys):
        assert run_main(["--version"]) == 0
        assert "kscreen" in capsys.readouterr().out


class TestScreenCommand:
    def test_json_schema_and_content(self, csv_file, tmp_path):
        out = tmp_path / "res.json"
        code = run_main(
            ["screen", "--input", csv_file, "--response", "y", "--method", "kcca",
             "--epsilon", "auto", "--top", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc.keys()) == SCREEN_KEYS
        assert doc["method"] == "kcca" and doc["n"] == 30 and doc["p"] == 4
        assert doc["response_columns"] == ["y"]
        assert len(doc["scores"]) == 4 and len(doc["selected"]) == 2
        assert list(doc["scores"][0].keys()) == ["index", "name", "score", "rank"]
        assert list(doc["selected"][0].keys()) == ["rank", "index", "name", "score"]
        # the tanh signal on column c must win
        assert doc["selected"][0]["name"] == "c"
        assert doc["epsilon"] in list(ks.GCV_GRID)

    def test_csv_output(self, csv_file, tmp_path):
        out = tmp_path / "res.csv"
        code = run_main(
            ["screen", "--input", csv_file, "--response", "y", "--method", "dc",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,name,score,rank,selected"
        assert len(lines) == 5

    def test_byte_identical_across_invocations(self, csv_file, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run_main(
                ["screen", "--input", csv_file, "--response", "y", "--method", "kcca",
                 "--epsilon", "auto", "--seed", "1", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_output(self, csv_file, capsys):
        assert run_main(["screen", "--input", csv_file, "--response", "y",
                         "--method", "sis"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "sis"

    def test_top_auto_uses_threshold_formula(self, csv_file, tmp_path):
        out = tmp_path / "auto.json"
        assert run_main(
            ["screen", "--input", csv_file, "--response", "y", "--method", "kcca",
             "--epsilon", "auto", "--top", "auto", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["m"] == ks.auto_threshold(doc["epsilon"], doc["n"], doc["p"])


class TestSimulateCommand:
    def test_json_schema(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(
            ["simulate", "--suite", "sim1", "--model", "1", "--n", "30", "--p", "25",
             "--reps", "2", "--methods", "dc", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc.keys()) == SIMULATE_KEYS
        entry = doc["results"][0]
        assert list(entry.keys()) == ["method", "s_quantiles", "p_proportions"]
        assert list(entry["s_quantiles"].keys()) == ["q25", "q50", "q75"]
        assert list(entry["p_proportions"].keys()) == ["d1", "d2", "d3"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = run_main(
            ["simulate", "--suite", "sim1", "--model", "1", "--n", "30", "--p", "25",
             "--reps", "2", "--methods", "dc,sis", "--seed", "3",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "suite,model,method,label,value"
        assert len(lines) == 1 + 12

    def test_byte_identical_across_invocations_and_threads(self, tmp_path):
        argv = ["simulate", "--suite", "sim2", "--model", "1", "--n", "24", "--p", "8",
                "--reps", "3", "--methods", "kcca,dc", "--seed", "5"]
        payloads = []
        for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "2")):
            out = tmp_path / name
            assert run_main(argv + ["--threads", threads, "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0] == payloads[2]


class TestErrorMapping:
    def test_argument_error_exit_2(self, tmp_path, capsys):
        # sis with a bivariate response is an unsupported-method error
        rng = np.random.default_rng(0)
        lines = ["a,b,y1,y2"]
        for i in range(10):
            lines.append(",".join(repr(float(v)) for v in rng.standard_normal(4)))
        path = tmp_path / "multi.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_main(["screen", "--input", str(path), "--response", "y1", "y2",
                         "--method", "sis"])
        assert code == 2
        assert "error[argument]" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, csv_file, capsys):
        code = run_main(["screen", "--input", csv_file, "--response", "y", "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-negative integer" in err and "internal" not in err

    def test_negative_simulate_seed_is_a_usage_error(self, capsys):
        code = run_main(["simulate", "--suite", "sim2", "--model", "1", "--n", "10",
                         "--p", "10", "--reps", "1", "--methods", "dc", "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-negative integer" in err and "internal" not in err

    def test_data_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\nx,4\n", encoding="utf-8")
        code = run_main(["screen", "--input", str(path), "--response", "y"])
        assert code == 3
        assert "error[data]" in capsys.readouterr().err

    def test_non_finite_cell_exit_3_with_location(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,y\n1,2,3\n4,nan,6\n", encoding="utf-8")
        code = run_main(["screen", "--input", str(path), "--response", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err
        assert "row 2, column 2 ('b')" in err

    def test_duplicated_response_name_exit_2(self, tmp_path, capsys):
        lines = ["y,a,y"] + [f"{v},{v * v},{-v}" for v in np.linspace(0, 1, 10)]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_main(["screen", "--input", str(path), "--response", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[argument]" in err
        assert "'y' appears at positions [1, 3]" in err
        # a 1-based position still selects one of them
        assert run_main(["screen", "--input", str(path), "--response", "3",
                         "--method", "dc"]) == 0
        assert json.loads(capsys.readouterr().out)["response_columns"] == ["y"]

    def test_degenerate_response_exit_3(self, tmp_path, capsys):
        lines = ["a,y"] + [f"{v},1.0" for v in np.linspace(0, 1, 10)]
        path = tmp_path / "const.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_main(["screen", "--input", str(path), "--response", "y"])
        assert code == 3

    def test_numeric_error_exit_4(self, csv_file, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ks.NumericError("factorization failed")

        monkeypatch.setattr(kscreen.cli, "screen", failing)
        assert run_main(["screen", "--input", csv_file, "--response", "y"]) == 4
        assert capsys.readouterr().err.startswith("error[numeric]: factorization failed")

    def test_tuning_error_exit_5(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ks.TuningError("every grid point lost all GCV summands")

        monkeypatch.setattr(kscreen.cli, "run_suite", failing)
        assert run_main(["simulate", "--suite", "sim2", "--model", "1", "--n", "10",
                         "--p", "10", "--reps", "1"]) == 5
        assert capsys.readouterr().err.startswith("error[tuning]: every grid point")

    def test_run_command_reports_unknown_command(self):
        assert run_command(argparse.Namespace(command="bogus")) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_round_trip(self, csv_file, tmp_path):
        out = tmp_path / "res.json"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "kscreen", "screen", "--input", csv_file,
             "--response", "y", "--method", "dc", "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["command"] == "screen"
