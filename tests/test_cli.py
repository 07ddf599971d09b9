"""Command-line interface: solve, field, verify."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import modescent
from modescent import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_default_run_summary(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--max-iter", "50")
        assert code == 0
        assert err == ""
        summary = json.loads(out)
        assert summary["problem"] == "figure1"
        assert summary["algo"] == "icd"
        assert summary["iterations"] == 50
        assert summary["stop_reason"] == "MaxIter"
        assert summary["classification"] in (
            "vanishing-gradient",
            "direction-blowup",
            "unbounded-decrease",
        )
        assert len(summary["final_x"]) == 2
        assert len(summary["final_values"]) == 2

    def test_byte_identical_reruns(self, capsys):
        argv = ("solve", "--algo", "icd", "--seed", "7", "--max-iter", "80")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_armijo_reports_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--algo",
            "icd-armijo",
            "--x0",
            "0.5,0.5",
            "--beta",
            "0.5",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["stop_reason"] == "Infeasible"
        assert summary["iterations"] == 10
        assert summary["bound_satisfied"] is True
        assert summary["classification"] == "direction-blowup"

    def test_negative_coordinates_parse(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "steepest", "--x0", "-1,-1"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["stop_reason"] == "NullGradient"
        assert summary["final_x"] == [-0.5, -0.5]

    def test_scalarized_and_iag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "scalarized:0.5,0.5", "--x0", "1.5,1"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["iterations"] == 1
        assert summary["final_x"] == [-0.5, -0.5]
        code, out, _ = run_cli(
            capsys, "solve", "--algo", "iag", "--x0", "1.5,1", "--max-iter", "500"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["stop_reason"] == "MaxIter"
        assert summary["final_values"] == pytest.approx([3.0, 3.0], abs=1e-6)

    def test_trace_out(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--max-iter", "25", "--out", str(path)
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == json.loads(out)["iterations"] + 1
        assert rows[-1]["stop_reason"] == "MaxIter"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults\nproblem=figure1\nalgo=icd\nmax-iter=40\nseed=3\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["iterations"] == 40
        # explicit flag beats the file
        code, out, _ = run_cli(
            capsys, "solve", "--config", str(cfg), "--max-iter", "12"
        )
        assert json.loads(out)["iterations"] == 12
        # wherever it stands in argv
        code, out, _ = run_cli(
            capsys, "solve", "--max-iter", "12", "--config", str(cfg)
        )
        assert json.loads(out)["iterations"] == 12

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem figure1\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert "key=value" in err

    def test_unknown_problem_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem", "nope")
        assert code == 1
        assert out == ""
        assert "unknown problem" in err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--max-iter", "not-a-number"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--algo", "icd", "--schedule", "harmonic:nan"), "constant c"),
            (("--algo", "iag", "--iag-alpha", "nan"), "alpha"),
        ],
    )
    def test_bad_numbers_exit_one_by_name(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "solve", *argv)
        assert (code, out) == (1, "")
        assert name in err


class TestField:
    def test_grid_and_streamlines(self, capsys, tmp_path):
        grid_path = tmp_path / "field.csv"
        code, out, _ = run_cli(
            capsys,
            "field",
            "--box",
            "-2.5,1,-2.5,1",
            "--res",
            "21",
            "--streamline",
            "0.5,0.5",
            "--streamline",
            "0.9,-0.2",
            "--out",
            str(grid_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["nodes"] == 441
        assert summary["masked_nodes"] > 0
        lines = grid_path.read_text().splitlines()
        assert len(lines) == 2 + 441
        # streamlines land next to the grid by default
        lines_path = tmp_path / "field.csv.streamlines.csv"
        assert summary["streamlines_out"] == str(lines_path)
        assert lines_path.read_text().splitlines()[0] == "id,step,x,y"
        assert len(summary["streamlines"]) == 2
        for rec in summary["streamlines"]:
            assert rec["halt"] in (
                "critical", "infeasible", "norm-cap",
                "descent-margin", "box-exit", "max-steps",
            )

    def test_seed_file_and_explicit_lines_out(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("x,y\n0.5,0.5\n# comment\n0.0,0.9\n")
        grid_path = tmp_path / "g.csv"
        lines_path = tmp_path / "polylines.csv"
        code, out, _ = run_cli(
            capsys,
            "field",
            "--res",
            "5",
            "--streamlines",
            str(seeds),
            "--streamlines-out",
            str(lines_path),
            "--out",
            str(grid_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["streamlines_out"] == str(lines_path)
        ids = {row.split(",")[0] for row in lines_path.read_text().splitlines()[1:]}
        assert ids == {"0", "1"}

    def test_channel_subset(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys, "field", "--res", "5", "--channel", "central_norm",
            "--out", str(path),
        )
        assert code == 0
        assert path.read_text().splitlines()[1] == "x,y,central_norm,critical_mask"

    def test_bad_channel_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "field", "--res", "5", "--channel", "bogus",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "unknown channel" in err


    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--step", "nan", "--streamline", "0.5,0.5"), "step"),
            (("--mask-scale", "nan"), "mask_scale"),
            (("--mask-scale", "-1"), "mask_scale"),
        ],
    )
    def test_bad_numbers_exit_one_by_name(self, capsys, tmp_path, argv, name):
        code, out, err = run_cli(
            capsys, "field", "--res", "10", *argv, "--out", str(tmp_path / "g.csv")
        )
        assert (code, out) == (1, "")
        assert name in err


class TestConfig:
    """A --config file of key=value lines: a key is an option's long name
    without the dashes; an explicit flag beats the file, the file beats the
    built-in default, and argparse converts each value with the option's
    type."""

    FIELD_SETTINGS = {
        "resolution": "12",
        "box": "-3,1,-3,1",
        "mask-scale": "0.8",
        "step": "0.02",
        "max-steps": "40",
        "field": "steepest",
    }

    def run_field(self, capsys, tmp_path, *argv):
        grid = tmp_path / "grid.csv"
        code, out, err = run_cli(
            capsys, "field", *argv, "--streamline", "0.5,0.5", "--out", str(grid)
        )
        assert (code, err) == (0, "")
        lines = tmp_path / "grid.csv.streamlines.csv"
        return out, grid.read_bytes(), lines.read_bytes()

    def test_field_config_writes_the_bytes_of_the_flags(self, capsys, tmp_path):
        def config(settings):
            cfg = tmp_path / "field.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
            return self.run_field(capsys, tmp_path, "--config", str(cfg))

        settings = self.FIELD_SETTINGS
        flags = [tok for k, v in settings.items() for tok in (f"--{k}", v)]
        from_file = config(settings)
        assert from_file == self.run_field(capsys, tmp_path, *flags)
        # every key took effect: leaving any one out changes the output
        for key in settings:
            rest = {k: v for k, v in settings.items() if k != key}
            assert config(rest) != from_file, key

    def test_bad_value_names_the_option(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max-iter=5\nbeta=abc\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", str(cfg)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --beta: invalid float value: 'abc'" in err

    def test_streamline_key_is_ignored(self, capsys, tmp_path):
        # --streamline appends: a text default would be read character by
        # character, so the option stays flag-only
        cfg = tmp_path / "field.cfg"
        cfg.write_text("streamline=0.5,0.5\nresolution=6\n")
        code, out, _ = run_cli(
            capsys, "field", "--config", str(cfg), "--out", str(tmp_path / "g.csv")
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["nodes"] == 36
        assert "streamlines" not in summary

    def test_nothing_leaks_into_the_next_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algo=icd-armijo\nmax-iter=7\nbeta=0.25\nx0=1.5,1\n")
        argv = ("solve", "--max-iter", "30")
        _, before, _ = run_cli(capsys, *argv)
        _, configured, _ = run_cli(capsys, "solve", "--config", str(cfg))
        _, after, _ = run_cli(capsys, *argv)
        assert json.loads(configured)["algo"] == "icd-armijo"
        assert after == before
        assert json.loads(after)["algo"] == "icd"


class TestVerify:
    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == suite
        assert payload["passed"] is True
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_failing_suite_exits_two(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITE_FNS,
            "kkt",
            lambda seed: [{"name": "forced", "margin": -1.0, "status": "fail"}],
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "kkt")
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_unknown_suite_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 1


# figure1 (m = 2, the closed form) keeps its ids; random-quadratic:3,2,0
# (m = 3, the batched corral) runs from the same starts
FIELD_SPAN_CASES = [
    pytest.param(problem, box, start, id=tag + start)
    for problem, box, tag in (
        ("figure1", "-3,1,-3,1", ""),
        ("random-quadratic:3,2,0", "-1.5,1.5,-1.5,1.5", "quad3-"),
    )
    for start in ("0.5,0.5", "0.9,-0.2", "-0.5,-0.5")
]


class TestBenchmarkTracer:
    """The benchmark's tracer wraps solver calls by module-global name; a run
    loop that stops calling through those names would blank its per-layer
    metrics without failing, so this run checks that the spans add up."""

    def test_spans_match_the_ledger(self, capsys):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        restore = tracer.install(modescent)
        try:
            code, _, _ = run_cli(
                capsys, "solve", "--algo", "icd-armijo",
                "--problem", "random-quadratic:10,20,0", "--max-iter", "40",
            )
        finally:
            restore()
        assert code == 0
        names = np.asarray(tracer.names)
        (run,) = np.flatnonzero(names == "solvers.run")
        records = tracer.payloads[run][0]
        last = records[-1]
        started = len(records) - (last.stop_reason == "MaxIter")
        assert started == 40
        assert np.count_nonzero(names == "directions.central") == started
        inside = tracer.ancestors_named({"solvers.run"})
        queries = np.count_nonzero(inside & (names == "problems.query"))
        assert queries == last.grad_evals + last.fn_evals > 0

    @pytest.mark.parametrize("problem, box, start", FIELD_SPAN_CASES)
    def test_field_spans(self, capsys, tmp_path, problem, box, start):
        # installing needs every wrapped name: fields.central_direction,
        # fields.steepest_direction, fields.gradient_all, cli.sample_field
        # and FieldGrid.to_csv among them
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        restore = tracer.install(modescent)
        try:
            code, _, _ = run_cli(
                capsys, "field", "--problem", problem, "--box", box,
                "--res", "10", "--streamline", start,
                "--out", str(tmp_path / "grid.csv"),
            )
        finally:
            restore()
        assert code == 0
        names = np.asarray(tracer.names)
        for span in ("fields.sample", "fields.streamline", "fields.to_csv"):
            assert span in names
        # the grid is sampled in one batch: no per-node solves or queries
        in_sample = tracer.ancestors_named({"fields.sample"})
        assert not np.any(in_sample & (names != "fields.sample"))
        # one central solve per visited point, less the last one's when the
        # run stopped on the step budget or before solving there
        (line,) = np.flatnonzero(names == "fields.streamline")
        points, halt = tracer.payloads[line][0]
        solves = np.count_nonzero(
            tracer.ancestors_named({"fields.streamline"})
            & (names == "directions.central")
        )
        assert solves == len(points) - (halt in ("max-steps", "critical"))
