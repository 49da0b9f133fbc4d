"""The command-line surface: flags, outputs, exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqobf.cli import main
from seqobf.sim import run_first_occurrence_race, write_csv
from seqobf.superstring import verify_superstring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [line for line in out.strip().splitlines() if not line.startswith("#")]


class TestGenSuperstring:
    def test_emits_a_verified_shortest_superstring(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-superstring", "--r", "3", "--l", "2",
            "--kind", "shortest", "--seed", "7",
        )
        assert code == 0
        symbols = [int(s) for s in data_lines(out)[0].split()]
        assert len(symbols) == 10
        assert verify_superstring(symbols, 3, 2)

    def test_prints_resolved_configuration_first(self, capsys):
        _, out, _ = run_cli(capsys, "gen-superstring", "--r", "2", "--l", "1")
        first = out.splitlines()[0]
        assert first.startswith("#")
        assert "r=2" in first and "seed=" in first

    def test_seed_env_var_sets_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQOBF_SEED", "31")
        _, with_env, _ = run_cli(capsys, "gen-superstring", "--r", "3", "--l", "2")
        monkeypatch.delenv("SEQOBF_SEED")
        _, explicit, _ = run_cli(
            capsys, "gen-superstring", "--r", "3", "--l", "2", "--seed", "31"
        )
        assert data_lines(with_env) == data_lines(explicit)

    def test_a_negative_seed_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQOBF_SEED", "-3")
        code, out, err = run_cli(capsys, "gen-superstring", "--r", "3", "--l", "2")
        assert code == 2
        assert out == ""
        assert "master seed must be non-negative, got -3" in err

    def test_whole_concatenation_over_the_cap_is_refused(self, capsys):
        # 20 * 2^20 symbols exceed the 2^24 cap, though 2^20 alone does not.
        code, out, err = run_cli(
            capsys, "gen-superstring", "--r", "2", "--l", "20", "--kind", "concat",
        )
        assert code == 2
        assert "20*2^20 exceeds the size cap" in err
        assert out == ""


class TestUsageErrors:
    def test_no_arguments_prints_usage(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2
        assert "usage" in (out + err).lower()

    def test_unknown_flag(self, capsys):
        code, *_ = run_cli(capsys, "bounds", "--m", "10", "--which", "sbu",
                           "--frobnicate", "1")
        assert code == 2

    def test_contradictory_parameters(self, capsys):
        # Too short a trace for the gap/pattern combination.
        code, _, err = run_cli(
            capsys, "bounds", "--m", "20", "--r", "4", "--l", "3",
            "--h", "10", "--p", "0.1", "--which", "sbu",
        )
        assert code == 2
        assert "trace too short" in err

    def test_missing_file_is_a_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--trace-file", "/nonexistent/t.txt",
            "--pattern", "0,1", "--r", "2",
        )
        assert code == 1


class TestBounds:
    def test_reference_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--m", "1000", "--r", "20", "--l", "3",
            "--h", "10", "--p", "0.1", "--which", "slsbu",
        )
        assert code == 0
        header, row = data_lines(out)
        value = float(row.split(",")[-1])
        assert abs(100 * value - 0.45) <= 0.01

    def test_lov_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--m", "100", "--r", "5", "--p", "1.0",
            "--which", "lov",
        )
        assert code == 0
        value = float(data_lines(out)[1].split(",")[-1])
        assert value == pytest.approx(1.0)

    def test_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--which", "schedule", "--m", "10000",
            "--l", "2", "--n", "10000", "--beta", "0.5", "--theta", "0.25",
        )
        assert code == 0
        header, row = data_lines(out)
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["noise_level"]) == pytest.approx(0.1)
        assert record["noise_samples_ok"] == "True"

    def test_schedule_requires_its_flags(self, capsys):
        code, *_ = run_cli(capsys, "bounds", "--m", "100", "--which", "schedule")
        assert code == 2

    @pytest.mark.parametrize("which, flags, unread", [
        ("sbu", ["--n", "100"], "--n"),
        ("slsbu", ["--r", "20", "--theta", "0.1"], "--theta"),
        ("lov", ["--r", "5", "--p", "0.1", "--l", "9", "--h", "0"], "--l"),
        ("schedule", ["--n", "10000", "--beta", "0.5", "--theta", "0.25", "--r", "999"], "--r"),
    ])
    def test_a_flag_the_bound_does_not_read_is_refused(self, capsys, which, flags, unread):
        code, out, err = run_cli(capsys, "bounds", "--which", which, "--m", "10000", *flags)
        assert code == 2
        assert out == ""
        assert f"does not read {unread}" in err

    def test_a_row_holds_only_the_flags_its_bound_reads(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--which", "lov", "--m", "100", "--r", "5")
        assert out.splitlines()[0] == "# bounds which=lov m=100 r=5 p=0.0"
        assert data_lines(out)[0] == "which,m,r,p,value"
        _, out, _ = run_cli(capsys, "bounds", "--which", "schedule", "--m", "100",
                            "--n", "100", "--beta", "0.5", "--theta", "0.1")
        assert out.splitlines()[0] == "# bounds which=schedule m=100 n=100 l=2 beta=0.5 theta=0.1"


class TestObfuscateAndDetect:
    def test_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("0 1 2 0 1 2 0 1 2 0 1 2\n1 1 1 1 1 1 1 1 1 1 1 1\n")
        code, out, _ = run_cli(
            capsys, "obfuscate", "--method", "sl_sbu", "--p-obf", "0.5",
            "--l", "2", "--r", "4", "--seed", "3",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        rows = dst.read_text().strip().splitlines()
        assert len(rows) == 2
        assert all(0 <= int(s) < 4 for s in rows[0].split())

        code, out, _ = run_cli(
            capsys, "detect", "--trace-file", str(dst), "--pattern", "1", "--h", "1",
            "--r", "4",
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "trace,contains,first_index"
        assert len(lines) == 3

    def test_two_stage_flags(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text(" ".join("0" for _ in range(50)) + "\n")
        code, *_ = run_cli(
            capsys, "obfuscate", "--method", "two_stage", "--stage-a", "0.3",
            "--stage-b", "0.3", "--l", "2", "--r", "4", "--seed", "2",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        symbols = [int(s) for s in dst.read_text().split()]
        assert len(symbols) == 50
        assert any(s != 0 for s in symbols)

    def test_two_stage_config_line_shows_the_stage_noise(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("0 1 2 3\n")
        _, out, _ = run_cli(
            capsys, "obfuscate", "--method", "two_stage", "--stage-a", "0.3",
            "--stage-b", "0.3", "--r", "4",
            "--in", str(src), "--out", str(tmp_path / "out.txt"),
        )
        assert "stage_noise=0.3,0.3" in out.splitlines()[0].split()

    def test_two_stage_without_stage_flags_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text(" ".join("0" for _ in range(50)) + "\n")
        code, _, err = run_cli(
            capsys, "obfuscate", "--method", "two_stage", "--r", "4",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 2
        assert "two_stage" in err
        assert not dst.exists()

    @pytest.mark.parametrize("method, flags, values", [
        ("iid", [], "p_obf=0.1"),
        ("sbu", ["--l", "3"], "p_obf=0.1 order=3"),
        ("sl_sbu", ["--p-obf", "0.2"], "p_obf=0.2 order=2"),
        ("two_stage", ["--stage-b", "0.3"], "order=2 stage_noise=0.0,0.3"),
        ("lov", [], "p_obf=0.1"),
        ("plov", ["--gamma", "0.5"], "p_obf=0.1 gamma=0.5"),
        ("manp", ["--h", "3"], "p_obf=0.1 gap=3"),
    ])
    def test_config_line_holds_only_the_values_the_method_reads(self, tmp_path, capsys,
                                                                method, flags, values):
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("0 1 2 3\n")
        code, out, _ = run_cli(capsys, "obfuscate", "--method", method, *flags, "--r", "4",
                               "--seed", "0", "--in", str(src), "--out", str(dst))
        assert code == 0
        assert out.splitlines()[0] == (f"# obfuscate method={method} {values} r=4 seed=0 "
                                       f"infile={src} outfile={dst}")

    def test_alphabet_size_is_required(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("0 1 2 3\n")
        code, out, _ = run_cli(
            capsys, "obfuscate", "--method", "iid",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 2
        assert out == ""
        assert not dst.exists()

    def test_a_symbol_outside_the_alphabet_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("0 1 2 3\n0 4 1\n")
        code, out, err = run_cli(
            capsys, "obfuscate", "--method", "iid", "--r", "4",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 2
        assert "outside alphabet" in err
        assert out == ""
        assert not dst.exists()

    def test_detect_reports_first_occurrence(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 0 1 0 1\n")
        _, out, _ = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "0,1", "--r", "3",
        )
        row = data_lines(out)[1]
        assert row == "0,True,2"

    def test_detect_with_unbounded_gap(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("1 2 2 2 0\n")
        _, out, _ = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "1 0",
            "--h", "inf", "--r", "3",
        )
        assert data_lines(out)[1] == "0,True,"

    def test_detect_reports_a_trace_shorter_than_the_pattern(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 0 1 0 1\n1\n")
        code, out, _ = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "0,1", "--r", "3",
        )
        assert code == 0
        assert data_lines(out)[1:] == ["0,True,2", "1,False,"]

    def test_detect_config_line_shows_the_alphabet_size(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 1 0\n")
        code, out, _ = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "5", "--r", "6",
        )
        assert code == 0
        assert "r=6" in out.splitlines()[0].split()
        assert data_lines(out)[1:] == ["0,False,"]

    def test_detect_alphabet_size_is_required(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 1 0\n")
        code, out, err = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "0,1",
        )
        assert code == 2
        assert "--r" in err
        assert out == ""

    def test_detect_pattern_symbol_outside_the_alphabet(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 1 0\n")
        code, out, err = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "0,3", "--r", "3",
        )
        assert code == 2
        assert "below r=3" in err
        assert out == ""

    def test_detect_trace_symbol_outside_the_alphabet(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 1 0\n2 7 1\n")
        code, out, err = run_cli(
            capsys, "detect", "--trace-file", str(path), "--pattern", "0,1", "--r", "3",
        )
        assert code == 2
        assert "outside alphabet" in err
        assert out == ""


class TestSimulateAndIngest:
    def test_fraction_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "scenario = fraction\n"
            "methods = iid, sl_sbu\n"
            "iterations = 5\n"
            "seed = 11\n"
            "[parameters]\n"
            "m = 100\nr = 8\nl = 2\nh = 5\np_obf = 0.2\nn_users = 10\n"
        )
        out_csv = tmp_path / "res.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--spec", str(spec), "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,method,")
        assert len(lines) == 3

    def test_sweep_spec_with_grid(self, tmp_path, capsys):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "scenario = fraction\nmethods = iid\niterations = 3\nseed = 1\n"
            "[parameters]\n"
            "m = 60\nr = 6\nl = 2\nh = 3\np_obf = 0.1:0.1:0.3\nn_users = 6\n"
        )
        out_csv = tmp_path / "res.csv"
        code, *_ = run_cli(capsys, "simulate", "--spec", str(spec),
                           "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 4  # header + three grid points

    @pytest.mark.parametrize("section,expected", [
        ("[experiment]\nscenario = fraction\nmethods = plov\niterations = 1\n"
         "[parameters]\nm = 20\nr = 4\nl = 2\nh = 3\nn_users = 2\ngamma = 0.7\n",
         ["gamma=0.7"]),
        ("[experiment]\nscenario = crowd_count\niterations = 5\n"
         "[parameters]\nn_users = 50\n"
         "[crowd]\nmatch_probability = 0.05\nbeta = 0.5\n",
         ["match_probability=0.05", "beta=0.5"]),
    ], ids=["plov_gamma", "crowd_count"])
    def test_config_line_shows_the_spec_that_runs(self, tmp_path, capsys,
                                                  section, expected):
        spec = tmp_path / "exp.ini"
        spec.write_text(section)
        code, out, _ = run_cli(capsys, "simulate", "--spec", str(spec),
                               "--out", str(tmp_path / "res.csv"))
        assert code == 0
        first = out.splitlines()[0].split()
        assert all(token in first for token in expected)

    def test_a_race_spec_writes_its_one_record(self, tmp_path, capsys):
        spec = tmp_path / "exp.ini"
        spec.write_text("[experiment]\nscenario = first_occurrence\niterations = 40\n"
                        "seed = 5\n[parameters]\nr = 3\nl = 2\n")
        out_csv = tmp_path / "res.csv"
        code, _, _ = run_cli(capsys, "simulate", "--spec", str(spec), "--out", str(out_csv))
        assert code == 0
        write_csv(run_first_occurrence_race(3, 2, 40, 5).records, tmp_path / "race.csv")
        assert out_csv.read_text() == (tmp_path / "race.csv").read_text()

    def test_two_stage_in_a_spec_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "scenario = fraction\nmethods = iid, two_stage\niterations = 3\n"
            "[parameters]\n"
            "m = 60\nr = 6\nl = 2\nh = 3\np_obf = 0.3\nn_users = 6\n"
        )
        out_csv = tmp_path / "res.csv"
        code, _, err = run_cli(capsys, "simulate", "--spec", str(spec),
                               "--out", str(out_csv))
        assert code == 2
        assert "two_stage" in err
        assert not out_csv.exists()

    def test_manp_without_a_finite_gap_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "exp.ini"
        spec.write_text(
            "[experiment]\n"
            "scenario = fraction\nmethods = manp\niterations = 2\nworkers = 2\n"
            "[parameters]\n"
            "m = 60\nr = 6\nl = 2\nh = inf\np_obf = 0.3\nn_users = 6\n"
        )
        out_csv = tmp_path / "res.csv"
        code, out, err = run_cli(capsys, "simulate", "--spec", str(spec),
                                 "--out", str(out_csv))
        assert code == 2
        assert "manp needs a finite gap" in err
        assert out == ""
        assert not out_csv.exists()

    def test_ingest_end_to_end(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        rows = ["user_id,timestamp,category"]
        for i in range(40):
            rows.append(f"u1,{i * 700},cat{i % 3}")
            rows.append(f"u2,{i * 700},cat{(i + 1) % 3}")
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "traces.txt"
        code, _, _ = run_cli(
            capsys, "ingest", "--in", str(raw), "--min-interval", "600",
            "--r", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(0 <= int(s) < 3 for s in lines[0].split())

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nscenario = fraction\nworkers = 2\n"
         "[parameters]\nm = 60\nr = 6\nl = 2\nh = 0\nn_users = 6\n",
         "gap must be >= 1"),
        ("[experiment]\nscenario = bounds_table\n"
         "[parameters]\nm = 60\nr = 6\nl = 2\nh = inf\n",
         "finite gap"),
        ("[experiment]\nscenario = crowd_count\n"
         "[parameters]\nn_users = 50\n[crowd]\nbeta = 0.5\n",
         "match_probability"),
        ("[experiment]\nscenario = crowd_count\n"
         "[parameters]\nn_users = 50\n[crowd]\nmatch_probability = 1.5\nbeta = 0.5\n",
         "match_probability"),
        ("[experiment]\nscenario = first_occurrence\niterations = 1\n"
         "[parameters]\nr = 3\nl = 2\n",
         "iterations >= 2"),
    ], ids=["zero_gap", "bounds_without_gap", "crowd_without_probability",
            "crowd_probability_above_one", "race_of_one_iteration"])
    def test_bad_spec_is_refused_before_the_config_line(self, tmp_path, capsys,
                                                        text, message):
        spec = tmp_path / "exp.ini"
        spec.write_text(text)
        out_csv = tmp_path / "res.csv"
        code, out, err = run_cli(capsys, "simulate", "--spec", str(spec),
                                 "--out", str(out_csv))
        assert code == 2
        assert message in err
        assert out == ""
        assert not out_csv.exists()


_FRACTION = ("[experiment]\nscenario = fraction\niterations = 2\n"
             "[parameters]\nm = 30\nr = 6\nl = 2\nh = 3\nn_users = 4\n")


def _simulate(spec, *flags, **files):
    return ({"exp.ini": spec, **files},
            ["simulate", "--spec", "{dir}/exp.ini", "--out", "{dir}/out.csv", *flags])


def _obfuscate(method, *flags):
    return ({"in.txt": "0 1 2 0 1 2\n"},
            ["obfuscate", "--method", method, *flags, "--r", "4",
             "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"])


# A method given a flag that it does not read: the last flag given.
_UNREAD = {
    "p_obf_on_two_stage": ("two_stage", ["--stage-a", "0.2", "--p-obf", "0.9"]),
    "gamma_off_plov": ("iid", ["--gamma", "0.5"]),
    "order_off_the_superstring_methods": ("plov", ["--l", "3"]),
    "a_zero_stage_level_off_two_stage": ("lov", ["--stage-a", "0"]),
    "window_off_manp": ("sl_sbu", ["--h", "3"]),
}


_REFUSED = {
    "race_over_the_size_cap": _simulate(
        "[experiment]\nscenario = first_occurrence\niterations = 3\n"
        "[parameters]\nr = 40\nl = 5\n"),
    "race_over_one_symbol": _simulate(
        "[experiment]\nscenario = first_occurrence\niterations = 3\n"
        "[parameters]\nr = 1\nl = 2\n"),
    "sl_sbu_over_the_size_cap": _simulate(
        _FRACTION.replace("r = 6", "r = 5000").replace("[p", "methods = sl_sbu\n[p")),
    "plov_without_tilt": _simulate(
        _FRACTION.replace("[p", "methods = plov\nworkers = 2\n[p") + "gamma = 0\n"),
    "empty_pattern": _simulate(_FRACTION.replace("l = 2", "l = 0")),
    "no_ingested_trace_long_enough": _simulate(
        _FRACTION + "[source]\ntrace_file = {dir}/traces.txt\n",
        **{"traces.txt": "0 1 2 3\n"}),
    "empty_trace_file": _simulate(_FRACTION + "[source]\ntrace_file =\n"),
    "trace_file_on_a_race": _simulate(
        "[experiment]\nscenario = first_occurrence\niterations = 3\n"
        "[parameters]\nr = 6\nl = 2\n[source]\ntrace_file = {dir}/traces.txt\n",
        **{"traces.txt": "0 1 2 3\n"}),
    "noise_grid_on_bounds_table": _simulate(
        "[experiment]\nscenario = bounds_table\n"
        "[parameters]\nm = 60\nr = 6\nl = 2\nh = 3\np_obf = 0.05,0.1,0.2\n"),
    "negative_seed_on_bounds_table": _simulate(
        "[experiment]\nscenario = bounds_table\nseed = -1\n"
        "[parameters]\nm = 60\nr = 6\nl = 2\nh = 3\np_obf = 0.1\n"),
    "noise_grid_start_above_stop": _simulate(_FRACTION + "p_obf = 0.5:0.1:0.2\n"),
    "no_workers": _simulate(_FRACTION, "--workers", "0"),
    "duplicate_methods": _simulate(_FRACTION.replace("[p", "methods = iid, iid\n[p")),
    "bounds_trace_too_short": ({}, ["bounds", "--which", "sbu", "--m", "5", "--h", "10"]),
    "schedule_beta_above_one": ({}, ["bounds", "--which", "schedule", "--m", "100",
                                     "--n", "100", "--beta", "1.5", "--theta", "0.1"]),
    "sl_sbu_obfuscate_over_the_size_cap": (
        {"in.txt": "0 1 2 0 1 2\n"},
        ["obfuscate", "--method", "sl_sbu", "--r", "5000",
         "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"]),
    "sbu_obfuscate_over_the_size_cap": (
        {"in.txt": "0 1 2 0 1 2\n"},
        ["obfuscate", "--method", "sbu", "--r", "5000",
         "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"]),
    "two_stage_obfuscate_over_the_size_cap": (
        {"in.txt": "0 1 2 0 1 2\n"},
        ["obfuscate", "--method", "two_stage", "--stage-b", "0.3", "--r", "5000",
         "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"]),
    "stage_noise_off_two_stage": (
        {"in.txt": "0 1 2 0 1 2\n"},
        ["obfuscate", "--method", "iid", "--p-obf", "0", "--stage-a", "0.9", "--stage-b", "0.9",
         "--r", "20", "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"]),
    "gap_off_manp": (
        {"in.txt": "0 1 2 0 1 2\n"},
        ["obfuscate", "--method", "iid", "--p-obf", "0.5", "--h", "5",
         "--r", "4", "--in", "{dir}/in.txt", "--out", "{dir}/out.txt"]),
    **{name: _obfuscate(method, *flags) for name, (method, flags) in _UNREAD.items()},
    "detect_without_traces": (
        {"empty.txt": ""},
        ["detect", "--trace-file", "{dir}/empty.txt", "--pattern", "1,2", "--r", "4"]),
    "crowd_count_without_users": _simulate(
        "[experiment]\nscenario = crowd_count\n"
        "[parameters]\nn_users = 0\n[crowd]\nmatch_probability = 0.1\nbeta = 0.5\n"),
    "ingest_without_an_interval": (
        {"raw.csv": "user_id,timestamp,category\nu1,0,a\nu1,700,b\nu2,0,c\n"},
        ["ingest", "--in", "{dir}/raw.csv", "--min-interval", "0", "--r", "3",
         "--out", "{dir}/out.txt"]),
    "ingest_without_an_interval_or_rows": (
        {"raw.csv": "user_id,timestamp,category\n"},
        ["ingest", "--in", "{dir}/raw.csv", "--min-interval", "0", "--r", "3",
         "--out", "{dir}/out.txt"]),
}


@pytest.mark.parametrize("files,argv", list(_REFUSED.values()), ids=list(_REFUSED))
def test_a_usage_error_prints_nothing_and_writes_no_file(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(dir=tmp_path))
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert err.startswith("seqobf: ")
    assert out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("method,flags", list(_UNREAD.values()), ids=list(_UNREAD))
def test_a_flag_the_method_does_not_read_is_named(tmp_path, capsys, method, flags):
    (tmp_path / "in.txt").write_text("0 1 2 3\n")
    code, _, err = run_cli(capsys, "obfuscate", "--method", method, *flags, "--r", "4",
                           "--in", str(tmp_path / "in.txt"), "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert f"the {method} method does not read {flags[-2]}" in err


@pytest.mark.parametrize("extra,named", [
    ("p = 0.5\n", ["[parameters] p"]),
    ("n_user = 3\n", ["[parameters] n_user"]),
    ("[output]\nformat = csv\n", ["[output]"]),
    ("[source]\nkind = synthetic_iid\n",
     ["[source] kind", "trace_file alone picks the source"]),
    ("p = 0.5\n[experiment2]\n", ["[parameters] p", "[experiment2]"]),
], ids=["p_for_p_obf", "n_user_for_n_users", "unknown_section", "source_kind", "two_at_once"])
def test_a_spec_key_that_nothing_reads_is_refused(tmp_path, capsys, extra, named):
    spec = tmp_path / "exp.ini"
    spec.write_text(_FRACTION + extra)
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "simulate", "--spec", str(spec), "--out", str(out_csv))
    assert code == 2
    for name in named:
        assert name in err
    assert out == ""
    assert not out_csv.exists()


def test_a_bad_interval_is_reported_even_with_no_rows(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("user_id,timestamp,category\n")
    code, out, err = run_cli(capsys, "ingest", "--in", str(raw), "--min-interval", "0",
                             "--r", "3", "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert "min_interval must be > 0" in err


def test_the_library_and_its_cli_import_without_scipy():
    # The library needs only numpy; scipy is a test dependency.
    src = Path(__file__).resolve().parent.parent / "src"
    check = ("import sys, seqobf, seqobf.cli; "
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
