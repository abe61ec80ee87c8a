"""End-to-end command runs through main(argv) on temporary files."""

import re
from pathlib import Path

import numpy as np
import pytest

import ctgt
from ctgt.cli import main

DATA_DIR = Path(__file__).parent / "data"


def _write_dataset(path, seed=7, n=30, m=6, effect=1.5, n_signal=2):
    """Generate a dataset and round-trip it through a CSV file exactly."""
    rng = np.random.default_rng(seed)
    data = ctgt.logistic_dataset(n, m, effect=effect, n_signal=n_signal,
                                 rng=rng)
    lines = [",".join(("y",) + data.feature_names)]
    for i in range(n):
        cells = [str(int(data.y[i]))]
        cells += [format(v, ".17g") for v in data.X[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


def _active_names(data):
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    return [data.feature_names[j] for j in np.nonzero(stats.active)[0]]


def test_test_command_reports_and_exits_cleanly(tmp_path, capsys):
    data = _write_dataset(tmp_path / "d.csv")
    code = main(["test", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", "f1,f2"])
    out = capsys.readouterr().out
    assert code in (0, 2)
    assert out.startswith("# configuration")
    assert "#   response_coding = '0' -> 0, '1' -> 1" in out
    assert "set = f1+f2" in out
    assert "decision = " in out
    assert "iterations_used = " in out
    assert "# note: decisions rest on a conservative bound" in out


def test_unknown_member_is_a_clean_error(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    code = main(["test", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", "f1,nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "nope" in err


def test_flag_validation_rejects_bad_values(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    base = ["test", "--data", str(tmp_path / "d.csv"),
            "--response", "y", "--set", "f1"]
    assert main(base + ["--alpha", "0.6"]) == 1
    assert "--alpha" in capsys.readouterr().err
    assert main(base + ["--alpha", "0"]) == 1
    capsys.readouterr()
    assert main(base + ["--max-iter", "0"]) == 1
    assert "--max-iter" in capsys.readouterr().err


def test_each_subcommand_accepts_only_the_flags_it_reads(tmp_path, capsys):
    data = ["--data", str(tmp_path / "d.csv"), "--response", "y"]
    one_set = data + ["--set", "f1"]
    analyze = data + ["--pathways", str(tmp_path / "p.tsv")]
    unread = [(["test"] + one_set, "--workers"),
              (["analyze"] + analyze, "--workers"),
              (["curves"] + one_set, "--workers"),
              (["curves"] + one_set, "--max-iter"),
              (["oracle"] + one_set, "--workers"),
              (["alpha0-check"] + data, "--workers"),
              (["alpha0-check"] + data, "--max-iter")]
    # the crossing search's step and the series' certified cdf error are
    # constants, settable by no subcommand
    unread += [(args, flag) for flag in ("--epsilon", "--trunc-tol")
               for args in (["test"] + one_set, ["analyze"] + analyze,
                            ["curves"] + one_set, ["oracle"] + one_set,
                            ["simulate"], ["alpha0-check"] + data)]
    # a usage error exits 1, as a data error does; 2 means unsure
    for args, flag in unread:
        assert main(args + [flag, "2"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ctgt")
    assert main(["simulate", "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err


def test_non_finite_data_is_a_clean_error(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv", m=5)
    rows = (tmp_path / "d.csv").read_text().splitlines()
    cells = rows[3].split(",")
    cells[2], cells[4] = "nan", "inf"      # f2 and f4
    rows[3] = ",".join(cells)
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    _write_pathways(tmp_path / "p.tsv")
    data = ["--data", str(tmp_path / "d.csv"), "--response", "y"]
    for args in (["test"] + data + ["--set", "f1,f2"],
                 ["analyze"] + data + ["--pathways", str(tmp_path / "p.tsv")]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: non-finite values (nan or inf) in "
                                "feature column(s): f2, f4\n")


@pytest.mark.parametrize("command", [["test"], ["oracle"],
                                     ["curves", "--samples", "5"]],
                         ids=["test", "oracle", "curves"])
def test_set_commands_report_dropped_inactive_members(tmp_path, capsys,
                                                      command):
    _write_dataset(tmp_path / "d.csv", n=40, m=4)
    rows = (tmp_path / "d.csv").read_text().splitlines()
    rows = [rows[0] + ",c"] + [row + ",1" for row in rows[1:]]   # constant
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    code = main([*command, "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", "f1,c"])
    assert code in (0, 2)
    lines = capsys.readouterr().out.splitlines()
    config = [line.startswith("#   ") for line in lines].index(False, 1)
    assert lines[0] == "# configuration"
    assert lines[config] == "# inactive members dropped: c"


def test_missing_response_column_is_exit_one(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    code = main(["test", "--data", str(tmp_path / "d.csv"),
                 "--response", "nope", "--set", "f1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "'nope' not found" in err


def test_budget_one_on_a_branching_instance_is_unsure(tmp_path, capsys):
    # this seed needs several branch-and-bound iterations to reject, so
    # a budget of one must come back undecided with exit code 2
    data = _write_dataset(tmp_path / "d.csv", seed=26, n=25, m=7,
                          effect=1.2, n_signal=3)
    first = _active_names(data)[0]
    code = main(["test", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", first, "--max-iter", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "decision = unsure" in out


def test_analyze_exits_two_when_a_set_is_unsure(tmp_path, capsys):
    data = _write_dataset(tmp_path / "d.csv", seed=26, n=25, m=7,
                          effect=1.2, n_signal=3)
    first = _active_names(data)[0]
    (tmp_path / "one.tsv").write_text(f"one\t\t{first}\n", encoding="utf-8")
    code = main(["analyze", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--pathways", str(tmp_path / "one.tsv"),
                 "--max-iter", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "#   unsure = 1" in out


def test_analyze_exits_one_when_a_set_errors(tmp_path, capsys, monkeypatch):
    _write_dataset(tmp_path / "d.csv")
    _write_pathways(tmp_path / "p.tsv")

    def stalls(*args, **kwargs):
        raise ctgt.SeriesStallError("stalled")

    monkeypatch.setattr(ctgt.bnb, "iterative_shortcut", stalls)
    code = main(["analyze", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--pathways", str(tmp_path / "p.tsv"),
                 "--out", str(tmp_path / "res.csv")])
    out = capsys.readouterr().out
    assert code == 1
    assert "#   errors = 3" in out          # every set but the skipped one
    assert "# good: stalled" in out
    assert (tmp_path / "res.csv").read_text().count(",error,") == 3


def _write_pathways(path):
    lines = [
        "good\tfirst three features\tf1\tf2\tf3",
        "pair\ttwo more\tf4\tf5",
        "ghost\tnames the data lacks\tf1\tzz1\tzz2",
        "void\tnothing resolvable\tzz3",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_analyze_is_deterministic_and_writes_csv(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    _write_pathways(tmp_path / "p.tsv")
    args = ["analyze", "--data", str(tmp_path / "d.csv"), "--response", "y",
            "--pathways", str(tmp_path / "p.tsv"),
            "--out", str(tmp_path / "res.csv")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "#   sets = 4" in first
    assert "#   skipped = 1" in first
    assert "# pathway ghost: 2 member(s) not in the data: zz1, zz2" in first

    lines = (tmp_path / "res.csv").read_text().splitlines()
    assert lines[0].startswith("set_name,size,resolved_size,")
    table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert table["ghost"][1] == "3"      # size counts listed names
    assert table["ghost"][2] == "1"      # but only f1 resolved
    assert table["void"][6] == "skipped"


def test_analyze_singletons_add_one_row_per_feature(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv", m=5)
    _write_pathways(tmp_path / "p.tsv")
    assert main(["analyze", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--pathways", str(tmp_path / "p.tsv"),
                 "--singletons"]) == 0
    out = capsys.readouterr().out
    assert "#   sets = 9" in out        # 4 pathways + 5 features


def test_curves_table_shape(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    out_file = tmp_path / "curves.tsv"
    assert main(["curves", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", "f1", "--samples", "40",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert lines[0] == "kind\tlevel\tg_min\tc_max\tstatistic\tcritical_value\tmembers"
    kinds = {row.split("\t")[0] for row in lines[1:]}
    assert kinds == {"grid", "exact"}
    assert all(len(row.split("\t")) == 7 for row in lines[1:])
    levels = [float(r.split("\t")[1]) for r in lines[1:]]
    assert levels == sorted(levels)


def test_oracle_agrees_on_a_small_instance(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    code = main(["oracle", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--set", "f1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement = yes" in out
    assert "oracle_tests = " in out
    assert "oracle_tests_by_bound = " in out


def test_simulate_is_reproducible_under_a_seed(capsys):
    args = ["simulate", "--n", "25", "--m", "5", "--n-pathways", "4",
            "--replicates", "5", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "fwer_estimate = " in first
    assert "avg_true_rejections = " in first
    assert "replicates_completed = 5" in first


@pytest.mark.parametrize("n_pathways", ["0", "-4"])
def test_simulate_refuses_fewer_than_one_pathway(capsys, n_pathways):
    code = main(["simulate", "--n-pathways", n_pathways, "--replicates", "3",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: n_pathways must be at least 1\n"
    assert "fwer_estimate" not in captured.out


def test_simulate_refuses_fewer_features_than_a_random_set(capsys):
    code = main(["simulate", "--m", "1", "--replicates", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: need at least 2 features\n"
    assert "fwer_estimate" not in captured.out


def test_simulate_refuses_a_nan_effect(capsys):
    code = main(["simulate", "--n", "25", "--m", "5", "--replicates", "3",
                 "--effect", "nan", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "effect must be a number, got nan" in err


def test_simulate_refuses_a_run_without_a_true_null_set(capsys):
    code = main(["simulate", "--n", "30", "--m", "4", "--n-signal", "4",
                 "--effect", "1", "--n-pathways", "3", "--replicates", "3",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "no replicate drew a true-null set" in captured.err
    assert "fwer_estimate" not in captured.out


def test_alpha0_check_reports_a_verdict(tmp_path, capsys):
    _write_dataset(tmp_path / "d.csv")
    code = main(["alpha0-check", "--data", str(tmp_path / "d.csv"),
                 "--response", "y", "--samples", "6", "--base-sets", "2",
                 "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "supersets_audited = 6" in out
    assert "min_alpha0 = " in out
    assert "verdict = " in out


# columns compared to a relative 1e-9: the last printed digit can follow
# rounding in the spectrum (see README, critical_value_root)
_GOLDEN_NUMERIC = ("level", "statistic", "critical_value_root")


def test_analyze_report_matches_the_committed_golden_report(
        capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    code = main(["analyze", "--data", "toy100x5.csv", "--response", "y",
                 "--pathways", "toy100x5_pathways.tsv", "--singletons"])
    assert code == 0
    got = capsys.readouterr().out.splitlines()
    want = (DATA_DIR / "toy100x5_analyze.txt").read_text().splitlines()
    assert len(got) == len(want)
    header = None
    for got_line, want_line in zip(got, want):
        if want_line.startswith("#"):
            assert got_line == want_line
            continue
        if header is None:
            header = want_line.split("\t")
            assert got_line == want_line
            continue
        got_cells = dict(zip(header, got_line.split("\t"), strict=True))
        want_cells = dict(zip(header, want_line.split("\t"), strict=True))
        for column, cell in want_cells.items():
            if column in _GOLDEN_NUMERIC:
                assert float(got_cells[column]) == pytest.approx(
                    float(cell), rel=1e-9), (want_cells["set_name"], column)
            else:
                assert got_cells[column] == cell, (want_cells["set_name"],
                                                   column)


_TOY = ["--data", "toy100x5.csv", "--response", "y"]


@pytest.mark.parametrize("golden, argv", [
    ("toy100x5_test.txt", ["test", *_TOY, "--set", "f1,f2"]),
    ("toy100x5_curves.txt",
     ["curves", *_TOY, "--set", "f1", "--samples", "7"]),
    ("toy100x5_oracle.txt", ["oracle", *_TOY, "--set", "f1,f2"]),
    ("toy100x5_alpha0_check.txt",
     ["alpha0-check", *_TOY, "--samples", "8", "--seed", "1"]),
    ("simulate_replicates20_seed3.txt",
     ["simulate", "--replicates", "20", "--seed", "3"]),
])
def test_subcommand_output_matches_its_committed_golden_output(
        golden, argv, capsys, monkeypatch):
    # numbers are compared to a relative 1e-9, as in the analyze golden
    # report; oracle's *_seconds lines vary run to run and are not kept
    monkeypatch.chdir(DATA_DIR)
    assert main(argv) == 0
    got = [line for line in capsys.readouterr().out.splitlines()
           if "_seconds = " not in line]
    want = (DATA_DIR / golden).read_text().splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_cells = re.split(r"\t| = ", got_line)
        want_cells = re.split(r"\t| = ", want_line)
        assert len(got_cells) == len(want_cells), want_line
        for got_cell, want_cell in zip(got_cells, want_cells):
            if got_cell != want_cell:
                assert float(got_cell) == pytest.approx(
                    float(want_cell), rel=1e-9), want_line


@pytest.mark.parametrize("cap, message", [
    ("3", "error: complement size 4 exceeds the enumeration cap 3\n"),
    ("-1", "error: the enumeration cap must be at least 0, got -1\n")])
def test_oracle_refuses_a_cap_it_cannot_meet(cap, message, capsys,
                                             monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    code = main(["oracle", *_TOY, "--set", "f1", "--oracle-cap", cap])
    assert code == 1
    assert capsys.readouterr().err == message
