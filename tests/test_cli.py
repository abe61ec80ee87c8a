"""End-to-end command runs through main(argv) on temporary files."""

import numpy as np
import pytest

import ctgt
from ctgt.cli import main


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
    assert "# response coding: '0' -> 0, '1' -> 1" in out
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
    assert main(base + ["--epsilon", "0"]) == 1
    assert "--epsilon" in capsys.readouterr().err
    assert main(base + ["--max-iter", "0"]) == 1
    assert "--max-iter" in capsys.readouterr().err
    # refused up front, not run with every set reported as an error row
    _write_pathways(tmp_path / "p.tsv")
    analyze = ["analyze", "--data", str(tmp_path / "d.csv"), "--response",
               "y", "--pathways", str(tmp_path / "p.tsv")]
    for bad in ("0", "1", "-0.5"):
        for args in (base, analyze):
            assert main(args + ["--trunc-tol", bad]) == 1
            captured = capsys.readouterr()
            assert "--trunc-tol" in captured.err and captured.out == ""


def test_each_subcommand_accepts_only_the_flags_it_reads(tmp_path, capsys):
    data = ["--data", str(tmp_path / "d.csv"), "--response", "y"]
    one_set = data + ["--set", "f1"]
    unread = [(["test"] + one_set, "--workers"),
              (["curves"] + one_set, "--workers"),
              (["curves"] + one_set, "--epsilon"),
              (["curves"] + one_set, "--max-iter"),
              (["oracle"] + one_set, "--workers"),
              (["simulate"], "--trunc-tol"),
              (["alpha0-check"] + data, "--workers"),
              (["alpha0-check"] + data, "--epsilon"),
              (["alpha0-check"] + data, "--max-iter")]
    for args, flag in unread:
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["simulate", "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err
    assert main(["analyze"] + data + ["--pathways", str(tmp_path / "p.tsv"),
                                      "--workers", "-3"]) == 1
    assert "--workers" in capsys.readouterr().err


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
