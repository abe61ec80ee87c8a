"""Table parsing, response coding, normalization, pathway files, reports."""

import numpy as np
import pytest

from ctgt import (Pathway, PathwayCollection, glog, load_dataset,
                  load_pathways, read_table, render_report, resolve_pathways,
                  write_pathways, write_results)
from ctgt.io import fmt_value, format_result_rows, RESULT_COLUMNS


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_delimiter_comes_from_the_header(tmp_path):
    csv_table = read_table(_write(tmp_path / "a.csv",
                                  "y,f1,f2\n0,1.5,2\n1,2.5,3\n"))
    tsv_table = read_table(_write(tmp_path / "a.tsv",
                                  "y\tf1\tf2\n0\t1.5\t2\n1\t2.5\t3\n"))
    assert csv_table.delimiter == ","
    assert tsv_table.delimiter == "\t"
    assert csv_table.columns == tsv_table.columns == ("y", "f1", "f2")
    assert csv_table.rows == tsv_table.rows
    assert csv_table.n_rows == 2
    assert csv_table.column("f1") == ("1.5", "2.5")


def test_blank_lines_are_skipped(tmp_path):
    t = read_table(_write(tmp_path / "b.csv", "y,f1\n0,1\n\n1,2\n\n"))
    assert t.n_rows == 2


def test_header_validation(tmp_path):
    with pytest.raises(ValueError, match="duplicate column names in header"):
        read_table(_write(tmp_path / "dup.csv", "y,f1,f1\n0,1,2\n"))
    with pytest.raises(ValueError, match="blank column name in header"):
        read_table(_write(tmp_path / "blank.csv", "y,,f2\n0,1,2\n"))
    with pytest.raises(ValueError, match="empty file"):
        read_table(_write(tmp_path / "empty.csv", ""))
    with pytest.raises(ValueError, match="no data rows"):
        read_table(_write(tmp_path / "norows.csv", "y,f1\n"))


def test_malformed_rows_report_their_line_number(tmp_path):
    with pytest.raises(ValueError, match="expected 3 cells, found 2") as exc:
        read_table(_write(tmp_path / "rag.csv", "y,f1,f2\n0,1,2\n1,3\n"))
    assert "rag.csv:3: " in str(exc.value)
    with pytest.raises(ValueError, match="empty cell in column 'f1'") as exc:
        read_table(_write(tmp_path / "hole.csv", "y,f1,f2\n0,1,2\n1,,4\n"))
    assert "hole.csv:3: " in str(exc.value)


def test_numeric_response_keeps_its_coding(tmp_path):
    t = read_table(_write(tmp_path / "n.csv", "y,f1\n1,0.1\n0,0.2\n1,0.3\n"))
    ds = load_dataset(t, "y")
    assert np.array_equal(ds.y, [1.0, 0.0, 1.0])
    assert ds.response_labels == ("0", "1")


def test_label_response_maps_by_first_occurrence(tmp_path):
    t = read_table(_write(tmp_path / "l.csv",
                          "grp,f1\ncase,0.1\ncontrol,0.2\ncase,0.3\n"))
    ds = load_dataset(t, "grp")
    assert ds.response_labels == ("case", "control")
    assert np.array_equal(ds.y, [0.0, 1.0, 0.0])


def test_bad_responses_rejected(tmp_path):
    three = read_table(_write(tmp_path / "t.csv",
                              "y,f1\na,1\nb,2\nc,3\n"))
    with pytest.raises(ValueError, match="response must take exactly two "
                                         "distinct values, found 3"):
        load_dataset(three, "y")
    coded = read_table(_write(tmp_path / "c.csv", "y,f1\n1,1\n2,2\n"))
    with pytest.raises(ValueError, match="numeric response must be coded 0/1"):
        load_dataset(coded, "y")


def test_dataset_assembly_with_confounders(tmp_path):
    t = read_table(_write(tmp_path / "d.csv",
                          "y,age,f1,f2\n0,30,1,4\n1,40,2,5\n0,50,3,6\n"))
    ds = load_dataset(t, "y", confounders=("age",))
    assert ds.feature_names == ("f1", "f2")
    assert ds.Z.shape == (3, 2)
    assert np.array_equal(ds.Z[:, 0], np.ones(3))      # intercept first
    assert np.array_equal(ds.Z[:, 1], [30.0, 40.0, 50.0])
    assert ds.sample_ids == ("s1", "s2", "s3")
    with pytest.raises(ValueError, match="column 'nope' not found") as exc:
        load_dataset(t, "nope")
    assert "age" in str(exc.value)                     # lists what exists
    with pytest.raises(ValueError, match="response column cannot also be a "
                                         "confounder"):
        load_dataset(t, "y", confounders=("y",))


def test_log2_normalization(tmp_path):
    t = read_table(_write(tmp_path / "p.csv", "y,f1\n0,8\n1,2\n"))
    ds = load_dataset(t, "y", normalization="log2")
    assert ds.X[:, 0] == pytest.approx([3.0, 1.0])
    bad = read_table(_write(tmp_path / "z.csv", "y,f1,f2\n0,0,1\n1,2,3\n"))
    with pytest.raises(ValueError, match="log2 normalization requires "
                                         "strictly positive values") as exc:
        load_dataset(bad, "y", normalization="log2")
    assert "f1" in str(exc.value) and "f2" not in str(exc.value)
    with pytest.raises(ValueError):
        load_dataset(t, "y", normalization="weird")


def test_glog_values():
    assert glog(0.0) == pytest.approx(-1.0, abs=1e-15)
    # approaches plain log2 for large arguments
    assert glog(1024.0) == pytest.approx(10.0, abs=1e-6)
    # defined for negatives, decreasing there
    assert glog(-5.0) < glog(0.0)


def test_glog_normalization_accepts_zeros(tmp_path):
    t = read_table(_write(tmp_path / "g.csv", "y,f1\n0,0\n1,3\n"))
    ds = load_dataset(t, "y", normalization="glog")
    assert ds.X[0, 0] == pytest.approx(-1.0)
    assert ds.X[1, 0] == pytest.approx(float(glog(3.0)))


def test_pathway_round_trip(tmp_path):
    coll = PathwayCollection(pathways=(
        Pathway(name="alpha", description="first set", members=("f1", "f2")),
        Pathway(name="beta", description="", members=()),
        Pathway(name="gamma", description="one member", members=("f3",)),
    ))
    path = tmp_path / "sets.tsv"
    write_pathways(coll, path)
    back = load_pathways(path)
    assert tuple(back) == tuple(coll)


def test_pathway_parse_errors(tmp_path):
    short = _write(tmp_path / "s.tsv", "alpha\tdesc\tf1\nbeta\n")
    with pytest.raises(ValueError, match="expected name<TAB>description") as exc:
        load_pathways(short)
    assert "s.tsv:2: " in str(exc.value)
    noname = _write(tmp_path / "n.tsv", "\tdesc\tf1\n")
    with pytest.raises(ValueError, match="empty pathway name") as exc:
        load_pathways(noname)
    assert "n.tsv:1: " in str(exc.value)
    dupes = _write(tmp_path / "d.tsv", "alpha\tx\tf1\nalpha\ty\tf2\n")
    with pytest.raises(ValueError, match="duplicate pathway names: alpha"):
        load_pathways(dupes)


def test_pathways_skip_blank_lines_and_keep_empty_sets(tmp_path):
    path = _write(tmp_path / "p.tsv", "alpha\tdesc\tf1\tf2\n\nbeta\tempty\n")
    coll = load_pathways(path)
    assert len(coll) == 2
    assert coll.pathways[1].members == ()


def test_resolve_is_case_sensitive_and_dedupes():
    coll = PathwayCollection(pathways=(
        Pathway(name="a", description="", members=("f2", "F1", "f2", "f9")),
    ))
    (rp,) = resolve_pathways(coll, ("f1", "f2", "f3"))
    assert rp.n_listed == 4
    assert rp.indices == (1,)                  # f2 once, F1 does not match
    assert rp.missing == ("F1", "f9")


def test_fmt_value_renders_ten_significant_digits():
    assert fmt_value(0.12345678901234) == "0.123456789"
    assert fmt_value(float("nan")) == "nan"
    assert fmt_value(3) == "3"
    assert fmt_value("reject") == "reject"
    assert fmt_value(1234567890123.0) == "1.23456789e+12"


def _rows():
    return [{
        "set_name": "alpha", "size": 3, "resolved_size": 2,
        "level": 1.23456789012345, "statistic": 4.5, "critical_value_root": 6.7,
        "decision": "reject", "iterations_used": 1, "witness_or_empty": "",
    }]


def test_write_results_fixed_column_order(tmp_path):
    out = tmp_path / "res.csv"
    write_results(_rows(), out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert lines[1].startswith("alpha,3,2,1.23456789,4.5,6.7,reject,1,")
    formatted = format_result_rows(_rows())
    assert formatted[0]["level"] == "1.23456789"


def test_render_report_is_deterministic():
    config = {"alpha": 0.05, "data": "x.csv"}
    summary = {"n_sets": 1, "n_rejected": 1}
    a = render_report(config, _rows(), summary)
    b = render_report(config, _rows(), summary)
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "# configuration"
    assert "#   alpha = 0.05" in lines
    assert "\t".join(RESULT_COLUMNS) in lines
    assert "# summary" in lines
    assert a.endswith("\n")
