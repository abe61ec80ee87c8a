"""File formats: delimited data tables, pathway collections, result tables.

Data tables are comma- or tab-delimited text with a header row and
samples as rows (delimiter autodetected from the header).  One column is
the response; any named confounder columns are taken as covariates; all
remaining columns are features.  Missing values are not supported; an
empty cell is a fatal parse error.  Every refused input raises ValueError;
a fault on one line of a file names it with a ``path:line:`` prefix.

Pathway collections use the tab-separated line format
``name<TAB>description<TAB>member1<TAB>member2...``.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .linmodel import Dataset

NORMALIZATIONS = ("none", "log2", "glog")
GLOG_OFFSET = 1.0

RESULT_COLUMNS = ("set_name", "size", "resolved_size", "level", "statistic",
                  "critical_value_root", "decision", "iterations_used",
                  "witness_or_empty")


@dataclass(frozen=True)
class RawTable:
    """Parsed delimited text: header names plus string-valued cells."""
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    delimiter: str

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple[str, ...]:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise ValueError(
                f"column {name!r} not found (have: {', '.join(self.columns)})"
            ) from None
        return tuple(row[j] for row in self.rows)


def read_table(path) -> RawTable:
    """Read a delimited table; the delimiter (tab or comma) is taken from
    the header line.  Enforces rectangular shape, unique non-empty column
    names, and no empty cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty file")
        delim = "\t" if "\t" in header_line else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delim)
        header = [c.strip() for c in next(reader)]
        if any(not c for c in header):
            raise ValueError(f"{path}: blank column name in header")
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in header")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            cells = tuple(c.strip() for c in row)
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} "
                                 f"cells, found {len(cells)}")
            for name, cell in zip(header, cells):
                if cell == "":
                    raise ValueError(
                        f"{path}:{line_no}: empty cell in column {name!r} "
                        "(missing values are not supported)")
            rows.append(cells)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return RawTable(columns=tuple(header), rows=tuple(rows), delimiter=delim)


def _parse_float_column(table: RawTable, name: str) -> np.ndarray:
    vals = np.empty(table.n_rows)
    for i, cell in enumerate(table.column(name)):
        try:
            vals[i] = float(cell)
        except ValueError:
            raise ValueError(
                f"column {name!r}, row {i + 1}: non-numeric value {cell!r}"
            ) from None
    return vals


def _encode_response(cells) -> tuple[np.ndarray, tuple[str, str]]:
    """0/1 response from a numeric {0,1} column or a two-label column.

    Numeric columns keep their coding; label columns map the first label
    seen to 0 and the second to 1.  Returns the (label_for_0,
    label_for_1) pair so callers can echo the mapping.
    """
    distinct = list(dict.fromkeys(cells))
    if len(distinct) != 2:
        raise ValueError(
            f"response must take exactly two distinct values, found "
            f"{len(distinct)}: {distinct[:5]}")
    try:
        as_float = {v: float(v) for v in distinct}
    except ValueError:
        as_float = None
    if as_float is not None:
        if set(as_float.values()) != {0.0, 1.0}:
            raise ValueError(
                "numeric response must be coded 0/1, found "
                f"{sorted(as_float.values())}")
        label0 = next(v for v in distinct if as_float[v] == 0.0)
        label1 = next(v for v in distinct if as_float[v] == 1.0)
    else:
        label0, label1 = distinct[0], distinct[1]
    y = np.array([0.0 if c == label0 else 1.0 for c in cells])
    return y, (label0, label1)


def glog(x):
    """Generalized log2: log2((x + sqrt(x^2 + 1)) / 2); defined on all reals."""
    x = np.asarray(x, dtype=float)
    return np.log2((x + np.sqrt(x * x + GLOG_OFFSET ** 2)) / 2.0)


def _normalize(X: np.ndarray, names, how: str) -> np.ndarray:
    if how == "none":
        return X
    if how == "log2":
        bad = [names[j] for j in range(X.shape[1]) if np.any(X[:, j] <= 0)]
        if bad:
            raise ValueError(
                "log2 normalization requires strictly positive values; "
                f"offending columns: {', '.join(bad[:5])}")
        return np.log2(X)
    if how == "glog":
        return glog(X)
    raise ValueError(f"unknown normalization {how!r} "
                     f"(choose from {', '.join(NORMALIZATIONS)})")


def load_dataset(table: RawTable, response: str, confounders=(),
                 normalization: str = "none") -> Dataset:
    """Assemble a Dataset from a parsed table.

    The named response column is encoded 0/1 (mapping recorded on the
    Dataset), the named confounder columns join an intercept, and every
    other column becomes a feature, normalized as requested.  Sample ids
    are generated by row order (the format has no id column).
    """
    confounders = list(confounders)
    for name in [response, *confounders]:
        if name not in table.columns:
            raise ValueError(f"column {name!r} not found "
                             f"(have: {', '.join(table.columns)})")
    if response in confounders:
        raise ValueError("response column cannot also be a confounder")
    y, labels = _encode_response(table.column(response))
    taken = {response, *confounders}
    feature_names = [c for c in table.columns if c not in taken]
    if not feature_names:
        raise ValueError("no feature columns left after response and "
                         "confounders are removed")
    X = np.column_stack([_parse_float_column(table, c) for c in feature_names])
    X = _normalize(X, feature_names, normalization)
    n = table.n_rows
    Z = np.column_stack(
        [np.ones(n)] + [_parse_float_column(table, c) for c in confounders])
    sample_ids = tuple(f"s{i + 1}" for i in range(n))
    return Dataset(y=y, Z=Z, X=X, feature_names=tuple(feature_names),
                   sample_ids=sample_ids, response_labels=labels)


@dataclass(frozen=True)
class Pathway:
    name: str
    description: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class PathwayCollection:
    pathways: tuple[Pathway, ...]

    def __post_init__(self):
        counts = Counter(p.name for p in self.pathways)
        dupes = {n for n, c in counts.items() if c > 1}
        if dupes:
            raise ValueError(
                f"duplicate pathway names: {', '.join(sorted(dupes)[:5])}")

    def __len__(self) -> int:
        return len(self.pathways)

    def __iter__(self):
        return iter(self.pathways)


def load_pathways(path) -> PathwayCollection:
    """Parse a pathway file; every non-blank line needs at least a name
    and a description field.  Duplicate names are fatal; zero-member
    pathways are kept (they resolve to skipped rows downstream)."""
    pathways = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_no}: expected "
                                 "name<TAB>description<TAB>members...")
            name = parts[0].strip()
            if not name:
                raise ValueError(f"{path}:{line_no}: empty pathway name")
            members = tuple(m.strip() for m in parts[2:] if m.strip())
            pathways.append(Pathway(name=name, description=parts[1].strip(),
                                    members=members))
    return PathwayCollection(pathways=tuple(pathways))


def write_pathways(collection: PathwayCollection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in collection:
            fh.write("\t".join((p.name, p.description) + p.members) + "\n")


@dataclass(frozen=True)
class ResolvedPathway:
    name: str
    n_listed: int
    indices: tuple[int, ...]        # dataset feature indices, ascending
    missing: tuple[str, ...]        # member names absent from the dataset


def resolve_pathways(collection: PathwayCollection,
                     feature_names) -> list[ResolvedPathway]:
    """Match pathway members to dataset features, case-sensitively."""
    lookup = {name: j for j, name in enumerate(feature_names)}
    out = []
    for p in collection:
        found = sorted({lookup[m] for m in p.members if m in lookup})
        missing = tuple(m for m in p.members if m not in lookup)
        out.append(ResolvedPathway(name=p.name, n_listed=len(p.members),
                                   indices=tuple(found), missing=missing))
    return out


def fmt_value(value) -> str:
    """Canonical cell rendering: floats at 10 significant digits."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".10g")
    return str(value)


def format_result_rows(rows) -> list[dict]:
    """Each row's RESULT_COLUMNS cells as fmt_value renders them, ready
    for writing."""
    return [{c: fmt_value(row[c]) for c in RESULT_COLUMNS} for row in rows]


def write_results(rows, path) -> None:
    """Write the results table, comma-separated, in its fixed column order."""
    formatted = format_result_rows(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in formatted:
            writer.writerow([row[c] for c in RESULT_COLUMNS])


def comment_lines(title: str, pairs: dict) -> list[str]:
    """'# title', then one '#   key = value' line per pair."""
    return [f"# {title}"] + [f"#   {k} = {v}" for k, v in pairs.items()]


def render_report(config: dict, rows, summary: dict) -> str:
    """Structured-text report: config block, result table, summary block.

    Deterministic for identical inputs: no timestamps, no environment
    state; key order follows the dicts handed in.
    """
    lines = comment_lines("configuration", config)
    if rows:
        lines.append("\t".join(RESULT_COLUMNS))
        for row in format_result_rows(rows):
            lines.append("\t".join(row[c] for c in RESULT_COLUMNS))
    lines += comment_lines("summary", summary)
    return "\n".join(lines) + "\n"
