"""The measured process: set-up, then timed rounds of one workload.

Started by run.py, once per set-up sample and once for the timed run, so
that every figure comes from a fresh interpreter:

    python3 perfbench/worker.py --workload W --dir RUN_DIR --mode MODE
        --seconds S --t0 T --out RESULT.json

MODE is `setup` (exit once set-up is done), `run` (timed rounds) or
`trace` (timed rounds with the tracer installed).  T is the parent's
time.monotonic() just before it started this process, so setup_s covers
interpreter start-up and `import ctgt` too.  ctgt is imported from the
checkout's own src/ directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A fixed numpy kernel run between operations about once a second.  Its
# timings tell a slow phase of the host from a slow program; they are
# reported beside the metrics, never folded into them.
REF_EVERY_S = 1.0


def reference_kernel(matrix) -> float:
    t = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvalsh(matrix)
    return time.perf_counter() - t


def import_ctgt():
    sys.path.insert(0, str(ROOT / "src"))
    import ctgt
    if Path(ctgt.__file__).resolve().parent != ROOT / "src" / "ctgt":
        raise SystemExit(f"ctgt imported from {ctgt.__file__}, not from "
                         f"{ROOT / 'src'}")
    return ctgt


class NullSim:
    """One fwer_simulation call per batch of replicates."""

    def __init__(self, ctgt, run_dir: Path, manifest: dict):
        self.ctgt = ctgt
        self.spec = WORKLOADS["null_sim"]
        self.ops = manifest["op_seeds"]
        self.alpha = manifest["alpha"]

    def new_round(self, index: int) -> None:
        pass

    def run(self, op_seed):
        s = self.spec
        summary = self.ctgt.fwer_simulation(
            n=s.n, m=s.m, n_pathways=s.n_pathways, replicates=s.batch,
            effect=0.0, alpha=self.alpha, seed=op_seed, workers=1)
        record = {"seed": op_seed, "replicates": summary.replicates,
                  "n_failed": summary.n_failed,
                  "any_false": summary.n_any_false_rejection,
                  "null_rejections": summary.total_null_rejections,
                  "null_sets": summary.total_null_sets}
        error = (f"{summary.n_failed} replicate(s) failed"
                 if summary.n_failed else None)
        return summary.total_null_sets, record, error


class _Cohorts:
    """Set-up shared by screen and verify: every study file is read
    through ctgt.io and fitted, and each gets a SpectrumProvider.  A round
    starts every cohort from a fresh provider, as a new `ctgt analyze` or
    `ctgt oracle` process would."""

    def __init__(self, ctgt, run_dir: Path, manifest: dict):
        self.ctgt = ctgt
        self.alpha = manifest["alpha"]
        self.cohorts = []
        for name in manifest["studies"]:
            table = ctgt.io.read_table(run_dir / name)
            data = ctgt.io.load_dataset(table, "status")
            null = ctgt.fit_null(data)
            stats = ctgt.feature_stats(data, null)
            self.cohorts.append([data, null, stats,
                                 ctgt.SpectrumProvider(data, null)])

    def new_round(self, index: int) -> None:
        if index > 0:
            for cohort in self.cohorts:
                cohort[3] = self.ctgt.SpectrumProvider(cohort[0], cohort[1])


class Screen(_Cohorts):
    """One analyze_collection call per (cohort, set); cohort c screens
    every other set of the collection, starting at set c % 2."""

    def __init__(self, ctgt, run_dir: Path, manifest: dict):
        super().__init__(ctgt, run_dir, manifest)
        collection = ctgt.io.load_pathways(run_dir / "pathways.tsv")
        resolved = ctgt.io.resolve_pathways(
            collection, self.cohorts[0][0].feature_names)
        self.ops = [(c, (rp.name, rp.indices))
                    for c in range(len(self.cohorts))
                    for rp in resolved[c % 2::2]]
        self.budget = manifest["budget"]

    def run(self, op):
        c, job = op
        data, _, stats, provider = self.cohorts[c]
        row = self.ctgt.analyze_collection(
            stats, provider, [job], self.alpha,
            max_iterations=self.budget, workers=1)[0]
        names = data.feature_names
        record = {"cohort": c, "set": row.name, "decision": row.decision,
                  "iterations": row.iterations_used,
                  "witness": (None if row.witness is None
                              else [names[i] for i in row.witness])}
        error = row.note if row.decision in ("error", "skipped") else None
        return 1, record, error


class Verify(_Cohorts):
    """One full_closed_test call per (cohort, query)."""

    def __init__(self, ctgt, run_dir: Path, manifest: dict):
        super().__init__(ctgt, run_dir, manifest)
        names = self.cohorts[0][0].feature_names
        lookup = {name: j for j, name in enumerate(names)}
        queries = [tuple(lookup[name] for name in q)
                   for q in manifest["queries"]]
        self.ops = [(c, q) for c in range(len(self.cohorts)) for q in queries]

    def run(self, op):
        c, query = op
        data, _, stats, provider = self.cohorts[c]
        universe = tuple(int(i) for i, a in enumerate(stats.active) if a)
        res = self.ctgt.full_closed_test(stats, provider, query, universe,
                                         self.alpha, cap=20)
        names = data.feature_names
        record = {"cohort": c, "decision": res.decision,
                  "n_tests": res.n_tests,
                  "first_failure": (None if res.first_failure is None else
                                    [names[i] for i in res.first_failure])}
        return res.n_tests, record, None


WORKLOAD_CLASSES = {"screen": Screen, "null_sim": NullSim, "verify": Verify}


def timed_rounds(work, seconds: float, tracer: Tracer | None = None):
    """Run whole rounds while the next one, at the mean round length,
    would end nearer to `seconds` than stopping now does, so that the
    timed phase lasts about `seconds` on average whatever the round
    length.

    Returns per-round lists of [latency_s, sets, error] plus the first
    round's records, the indices of operations whose record changed
    between rounds, the reference-kernel timings and, when tracing, each
    round's (first, end) span indices.
    """
    ref_matrix = np.random.default_rng(0).standard_normal((160, 160))
    ref_matrix = ref_matrix @ ref_matrix.T
    ref = [reference_kernel(ref_matrix)]
    last_ref = time.monotonic()
    rounds, records, unstable, marks = [], [], set(), []
    begin = time.monotonic()
    while True:
        index = len(rounds)
        work.new_round(index)
        lo = len(tracer.spans) if tracer else 0
        ops = []
        for j, op in enumerate(work.ops):
            t = time.perf_counter()
            try:
                sets, record, error = work.run(op)
            except Exception as exc:  # the failure is counted, not fatal
                sets, record, error = 0, None, f"{type(exc).__name__}: {exc}"
            ops.append([time.perf_counter() - t, sets, error])
            if index == 0:
                records.append(record)
            elif record != records[j]:
                unstable.add(j)
            if time.monotonic() - last_ref >= REF_EVERY_S:
                ref.append(reference_kernel(ref_matrix))
                last_ref = time.monotonic()
        rounds.append(ops)
        if tracer:
            marks.append((lo, len(tracer.spans)))
        elapsed = time.monotonic() - begin
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            break
    ref.append(reference_kernel(ref_matrix))
    return rounds, records, sorted(unstable), ref, marks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOAD_CLASSES)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    ctgt = import_ctgt()
    manifest = json.loads((args.dir / "manifest.json").read_text())
    tracer = Tracer() if args.mode == "trace" else None
    with (tracer.installed() if tracer else contextlib.nullcontext()):
        work = WORKLOAD_CLASSES[args.workload](ctgt, args.dir, manifest)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            setup_end = len(tracer.spans) if tracer else 0
            rounds, records, unstable, ref, marks = timed_rounds(
                work, args.seconds, tracer)
            result.update(rounds=rounds, records=records, unstable=unstable,
                          reference_s=ref)
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer.spans, setup_end,
                                                marks)
        trace_path = args.out.with_suffix(".spans.json.gz")
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
        result["n_spans"] = len(tracer.spans)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
