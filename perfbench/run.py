"""ctgt benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is ctgt from that
checkout's src/ directory.  Inputs are generated from the seed into
.perfbench_out/, set-up is timed in fresh processes, the timed rounds
run in one more fresh process (perfbench/worker.py), and the outputs
are then checked against computations made apart from ctgt.  The last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  The decision vector, the check report and the reference
kernel timings go to .perfbench_out/<workload>-<seed>-<trace>/result.json.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every worker: on a two-CPU host
# a second BLAS thread only adds contention.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import end_to_end, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 2          # set-up only processes, besides the timed one
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 100


def spawn_worker(workload, run_dir, mode, seconds, out, timeout):
    """Run one worker to completion; its result dict, or raise."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--dir", str(run_dir), "--mode", mode, "--seconds", str(seconds),
           "--t0", repr(time.monotonic()), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(Path(out).read_text())


def run_checks(workload, inputs, records, seed):
    import checks
    from worker import import_ctgt
    alpha = inputs.manifest["alpha"]
    if workload == "screen":
        return checks.check_screen(records, inputs.studies, inputs.sets,
                                   alpha)
    ctgt = import_ctgt()
    if workload == "null_sim":
        return checks.check_null_sim(
            ctgt, records, alpha, inputs.manifest["op_universe_rejects"])
    return checks.check_verify(ctgt, records, inputs.studies,
                               inputs.queries, alpha, seed)


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_inputs

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ctgt" / "__init__.py").is_file():
        print(f"error: no ctgt package under {ROOT / 'src'}; run from the "
              "root of a ctgt checkout", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = make_inputs(args.workload, args.seed, run_dir)

    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            res = spawn_worker(args.workload, run_dir, "setup", 0.0,
                               run_dir / f"setup{i}.json", SETUP_TIMEOUT_S)
            setup_samples.append(res["setup_s"])
    mode = "trace" if args.trace else "run"
    result = spawn_worker(args.workload, run_dir, mode, args.seconds,
                          run_dir / "worker.json", RUN_TIMEOUT_S)
    setup_samples.append(result["setup_s"])

    records = result["records"]
    t_check = time.monotonic()
    report = run_checks(args.workload, inputs, records, args.seed)
    t_check = time.monotonic() - t_check
    n_rounds = len(result["rounds"])
    failed_ops = dict(report.failed_ops)
    for j in result["unstable"]:
        failed_ops.setdefault(j, "output changed between rounds")
    for r in result["rounds"]:
        for j, op in enumerate(r):
            if op[2] is not None:
                failed_ops.setdefault(j, op[2])
    metrics = end_to_end(result, failed_ops, report.settled, setup_samples)
    ref = result["reference_s"]
    q1, _, q3 = statistics.quantiles(ref, n=4) if len(ref) > 1 else ref * 3
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": n_rounds, "ops_per_round": len(records),
        "tail_percentile": tail_percentile(len(records)),
        "setup_samples_s": setup_samples,
        "reference_kernel_ms": {"median": 1e3 * statistics.median(ref),
                                "q1": 1e3 * q1, "q3": 1e3 * q3,
                                "samples": len(ref)},
        "check_s": t_check, "checked": report.n_checked,
        "unchecked": report.unchecked,
        "failed_ops": {str(j): why for j, why in sorted(failed_ops.items())},
        "property_failures": report.property_failures,
    }
    if args.trace:
        summary["traced_end_to_end"] = metrics
        summary["trace_file"] = result["trace_file"]
        summary["n_spans"] = result["n_spans"]
        metrics = result["per_layer"]
    (run_dir / "result.json").write_text(json.dumps(
        {"summary": summary, "metrics": metrics, "decisions": records},
        indent=1))

    for key in ("rounds", "ops_per_round", "tail_percentile",
                "setup_samples_s", "reference_kernel_ms", "check_s",
                "checked", "unchecked",
                "property_failures"):
        print(f"# {key}: {json.dumps(summary[key])}")
    for j, why in summary["failed_ops"].items():
        print(f"# failed op {j}: {why}")
    if args.trace:
        print("# traced_end_to_end: "
              + json.dumps({k: v["value"] for k, v in
                            summary["traced_end_to_end"].items()}))
    print(json.dumps({
        "correct": not report.property_failures,
        "attempted": n_rounds * len(records),
        "failed": n_rounds * len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
