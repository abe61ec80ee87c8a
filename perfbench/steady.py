"""Steadiness self-check: run the benchmark repeatedly, report the spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads screen,verify]
        [--seconds 30] [--traced 2]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric its median, first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json.  The
reference-kernel median of every run is listed too, so a slow phase of
the host shows up as slow reference timings rather than as a slow
program.  With --traced N it also makes N traced runs per workload and
reports the tracing overhead: traced over untraced medians of
sets_per_s and latency_p50_ms.  Everything is also written to
.perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:"
                           f"\n{proc.stderr[-3000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-{seed}-{trace}"
                         / "result.json").read_text())
    return {"seed": seed, "result": last, "summary": detail["summary"]}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per workload (first seeds)")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, args.seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}"
                for k, v in r["result"]["metrics"].items())
                + f" ref_ms={r['summary']['reference_kernel_ms']['median']:.3f}"
                + f" failed={r['result']['failed']}/"
                  f"{r['result']['attempted']}", flush=True)
        table = {}
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            table[name] = spread(vals) if len(vals) > 1 else {}
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                         for r in runs})
        entry = {"runs": runs, "metrics": table, "failed_shares": shares,
                 "reference_ms": [r["summary"]["reference_kernel_ms"]["median"]
                                  for r in runs]}
        traced = [one_run(workload, seed, args.seconds, 1)
                  for seed in seeds[:args.traced]]
        if traced:
            entry["traced"] = traced
            entry["overhead"] = {
                name: statistics.median(
                    t["summary"]["traced_end_to_end"][name]["value"]
                    for t in traced) / table[name]["median"]
                for name in ("sets_per_s", "latency_p50_ms")
                if table.get(name)}
        report[workload] = entry

        print(f"\n{workload}: {len(runs)} runs, failed shares {shares}")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, s in table.items():
            if s:
                print(f"  {name:<18}{s['median']:>12.5g}{s['q1']:>12.5g}"
                      f"{s['q3']:>12.5g}{s['spread']:>9.3f}"
                      f"{bounds[name]:>7.2f}")
        if traced:
            print("  tracing overhead (traced / untraced median): "
                  + ", ".join(f"{k} {v:.3f}"
                              for k, v in entry["overhead"].items()))
        print(flush=True)
    out = ROOT / ".perfbench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
