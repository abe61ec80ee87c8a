"""End-to-end figures from a worker's timed rounds."""

from __future__ import annotations

import statistics


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0)):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer (then there is no tail)."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(result, failed_ops, settled, setup_samples):
    """The six end-to-end metrics from a worker's timed rounds.

    A failed operation's sets do not count; its time does.  The tail
    percentile follows from the operations in one round, which the
    workload fixes, so it does not move with the program's speed."""
    rounds = result["rounds"]
    tail = tail_percentile(len(rounds[0]))
    latencies = [op[0] for r in rounds for op in r]
    sets = sum(op[1] for r in rounds for j, op in enumerate(r)
               if j not in failed_ops)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "sets_per_s": {"value": sets / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(latencies),
                           "unit": "ms"},
        "latency_tail_ms": {
            "value": 1e3 * percentile(latencies, tail),
            "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "settled_sets": {"value": settled, "unit": "count"},
    }
