"""Run-time tracing of ctgt from outside the package.

`Tracer.installed()` replaces, for the duration of a `with` block, the
module and class attributes through which ctgt looks up its public
functions with wrappers that record one span per call: name, layer (the
ctgt module the function lives in), start, end, parent span and a few
counts read from arguments and return values.  A function imported
into several modules (`from .shortcut import single_step` in bnb, say)
is replaced under every name bound to it.  Spans stay in memory;
`per_layer_metrics` turns them into the benchmark's per-layer figures.
Nothing under src/ changes.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("io", "linmodel", "wchi2", "shortcut", "bnb", "driver", "simulate")


def _n_terms(args, kwargs, result, before):
    return args[0].n_terms


def _single_step(args, kwargs, result, before):
    return (result.decision, result.n_cmax_evals, result.n_exact_tests)


def _iterative(args, kwargs, result, before):
    return (result.iterations_used, result.frontier_size)


def _oracle(args, kwargs, result, before):
    return result.n_tests


def _fwer(args, kwargs, result, before):
    return result.replicates + result.n_failed


def _tests_before(args, kwargs):
    return args[0].n_tests


def _tested_set(args, kwargs, result, before):
    """The set ExactTester.reject evaluated, or None on a memo hit.

    The set's statistic goes into the key, so equal index sets of
    different datasets (null_sim replicates) never count as repeats."""
    tester, members = args[0], args[1]
    if tester.n_tests == before:
        return None
    key = tuple(sorted(int(i) for i in members))
    return (key, tester.statistic(key))


# (module, attribute path, span name, info hook, pre-call hook)
TARGETS = (
    ("ctgt.io", "read_table", "io.read_table", None, None),
    ("ctgt.io", "load_dataset", "io.load_dataset", None, None),
    ("ctgt.io", "load_pathways", "io.load_pathways", None, None),
    ("ctgt.io", "resolve_pathways", "io.resolve_pathways", None, None),
    ("ctgt.linmodel", "fit_null", "linmodel.fit_null", None, None),
    ("ctgt.linmodel", "feature_stats", "linmodel.feature_stats", None, None),
    ("ctgt.linmodel", "spectrum", "linmodel.spectrum", None, None),
    ("ctgt.linmodel", "SpectrumProvider.dist", "linmodel.dist", None, None),
    ("ctgt.wchi2", "WeightedChiSq.__init__", "wchi2.build", _n_terms, None),
    ("ctgt.wchi2", "WeightedChiSq.cdf", "wchi2.cdf", None, None),
    ("ctgt.wchi2", "WeightedChiSq.quantile", "wchi2.quantile", None, None),
    ("ctgt.shortcut", "single_step", "shortcut.single_step", _single_step,
     None),
    ("ctgt.shortcut", "cmax", "shortcut.cmax", None, None),
    ("ctgt.shortcut", "ExactTester.reject", "shortcut.reject", _tested_set,
     _tests_before),
    ("ctgt.bnb", "iterative_shortcut", "bnb.iterative_shortcut", _iterative,
     None),
    ("ctgt.bnb", "analyze_collection", "bnb.analyze_collection", None, None),
    ("ctgt.driver", "full_closed_test", "driver.full_closed_test", _oracle,
     None),
    ("ctgt.simulate", "fwer_simulation", "simulate.fwer_simulation", _fwer,
     None),
    ("ctgt.simulate", "logistic_dataset", "simulate.logistic_dataset", None,
     None),
    ("ctgt.simulate", "random_index_sets", "simulate.random_index_sets",
     None, None),
)

# span record fields
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Span recorder; spans are lists [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, info=None, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result, pre)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def installed(self):
        """Replace the traced attributes; restore every one on exit."""
        replaced = []
        try:
            for module_name, path, name, info, before in TARGETS:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owners = [getattr(module, cls_name)]
                else:
                    attr = path
                    owners = [mod for key, mod in list(sys.modules.items())
                              if (key == "ctgt" or key.startswith("ctgt."))
                              and getattr(mod, attr, None) is
                              getattr(module, attr)]
                original = getattr(owners[0], attr)
                wrapper = self.wrap(original, name, info, before)
                for owner in owners:
                    replaced.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped JSON lists [name, start, end, parent, info]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def segment_totals(spans, lo: int, hi: int) -> dict:
    """Additive counts and times, and maxima, over spans[lo:hi].

    A segment must hold whole call trees: every parent index of a span in
    it lies in it too (the benchmark cuts segments between operations).
    """
    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    dur = [s[END] - s[START] for s in spans[lo:hi]]
    child_time = [0.0] * (hi - lo)
    children: dict[int, list[int]] = {}
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= 0:
            child_time[p - lo] += dur[i - lo]
            children.setdefault(p, []).append(i)

    def has_ancestor(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    seen_tests: set = set()
    t["wchi2.series_terms_max"] = 0.0
    t["bnb.frontier_max"] = 0.0
    for i in range(lo, hi):
        name, _, _, _, info = spans[i]
        d = dur[i - lo]
        add(_layer(name) + ".self_s", d - child_time[i - lo])
        if name.startswith("io."):
            if not has_ancestor(i, ("io.read_table", "io.load_dataset",
                                    "io.load_pathways",
                                    "io.resolve_pathways")):
                add("io.load_s", d)
        elif name in ("linmodel.fit_null", "linmodel.feature_stats"):
            add("linmodel.fit_s", d)
        elif name == "linmodel.spectrum":
            add("linmodel.spectra", 1)
            add("linmodel.spectrum_s", d)
        elif name == "linmodel.dist":
            add("linmodel.dist_requests", 1)
            built = any(spans[c][NAME] == "wchi2.build"
                        for c in children.get(i, ()))
            add("linmodel.dist_hits", 0 if built else 1)
        elif name == "wchi2.build":
            add("wchi2.builds", 1)
            add("wchi2.build_s", d)
            add("wchi2.series_terms", info)
            t["wchi2.series_terms_max"] = max(t["wchi2.series_terms_max"],
                                              info)
        elif name == "wchi2.cdf":
            add("wchi2.cdf_calls", 1)
            add("wchi2.cdf_s", d)
            p = spans[i][PARENT]
            if p >= 0 and spans[p][NAME] == "wchi2.quantile":
                add("wchi2.cdf_in_quantile", 1)
        elif name == "wchi2.quantile":
            add("wchi2.quantile_calls", 1)
            add("wchi2.quantile_s", d)
            if (has_ancestor(i, ("bnb.analyze_collection",))
                    and not has_ancestor(i, ("bnb.iterative_shortcut",))):
                add("bnb.report_quantile_s", d)
        elif name == "shortcut.single_step":
            _, n_cmax, n_exact = info
            add("shortcut.single_steps", 1)
            add("shortcut.single_step_s", d)
            add("shortcut.cmax_evals", n_cmax)
            add("shortcut.exact_tests", n_exact)
        elif name == "shortcut.cmax":
            add("shortcut.cmax_computed", 1)
            add("shortcut.cmax_s", d)
        elif name == "shortcut.reject":
            if info is not None:
                add("shortcut.tests_seen", 1)
                key = (info[0], info[1])
                if key in seen_tests:
                    add("shortcut.tests_repeated", 1)
                seen_tests.add(key)
        elif name == "bnb.iterative_shortcut":
            used, _ = info
            add("bnb.iterations", used)
            # worklist size: 1 at the start; each step pops one and an
            # unsure step pushes two
            size = peak = 1
            for c in children.get(i, ()):
                if spans[c][NAME] == "shortcut.single_step":
                    size += 1 if spans[c][INFO][0] == "unsure" else -1
                    peak = max(peak, size)
            t["bnb.frontier_max"] = max(t["bnb.frontier_max"], peak)
        elif name == "driver.full_closed_test":
            add("driver.oracle_tests", info)
            add("driver.oracle_s", d)
        elif name == "simulate.fwer_simulation":
            add("simulate.replicates", info)
        elif name in ("simulate.logistic_dataset",
                      "simulate.random_index_sets"):
            add("simulate.datagen_s", d)
    return t


MAX_KEYS = ("wchi2.series_terms_max", "bnb.frontier_max")

# per-layer metric name -> unit; ratios are derived from the totals
PER_LAYER_UNITS = {
    "io.load_s": "s", "io.self_s": "s",
    "linmodel.fit_s": "s", "linmodel.spectra": "count",
    "linmodel.spectrum_s": "s", "linmodel.dist_requests": "count",
    "linmodel.dist_hit_ratio": "ratio", "linmodel.self_s": "s",
    "wchi2.builds": "count", "wchi2.build_s": "s",
    "wchi2.series_terms": "count", "wchi2.series_terms_max": "count",
    "wchi2.cdf_calls": "count", "wchi2.cdf_s": "s",
    "wchi2.quantile_calls": "count", "wchi2.quantile_s": "s",
    "wchi2.cdf_per_quantile": "ratio", "wchi2.self_s": "s",
    "shortcut.single_steps": "count", "shortcut.single_step_s": "s",
    "shortcut.cmax_evals": "count", "shortcut.cmax_computed": "count",
    "shortcut.cmax_s": "s", "shortcut.exact_tests": "count",
    "shortcut.exact_repeat_ratio": "ratio", "shortcut.self_s": "s",
    "bnb.iterations": "count", "bnb.frontier_max": "count",
    "bnb.report_quantile_s": "s", "bnb.self_s": "s",
    "driver.oracle_tests": "count", "driver.oracle_s": "s",
    "driver.self_s": "s",
    "simulate.replicates": "count", "simulate.datagen_s": "s",
    "simulate.self_s": "s",
}


def per_layer_metrics(spans, setup_end: int, rounds) -> dict:
    """Per-layer figures for one set-up plus one round.

    `rounds` lists (lo, hi) span index ranges, one per round.  Additive
    figures are the set-up's plus the mean over rounds (rounds repeat the
    same operations, so counts come out whole); maxima are over
    everything; ratios come from those totals.
    """
    setup = segment_totals(spans, 0, setup_end)
    per_round = [segment_totals(spans, lo, hi) for lo, hi in rounds]
    keys = set(setup).union(*per_round)
    tot: dict[str, float] = {}
    for key in keys:
        if key in MAX_KEYS:
            tot[key] = max([setup.get(key, 0.0)]
                           + [r.get(key, 0.0) for r in per_round])
        else:
            tot[key] = setup.get(key, 0.0) + (
                sum(r.get(key, 0.0) for r in per_round) / len(per_round))

    def ratio(num, den):
        d = tot.get(den, 0.0)
        return tot.get(num, 0.0) / d if d else 0.0

    tot["linmodel.dist_hit_ratio"] = ratio("linmodel.dist_hits",
                                           "linmodel.dist_requests")
    tot["wchi2.cdf_per_quantile"] = ratio("wchi2.cdf_in_quantile",
                                          "wchi2.quantile_calls")
    tot["shortcut.exact_repeat_ratio"] = ratio("shortcut.tests_repeated",
                                               "shortcut.tests_seen")
    return {k: {"value": float(tot.get(k, 0.0)), "unit": unit}
            for k, unit in PER_LAYER_UNITS.items()}
