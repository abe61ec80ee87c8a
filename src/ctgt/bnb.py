"""Iterative shortcut: branch-and-bound over subspaces of the closure.

A subspace (top, bottom) stands for all supersets S with
bottom <= S <= top.  When a single-step pass on a subspace is
inconclusive, the subspace splits on the complement feature u with the
largest statistic increment (ties to the lowest index): one child keeps
u out of the universe, the other forces u into the tested set.  The
child with u forced in inherits a larger statistic floor, so it is
explored first (depth-first).  Any non-rejection anywhere is a witness
for the original hypothesis and ends the search; rejection everywhere
rejects it; running out of budget leaves it unsure.  Decisions are
monotone in the budget: extra iterations never flip a sure decision.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

from .linmodel import FeatureStats, SpectrumProvider, _check_index_set
from .shortcut import (NOT_REJECT, REJECT, UNSURE, _alpha_checked,
                       _nested_sorted, single_step)

DEFAULT_MAX_ITERATIONS = 20_000

SKIPPED = "skipped"
ERROR = "error"


def _budget_checked(max_iterations: int) -> int:
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    return max_iterations


@dataclass(frozen=True)
class Subspace:
    """All sets S with bottom <= S <= top (indices ascending)."""
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if not set(self.bottom) <= set(self.top):
            raise ValueError("subspace bottom must be contained in its top")

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.top) - set(self.bottom)))


@dataclass(frozen=True)
class IterativeResult:
    decision: str                        # REJECT / NOT_REJECT / UNSURE
    iterations_used: int                 # single-step invocations
    witness: tuple[int, ...] | None      # failing superset when NOT_REJECT
    frontier_size: int                   # unresolved subspaces at stop


def iterative_shortcut(stats: FeatureStats, provider: SpectrumProvider, R, F,
                       alpha: float, *,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS
                       ) -> IterativeResult:
    """Closed-testing decision for R within F under an iteration budget.

    Runs single-step passes over a LIFO worklist of subspaces, branching
    on inconclusive ones.  With budget 1 the decision coincides with a
    lone single-step call on (R, F).
    """
    alpha = _alpha_checked(alpha)
    max_iterations = _budget_checked(max_iterations)
    base, top = _nested_sorted(stats, R, F)
    worklist = [Subspace(top=top, bottom=base)]
    used = 0
    while worklist and used < max_iterations:
        sub = worklist.pop()
        result = single_step(stats, provider, sub.bottom, sub.top, alpha)
        used += 1
        if result.decision == NOT_REJECT:
            return IterativeResult(NOT_REJECT, used, result.witness,
                                   len(worklist))
        if result.decision == REJECT:
            continue
        comp = np.array(sub.complement, dtype=int)
        u = int(comp[np.argmax(stats.g[comp])])   # ties: lowest index wins
        without_u = tuple(i for i in sub.top if i != u)
        with_u = tuple(sorted(sub.bottom + (u,)))
        worklist.append(Subspace(top=without_u, bottom=sub.bottom))
        worklist.append(Subspace(top=sub.top, bottom=with_u))  # popped first
    if not worklist:
        return IterativeResult(REJECT, used, None, 0)
    return IterativeResult(UNSURE, used, None, len(worklist))


@dataclass(frozen=True)
class CollectionRow:
    """Outcome for one named set in a collection analysis."""
    name: str
    n_members: int                  # members handed in (before filtering)
    n_active: int                   # members that are active dataset features
    level: float
    statistic: float
    critical_value: float           # the set's own exact critical value
    decision: str
    iterations_used: int
    witness: tuple[int, ...] | None
    note: str = ""


def _ordered_map(fn, items: list, workers: int) -> list:
    """[fn(x) for x in items], in up to `workers` spawned processes that
    take one item at a time, so a few costly items do not queue behind
    each other in one process's share."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(min(workers, len(items)),
                             mp_context=get_context("spawn")) as pool:
        return list(pool.map(fn, items))


def _analyze_one(stats, provider, universe, alpha, max_iterations,
                 job) -> CollectionRow:
    name, members = job
    requested = tuple(dict.fromkeys(members))   # validated in the try
    active = ()
    try:
        if requested:
            valid = _check_index_set(requested, stats.g.size, "set")
            active = tuple(i for i in valid if stats.active[i])
        if not active:
            reason = ("no members" if not requested else "no active members "
                      "(constant or confounder-aligned columns)")
            return CollectionRow(name=name, n_members=len(requested),
                                 n_active=0, level=float("nan"),
                                 statistic=float("nan"),
                                 critical_value=float("nan"),
                                 decision=SKIPPED, iterations_used=0,
                                 witness=None, note=reason)
        lvl = float(stats.w[list(active)].sum())
        statistic = float(stats.g[list(active)].sum())
        critical = provider.dist(active).quantile(1.0 - alpha)
        res = iterative_shortcut(stats, provider, active, universe, alpha,
                                 max_iterations=max_iterations)
        return CollectionRow(name=name, n_members=len(requested),
                             n_active=len(active), level=lvl,
                             statistic=statistic, critical_value=critical,
                             decision=res.decision,
                             iterations_used=res.iterations_used,
                             witness=res.witness)
    except (ValueError, RuntimeError) as exc:  # a TypeError etc. propagates
        return CollectionRow(name=name, n_members=len(requested),
                             n_active=len(active), level=float("nan"),
                             statistic=float("nan"),
                             critical_value=float("nan"), decision=ERROR,
                             iterations_used=0, witness=None, note=str(exc))


def analyze_collection(stats: FeatureStats, provider: SpectrumProvider,
                       collection, alpha: float, *,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS,
                       workers: int = 1) -> list[CollectionRow]:
    """Run the iterative shortcut for every (name, member-indices) pair.

    The universe is the set of all active features.  Sets with no members
    or no active member are reported as skipped; per-set errors, an
    out-of-range member index among them, become `error` rows carrying
    the message rather than aborting the batch.  With `workers` > 1 each
    set is pickled with `stats` and `provider` to a worker process, where
    it rebuilds the Gram matrix and the universe's spectrum and series;
    that measured slower than serial at every scale, and the path stays
    only until the benchmark stops passing workers=1.  Rows do not depend
    on the worker count.  An alpha outside (0, 0.5), a budget below one
    iteration, fewer than one worker or a dataset without active features
    is refused before any set runs.
    """
    alpha = _alpha_checked(alpha)
    max_iterations = _budget_checked(max_iterations)
    universe = stats.active_indices
    if not universe:
        raise ValueError("no active features in the dataset")
    jobs = [(str(name), members) for name, members in collection]
    return _ordered_map(partial(_analyze_one, stats, provider, universe,
                                alpha, max_iterations), jobs, workers)
