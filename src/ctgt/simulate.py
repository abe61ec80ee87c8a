"""Synthetic data generation and family-wise error rate simulation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bnb import (DEFAULT_MAX_ITERATIONS, REJECT, _budget_checked,
                  _ordered_map, iterative_shortcut)
from .linmodel import Dataset, SpectrumProvider, feature_stats, fit_null
from .shortcut import ExactTester, _alpha_checked

MAX_REDRAWS = 100
# random_index_sets draws sizes from this up to half the features
RANDOM_SET_MIN_SIZE = 2


def logistic_dataset(n: int, m: int, effect: float = 0.0, n_signal: int = 1,
                     rng: np.random.Generator | None = None,
                     confounders: int = 0) -> Dataset:
    """Draw a dataset with standard-normal features and a logistic response.

    The log-odds are `effect * (sum of the first n_signal feature
    columns) / sqrt(n_signal)`, so the per-dataset signal strength does
    not grow with n_signal; effect 0 gives a global null with response
    probability one half.  Confounder columns, when requested, are extra
    standard-normal covariates with no effect on the response.  Draws
    where the response lands in a single class are redrawn (response
    only) so the result is always a valid two-class dataset.  A nan
    effect raises ValueError; an infinite one gives a deterministic
    response.
    """
    if rng is None:
        rng = np.random.default_rng()
    if n_signal < 1 or n_signal > m:
        raise ValueError("n_signal must be in [1, m]")
    if np.isnan(effect):
        raise ValueError(f"effect must be a number, got {effect}")
    X = rng.standard_normal((n, m))
    C = rng.standard_normal((n, confounders)) if confounders else None
    logit = effect * X[:, :n_signal].sum(axis=1) / np.sqrt(n_signal)
    p = 1.0 / (1.0 + np.exp(-logit))
    for _ in range(MAX_REDRAWS):
        y = (rng.uniform(size=n) < p).astype(float)
        if 0.0 < y.mean() < 1.0:
            break
    else:
        raise RuntimeError("could not draw a two-class response; "
                           "n may be too small for this effect size")
    Z = np.ones((n, 1)) if C is None else np.column_stack([np.ones(n), C])
    names = tuple(f"f{j + 1}" for j in range(m))
    ids = tuple(f"s{i + 1}" for i in range(n))
    return Dataset(y=y, Z=Z, X=X, feature_names=names, sample_ids=ids)


def random_index_sets(m: int, n_sets: int, rng: np.random.Generator
                      ) -> list[tuple[int, ...]]:
    """Random sets of distinct indices in [0, m), sizes uniform on
    [RANDOM_SET_MIN_SIZE, max(RANDOM_SET_MIN_SIZE, m // 2)]; needs
    m >= RANDOM_SET_MIN_SIZE."""
    if m < RANDOM_SET_MIN_SIZE:
        raise ValueError(f"need at least {RANDOM_SET_MIN_SIZE} features")
    max_size = max(RANDOM_SET_MIN_SIZE, m // 2)
    out = []
    for _ in range(n_sets):
        k = int(rng.integers(RANDOM_SET_MIN_SIZE, max_size + 1))
        out.append(tuple(sorted(rng.choice(m, size=k, replace=False))))
    return out


@dataclass(frozen=True)
class FwerSummary:
    """Outcome of a family-wise error rate simulation."""
    replicates: int
    n_failed: int                 # replicates aborted by a RuntimeError
    n_any_false_rejection: int
    fwer_estimate: float
    std_error: float              # binomial SE of the estimate
    total_null_rejections: int
    total_null_sets: int
    avg_true_rejections: float    # rejected signal-overlapping sets/replicate
    alpha: float
    effect: float

    def __str__(self) -> str:
        return (f"FWER {self.fwer_estimate:.4f} +/- {self.std_error:.4f} "
                f"({self.n_any_false_rejection}/{self.replicates} replicates "
                f"with a false rejection; alpha={self.alpha})")


def _one_replicate(n, m, n_pathways, effect, n_signal, alpha,
                   max_iterations, seed_seq):
    """(false hits, null sets, true hits) of one replicate, or None when
    it fails (see fwer_simulation)."""
    try:
        rng = np.random.default_rng(seed_seq)
        data = logistic_dataset(n, m, effect=effect, n_signal=n_signal,
                                rng=rng)
        null = fit_null(data)
        stats = feature_stats(data, null)
        provider = SpectrumProvider(data, null)
        universe = stats.active_indices
        universe_rejects = ExactTester(stats, provider, alpha).reject(universe)
        if not universe_rejects and effect == 0.0:
            # every set is a true null and none is rejected
            return 0, n_pathways, 0
        sets = random_index_sets(m, n_pathways, rng)
        signal = set(range(n_signal)) if effect != 0.0 else set()
        false_hits = 0
        null_sets = 0
        true_hits = 0
        for members in sets:
            rejected = universe_rejects and iterative_shortcut(
                stats, provider, members, universe, alpha,
                max_iterations=max_iterations).decision == REJECT
            if signal & set(members):
                true_hits += rejected  # overlaps the signal: not a true null
                continue
            null_sets += 1
            false_hits += rejected
        return false_hits, null_sets, true_hits
    except RuntimeError:
        return None


def fwer_simulation(n: int = 50, m: int = 20, n_pathways: int = 30,
                    replicates: int = 1000, effect: float = 0.0,
                    n_signal: int = 1, alpha: float = 0.05,
                    max_iterations: int = DEFAULT_MAX_ITERATIONS,
                    seed: int | None = None, workers: int = 1
                    ) -> FwerSummary:
    """Estimate the family-wise error rate over true-null pathway sets.

    Each replicate draws a fresh dataset and a fresh random pathway
    collection, runs the iterative shortcut on every set, and counts a
    family-wise error when any set containing no signal feature is
    rejected.  With effect 0 every set is a true null.  Replicates use
    independent spawned seeds, in worker processes when `workers` > 1, so
    results are reproducible for a given seed regardless of worker count.

    The universe (every active feature) is exact-tested once per
    replicate, before the sets are drawn.  When it fails, closed testing
    rejects none of its subsets, so no set is decided: the replicate
    rejects nothing, and under the global null it does not even draw its
    sets, which are its last draw, so the random stream is unchanged.

    A replicate counts in `n_failed` instead of the estimate when drawing
    its data, fitting its null, testing its universe or deciding any one
    of its sets raises RuntimeError (SeriesStallError,
    NumericalBreakdownError and a failed two-class redraw among them).
    A ValueError is a refused input and propagates.  An alpha outside
    (0, 0.5), fewer than one replicate or pathway, fewer than
    RANDOM_SET_MIN_SIZE features, a budget below one iteration or fewer
    than one worker is refused before any replicate runs.  A run in
    which no completed replicate drew a true-null set (every set
    overlaps the signal) has no FWER to estimate and raises ValueError.
    """
    alpha = _alpha_checked(alpha)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    if n_pathways < 1:
        raise ValueError("n_pathways must be at least 1")
    if m < RANDOM_SET_MIN_SIZE:
        raise ValueError(f"need at least {RANDOM_SET_MIN_SIZE} features")
    max_iterations = _budget_checked(max_iterations)
    children = np.random.SeedSequence(seed).spawn(replicates)
    outcomes = _ordered_map(partial(_one_replicate, n, m, n_pathways, effect,
                                    n_signal, alpha, max_iterations),
                            children, workers)
    ok = [o for o in outcomes if o is not None]
    n_failed = replicates - len(ok)
    if not ok:
        raise RuntimeError("every replicate failed")
    null_sets = sum(s for _, s, _ in ok)
    if null_sets == 0:
        raise ValueError("no replicate drew a true-null set (every set "
                         "overlaps the signal features), so the FWER is "
                         "undefined")
    any_false = sum(1 for hits, _, _ in ok if hits > 0)
    est = any_false / len(ok)
    se = float(np.sqrt(est * (1.0 - est) / len(ok)))
    return FwerSummary(replicates=len(ok), n_failed=n_failed,
                       n_any_false_rejection=any_false, fwer_estimate=est,
                       std_error=se,
                       total_null_rejections=sum(h for h, _, _ in ok),
                       total_null_sets=null_sets,
                       avg_true_rejections=sum(t for _, _, t in ok) / len(ok),
                       alpha=alpha, effect=effect)
