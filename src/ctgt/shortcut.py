"""Single-step shortcut for closed testing of one feature set.

Closed testing rejects a set R (within universe F) only if every
superset S with R <= S <= F has its statistic above its own critical
value.  Instead of enumerating supersets, this module compares two
curves indexed by the level (weight sum) of a superset:

* a piecewise-linear convex lower envelope of superset statistics,
  built by adding complement features in ascending ratio order, and
* an upper envelope of superset critical values, obtained from a vector
  majorizing every superset spectrum at that level.

The "staircase" sets realizing the lower envelope carry the smallest
superset statistics at their levels.  Before comparing the curves,
single_step tests exactly the one staircase set a two-moment
(Satterthwaite) approximation ranks likeliest to fail; if it fails it
is a concrete non-rejection witness and no critical envelope is built.
Otherwise, if the lower envelope stays above the upper one across the
level range (located by a monotone fixed-point iteration), every
superset test must reject and R is rejected; the iteration stops early
once a probe at a breakpoint shows it can only cross.  If the curves
cross, the remaining staircase sets are tested exactly: a failure among
them is a witness; if all pass, the comparison is inconclusive (Unsure)
and callers may branch (see bnb).

The upper envelope is conservative only for significance levels below
the pairwise validity threshold (see wchi2.alpha0_diagnostic); decisions
returned here assume alpha is below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .linmodel import FeatureStats, SpectrumProvider, _check_index_set
from .wchi2 import (TRUNC_TOL, WeightedChiSq, chernoff_tail_bound,
                    condense_weights, padded_pair)

REJECT = "reject"
NOT_REJECT = "not_reject"
UNSURE = "unsure"

ABOVE = "above"
CROSS = "cross"

# the crossing search stops once a step moves the level by no more than
# this (absolute level units)
CROSSING_STEP = 1e-4
# a breakpoint probe stops the crossing search only when cmax there
# clears the statistic curve by this relative margin; merging in the
# majorizing vector lets cmax dip with rising level by up to 3.4e-5
# relative (largest seen over 360 random curves, 300 levels each)
PROBE_MARGIN = 1e-4
# relative rounding allowance on a computed tail bound
BOUND_REL_SLACK = 1e-9
# majorizing-vector entries below this fraction of the largest get merged;
# caps the weight ratio the mixture series must absorb
CONDENSE_REL_TOL = 5e-3


def _alpha_checked(alpha: float) -> float:
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    return float(alpha)


def _active_sorted(stats: FeatureStats, S, name: str) -> tuple[int, ...]:
    idx = _check_index_set(S, stats.g.size, name)
    if not stats.active[list(idx)].all():
        raise ValueError(f"{name} contains inactive features")
    return idx


def _nested_sorted(stats: FeatureStats, R, F
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """R and F as active sorted sets, with R inside F."""
    base = _active_sorted(stats, R, "tested set")
    top = _active_sorted(stats, F, "universe")
    if not set(base) <= set(top):
        raise ValueError("tested set must be contained in the universe")
    return base, top


def level(stats: FeatureStats, R) -> float:
    """Weight sum of the set; equals its spectrum's eigenvalue sum."""
    idx = _active_sorted(stats, R, "set")
    return float(stats.w[list(idx)].sum())


@dataclass(frozen=True)
class PiecewiseCurve:
    """Lower envelope of superset statistics as a function of level.

    Breakpoint k corresponds to the staircase set R plus the first k
    complement features in ascending ratio order (ties by index).  The
    curve is the linear interpolation of the breakpoints; segment slopes
    are exactly the ratios of the features being added, so the curve is
    convex and nondecreasing.
    """

    base: tuple[int, ...]              # R, ascending indices
    order: tuple[int, ...]             # complement in ascending-ratio order
    levels: np.ndarray                 # (v+1,) breakpoint levels
    stats: np.ndarray                  # (v+1,) breakpoint statistics
    slopes: np.ndarray                 # (v,) segment slopes

    def __post_init__(self):
        for name in ("levels", "stats", "slopes"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def base_level(self) -> float:
        return float(self.levels[0])

    @property
    def base_stat(self) -> float:
        return float(self.stats[0])

    @property
    def top_level(self) -> float:
        return float(self.levels[-1])

    @property
    def top_stat(self) -> float:
        return float(self.stats[-1])

    @property
    def breakpoints(self) -> list[tuple[float, float, float]]:
        """(level, stat, slope-of-next-segment) per breakpoint; last slope nan."""
        slopes = np.append(self.slopes, np.nan)
        return [(float(l), float(s), float(q))
                for l, s, q in zip(self.levels, self.stats, slopes)]

    def staircase(self, k: int) -> tuple[int, ...]:
        """The set realizing breakpoint k: base plus first k ordered features."""
        if not 0 <= k <= len(self.order):
            raise ValueError("staircase index out of range")
        return tuple(sorted(self.base + self.order[:k]))

    def evaluate(self, lvl):
        """Curve value at one or more levels inside [base_level, top_level]."""
        arr = np.asarray(lvl, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        tol = 1e-9 * max(1.0, self.top_level)
        if np.any(arr < self.base_level - tol) or np.any(arr > self.top_level + tol):
            raise ValueError("level outside the curve's range")
        arr = np.clip(arr, self.base_level, self.top_level)
        out = np.interp(arr, self.levels, self.stats)
        return float(out[0]) if scalar else out


def gmin_curve(stats: FeatureStats, R, F) -> PiecewiseCurve:
    """Build the statistic lower envelope for supersets of R within F.

    Complement features enter in ascending ratio order; among equal
    ratios the lower feature index goes first.  Requires R to be a proper
    subset of F (an empty complement leaves no curve to build).
    """
    base, top = _nested_sorted(stats, R, F)
    comp = np.array(sorted(set(top) - set(base)), dtype=int)
    if comp.size == 0:
        raise ValueError("universe equals the base set; no curve to build")
    order = comp[np.argsort(stats.q[comp], kind="stable")]
    levels = np.concatenate(([stats.w[list(base)].sum()],
                             stats.w[order])).cumsum()
    stat_vals = np.concatenate(([stats.g[list(base)].sum()],
                                stats.g[order])).cumsum()
    return PiecewiseCurve(base=base, order=tuple(int(i) for i in order),
                          levels=levels, stats=stat_vals,
                          slopes=np.asarray(stats.q[order], dtype=float))


def inverse_gmin(curve: PiecewiseCurve, target: float) -> float:
    """Largest level at which the curve equals `target`.

    On flat segments this is the supremum (right edge of the flat run).
    Targets outside [base_stat, top_stat] raise ValueError;
    a 1e-9-relative float tolerance is absorbed by clipping.
    """
    tol = 1e-9 * max(1.0, curve.top_stat)
    if target < curve.base_stat - tol or target > curve.top_stat + tol:
        raise ValueError(
            f"target {target!r} outside curve value range "
            f"[{curve.base_stat!r}, {curve.top_stat!r}]")
    target = min(max(target, curve.base_stat), curve.top_stat)
    k = int(np.searchsorted(curve.stats, target, side="right")) - 1
    if k >= curve.stats.size - 1:
        return curve.top_level
    # stats[k] <= target < stats[k+1], so this segment has positive slope
    return float(curve.levels[k] + (target - curve.stats[k]) / curve.slopes[k])


def staircase_square_sums(curve: PiecewiseCurve,
                          provider: SpectrumProvider) -> np.ndarray:
    """Sum of squared eigenvalues of every staircase set, k = 0..v.

    No eigendecomposition: a set's sum of squares is the squared
    Frobenius norm of its Gram matrix (SpectrumProvider.gram), and
    staircase set k's Gram matrix is the leading (|R| + k) block of the
    Gram matrix of R followed by `curve.order`, so one Gram matrix
    serves every k.
    """
    G = provider.gram(curve.base + curve.order)
    sq = G * G
    # row t adds its entries left of the diagonal twice (G is symmetric)
    block_sums = np.cumsum(2.0 * np.tril(sq, -1).sum(axis=1) + np.diag(sq))
    return block_sums[len(curve.base) - 1:]


def likeliest_failing_step(curve: PiecewiseCurve, provider: SpectrumProvider
                           ) -> tuple[int, float]:
    """The interior staircase set most likely to fail its own test.

    Ranks k = 1..v-1 by the two-moment (Satterthwaite) p-value
    P(g * chisq_h > stat_k), with g = sum(lam^2) / sum(lam) and
    h = sum(lam)^2 / sum(lam^2); sum(lam) is the level by the trace
    identity.  Returns (k, approximate p-value), ties to the smallest k.
    Requires at least two complement features.
    """
    sq = staircase_square_sums(curve, provider)[1:-1]
    lev = curve.levels[1:-1]
    scale = sq / lev
    pvals = special.gammaincc(0.5 * lev / scale,
                              0.5 * curve.stats[1:-1] / scale)
    k = int(np.argmax(pvals))
    return k + 1, float(pvals[k])


def majorizing_vector(lambda_R: np.ndarray, lambda_F: np.ndarray,
                      ell: float) -> np.ndarray:
    """Weight vector at level `ell` majorizing every superset spectrum there.

    The vector takes a head from the universe spectrum, a tail from the
    base spectrum, and one connecting entry eta in between, bounded by
    the two spectra's values at the slot it occupies.  Feasible levels
    for head length i form contiguous windows tiling [level_R, level_F],
    so the construction picks the shortest feasible head.

    Entries below CONDENSE_REL_TOL times the largest are merged pairwise
    into lumps (see wchi2.condense_weights).  The connecting entry can sit
    arbitrarily close to zero, which would blow up the series length of
    the resulting distribution; merging keeps the returned vector a
    majorant of everything the raw vector majorized while bounding the
    weight ratio.  The endpoint identities (the vector at level_R is the
    base spectrum, at level_F the universe spectrum) hold whenever the
    spectrum at the endpoint has no sub-threshold entries.

    The spectra are zero-padded to the longer one's length.  Padding
    them further would change no vector strictly inside the range: the
    window sums are cumulative sums, to which trailing zeros add exact
    zeros.  Returns a read-only array, sorted descending.
    """
    lam_r, lam_f = padded_pair(lambda_R, lambda_F)
    n = lam_r.size
    scale = max(1.0, float(lam_f[0]))
    if np.any(lam_r > lam_f + 1e-8 * scale):
        raise ValueError(
            "base spectrum exceeds universe spectrum entrywise; "
            "inputs are not a nested pair")
    lo, hi = float(lam_r.sum()), float(lam_f.sum())
    tol = 1e-9 * max(1.0, hi)
    if ell < lo - tol or ell > hi + tol:
        raise ValueError(
            f"level {ell!r} outside the feasible range [{lo!r}, {hi!r}]")
    ell = min(max(float(ell), lo), hi)

    # window(i): sum(lam_f[:i]) + sum(lam_r[i:]) <= ell <= same with i+1
    cum_f = np.concatenate(([0.0], np.cumsum(lam_f)))
    tail_r = np.concatenate((np.cumsum(lam_r[::-1])[::-1], [0.0]))
    upper = cum_f[1:] + tail_r[1:]             # upper end of window(i)
    i = int(np.searchsorted(upper, ell, side="left"))
    i = min(i, n - 1)
    eta = ell - (cum_f[i] + tail_r[i + 1])
    eta = min(max(eta, float(lam_r[i])), float(lam_f[i]))
    vec = np.concatenate((lam_f[:i], [eta], lam_r[i + 1:]))
    vec = condense_weights(vec[vec > 0.0], CONDENSE_REL_TOL)
    vec.flags.writeable = False
    return vec


def cmax(lambda_R: np.ndarray, lambda_F: np.ndarray, ell: float,
         alpha: float) -> float:
    """Critical-value upper envelope at level `ell`: the (1 - alpha)-quantile
    of the majorizing vector's distribution."""
    _alpha_checked(alpha)
    vec = majorizing_vector(lambda_R, lambda_F, ell)
    return WeightedChiSq(vec).quantile(1.0 - alpha)


@dataclass(frozen=True)
class CrossingOutcome:
    kind: str                  # ABOVE or CROSS
    level: float               # level where the iteration stopped
    n_cmax_evals: int


def crossing_test(curve: PiecewiseCurve, cmax_fn) -> CrossingOutcome:
    """Decide whether the statistic envelope clears the critical envelope.

    Fixed-point iteration: the first critical value is `cmax_fn` at the
    top level (single_step answers that call with the universe's own
    exact critical value); from there, repeatedly map the current
    critical value through the inverse statistic curve and re-evaluate
    the critical envelope there.  The critical value is run
    through a running minimum, so the used sequence is nonincreasing
    even if the evaluated envelope wobbles slightly (weight merging in
    the majorizing vector can introduce tiny non-monotone steps); any
    upper bound of the true envelope stays an upper bound under the
    minimum, so validity is unaffected and levels cannot oscillate.
    The iteration either drives the critical value to or below the base
    statistic (ABOVE: every superset must reject) or stops making
    progress of more than CROSSING_STEP per step (CROSS at that level).

    Breakpoint probe.  Let the chain stand at level l after a step of d,
    and let b be the highest breakpoint below l, at index j.  When one
    more step of that size would not reach b (l - d > b), the search
    evaluates `cmax_fn(b)` once; if it exceeds the curve there,
    `curve.stats[j]`, by more than the relative PROBE_MARGIN, it stops
    with CROSS at l.  The envelope is nondecreasing in the level (the
    premise of ABOVE; the margin covers the merging wobble), so every
    later critical value of the chain would also exceed the curve at b,
    and inverse_gmin maps any value above the curve at b to a level
    above b.  The chain could then never end ABOVE and would stall
    somewhere in (b, l], which holds no breakpoint; the probe is skipped
    when l sits exactly on an interior breakpoint.  single_step
    therefore tests the same staircase sets after either stop.  A probe
    that proves nothing is not folded into the running minimum, and
    ABOVE still comes only from the chain.  Should the envelope dip by
    more than the margin, an early CROSS only tests more staircase
    sets: it can turn a rejection into UNSURE or find a genuine
    witness, never reject wrongly.  Each breakpoint is probed at most
    once, and `n_cmax_evals` counts probes too.

    Requires the caller to have verified base and top exact tests pass;
    an immediate ABOVE after one evaluation means the top critical value
    already sits at or below the base statistic.
    """
    g_base = curve.base_stat
    level_now = curve.top_level
    level_before = np.inf
    c = cmax_fn(level_now)
    n = 1
    probed = -1               # breakpoint probed last (levels only fall)
    max_steps = 10 * int(np.ceil((curve.top_level - curve.base_level)
                                 / CROSSING_STEP)) + 50
    for _ in range(max_steps):
        if c <= g_base:
            return CrossingOutcome(kind=ABOVE, level=level_now, n_cmax_evals=n)
        step = level_before - level_now
        if step <= CROSSING_STEP:
            return CrossingOutcome(kind=CROSS, level=level_now, n_cmax_evals=n)
        # the highest breakpoint strictly below the current level
        j = int(np.searchsorted(curve.levels, level_now, side="left")) - 1
        on_interior = (curve.levels[j + 1] == level_now
                       and j + 1 < len(curve.order))
        if (j != probed and level_now - step > curve.levels[j]
                and not on_interior):
            probed = j
            n += 1
            c_probe = cmax_fn(float(curve.levels[j]))
            if c_probe > curve.stats[j] * (1.0 + PROBE_MARGIN):
                return CrossingOutcome(kind=CROSS, level=level_now,
                                       n_cmax_evals=n)
        # c > g_base here, so the target lies inside the curve's range
        level_before = level_now
        level_now = inverse_gmin(curve, min(c, curve.top_stat))
        c = min(c, cmax_fn(level_now))
        n += 1
    raise RuntimeError(  # pragma: no cover - progress is forced
        "crossing iteration failed to terminate")


class ExactTester:
    """The exact test of a feature set against its own null distribution.

    This is the one place a set's own statistic meets its own null:
    single_step, globaltest and full_closed_test all decide through
    `reject`.  The decision `statistic >= critical value` is evaluated as
    `cdf(statistic) >= 1 - alpha`, the same comparison through the same
    cdf without a quantile search.  The statistic sums the members' g in
    the order given (callers pass ascending indices).  `n_tests` counts
    calls to `reject`; `n_by_bound` counts those the tail bound decided.

    Before building the set's distribution, `reject` tries a rigorous
    Chernoff bound on the tail at the statistic (wchi2.chernoff_tail_bound),
    whose inputs need no eigendecomposition: the level L is the weight
    sum, S2 = sum(lambda^2) the squared Frobenius norm of the set's Gram
    matrix (SpectrumProvider.gram, a block of one matrix the provider
    keeps), and M = min(sqrt(S2), largest absolute row sum) bounds the
    largest eigenvalue.  The computed cdf lies at most wchi2.TRUNC_TOL
    below the true one, up to the ladder's rounding (below TRUNC_TOL for
    series of under some 30,000 terms; see wchi2), so when
    bound + 2 * TRUNC_TOL <= alpha (the bound inflated by
    BOUND_REL_SLACK) the series would pass the set too, and `reject`
    returns True without it.  Otherwise the series decides, as before.
    The Gram block is read only when the equal-weights bound, the
    smallest the bound can be for |S| weights summing to L, passes; for
    t <= L the bound is 1 and never passes.
    """

    def __init__(self, stats: FeatureStats, provider: SpectrumProvider,
                 alpha: float):
        self._stats = stats
        self._provider = provider
        self._alpha = alpha
        self.n_tests = 0
        self.n_by_bound = 0

    def statistic(self, S) -> float:
        return float(self._stats.g[list(S)].sum())

    def _bound_passes(self, level: float, sq_sum: float, lam_bound: float,
                      t: float) -> bool:
        bound = chernoff_tail_bound(level, sq_sum, lam_bound, t)
        # twice the computed cdf's largest error below the true one
        return (bound * (1.0 + BOUND_REL_SLACK) + 2.0 * TRUNC_TOL
                <= self._alpha)

    def _decided_by_bound(self, S, t: float) -> bool:
        level = float(self._stats.w[list(S)].sum())
        r = len(S)
        if not self._bound_passes(level, level * level / r, level / r, t):
            return False
        G = self._provider.gram(S)
        sq_sum = float(np.sum(G * G))
        lam_bound = min(np.sqrt(sq_sum), float(np.abs(G).sum(axis=1).max()))
        return self._bound_passes(level, sq_sum, lam_bound, t)

    def reject(self, S) -> bool:
        self.n_tests += 1
        t = self.statistic(S)
        if self._decided_by_bound(S, t):
            self.n_by_bound += 1
            return True
        dist = self._provider.dist(S)
        return bool(dist.cdf(t) >= 1.0 - self._alpha)


@dataclass(frozen=True)
class SingleStepResult:
    decision: str                         # REJECT / NOT_REJECT / UNSURE
    witness: tuple[int, ...] | None       # failing superset when NOT_REJECT
    n_cmax_evals: int
    n_exact_tests: int

    def __post_init__(self):
        if (self.witness is not None) != (self.decision == NOT_REJECT):
            raise ValueError("witness must accompany exactly the NOT_REJECT decision")


def single_step(stats: FeatureStats, provider: SpectrumProvider, R, F,
                alpha: float) -> SingleStepResult:
    """One shortcut pass for R within universe F.

    Decision order: exact tests of R and F (either failing is a witness);
    then the probe, an exact test of the interior staircase set whose
    approximate p-value (likeliest_failing_step) is largest, run only
    when that p-value exceeds alpha (a failure is a witness, and no
    critical envelope is built); then the crossing test; then, on a
    crossing, exact tests of the other staircase sets between R and F
    at or below the level where the crossing iteration stopped (first
    failure is a witness, all passing leaves UNSURE).  The staircase
    endpoints, staircase 0 and the last, are R and F, which have already
    passed.  A probe witness is a failing superset, not necessarily the
    smallest.  A step rejects only when R == F or the crossing ends
    ABOVE, at its first evaluation when R's statistic clears F's
    critical value.

    Staircase sets above the stop level are not tested.  Between two
    consecutive visited levels the statistic envelope stays at or above
    the running critical value, which bounds the critical value of every
    superset at those levels; that is the argument that makes ABOVE a
    rejection, so within the alpha0 caveat below those sets pass.  Where
    the envelope fails, a step that would have found such a set as its
    witness ends UNSURE instead.

    The crossing test's critical envelope is F's own exact critical
    value at F's level (`cmax` there condenses F's spectrum and is
    looser) and one `cmax` call at every other level it visits.  When
    the chain slows down, the search also evaluates `cmax` once at the
    highest breakpoint below it.  A value there clearly above the curve
    stops the search with CROSS at the current level: the plain chain
    would have stalled between that breakpoint and the current level,
    where no breakpoint lies, so the staircase tests below run on the
    same sets in the same order and find the same first witness (see
    crossing_test).  `n_cmax_evals` counts these probes as well as the
    chain's `cmax` calls.

    REJECT and NOT_REJECT are final under closed testing at level alpha
    (assuming alpha is within the majorization validity range); UNSURE
    only means this one comparison could not decide.
    """
    alpha = _alpha_checked(alpha)
    base, top = _nested_sorted(stats, R, F)

    exact = ExactTester(stats, provider, alpha)
    if not exact.reject(base):
        return SingleStepResult(NOT_REJECT, base, 0, exact.n_tests)
    if not exact.reject(top):
        return SingleStepResult(NOT_REJECT, top, 0, exact.n_tests)
    if base == top:
        return SingleStepResult(REJECT, None, 0, exact.n_tests)

    curve = gmin_curve(stats, base, top)
    probed = 0                # staircase index already tested, 0 if none
    if len(curve.order) > 1:
        k, pval = likeliest_failing_step(curve, provider)
        if pval > alpha:
            probed = k
            step_set = curve.staircase(k)
            if not exact.reject(step_set):
                return SingleStepResult(NOT_REJECT, step_set, 0,
                                        exact.n_tests)

    lam_base = provider.spectrum(base)
    lam_top = provider.spectrum(top)
    c_top = provider.dist(top).quantile(1.0 - alpha)

    def envelope(ell: float) -> float:
        if ell == curve.top_level:
            return c_top
        return cmax(lam_base, lam_top, ell, alpha)

    outcome = crossing_test(curve, envelope)
    if outcome.kind == ABOVE:
        return SingleStepResult(REJECT, None, outcome.n_cmax_evals,
                                exact.n_tests)

    for k in range(1, len(curve.order)):
        if curve.levels[k] > outcome.level:
            break
        if k == probed:
            continue
        step_set = curve.staircase(k)
        if not exact.reject(step_set):
            return SingleStepResult(NOT_REJECT, step_set,
                                    outcome.n_cmax_evals, exact.n_tests)
    return SingleStepResult(UNSURE, None, outcome.n_cmax_evals, exact.n_tests)


def curve_table(stats: FeatureStats, provider: SpectrumProvider, R, F,
                alpha: float, samples: int = 200) -> list[dict]:
    """Sampled curve data for diagnostics and export.

    Rows of kind "grid" carry (level, g_min, c_max) at evenly spaced
    levels plus every breakpoint; rows of kind "exact" carry each
    staircase set's (level, statistic, critical_value, members).  The
    keys are the column names of the `ctgt curves` export.  Sorted by
    level, grid rows first within ties, so the first and last rows are
    the base and universe endpoints.
    """
    alpha = _alpha_checked(alpha)
    if samples < 2:
        raise ValueError("need at least two sample points")
    curve = gmin_curve(stats, R, F)
    lam_base = provider.spectrum(curve.base)
    lam_top = provider.spectrum(curve.staircase(len(curve.order)))
    grid = np.unique(np.concatenate((
        np.linspace(curve.base_level, curve.top_level, samples),
        curve.levels)))
    rows = [{"kind": "grid", "level": float(l),
             "g_min": float(curve.evaluate(l)),
             "c_max": float(cmax(lam_base, lam_top, l, alpha))}
            for l in grid]
    for k in range(len(curve.order) + 1):
        members = curve.staircase(k)
        dist = provider.dist(members)
        rows.append({"kind": "exact",
                     "level": level(stats, members),
                     "statistic": float(stats.g[list(members)].sum()),
                     "critical_value": dist.quantile(1.0 - alpha),
                     "members": members})
    rows.sort(key=lambda r: (r["level"], r["kind"] != "grid"))
    return rows
