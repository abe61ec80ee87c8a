"""Reference engine: direct Globaltest and brute-force closed testing.

The brute-force path enumerates every superset of the tested set and
checks each against its own critical value.  It is exponential in the
complement size and exists to validate the shortcut, not to be fast;
the enumeration is capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linmodel import FeatureStats, SpectrumProvider
from .shortcut import (NOT_REJECT, REJECT, ExactTester, _active_sorted,
                       _alpha_checked, _nested_sorted, majorizing_vector)
from .wchi2 import alpha0_diagnostic

DEFAULT_CAP = 20


class EnumerationCapError(ValueError):
    """Complement too large for exhaustive enumeration."""


@dataclass(frozen=True)
class GlobaltestResult:
    members: tuple[int, ...]
    statistic: float
    critical_value: float
    p_value: float
    reject: bool


def globaltest(stats: FeatureStats, provider: SpectrumProvider, S,
               alpha: float) -> GlobaltestResult:
    """Exact test of one feature set against its own null distribution.

    The decision is ExactTester.reject; the critical value and p-value
    are reported alongside it.
    """
    alpha = _alpha_checked(alpha)
    members = _active_sorted(stats, S, "tested set")
    exact = ExactTester(stats, provider, alpha)
    statistic = exact.statistic(members)
    dist = provider.dist(members)
    return GlobaltestResult(members=members, statistic=statistic,
                            critical_value=dist.quantile(1.0 - alpha),
                            p_value=float(1.0 - dist.cdf(statistic)),
                            reject=exact.reject(members))


@dataclass(frozen=True)
class OracleResult:
    decision: str                         # REJECT or NOT_REJECT
    n_tests: int
    first_failure: tuple[int, ...] | None
    n_by_bound: int                       # tests the tail bound decided


def full_closed_test(stats: FeatureStats, provider: SpectrumProvider, R, F,
                     alpha: float, cap: int = DEFAULT_CAP) -> OracleResult:
    """Closed testing by exhaustive enumeration of supersets of R in F.

    Subsets of the complement are visited in binary counting order (bit j
    selects the j-th complement feature, complement sorted ascending), so
    R itself comes first and the reported first_failure is the
    lowest-order failing superset.  Stops at the first failure.  Each
    superset is decided by ExactTester.reject, the exact test the
    shortcut uses, so agreement checks carry no cross-method tolerance.
    """
    alpha = _alpha_checked(alpha)
    base, top = _nested_sorted(stats, R, F)
    comp = sorted(set(top) - set(base))
    if len(comp) > cap:
        raise EnumerationCapError(
            f"complement size {len(comp)} exceeds the enumeration cap {cap}")

    exact = ExactTester(stats, provider, alpha)
    for mask in range(1 << len(comp)):
        extra = tuple(comp[j] for j in range(len(comp)) if mask >> j & 1)
        members = tuple(sorted(base + extra))
        if not exact.reject(members):
            return OracleResult(decision=NOT_REJECT, n_tests=exact.n_tests,
                                first_failure=members,
                                n_by_bound=exact.n_by_bound)
    return OracleResult(decision=REJECT, n_tests=exact.n_tests,
                        first_failure=None, n_by_bound=exact.n_by_bound)


@dataclass(frozen=True)
class AlphaZeroRecord:
    base: tuple[int, ...]
    superset: tuple[int, ...]
    level: float
    alpha0: float


def alpha0_survey(stats: FeatureStats, provider: SpectrumProvider,
                  rng, n_base_sets: int = 4, n_supersets: int = 100
                  ) -> list[AlphaZeroRecord]:
    """Audit the conservative level bound on random set/superset pairs.

    For each sampled base set and each sampled strict superset, compares
    the superset's true null distribution against the majorizing one
    used by the shortcut at that level, and records the smallest
    significance level alpha0 at which the bound could fail to be
    conservative.  A survey minimum above the working alpha certifies
    the shortcut's conservatism for sets like those sampled.

    Base sets hold between one feature and a quarter of the universe
    (never all of it); supersets are spread evenly across base sets
    (remainder to the earlier ones).  Null distributions use the
    provider's truncation tolerance.  Requires at least two active
    features.
    """
    universe = list(stats.active_indices)
    if len(universe) < 2:
        raise ValueError("need at least two active features")
    if n_base_sets < 1 or n_supersets < n_base_sets:
        raise ValueError("need n_supersets >= n_base_sets >= 1")
    max_base_size = min(max(1, len(universe) // 4), len(universe) - 1)

    counts = [n_supersets // n_base_sets] * n_base_sets
    for j in range(n_supersets % n_base_sets):
        counts[j] += 1

    lam_full = provider.spectrum(tuple(universe))
    records = []
    for count in counts:
        k = int(rng.integers(1, max_base_size + 1))
        base = tuple(sorted(int(i) for i in
                            rng.choice(universe, size=k, replace=False)))
        lam_base = provider.spectrum(base)
        comp = [i for i in universe if i not in base]
        for _ in range(count):
            extra = int(rng.integers(1, len(comp) + 1))
            add = rng.choice(comp, size=extra, replace=False)
            sup = tuple(sorted(base + tuple(int(i) for i in add)))
            lam_sup = provider.spectrum(sup)
            major = majorizing_vector(lam_base, lam_full, lam_sup.level)
            a0 = alpha0_diagnostic(lam_sup.lambdas, major.lambdas,
                                   trunc_tol=provider.trunc_tol)
            records.append(AlphaZeroRecord(base=base, superset=sup,
                                           level=lam_sup.level, alpha0=a0))
    return records
