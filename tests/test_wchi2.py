"""Distribution of a nonnegative weighted sum of 1-df chi-squares.

Reference cdf values were computed independently by numerically
inverting the characteristic function (oscillatory quadrature at 40
decimal digits); they are frozen here.  Reference mixture coefficients
come from the classical per-term recursion below.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import ctgt
from ctgt import (MajorizationError, SeriesStallError, WeightedChiSq,
                  alpha0_diagnostic, condense_weights, majorizes,
                  partial_sum_gap)
from ctgt.wchi2 import chernoff_tail_bound

# (weights, point, cdf) triples from the characteristic-function oracle
CF_INVERSION_VALUES = [
    ((3.0, 1.0), 5.0, 0.72835228109449344),
    ((3.0, 1.0), 0.5, 0.13302449769342313),
    ((5.0, 2.0, 1.0, 0.5), 10.0, 0.70633964830319791),
    ((10.0, 0.1), 3.0, 0.40962569400818202),
    ((2.5, 2.5, 0.01), 12.0, 0.90910006467555667),
]

# last crossing point of the cdfs of 2*chisq(1) versus chisq(2), and the
# upper tail mass there; closed-form equation solved by bisection
TWO_VS_ONE_ONE_T0 = 3.072794227163327
TWO_VS_ONE_ONE_ALPHA0 = 0.215154885276291


def recursion_coefficients(lambdas, trunc_tol=1e-12, max_terms=100_000):
    """Mixture coefficients by the classical recursion, one term at a time.

        a_0 = prod_i sqrt(beta / lambda_i)
        a_k = (2k)^{-1} sum_{j=0}^{k-1} g_{k-j} a_j,  g_k = sum_i r_i^k

    with beta = min(lambda) and r_i = 1 - beta / lambda_i, stopping at the
    first k whose accumulated mass reaches 1 - trunc_tol; raises
    SeriesStallError once k reaches max_terms.  Every step adds only
    nonnegative terms, so it is accurate to a few ulps per coefficient,
    at O(K^2) cost.
    """
    lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    lam = lam[lam > 1e-12 * lam[0]]
    beta = lam[-1]
    ratios = 1.0 - beta / lam
    target = 1.0 - trunc_tol
    a = np.zeros(max_terms)
    g = np.zeros(max_terms)            # g[k] holds g_k, k >= 1
    a[0] = float(np.exp(0.5 * np.sum(np.log(beta / lam))))
    mass = a[0]
    powers = np.ones_like(ratios)
    k = 0
    while mass < target:
        k += 1
        if k >= max_terms:
            raise SeriesStallError(f"no convergence in {max_terms} terms")
        powers *= ratios
        g[k] = powers.sum()
        ak = float(np.dot(g[1:k + 1][::-1], a[:k])) / (2.0 * k)
        a[k] = max(ak, 0.0)
        mass += a[k]
    return a[:k + 1].copy()


def _l1_distance(u, v):
    n = max(u.size, v.size)
    return float(np.abs(np.pad(u, (0, n - u.size))
                        - np.pad(v, (0, n - v.size))).sum())


@st.composite
def spectra(draw):
    """1 to 60 weights spread over a ratio of at most 2e3 (max 2e3, min 1)."""
    d = draw(st.integers(1, 60))
    log_ratio = draw(st.floats(0.0, float(np.log(2e3))))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=max(d - 2, 0),
                          max_size=max(d - 2, 0)))
    u = np.array([1.0] + inner + [0.0])[:d]
    return np.exp(log_ratio * u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spectra())
def test_coefficients_match_the_recursion(lam):
    tol = 1e-10
    d = WeightedChiSq(lam)
    coeffs = d._coeffs
    assert coeffs.min() >= 0.0
    assert 1.0 - d.trunc_tol <= d.mass <= 1.0 + 1e-9
    assert _l1_distance(coeffs, recursion_coefficients(lam)) <= 1e-11
    for p in (0.5, 0.95, 0.99):
        c = d.cdf(d.quantile(p, tol=tol))
        assert p <= c <= p + tol, (p, c)


@settings(max_examples=60)
@given(spectra(), st.floats(0.01, 30.0), st.floats(1.0, 4.0))
def test_chernoff_bound_covers_the_computed_tail(lam, excess, stretch):
    d = WeightedChiSq(lam)
    level = float(lam.sum())
    sq_sum = float(np.sum(lam * lam))
    t = level * (1.0 + excess)
    tail = 1.0 - d.cdf(t)
    # any M >= max(lam) is admissible: the largest weight, a looser
    # multiple of it, and sqrt(S2), one of the two the exact test uses
    for lam_bound in (lam.max(), stretch * lam.max(), np.sqrt(sq_sum)):
        bound = chernoff_tail_bound(level, sq_sum, lam_bound, t)
        assert 0.0 <= bound <= 1.0
        assert bound >= tail - 2.0 * d.trunc_tol, (lam_bound, bound, tail)
    r = lam.size
    equal = chernoff_tail_bound(level, level * level / r, level / r, t)
    assert equal <= chernoff_tail_bound(level, sq_sum, lam.max(), t) * (
        1.0 + 1e-12)
    assert chernoff_tail_bound(level, sq_sum, lam.max(), level) == 1.0


@pytest.mark.parametrize("lam", [(40.0, 1.0), (300.0, 7.0, 1.0),
                                 (1500.0, 1500.0, 20.0, 1.0)])
def test_stall_boundary_follows_the_series_length(lam):
    n = recursion_coefficients(lam).size
    assert WeightedChiSq(lam, max_terms=n + n // 10 + 2).n_terms <= n + n // 10
    with pytest.raises(SeriesStallError):
        WeightedChiSq(lam, max_terms=n // 2)


def test_cdf_matches_cf_inversion_oracle():
    for lams, t, want in CF_INVERSION_VALUES:
        got = WeightedChiSq(lams).cdf(t)
        assert got == pytest.approx(want, abs=5e-13), (lams, t)


def test_singleton_closed_form():
    d = WeightedChiSq([4.0])
    for t in (0.1, 1.0, 5.0, 20.0):
        assert d.cdf(t) == pytest.approx(chi2.cdf(t / 4.0, 1), abs=1e-12)


def test_equal_weights_closed_form():
    # k equal weights a: the sum is a * chisq(k)
    for a, k in ((1.0, 3), (2.5, 5), (0.3, 2)):
        d = WeightedChiSq([a] * k)
        assert d.n_terms == 1
        for t in (0.5, 2.0, 8.0, 25.0):
            assert d.cdf(t) == pytest.approx(chi2.cdf(t / a, k), abs=1e-12)


def test_cdf_basic_shape():
    d = WeightedChiSq([2.0, 1.0, 0.5])
    ts = np.linspace(0.0, 60.0, 200)
    vals = d.cdf(ts)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= -1e-13)
    assert vals[-1] > 0.999
    assert d.cdf(-1.0) == 0.0


def test_monte_carlo_agreement():
    rng = np.random.default_rng(314)
    lams = np.array([3.0, 1.2, 0.4, 0.1])
    draws = rng.chisquare(1, size=(200_000, 4)) @ lams
    d = WeightedChiSq(lams)
    for p in (0.25, 0.5, 0.9, 0.95):
        t = d.quantile(p)
        emp = np.mean(draws <= t)
        se = np.sqrt(p * (1 - p) / draws.size)
        assert abs(emp - p) < 4 * se


def test_quantile_round_trip():
    d = WeightedChiSq([5.0, 2.0, 1.0, 0.5])
    for p in (0.01, 0.5, 0.9, 0.95, 0.999):
        t = d.quantile(p)
        assert d.cdf(t) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("p", [0.95, 0.99])
def test_quantile_is_the_upper_end_of_its_bracket(p):
    # cmax must bound critical values from above, so the returned point
    # may not sit below the quantile of the computed cdf
    rng = np.random.default_rng(0)
    tol = 1e-10
    for _ in range(300):
        lam = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 8)))
        d = WeightedChiSq(lam)
        c = d.cdf(d.quantile(p, tol=tol))
        assert p <= c <= p + tol, lam


def test_a_point_cdf_does_not_depend_on_the_other_points():
    # quantile's bracket contract is stated for scalar cdf calls, but its
    # search evaluates points in pairs
    rng = np.random.default_rng(5)
    for _ in range(40):
        lam = rng.uniform(0.05, 5.0, size=int(rng.integers(2, 12)))
        d = WeightedChiSq(lam)
        ts = d.quantile(0.5) * rng.uniform(0.2, 3.0, size=5)
        together = d.cdf(ts)
        for i, t in enumerate(ts):
            assert d.cdf(t) == d.cdf(np.array([t, 1.1 * t]))[0]
            assert d.cdf(t) == together[i]


def test_quantile_scale_equivariance():
    # scaling every weight by c scales every quantile by c
    base = WeightedChiSq([2.0, 1.0, 0.25])
    scaled = WeightedChiSq([6.0, 3.0, 0.75])
    for p in (0.1, 0.5, 0.95):
        assert scaled.quantile(p) == pytest.approx(3.0 * base.quantile(p),
                                                   rel=1e-9)


def test_series_coefficients_are_a_probability_vector():
    rng = np.random.default_rng(99)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        lams = rng.uniform(0.05, 5.0, size=k)
        d = WeightedChiSq(lams)
        assert d.mass >= 1.0 - d.trunc_tol
        assert d.mass <= 1.0 + 1e-9


def test_tiny_weights_dropped():
    d = WeightedChiSq([1.0, 1e-15])
    assert d.lambdas.size == 1


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        WeightedChiSq([1.0, -0.5])
    with pytest.raises(ValueError):
        WeightedChiSq([])


def test_extreme_ratio_stalls_with_clear_error():
    # ratio 1e9 needs more mixture terms than any sane cap
    with pytest.raises(SeriesStallError):
        WeightedChiSq([1e9, 1.0], max_terms=2000)


def test_condense_preserves_total_and_majorizes():
    v = np.array([8.0, 3.0, 1.2, 0.9, 9.33e-4, 4e-6, 3e-7])
    c = condense_weights(v, 5e-3)
    assert c.sum() == pytest.approx(v.sum(), abs=1e-12)
    assert c.min() >= 5e-3 * c.max() - 1e-15
    assert majorizes(c, v, tol=1e-12)
    # modest ratios come back untouched
    u = np.array([2.0, 1.0, 0.5])
    assert np.array_equal(condense_weights(u, 5e-3), u)


def test_condense_lumps_many_tiny_entries():
    # forty sub-threshold entries collapse into above-threshold lumps
    w = np.concatenate(([1.0], np.full(40, 2e-3)))
    c = condense_weights(w, 5e-3)
    assert c.size < w.size
    assert c.min() >= 5e-3 * c.max()
    assert c.sum() == pytest.approx(w.sum(), abs=1e-12)
    assert majorizes(c, w, tol=1e-12)


def test_condense_matches_a_sorted_list_merge_bit_for_bit():
    def reference(v, reltol):
        merged = sorted(v, reverse=True)
        tau = reltol * merged[0]
        while len(merged) >= 2 and merged[-1] < tau:
            merged.append(merged.pop() + merged.pop())
            merged.sort(reverse=True)
        return np.array(merged)

    rng = np.random.default_rng(43)
    for trial in range(600):
        d = int(rng.integers(1, 30))
        if trial % 2:
            v = np.exp(rng.uniform(-15.0, 2.0, d))
        else:                                     # many ties
            v = rng.choice([1e-5, 2e-5, 1e-3, 0.5, 1.0, 3.0], d)
        reltol = float(rng.choice([5e-3, 2e-2, 0.1, 0.5]))
        got = condense_weights(v, reltol)
        assert np.array_equal(got, reference(v, reltol)), (v, reltol)


def test_condense_unblocks_the_series():
    # raw ratio 5e6 would stall; the condensed vector evaluates fine
    raw = np.array([5.0, 1.0, 1e-6])
    with pytest.raises(SeriesStallError):
        WeightedChiSq(raw, max_terms=50_000)
    dist = WeightedChiSq(condense_weights(raw, 5e-3))
    assert 0.0 < dist.cdf(8.0) < 1.0


def test_condensed_quantile_dominates_raw():
    rng = np.random.default_rng(41)
    for _ in range(8):
        big = rng.uniform(1.0, 6.0, size=4)
        small = rng.uniform(5e-3, 5e-2, size=3)   # convergent but condensable
        raw = np.sort(np.concatenate((big, small)))[::-1]
        q_raw = WeightedChiSq(raw).quantile(0.95)
        q_con = WeightedChiSq(condense_weights(raw, 2e-2)).quantile(0.95)
        assert q_con >= q_raw - 1e-9


def test_condense_validation():
    with pytest.raises(ValueError):
        condense_weights([1.0, 0.5], 0.0)
    with pytest.raises(ValueError):
        condense_weights([1.0, 0.5], 1.0)
    with pytest.raises(ValueError):
        condense_weights([1.0, -0.5], 1e-2)


def test_partial_sum_checks():
    assert majorizes([2.0, 0.0], [1.0, 1.0])
    assert majorizes([3.0, 1.0], [3.0, 1.0])
    assert majorizes([1.5, 0.5], [1.0, 1.0])
    assert not majorizes([1.5, 0.6], [1.0, 1.0])     # totals differ
    assert not majorizes([1.2, 0.8], [1.5, 0.5])     # head too small
    # minimum over prefixes: min(2-1, 2-2) = 0 for a tight majorizing pair
    gap = partial_sum_gap([2.0, 0.0], [1.0, 1.0])
    assert gap == pytest.approx(0.0)
    assert partial_sum_gap([1.2, 0.8], [1.5, 0.5]) == pytest.approx(-0.3)


def test_alpha0_on_equal_vectors_is_one():
    assert alpha0_diagnostic([2.0, 1.0], [2.0, 1.0]) == 1.0
    assert alpha0_diagnostic([2.0, 1.0], [2.0 + 1e-12, 1.0 - 1e-12]) == 1.0


def test_alpha0_two_vs_one_one_frozen_value():
    got = alpha0_diagnostic([1.0, 1.0], [2.0])
    assert got == pytest.approx(TWO_VS_ONE_ONE_ALPHA0, abs=1e-6)


def test_alpha0_requires_majorization():
    with pytest.raises(MajorizationError):
        alpha0_diagnostic([2.0, 1.0], [1.5, 1.5])


def test_alpha0_under_mild_spread_is_large():
    # nearly equal pair: the crossing sits deep in the tail, so the safe
    # range covers any working significance level
    a0 = alpha0_diagnostic([1.0, 0.98], [1.02, 0.96])
    assert a0 > 0.05


def test_dominance_sanity_random_pairs():
    # spreading weight (reverse Robin Hood) never shrinks the quantile
    rng = np.random.default_rng(2718)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        minor = np.sort(rng.uniform(0.2, 3.0, size=k))[::-1]
        major = minor.copy()
        i = int(rng.integers(0, k - 1))
        shift = rng.uniform(0.0, major[i + 1])
        major[i] += shift
        major[i + 1] -= shift
        major = np.sort(major)[::-1]
        assert majorizes(major, minor)
        q_minor = WeightedChiSq(minor).quantile(0.95)
        q_major = WeightedChiSq(np.maximum(major, 1e-9)).quantile(0.95)
        assert q_major >= q_minor - 1e-7


def test_importing_ctgt_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(ctgt.__file__))
    code = "import sys, ctgt; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
