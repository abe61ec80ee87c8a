"""Envelope curves, the conservative critical bound, and the one-pass
decision rule, checked against exhaustive enumeration on small universes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctgt
from ctgt import (FeatureStats, InfeasibleLevelError, Spectrum,
                  TargetOutOfRangeError, WeightedChiSq, cmax, crossing_test,
                  curve_table, full_closed_test, gmin_curve, inverse_gmin,
                  level, majorizes, majorizing_vector, single_step)

from conftest import active_universe, make_instance


def _hand_stats(g, w):
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    return FeatureStats(g=g, w=w, q=g / w, active=np.ones(g.size, dtype=bool))


def test_level_is_weight_sum():
    stats = _hand_stats([5.0, 1.0, 3.0], [1.0, 2.0, 1.5])
    assert level(stats, (0, 2)) == pytest.approx(2.5)
    assert level(stats, (1,)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        level(stats, ())
    with pytest.raises(ValueError):
        level(stats, (0, 7))


def test_curve_hand_example():
    # complement ordered by ratio: feature 1 (0.5), 3 (1.0), 2 (3.0)
    stats = _hand_stats([5.0, 1.0, 3.0, 2.0], [1.0, 2.0, 1.0, 2.0])
    curve = gmin_curve(stats, (0,), (0, 1, 2, 3))
    assert curve.order == (1, 3, 2)
    assert curve.levels == pytest.approx([1.0, 3.0, 5.0, 6.0])
    assert curve.stats == pytest.approx([5.0, 6.0, 8.0, 11.0])
    assert curve.evaluate(2.0) == pytest.approx(5.5)
    assert curve.staircase(0) == (0,)
    assert curve.staircase(2) == (0, 1, 3)
    assert curve.staircase(3) == (0, 1, 2, 3)
    # convexity: slopes ascend
    assert np.all(np.diff(curve.slopes) >= 0)


def test_curve_rejects_bad_sets():
    stats = _hand_stats([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        gmin_curve(stats, (0,), (0,))            # empty complement
    with pytest.raises(ValueError):
        gmin_curve(stats, (1,), (0,))            # not nested


def test_inverse_hand_example():
    stats = _hand_stats([5.0, 1.0, 3.0, 2.0], [1.0, 2.0, 1.0, 2.0])
    curve = gmin_curve(stats, (0,), (0, 1, 2, 3))
    assert inverse_gmin(curve, 7.0) == pytest.approx(4.0)
    assert inverse_gmin(curve, 5.0) == pytest.approx(1.0)
    assert inverse_gmin(curve, 11.0) == pytest.approx(6.0)
    with pytest.raises(TargetOutOfRangeError):
        inverse_gmin(curve, 11.5)
    with pytest.raises(TargetOutOfRangeError):
        inverse_gmin(curve, 4.0)


def test_inverse_flat_segment_takes_the_supremum():
    # feature 1 adds no statistic: the curve is flat on [1, 3]
    stats = _hand_stats([5.0, 0.0, 4.0], [1.0, 2.0, 1.0])
    curve = gmin_curve(stats, (0,), (0, 1, 2))
    assert inverse_gmin(curve, 5.0) == pytest.approx(3.0)


def test_inverse_round_trip_random():
    rng = np.random.default_rng(101)
    data, null, stats, provider = make_instance(seed=101, n=30, m=8)
    F = active_universe(stats)
    curve = gmin_curve(stats, F[:2], F)
    for t in rng.uniform(curve.base_stat, curve.top_stat, size=25):
        lvl = inverse_gmin(curve, t)
        assert curve.evaluate(lvl) == pytest.approx(t, abs=1e-8)


def test_envelope_is_an_exhaustive_lower_bound():
    # every superset's (level, statistic) point sits on or above the curve
    data, null, stats, provider = make_instance(seed=107, n=30, m=9,
                                                effect=1.0, n_signal=3)
    F = active_universe(stats)
    R = F[:2]
    curve = gmin_curve(stats, R, F)
    comp = [j for j in F if j not in R]
    for r in range(len(comp) + 1):
        for extra in itertools.combinations(comp, r):
            S = list(R) + list(extra)
            ell = float(stats.w[S].sum())
            g_s = float(stats.g[S].sum())
            assert g_s >= curve.evaluate(ell) - 1e-9


def test_majorizing_vector_endpoint_identities():
    data, null, stats, provider = make_instance(seed=109, n=30, m=7)
    F = active_universe(stats)
    lam_r = provider.spectrum(F[:2])
    lam_f = provider.spectrum(F)
    at_base = majorizing_vector(lam_r, lam_f, lam_r.level)
    at_top = majorizing_vector(lam_r, lam_f, lam_f.level)
    assert at_base.lambdas == pytest.approx(lam_r.lambdas, rel=1e-9)
    assert at_top.lambdas == pytest.approx(lam_f.lambdas, rel=1e-9)


def test_tiny_connecting_entry_is_condensed():
    # just past a window edge with a zero-padded base, the connecting
    # entry is near zero; raw ratio 5e6 would stall the series
    lam_r = Spectrum(lambdas=np.array([4.0]), ambient_n=6, level=4.0)
    lam_f = Spectrum(lambdas=np.array([5.0, 3.0, 2.0, 1.0]), ambient_n=6,
                     level=11.0)
    ell = 5.0 + 1e-6
    raw = majorizing_vector(lam_r, lam_f, ell, condense_tol=0.0)
    assert raw.lambdas == pytest.approx([5.0, 1e-6], rel=1e-9)
    vec = majorizing_vector(lam_r, lam_f, ell)
    assert vec.lambdas.min() >= 5e-3 * vec.lambdas.max()
    assert vec.level == pytest.approx(ell, abs=1e-12)
    assert majorizes(vec, raw, tol=1e-12)
    c = cmax(lam_r, lam_f, ell, 0.05)
    assert c >= WeightedChiSq([5.0]).quantile(0.95)


def test_majorizing_vector_level_and_feasibility():
    data, null, stats, provider = make_instance(seed=113, n=30, m=7)
    F = active_universe(stats)
    lam_r = provider.spectrum(F[:2])
    lam_f = provider.spectrum(F)
    mid = 0.5 * (lam_r.level + lam_f.level)
    vec = majorizing_vector(lam_r, lam_f, mid)
    assert vec.level == pytest.approx(mid, rel=1e-9)
    with pytest.raises(InfeasibleLevelError):
        majorizing_vector(lam_r, lam_f, lam_r.level * 0.5)
    with pytest.raises(InfeasibleLevelError):
        majorizing_vector(lam_r, lam_f, lam_f.level * 1.5)
    with pytest.raises(InfeasibleLevelError):
        majorizing_vector(lam_f, lam_r, mid)     # swapped: not nested


def test_majorizing_vector_dominates_every_superset_spectrum():
    # the construction's whole point, checked exhaustively on 2^5 supersets
    data, null, stats, provider = make_instance(seed=127, n=28, m=7,
                                                effect=0.5, n_signal=2)
    F = active_universe(stats)
    R = F[:2]
    lam_r = provider.spectrum(R)
    lam_f = provider.spectrum(F)
    comp = [j for j in F if j not in R]
    for r in range(len(comp) + 1):
        for extra in itertools.combinations(comp, r):
            S = tuple(sorted(list(R) + list(extra)))
            lam_s = provider.spectrum(S)
            vec = majorizing_vector(lam_r, lam_f, lam_s.level)
            assert majorizes(vec, lam_s.lambdas, tol=1e-8), S


def test_cmax_endpoints_and_monotonicity():
    data, null, stats, provider = make_instance(seed=131, n=30, m=6)
    F = active_universe(stats)
    R = F[:2]
    lam_r = provider.spectrum(R)
    lam_f = provider.spectrum(F)
    alpha = 0.05
    c_base = cmax(lam_r, lam_f, lam_r.level, alpha)
    c_top = cmax(lam_r, lam_f, lam_f.level, alpha)
    assert c_base == pytest.approx(WeightedChiSq(lam_r).quantile(0.95),
                                   rel=1e-8)
    assert c_top == pytest.approx(WeightedChiSq(lam_f).quantile(0.95),
                                  rel=1e-8)
    grid = np.linspace(lam_r.level, lam_f.level, 40)
    vals = [cmax(lam_r, lam_f, l, alpha) for l in grid]
    assert np.all(np.diff(vals) >= -1e-8)


def test_cmax_bounds_exact_critical_values():
    data, null, stats, provider = make_instance(seed=137, n=28, m=7)
    F = active_universe(stats)
    R = F[:2]
    lam_r = provider.spectrum(R)
    lam_f = provider.spectrum(F)
    comp = [j for j in F if j not in R]
    for r in range(len(comp) + 1):
        for extra in itertools.combinations(comp, r):
            S = tuple(sorted(list(R) + list(extra)))
            exact_c = provider.dist(S).quantile(0.95)
            bound = cmax(lam_r, lam_f, provider.spectrum(S).level, 0.05)
            assert bound >= exact_c - 1e-7, S


def test_single_step_starts_the_crossing_at_the_universe_critical_value(
        monkeypatch):
    # (seed 147, F[1:2]) passes the probe and ends REJECT via ABOVE
    data, null, stats, provider = make_instance(seed=147, n=30, m=8,
                                                effect=2.0, n_signal=2)
    F = active_universe(stats)
    real = ctgt.shortcut.crossing_test
    seen = []

    def spy(curve, cmax_fn, epsilon):
        seen.append((curve, cmax_fn))
        return real(curve, cmax_fn, epsilon)

    monkeypatch.setattr(ctgt.shortcut, "crossing_test", spy)
    single_step(stats, provider, F[1:2], F, 0.05)
    assert len(seen) == 1                     # the pair reaches the crossing
    curve, cmax_fn = seen[0]
    assert cmax_fn(curve.top_level) == provider.dist(F).quantile(0.95)
    below = curve.levels[-2]
    assert cmax_fn(below) == cmax(provider.spectrum(F[1:2]),
                                  provider.spectrum(F), below, 0.05)


def test_failing_probe_settles_the_step_without_the_crossing(monkeypatch):
    # (seed 139, F[:1]) ends at the probe
    data, null, stats, provider = make_instance(seed=139, n=30, m=8,
                                                effect=2.0, n_signal=2)
    F = active_universe(stats)
    called = []
    monkeypatch.setattr(ctgt.shortcut, "crossing_test",
                        lambda *a, **k: called.append("crossing_test"))
    monkeypatch.setattr(ctgt.shortcut, "cmax",
                        lambda *a, **k: called.append("cmax"))
    res = single_step(stats, provider, F[:1], F, 0.05)
    assert called == []
    assert res.decision == "not_reject"
    assert res.n_cmax_evals == 0
    curve = gmin_curve(stats, F[:1], F)
    interior = [curve.staircase(k) for k in range(1, len(curve.order))]
    assert res.witness in interior
    tester = ctgt.ExactTester(stats, provider, 0.05)
    assert not tester.reject(res.witness)


@pytest.mark.parametrize("n, m", [(30, 8), (10, 14)])
def test_probe_square_sums_match_the_spectra(n, m):
    data, null, stats, provider = make_instance(seed=141, n=n, m=m,
                                                effect=1.0, n_signal=2)
    F = active_universe(stats)
    curve = gmin_curve(stats, F[:2], F)
    sums = ctgt.shortcut.staircase_square_sums(curve, provider)
    assert sums.shape == (len(curve.order) + 1,)
    for k, got in enumerate(sums):
        lam = provider.spectrum(curve.staircase(k)).lambdas
        assert got == pytest.approx(np.sum(lam ** 2), rel=1e-9)
    # with m > n the larger staircase sets take the n x n spectrum branch
    sizes = [len(curve.staircase(k)) for k in range(sums.size)]
    assert (max(sizes) > n) == (m > n)


def test_probe_runs_no_exact_test_when_every_approximation_passes():
    # (seed 147, F[1:2]) ranks every interior staircase set at or below
    # alpha and ends REJECT via ABOVE: only R and F are tested exactly
    data, null, stats, provider = make_instance(seed=147, n=30, m=8,
                                                effect=2.0, n_signal=2)
    F = active_universe(stats)
    R = F[1:2]
    curve = gmin_curve(stats, R, F)
    _, pval = ctgt.shortcut.likeliest_failing_step(curve, provider)
    assert pval <= 0.05
    res = single_step(stats, provider, R, F, 0.05)
    assert res.decision == "reject"
    assert res.n_cmax_evals > 0
    assert res.n_exact_tests == 2


def test_crossing_strong_signal_is_above_in_one_evaluation():
    stats = _hand_stats([500.0, 1.0, 1.5], [1.0, 1.0, 1.0])
    curve = gmin_curve(stats, (0,), (0, 1, 2))
    calls = []

    def fake_cmax(l):
        calls.append(l)
        return 10.0                           # far below the base statistic

    out = crossing_test(curve, fake_cmax)
    assert out.kind == "above"
    assert out.n_cmax_evals == 1
    assert calls == [curve.top_level]


def test_crossing_flat_bound_finds_the_crossing_level():
    # constant critical value 6 crosses the hand curve where g_min = 6
    stats = _hand_stats([5.0, 1.0, 3.0, 2.0], [1.0, 2.0, 1.0, 2.0])
    curve = gmin_curve(stats, (0,), (0, 1, 2, 3))
    out = crossing_test(curve, lambda l: 6.0, epsilon=1e-6)
    assert out.kind == "cross"
    assert out.level == pytest.approx(3.0, abs=1e-5)


def test_crossing_epsilon_validation():
    stats = _hand_stats([5.0, 1.0], [1.0, 1.0])
    curve = gmin_curve(stats, (0,), (0, 1))
    with pytest.raises(ValueError):
        crossing_test(curve, lambda l: 1.0, epsilon=0.0)


def test_single_step_result_invariants():
    data, null, stats, provider = make_instance(seed=149, n=30, m=8,
                                                effect=1.0, n_signal=2)
    F = active_universe(stats)
    for R in [(F[0],), F[:3], F]:
        res = single_step(stats, provider, R, F, 0.05)
        assert res.decision in ("reject", "not_reject", "unsure")
        assert (res.witness is not None) == (res.decision == "not_reject")
        if res.witness is not None:
            assert set(R) <= set(res.witness) <= set(F)


def test_single_step_never_contradicts_the_oracle():
    checked = 0
    for seed in range(200, 220):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=7, effect=float(seed % 3), n_signal=2)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        rng = np.random.default_rng(seed + 1)
        for _ in range(2):
            k = int(rng.integers(1, len(F)))
            R = tuple(sorted(rng.choice(F, size=k, replace=False)))
            res = single_step(stats, provider, R, F, 0.05)
            oracle = full_closed_test(stats, provider, R, F, 0.05)
            if res.decision != "unsure":
                assert res.decision == oracle.decision, (seed, R)
            checked += 1
    assert checked >= 30


def test_single_step_whole_universe_is_one_exact_test():
    data, null, stats, provider = make_instance(seed=151, n=30, m=6)
    F = active_universe(stats)
    res = single_step(stats, provider, F, F, 0.05)
    oracle = full_closed_test(stats, provider, F, F, 0.05)
    assert res.decision == oracle.decision
    assert res.n_cmax_evals == 0


def test_curve_table_rows():
    data, null, stats, provider = make_instance(seed=157, n=30, m=6,
                                                effect=1.0)
    F = active_universe(stats)
    R = F[:2]
    rows = curve_table(stats, provider, R, F, 0.05, samples=20)
    first, last = rows[0], rows[-1]
    lam_r = provider.spectrum(R)
    lam_f = provider.spectrum(F)
    assert first["kind"] == "grid"
    assert first["level"] == pytest.approx(lam_r.level, rel=1e-9)
    assert first["gmin"] == pytest.approx(float(stats.g[list(R)].sum()),
                                          rel=1e-9)
    assert first["cmax"] == pytest.approx(provider.dist(R).quantile(0.95),
                                          rel=1e-8)
    assert last["kind"] == "exact"
    assert last["level"] == pytest.approx(lam_f.level, rel=1e-9)
    assert last["members"] == F
    grid_rows = [r for r in rows if r["kind"] == "grid"]
    gmin_vals = [r["gmin"] for r in grid_rows]
    assert np.all(np.diff(gmin_vals) >= -1e-9)
    # spot-check the cmax column against direct recomputation
    for r in grid_rows[:: max(1, len(grid_rows) // 5)]:
        direct = cmax(lam_r, lam_f, r["level"], 0.05)
        assert r["cmax"] == pytest.approx(direct, rel=1e-8)


@pytest.mark.filterwarnings("ignore::ctgt.SeparationWarning",
                            "ignore::RuntimeWarning")
@settings(max_examples=80)
@given(seed=st.integers(0, 10_000),
       shape=st.sampled_from([(40, 8, 0), (12, 10, 3), (10, 14, 0)]),
       effect=st.sampled_from([0.0, 2.0, 5.0]),
       alpha=st.sampled_from([0.01, 0.05, 0.2]), data=st.data())
def test_exact_tester_matches_the_series_cdf(seed, shape, effect, alpha,
                                             data):
    # (n, m, confounders): sets may hold more features than n - p, or n
    n, m, confounders = shape
    _, _, stats, provider = make_instance(seed=seed, n=n, m=m, effect=effect,
                                          n_signal=2,
                                          confounders=confounders)
    F = active_universe(stats)
    S = tuple(sorted(data.draw(
        st.lists(st.sampled_from(F), min_size=1, max_size=len(F),
                 unique=True), label="S")))
    tester = ctgt.ExactTester(stats, provider, alpha)
    try:
        want = provider.dist(S).cdf(tester.statistic(S)) >= 1.0 - alpha
    except ctgt.SeriesStallError:
        # wide sets can stall the series; then only the bound decides
        try:
            assert tester.reject(S) and tester.n_by_bound == 1
        except ctgt.SeriesStallError:
            assert tester.n_by_bound == 0
        return
    assert tester.reject(S) == want
    assert tester.n_tests == 1 and tester.n_by_bound <= 1
    assert want or tester.n_by_bound == 0
