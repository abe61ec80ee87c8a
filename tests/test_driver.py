"""Single-set test, brute-force closed testing, and the level-bound survey."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ctgt import (WeightedChiSq, alpha0_survey, full_closed_test, globaltest,
                  shortcut)
from ctgt.shortcut import ExactTester
from ctgt.wchi2 import SeriesStallError

from conftest import active_universe, make_instance


def test_singleton_matches_chi2_closed_form():
    data, null, stats, provider = make_instance(seed=50, n=30, m=6, effect=1.0)
    for j in active_universe(stats):
        res = globaltest(stats, provider, (j,), 0.05)
        w = float(stats.w[j])
        assert res.statistic == pytest.approx(float(stats.g[j]), rel=1e-12)
        assert res.critical_value == pytest.approx(
            w * chi2.ppf(0.95, df=1), rel=1e-9)
        assert res.p_value == pytest.approx(
            float(chi2.sf(res.statistic / w, df=1)), abs=1e-10)


def test_statistic_is_additive_over_members():
    data, null, stats, provider = make_instance(seed=51, n=30, m=7, effect=1.0)
    F = active_universe(stats)
    res = globaltest(stats, provider, F[:4], 0.05)
    parts = [globaltest(stats, provider, (j,), 0.05).statistic for j in F[:4]]
    assert res.statistic == pytest.approx(sum(parts), rel=1e-12)


def test_p_value_and_reject_flag_agree():
    rng = np.random.default_rng(52)
    for seed in range(60, 75):
        data, null, stats, provider = make_instance(
            seed=seed, n=30, m=6, effect=rng.uniform(0.0, 2.0))
        F = active_universe(stats)
        if len(F) < 3:
            continue
        k = int(rng.integers(1, len(F) + 1))
        S = tuple(sorted(rng.choice(F, size=k, replace=False).tolist()))
        res = globaltest(stats, provider, S, 0.05)
        if abs(res.p_value - 0.05) < 1e-6:
            continue                      # quantile/cdf boundary, skip
        assert res.reject == (res.p_value <= 0.05)


def test_oracle_with_r_equal_f_is_one_test():
    data, null, stats, provider = make_instance(seed=53, n=30, m=6, effect=1.5)
    F = active_universe(stats)
    oracle = full_closed_test(stats, provider, F, F, 0.05)
    assert oracle.n_tests == 1
    single = globaltest(stats, provider, F, 0.05)
    assert (oracle.decision == "reject") == single.reject
    if oracle.decision == "reject":
        assert oracle.first_failure is None
    else:
        assert oracle.first_failure == single.members


def test_globaltest_agrees_with_the_oracle_at_the_decision_boundary():
    # alpha set to the set's own p-value puts the statistic exactly on
    # the critical value; both paths decide through the same exact test
    checked = 0
    for seed in range(60, 80):
        data, null, stats, provider = make_instance(seed=seed, n=30, m=6,
                                                    effect=1.0)
        F = active_universe(stats)
        for S in (F[:1], F[:2], F[:3], F):
            g = float(stats.g[list(S)].sum())
            alpha = 1.0 - provider.dist(S).cdf(g)
            if not 0.0 < alpha < 0.5:
                continue
            oracle = full_closed_test(stats, provider, S, S, alpha)
            assert globaltest(stats, provider, S, alpha).reject == (
                oracle.decision == "reject"), (seed, S)
            checked += 1
    assert checked >= 30


def test_first_failure_is_first_in_counting_order():
    # replay the documented mask order with the single-set tester and
    # confirm the oracle stopped at the first failing superset
    found = 0
    for seed in range(80, 110):
        data, null, stats, provider = make_instance(
            seed=seed, n=30, m=6, effect=0.5, n_signal=2)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        R = F[:1]
        oracle = full_closed_test(stats, provider, R, F, 0.05)
        if oracle.decision != "not_reject":
            continue
        comp = sorted(set(F) - set(R))
        replay = None
        n_passing = 0
        for mask in range(1 << len(comp)):
            extra = [comp[j] for j in range(len(comp)) if mask >> j & 1]
            S = tuple(sorted(R + tuple(extra)))
            if not globaltest(stats, provider, S, 0.05).reject:
                replay = S
                break
            n_passing += 1
        assert oracle.first_failure == replay
        assert oracle.n_tests == n_passing + 1
        found += 1
        if found >= 5:
            return
    assert found > 0


def _replay(stats, provider, R, F, alpha):
    """(decision, n_tests, n_by_bound, first_failure) from one
    ExactTester.reject call per superset in counting order."""
    exact = ExactTester(stats, provider, alpha)
    comp = sorted(set(F) - set(R))
    for mask in range(1 << len(comp)):
        S = tuple(sorted(R + tuple(comp[j] for j in range(len(comp))
                                   if mask >> j & 1)))
        if not exact.reject(S):
            return ("not_reject", exact.n_tests, exact.n_by_bound, S)
    return ("reject", exact.n_tests, exact.n_by_bound, None)


def _oracle_tuple(stats, provider, R, F, alpha):
    res = full_closed_test(stats, provider, R, F, alpha)
    return (res.decision, res.n_tests, res.n_by_bound, res.first_failure)


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000),
       shape=st.sampled_from([(30, 8, 0), (12, 10, 3)]),
       alpha=st.sampled_from([0.01, 0.05, 0.2]),
       effect=st.floats(0.0, 2.0))
def test_block_pass_matches_a_per_set_replay(seed, shape, alpha, effect):
    n, m, confounders = shape
    data, null, stats, provider = make_instance(
        seed=seed, n=n, m=m, effect=effect, n_signal=2,
        confounders=confounders)
    F = active_universe(stats)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, len(F) + 1))
    R = tuple(sorted(int(i) for i in rng.choice(F, size=k, replace=False)))
    try:
        replay = _replay(stats, provider, R, F, alpha)
    except SeriesStallError:
        # a superset too ill-conditioned for the series stops both walks
        with pytest.raises(SeriesStallError):
            full_closed_test(stats, provider, R, F, alpha)
        return
    assert _oracle_tuple(stats, provider, R, F, alpha) == replay


def test_block_pass_matches_the_replay_across_blocks():
    # with 16 supersets a block, this query's first failure sits in the
    # sixth block, and the bound and the series share the tests before it
    data, null, stats, provider = make_instance(seed=22, n=30, m=8,
                                                effect=1.0, n_signal=2)
    F = active_universe(stats)
    R = F[:1]
    replay = _replay(stats, provider, R, F, 0.2)
    decision, n_tests, n_by_bound, failure = replay
    assert decision == "not_reject" and n_tests > 5 * 16
    assert 0 < n_by_bound < n_tests - 1
    with mock.patch.object(shortcut, "BOUND_BLOCK", 16):
        assert _oracle_tuple(stats, provider, R, F, 0.2) == replay
    assert _oracle_tuple(stats, provider, R, F, 0.2) == replay


@pytest.mark.parametrize("n, m, confounders", [(200, 9, 0), (12, 10, 3)])
def test_block_bound_inputs_equal_the_per_set_sums(n, m, confounders):
    data, null, stats, provider = make_instance(
        seed=3, n=n, m=m, effect=0.5, n_signal=2, confounders=confounders)
    F = active_universe(stats)
    R = F[:2]
    comp = sorted(set(F) - set(R))
    blocks = []
    original = ExactTester._bound_passes

    def recording(self, level, sq_sum, lam_bound, t):
        if isinstance(t, np.ndarray):
            blocks.append(np.stack([level, sq_sum, lam_bound, t], axis=1))
        return original(self, level, sq_sum, lam_bound, t)

    with mock.patch.object(ExactTester, "_bound_passes", recording):
        full_closed_test(stats, provider, R, F, 0.05)
    got = blocks[0]                  # the first block holds every mask
    assert got.shape == (1 << len(comp), 4)
    want = []
    for mask in range(1 << len(comp)):
        S = list(R) + [comp[j] for j in range(len(comp)) if mask >> j & 1]
        G = provider.gram(sorted(S))
        sq_sum = float(np.sum(G * G))
        want.append((stats.w[S].sum(), sq_sum,
                     min(np.sqrt(sq_sum), np.abs(G).sum(axis=1).max()),
                     stats.g[S].sum()))
    want = np.array(want)
    # the largest absolute row sum, not sqrt(S2), is M for some supersets
    assert np.any(want[:, 2] < np.sqrt(want[:, 1]))
    np.testing.assert_allclose(got, want, rtol=1e-12)


@settings(max_examples=8)
@given(seed=st.integers(0, 10_000))
def test_strong_query_is_decided_without_building_a_distribution(seed):
    data, null, stats, provider = make_instance(seed=seed, n=200, m=8,
                                                effect=3.0, n_signal=2)
    F = active_universe(stats)

    def refuse(*args, **kwargs):
        raise AssertionError("a WeightedChiSq was built")

    with mock.patch.object(WeightedChiSq, "__init__", refuse):
        oracle = full_closed_test(stats, provider, (0, 1), F, 0.05)
    assert oracle.decision == "reject"
    assert oracle.n_tests == 2 ** (len(F) - 2)
    assert oracle.n_by_bound == oracle.n_tests


def test_enumeration_cap_enforced():
    data, null, stats, provider = make_instance(seed=54, n=30, m=7, effect=1.0)
    F = active_universe(stats)
    R = F[:1]
    if len(F) - 1 <= 3:
        pytest.skip("instance came up with too few active features")
    with pytest.raises(ValueError, match=f"complement size {len(F) - 1} "
                                         "exceeds the enumeration cap 3"):
        full_closed_test(stats, provider, R, F, 0.05, cap=3)
    # a generous cap runs fine
    full_closed_test(stats, provider, R, F, 0.05, cap=len(F))


def test_negative_cap_is_refused_up_front():
    data, null, stats, provider = make_instance(seed=54, n=30, m=7, effect=1.0)
    F = active_universe(stats)
    # R == F has complement size 0, which no cap below 0 could admit
    with pytest.raises(ValueError,
                       match="enumeration cap must be at least 0, got -1"):
        full_closed_test(stats, provider, F, F, 0.05, cap=-1)


def test_survey_shapes_and_pair_structure():
    data, null, stats, provider = make_instance(seed=55, n=30, m=8, effect=1.0)
    rng = np.random.default_rng(900)
    records = alpha0_survey(stats, provider, rng, n_base_sets=3,
                            n_supersets=7)
    assert len(records) == 7
    bases = {r.base for r in records}
    assert 1 <= len(bases) <= 3
    universe = set(active_universe(stats))
    for r in records:
        assert set(r.base) < set(r.superset) <= universe
        assert r.level == pytest.approx(
            provider.spectrum(r.superset).sum(), rel=1e-12)
        assert 0.0 < r.alpha0 <= 1.0


def test_survey_is_deterministic_under_a_seed():
    data, null, stats, provider = make_instance(seed=56, n=30, m=7, effect=0.8)
    a = alpha0_survey(stats, provider, np.random.default_rng(7),
                      n_base_sets=2, n_supersets=5)
    b = alpha0_survey(stats, provider, np.random.default_rng(7),
                      n_base_sets=2, n_supersets=5)
    assert a == b


def test_survey_minimum_clears_the_working_level():
    # the conservative-bound caveat should not bite at alpha = 0.05 on a
    # plain instance like this one
    data, null, stats, provider = make_instance(seed=57, n=30, m=8, effect=1.2)
    records = alpha0_survey(stats, provider, np.random.default_rng(11),
                            n_base_sets=2, n_supersets=12)
    assert min(r.alpha0 for r in records) > 0.05


def test_survey_input_validation():
    data, null, stats, provider = make_instance(seed=58, n=30, m=6)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        alpha0_survey(stats, provider, rng, n_base_sets=0, n_supersets=5)
    with pytest.raises(ValueError):
        alpha0_survey(stats, provider, rng, n_base_sets=4, n_supersets=3)
    one, _, one_stats, one_provider = make_instance(seed=59, n=40, m=1)
    with pytest.raises(ValueError):
        alpha0_survey(one_stats, one_provider, rng)
