"""Branch-and-bound refinement of the one-pass rule."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctgt
from ctgt import (Subspace, analyze_collection, full_closed_test,
                  iterative_shortcut, single_step)

from conftest import active_universe, make_instance


def test_subspace_complement():
    s = Subspace(top=(0, 1, 2, 4), bottom=(1, 4))
    assert s.complement == (0, 2)


def test_budget_one_equals_single_step():
    for seed in range(300, 312):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=7, effect=float(seed % 3) / 2, n_signal=2)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        R = F[:2]
        one = iterative_shortcut(stats, provider, R, F, 0.05,
                                 max_iterations=1)
        ss = single_step(stats, provider, R, F, 0.05)
        assert one.decision == ss.decision
        assert one.iterations_used == 1
        assert one.witness == ss.witness


def test_unlimited_budget_matches_brute_force():
    checked = 0
    for seed in range(320, 340):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=8, effect=float(seed % 4) / 2, n_signal=3)
        F = active_universe(stats)
        if len(F) < 4:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(2):
            k = int(rng.integers(1, len(F) - 1))
            R = tuple(sorted(rng.choice(F, size=k, replace=False)))
            got = iterative_shortcut(stats, provider, R, F, 0.05,
                                     max_iterations=10**8)
            want = full_closed_test(stats, provider, R, F, 0.05)
            assert got.decision == want.decision, (seed, R)
            checked += 1
    assert checked >= 30


@settings(max_examples=200)
@given(seed=st.integers(0, 10_000), m=st.integers(3, 8),
       effect=st.sampled_from([0.0, 1.0, 2.0, 3.0]), data=st.data())
def test_shortcut_agrees_with_closed_testing_on_random_instances(
        seed, m, effect, data):
    _, _, stats, provider = make_instance(seed=seed, n=40, m=m,
                                          effect=effect, n_signal=2)
    F = active_universe(stats)
    R = tuple(sorted(data.draw(
        st.lists(st.sampled_from(F), min_size=1, max_size=len(F),
                 unique=True), label="R")))
    full = iterative_shortcut(stats, provider, R, F, 0.05)
    assert full.decision == full_closed_test(stats, provider, R, F,
                                             0.05).decision
    if full.decision == "not_reject":
        assert set(R) <= set(full.witness) <= set(F)
        assert not ctgt.ExactTester(stats, provider, 0.05).reject(
            full.witness)
    one = iterative_shortcut(stats, provider, R, F, 0.05, max_iterations=1)
    assert one.decision == single_step(stats, provider, R, F, 0.05).decision
    # a larger budget never flips a settled decision, and never unsettles one
    decisions = [one.decision] + [
        iterative_shortcut(stats, provider, R, F, 0.05,
                           max_iterations=budget).decision
        for budget in (2, 4)] + [full.decision]
    assert set(decisions) <= {"unsure", full.decision}
    settled = [d != "unsure" for d in decisions]
    assert settled == sorted(settled)


def test_not_reject_witness_fails_its_own_test():
    found = 0
    for seed in range(350, 370):
        data, null, stats, provider = make_instance(seed=seed, n=25, m=7)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        res = iterative_shortcut(stats, provider, F[:2], F, 0.05,
                                 max_iterations=10**8)
        if res.decision != "not_reject":
            continue
        w = res.witness
        stat = float(stats.g[list(w)].sum())
        assert provider.dist(w).cdf(stat) < 0.95
        assert set(F[:2]) <= set(w) <= set(F)
        found += 1
    assert found >= 5


def test_anytime_decisions_are_monotone_in_budget():
    order = {"unsure": 0, "reject": 1, "not_reject": 1}
    for seed in range(400, 420):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=7, effect=float(seed % 3), n_signal=2)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        R = F[:2]
        decisions = []
        for budget in (1, 3, 10, 100, 10**8):
            res = iterative_shortcut(stats, provider, R, F, 0.05,
                                     max_iterations=budget)
            assert res.iterations_used <= budget
            decisions.append(res.decision)
        sure = [d for d in decisions if d != "unsure"]
        # once decided, always the same decision
        assert len(set(sure)) <= 1
        # and never decided -> undecided as the budget grows
        ranks = [order[d] for d in decisions]
        assert ranks == sorted(ranks)


def _family(sub):
    base = set(sub.bottom)
    comp = sorted(set(sub.top) - base)
    out = set()
    for r in range(len(comp) + 1):
        for extra in itertools.combinations(comp, r):
            out.add(frozenset(base | set(extra)))
    return out


def test_rejecting_run_partitions_the_superset_family(monkeypatch):
    # hunt for a run that needs real branching, then check its trace of
    # (subspace, single-step decision) pairs: the rejected subspaces
    # cover every superset exactly once (seed 129 rejects after 11
    # iterations)
    real = ctgt.bnb.single_step
    trace = []

    def spy(stats, provider, R, F, alpha):
        result = real(stats, provider, R, F, alpha)
        trace.append((Subspace(top=F, bottom=R), result.decision))
        return result

    monkeypatch.setattr(ctgt.bnb, "single_step", spy)
    for seed in range(125, 140):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=8, effect=1.0, n_signal=4)
        F = active_universe(stats)
        if len(F) < 4:
            continue
        R = F[:1]
        trace.clear()
        res = iterative_shortcut(stats, provider, R, F, 0.05,
                                 max_iterations=10**8)
        if res.decision != "reject" or res.iterations_used < 3:
            continue
        # branched (unsure) entries are interior nodes; the rejected
        # leaves must tile the root family exactly once
        assert all(d in ("reject", "unsure") for _, d in trace)
        rejected = [sub for sub, d in trace if d == "reject"]
        assert 1 < len(rejected) < len(trace)
        seen = set()
        for sub in rejected:
            fam = _family(sub)
            assert not (seen & fam)           # pairwise disjoint
            seen |= fam
        comp = set(F) - set(R)
        assert len(seen) == 2 ** len(comp)    # full cover
        return
    pytest.fail("no branching rejection found in the seed range")


def test_budget_exhaustion_reports_unsure_with_frontier():
    # seed 26 rejects after 7 iterations, so a cut budget must surface
    # the remaining frontier
    for seed in range(20, 40):
        data, null, stats, provider = make_instance(
            seed=seed, n=25, m=7, effect=1.2, n_signal=3)
        F = active_universe(stats)
        if len(F) < 5:
            continue
        R = F[:1]
        full = iterative_shortcut(stats, provider, R, F, 0.05,
                                  max_iterations=10**8)
        if full.iterations_used < 4 or full.decision != "reject":
            continue
        cut = iterative_shortcut(stats, provider, R, F, 0.05,
                                 max_iterations=full.iterations_used - 1)
        assert cut.decision == "unsure"
        assert cut.witness is None
        assert cut.frontier_size > 0
        return
    pytest.fail("no deep rejection found in the seed range")


def test_bad_budget_rejected():
    data, null, stats, provider = make_instance(seed=471, n=25, m=5)
    F = active_universe(stats)
    with pytest.raises(ValueError):
        iterative_shortcut(stats, provider, F[:1], F, 0.05, max_iterations=0)


def test_analyze_collection_rows_and_order():
    data, null, stats, provider = make_instance(seed=480, n=30, m=8,
                                                effect=1.5, n_signal=2)
    jobs = [
        ("first", (0, 1)),
        ("dupes", (2, 2, 3)),                 # duplicate members collapse
        ("empty", ()),
        ("late", (4, 5, 6)),
    ]
    rows = analyze_collection(stats, provider, jobs, 0.05)
    assert [r.name for r in rows] == ["first", "dupes", "empty", "late"]
    assert rows[1].n_members == 2
    assert rows[1].n_active == 2
    assert rows[2].decision == "skipped"
    assert rows[2].note
    for r in (rows[0], rows[1], rows[3]):
        assert r.decision in ("reject", "not_reject", "unsure")
        assert np.isfinite(r.level)
        assert np.isfinite(r.critical_value)


def test_analyze_collection_in_processes_matches_serial():
    data, null, stats, provider = make_instance(seed=481, n=30, m=8,
                                                effect=1.0, n_signal=2)
    jobs = [(f"set{k}", (k, (k + 1) % 8, (k + 3) % 8)) for k in range(8)]
    serial = analyze_collection(stats, provider, jobs, 0.05, workers=1)
    threaded = analyze_collection(stats, provider, jobs, 0.05, workers=4)
    assert [(r.name, r.decision, r.iterations_used, r.witness)
            for r in serial] == \
           [(r.name, r.decision, r.iterations_used, r.witness)
            for r in threaded]


def test_analyze_collection_reports_out_of_range_members_as_errors():
    data = ctgt.logistic_dataset(30, 6, effect=1.5, n_signal=2,
                                 rng=np.random.default_rng(7))
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    jobs = [("bad", (0, 1, 999)), ("high", (999,)), ("negative", (-1,)),
            ("good", (0, 1)), ("empty", ())]
    rows = analyze_collection(stats, provider, jobs, 0.05)
    for r in rows[:3]:
        assert r.decision == "error", r
        assert "out-of-range" in r.note
    assert rows[3].decision in ("reject", "not_reject", "unsure")
    assert rows[4].decision == "skipped"
    assert rows[4].note == "no members"


def test_analyze_collection_reports_non_integral_members_as_errors():
    # int() would truncate (0.9, 1.2) to (0, 1) and decide that set
    data = ctgt.logistic_dataset(40, 6, effect=1.0, n_signal=2,
                                 rng=np.random.default_rng(3))
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    rows = analyze_collection(stats, provider,
                              [("a", (0.9, 1.2)), ("b", np.array([0, 1]))],
                              0.05)
    assert rows[0].decision == "error"
    assert "non-integral" in rows[0].note
    assert rows[0].n_members == 2
    assert rows[1].decision == "reject"


@pytest.mark.parametrize("limit, message", [
    ({"max_iterations": 0}, "max_iterations must be at least 1"),
    ({"workers": 0}, "workers must be at least 1"),
    ({"workers": -5}, "workers must be at least 1"),
], ids=["max_iterations=0", "workers=0", "workers=-5"])
def test_analyze_collection_refuses_bad_run_limits_before_any_set(
        limit, message, monkeypatch):
    data, null, stats, provider = make_instance(seed=482, n=30, m=6)

    def no_set(*args):
        raise AssertionError("a set ran")

    monkeypatch.setattr(ctgt.bnb, "_analyze_one", no_set)
    with pytest.raises(ValueError, match=message):
        analyze_collection(stats, provider, [("a", (0, 1))], 0.05, **limit)


def test_analyze_collection_rows_only_typed_failures(monkeypatch):
    data, null, stats, provider = make_instance(seed=482, n=30, m=6)
    jobs = [("a", (0, 1)), ("b", (2, 3))]

    def stalls(*args, **kwargs):
        raise ctgt.SeriesStallError("stalled")

    monkeypatch.setattr(ctgt.bnb, "iterative_shortcut", stalls)
    rows = analyze_collection(stats, provider, jobs, 0.05)
    assert [(r.decision, r.note) for r in rows] == [("error", "stalled")] * 2

    def bug(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(ctgt.bnb, "iterative_shortcut", bug)
    with pytest.raises(TypeError, match="programming error"):
        analyze_collection(stats, provider, jobs, 0.05)
