"""Error-rate simulation bookkeeping."""

import numpy as np
import pytest

import ctgt
from ctgt import NumericalBreakdownError, SeriesStallError, fwer_simulation
from ctgt.shortcut import ExactTester
from ctgt.simulate import random_index_sets


def _third_set_raises(monkeypatch, failure):
    """Make the third iterative_shortcut call of a run raise `failure`."""
    real = ctgt.simulate.iterative_shortcut
    calls = []

    def third_set_raises(stats, provider, R, *args, **kwargs):
        calls.append(R)
        if len(calls) == 3:
            raise failure("the third set failed")
        return real(stats, provider, R, *args, **kwargs)

    monkeypatch.setattr(ctgt.simulate, "iterative_shortcut", third_set_raises)


# a strong effect: all three universes reject, so every set is decided
# and the third call falls in the first replicate, whose 4 sets hold 2
# true nulls; the other two replicates hold 2 and 4
_THREE_DECIDED = dict(n=30, m=5, n_pathways=4, replicates=3, effect=3.0,
                      seed=2)


@pytest.mark.parametrize(
    "failure", [SeriesStallError, NumericalBreakdownError, RuntimeError],
    ids=lambda failure: failure.__name__)
def test_a_set_that_raises_fails_its_replicate(failure, monkeypatch):
    _third_set_raises(monkeypatch, failure)
    summary = fwer_simulation(**_THREE_DECIDED)
    assert summary.n_failed == 1
    assert summary.replicates == 2
    assert summary.total_null_sets == 6


def test_a_set_refused_as_input_propagates_instead_of_failing(monkeypatch):
    # a ValueError is a refused input, never a failed replicate
    _third_set_raises(monkeypatch, ValueError)
    with pytest.raises(ValueError, match="the third set failed"):
        fwer_simulation(**_THREE_DECIDED)


def _decide_every_set(n, m, n_pathways, effect, n_signal, alpha, seed,
                      replicates):
    """fwer_simulation's replicates without the universe skip: every set
    goes through iterative_shortcut.  Returns per-replicate (false hits,
    null sets, true hits) and whether each universe passed its test."""
    outcomes, universe_rejects = [], []
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child)
        data = ctgt.logistic_dataset(n, m, effect=effect, n_signal=n_signal,
                                     rng=rng)
        null = ctgt.fit_null(data)
        stats = ctgt.feature_stats(data, null)
        provider = ctgt.SpectrumProvider(data, null)
        universe = stats.active_indices
        universe_rejects.append(
            ExactTester(stats, provider, alpha).reject(universe))
        signal = set(range(n_signal)) if effect != 0.0 else set()
        false_hits = null_sets = true_hits = 0
        for members in random_index_sets(m, n_pathways, rng):
            rejected = ctgt.iterative_shortcut(
                stats, provider, members, universe, alpha).decision == "reject"
            if signal & set(members):
                true_hits += rejected
            else:
                null_sets += 1
                false_hits += rejected
        outcomes.append((false_hits, null_sets, true_hits))
    return outcomes, universe_rejects


@pytest.mark.parametrize("effect, seed", [(0.0, 3), (1.0, 2)])
def test_universe_skip_matches_deciding_every_set(effect, seed):
    kwargs = dict(n=30, m=6, n_pathways=5, effect=effect, n_signal=2,
                  alpha=0.05, seed=seed)
    outcomes, universe_rejects = _decide_every_set(**kwargs, replicates=8)
    assert 0 < sum(universe_rejects) < len(universe_rejects)
    summary = fwer_simulation(**kwargs, replicates=8)
    assert summary.n_failed == 0
    assert summary.n_any_false_rejection == sum(h > 0 for h, _, _ in outcomes)
    assert summary.total_null_rejections == sum(h for h, _, _ in outcomes)
    assert summary.total_null_sets == sum(s for _, s, _ in outcomes)
    assert summary.avg_true_rejections == sum(t for _, _, t in outcomes) / 8
    assert sum(h + t for h, _, t in outcomes) > 0   # some set was rejected


def test_a_run_without_a_true_null_set_is_refused():
    # four signal features among four: every set overlaps the signal
    with pytest.raises(ValueError, match="no replicate drew a true-null set"):
        fwer_simulation(n=30, m=4, n_signal=4, effect=1.0, n_pathways=3,
                        replicates=3, seed=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_caller_error_propagates_instead_of_failing_replicates(workers):
    with pytest.raises(ValueError, match="alpha"):
        fwer_simulation(replicates=3, alpha=0.7, seed=1, workers=workers)


def test_worker_processes_give_the_serial_summary():
    kwargs = dict(n=30, m=6, n_pathways=5, replicates=6, seed=1)
    assert fwer_simulation(**kwargs, workers=2) == \
           fwer_simulation(**kwargs, workers=1)


@pytest.mark.parametrize("n_pathways", [0, -4])
def test_fewer_than_one_pathway_is_refused(n_pathways):
    with pytest.raises(ValueError, match="n_pathways must be at least 1"):
        fwer_simulation(n_pathways=n_pathways, replicates=3, seed=1)


@pytest.mark.parametrize("limit, message", [
    ({"max_iterations": 0}, "max_iterations must be at least 1"),
    ({"workers": 0}, "workers must be at least 1"),
    ({"workers": -5}, "workers must be at least 1"),
], ids=["max_iterations=0", "workers=0", "workers=-5"])
def test_bad_run_limits_are_refused_before_any_replicate(limit, message,
                                                         monkeypatch):
    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(ctgt.simulate, "_one_replicate", no_replicate)
    with pytest.raises(ValueError, match=message):
        fwer_simulation(n=50, m=20, n_pathways=5, replicates=5, seed=1,
                        **limit)


def test_fewer_features_than_a_random_set_are_refused(monkeypatch):
    # no set of RANDOM_SET_MIN_SIZE features can be drawn from one
    # feature, so the run is refused before any replicate is drawn
    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(ctgt.simulate, "_one_replicate", no_replicate)
    with pytest.raises(ValueError, match="need at least 2 features"):
        fwer_simulation(m=1, replicates=3, seed=1)
