"""Error-rate simulation bookkeeping."""

import pytest

import ctgt
from ctgt import SeriesStallError, fwer_simulation


def test_a_set_that_raises_fails_its_replicate(monkeypatch):
    real = ctgt.simulate.iterative_shortcut
    calls = []

    def one_set_stalls(stats, provider, R, *args, **kwargs):
        calls.append(R)
        if len(calls) == 3:
            raise SeriesStallError("stalled")
        return real(stats, provider, R, *args, **kwargs)

    monkeypatch.setattr(ctgt.simulate, "iterative_shortcut", one_set_stalls)
    summary = fwer_simulation(n=30, m=5, n_pathways=4, replicates=3, seed=3)
    assert summary.n_failed == 1
    assert summary.replicates == 2
    assert summary.total_null_sets == 8


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
