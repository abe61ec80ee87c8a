import numpy as np
import pytest
from hypothesis import settings

import ctgt

# every property test draws the same examples on every run and is never
# timed out; a failure is replayed from its seed, not from a database
settings.register_profile("ctgt", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("ctgt")


@pytest.fixture
def small_instance():
    """A fixed 30x8 instance with signal on the first two features."""
    return make_instance(seed=7, n=30, m=8, effect=1.5, n_signal=2)


def make_instance(seed, n=30, m=8, effect=0.0, n_signal=1, confounders=0):
    rng = np.random.default_rng(seed)
    data = ctgt.logistic_dataset(n, m, effect=effect, n_signal=n_signal,
                                 rng=rng, confounders=confounders)
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    return data, null, stats, provider


def active_universe(stats):
    return tuple(int(i) for i in np.nonzero(stats.active)[0])
