"""Null model fit, per-feature statistics, and set spectra."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import ctgt
from ctgt import Dataset, SeparationWarning, feature_stats, fit_null
from ctgt.linmodel import (NumericalBreakdownError, _check_index_set,
                           spectrum)

from conftest import active_universe, make_instance


def _dataset(seed=11, n=60, p_extra=2, m=4):
    rng = np.random.default_rng(seed)
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, p_extra))])
    beta = rng.uniform(-0.8, 0.8, size=Z.shape[1])
    prob = 1.0 / (1.0 + np.exp(-(Z @ beta)))
    y = (rng.uniform(size=n) < prob).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    X = rng.standard_normal((n, m))
    return Dataset(y=y, Z=Z, X=X,
                   feature_names=tuple(f"x{j}" for j in range(m)),
                   sample_ids=tuple(f"s{i + 1}" for i in range(n)))


def test_irls_matches_direct_likelihood_optimization():
    data = _dataset(seed=11)
    null = fit_null(data)

    def nll(beta):
        eta = data.Z @ beta
        return np.sum(np.log1p(np.exp(eta)) - data.y * eta)

    res = minimize(nll, np.zeros(data.Z.shape[1]), method="BFGS",
                   options={"gtol": 1e-10})
    mu_ref = 1.0 / (1.0 + np.exp(-(data.Z @ res.x)))
    assert np.abs(null.mu_hat - mu_ref).max() < 1e-6


def test_intercept_only_fit_is_the_class_rate():
    data = _dataset(seed=3, p_extra=0)
    null = fit_null(data)
    assert null.mu_hat == pytest.approx(np.full_like(null.mu_hat,
                                                     data.y.mean()), abs=1e-9)
    assert null.sigma_diag == pytest.approx(null.mu_hat * (1 - null.mu_hat))


def test_residual_identity():
    data = _dataset(seed=5)
    null = fit_null(data)
    # resid is the response minus its fitted mean, orthogonal to every
    # covariate column by the score equations
    assert np.abs(null.resid - (data.y - null.mu_hat)).max() < 1e-15
    assert np.abs(data.Z.T @ null.resid).max() < 1e-8
    # residualizing is idempotent, and its output is sigma-weighted
    # orthogonal to every covariate column
    M = null.residualize(data.X)
    assert np.abs(null.residualize(M) - M).max() < 1e-10
    assert np.abs(data.Z.T @ (null.sigma_diag[:, None] * M)).max() < 1e-10
    # a covariate column residualizes to zero
    assert np.abs(null.residualize(data.Z)).max() < 1e-10


def test_intercept_only_residual_is_centering():
    rng = np.random.default_rng(55)
    n = 12
    y = np.array([0, 1] * 6, dtype=float)
    data = Dataset(y=y, Z=np.ones((n, 1)), X=rng.standard_normal((n, 2)),
                   feature_names=("a", "b"),
                   sample_ids=tuple(f"s{i + 1}" for i in range(n)))
    null = fit_null(data)
    assert null.resid == pytest.approx(y - 0.5, abs=1e-10)


def test_rank_deficient_covariates_rejected():
    data = _dataset(seed=9)
    Z_bad = np.column_stack([data.Z, data.Z[:, -1]])
    bad = Dataset(y=data.y, Z=Z_bad, X=data.X,
                  feature_names=data.feature_names, sample_ids=data.sample_ids)
    with pytest.raises(ValueError, match="confounder matrix is rank "
                                         "deficient"):
        fit_null(bad)


def test_separated_response_warns_but_fits():
    rng = np.random.default_rng(21)
    n = 40
    zcol = np.concatenate([np.full(20, -2.0), np.full(20, 2.0)])
    Z = np.column_stack([np.ones(n), zcol])
    y = (zcol > 0).astype(float)       # perfectly separated
    X = rng.standard_normal((n, 3))
    data = Dataset(y=y, Z=Z, X=X, feature_names=("a", "b", "c"),
                   sample_ids=tuple(f"s{i + 1}" for i in range(n)))
    with pytest.warns(SeparationWarning):
        null = fit_null(data)
    assert np.all(null.mu_hat >= 1e-6)
    assert np.all(null.mu_hat <= 1 - 1e-6)


def test_a_converged_fit_with_clamped_means_does_not_warn():
    # draw 22 (counting from 0) of the level design in
    # test_confounder_adjusted_null_holds_its_level: the classes overlap
    # and IRLS converges, yet some fitted means pass the clamp; only a
    # fit that hits the iteration cap warns
    rng = np.random.default_rng(2006)
    n, k = 200, 5
    for _ in range(23):
        z = rng.standard_normal(n)
        p = 1.0 / (1.0 + np.exp(-3.0 * z))
        y = (rng.uniform(size=n) < p).astype(float)
        X = z[:, None] ** 2 + rng.standard_normal((n, k))
    data = Dataset(y=y, Z=np.column_stack([np.ones(n), z]), X=X,
                   feature_names=tuple(f"x{j}" for j in range(k)),
                   sample_ids=tuple(f"s{i}" for i in range(n)))
    assert z[y == 1].min() < z[y == 0].max()          # not separated
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeparationWarning)
        null = fit_null(data)
    clamps = (ctgt.linmodel.MEAN_CLAMP, 1.0 - ctgt.linmodel.MEAN_CLAMP)
    assert np.isin(null.mu_hat, clamps).any()


def test_non_integral_feature_indices_are_refused():
    data, null, stats, provider = make_instance(seed=3, n=30, m=6)
    with pytest.raises(ValueError, match="non-integral"):
        _check_index_set((1.5, 2.9), 5)
    assert _check_index_set(np.array([2, 0, 2]), 5) == (0, 2)
    F = active_universe(stats)
    R = (F[0] + 0.5, F[1])
    for call in (lambda: provider.spectrum(R), lambda: provider.dist(R),
                 lambda: ctgt.globaltest(stats, provider, R, 0.05),
                 lambda: ctgt.single_step(stats, provider, R, F, 0.05)):
        with pytest.raises(ValueError, match="non-integral"):
            call()
    np.testing.assert_array_equal(provider.spectrum(np.array(F[:2])),
                                  provider.spectrum(F[:2]))


def test_dataset_validation():
    rng = np.random.default_rng(1)
    n = 10
    ids = tuple(f"s{i}" for i in range(n))
    ones = np.ones((n, 1))
    X = rng.standard_normal((n, 2))
    y = np.array([0, 1] * 5, dtype=float)
    with pytest.raises(ValueError):
        Dataset(y=np.zeros(n), Z=ones, X=X, feature_names=("a", "b"),
                sample_ids=ids)                       # one-class response
    with pytest.raises(ValueError):
        Dataset(y=y, Z=rng.standard_normal((n, 1)), X=X,
                feature_names=("a", "b"), sample_ids=ids)   # no intercept
    with pytest.raises(ValueError):
        Dataset(y=y, Z=ones, X=X, feature_names=("a", "a"),
                sample_ids=ids)                       # duplicate names
    with pytest.raises(ValueError):
        Dataset(y=y, Z=ones, X=X[:, :1], feature_names=("a", "b"),
                sample_ids=ids)                       # shape mismatch
    bad_X = np.column_stack([X, X[:, 0]])
    bad_X[4, 1], bad_X[7, 2] = np.nan, np.inf
    with pytest.raises(ValueError, match=r"feature column\(s\): b, c$"):
        Dataset(y=y, Z=ones, X=bad_X, feature_names=("a", "b", "c"),
                sample_ids=ids)                       # nan and inf cells
    bad_Z = np.column_stack([ones, X[:, 0]])
    bad_Z[3, 1] = -np.inf
    with pytest.raises(ValueError, match="confounder column 1"):
        Dataset(y=y, Z=bad_Z, X=X, feature_names=("a", "b"),
                sample_ids=ids)                       # non-finite confounder


def test_statistic_additivity_against_full_quadratic_form():
    # set statistic recomputed as the squared norm of the set's score,
    # taken against explicitly residualized columns: the weighted
    # hat-matrix projection of Z is removed from X, which changes no
    # score because y - mu_hat is orthogonal to Z
    data, null, stats, provider = make_instance(seed=13, n=40, m=6,
                                                effect=1.0, confounders=2)
    Z, W = data.Z, np.diag(null.sigma_diag)
    H_w = Z @ np.linalg.solve(Z.T @ W @ Z, Z.T @ W)
    M = (np.eye(data.n_samples) - H_w) @ data.X
    resid = data.y - null.mu_hat
    for R in [(0,), (1, 3), (0, 2, 4, 5), tuple(range(6))]:
        score = M[:, list(R)].T @ resid
        direct = float(score @ score)
        additive = float(stats.g[list(R)].sum())
        assert additive == pytest.approx(direct, rel=1e-9)
        # the level is the trace of the score's null covariance
        cov = M[:, list(R)].T @ W @ M[:, list(R)]
        assert float(stats.w[list(R)].sum()) == pytest.approx(
            np.trace(cov), rel=1e-9)


def test_weights_match_spectrum_traces():
    data, null, stats, provider = make_instance(seed=17, n=35, m=7)
    for R in [(0,), (2, 5), tuple(range(7))]:
        lam = provider.spectrum(R)
        assert lam.sum() == pytest.approx(stats.w[list(R)].sum(), rel=1e-9)


def test_singleton_spectrum_is_the_weight():
    data, null, stats, provider = make_instance(seed=19, n=30, m=5)
    for j in active_universe(stats):
        lam = provider.spectrum((j,))
        assert lam.size == 1
        assert lam[0] == pytest.approx(stats.w[j], rel=1e-9)


def test_spectrum_psd_and_interlacing_bound():
    data, null, stats, provider = make_instance(seed=23, n=25, m=10)
    full = provider.spectrum(tuple(range(10)))
    assert not full.flags.writeable
    assert np.all(full > 0)
    assert np.all(np.diff(full) <= 1e-12)     # sorted descending
    sub = provider.spectrum((0, 1, 2))
    # largest eigenvalue of a principal submatrix never exceeds the full one
    assert sub[0] <= full[0] + 1e-10


def test_constant_feature_is_inactive():
    rng = np.random.default_rng(29)
    n = 30
    X = rng.standard_normal((n, 4))
    X[:, 2] = 3.14                      # constant column
    y = (rng.uniform(size=n) < 0.5).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    data = Dataset(y=y, Z=np.ones((n, 1)), X=X,
                   feature_names=("a", "b", "c", "d"),
                   sample_ids=tuple(f"s{i + 1}" for i in range(n)))
    null = fit_null(data)
    stats = feature_stats(data, null)
    assert not stats.active[2]
    assert stats.active[[0, 1, 3]].all()
    assert np.isnan(stats.q[2])


def test_label_swap_keeps_decisions():
    data, null, stats, provider = make_instance(seed=31, n=40, m=6, effect=1.0)
    flipped = Dataset(y=1.0 - data.y, Z=data.Z, X=data.X,
                      feature_names=data.feature_names,
                      sample_ids=data.sample_ids)
    null2 = fit_null(flipped)
    stats2 = feature_stats(flipped, null2)
    provider2 = ctgt.SpectrumProvider(flipped, null2)
    # mu flips, sigma and hence weights are invariant; g is quadratic in
    # the flipped residual so it is invariant too
    assert np.abs(stats.w - stats2.w).max() < 1e-8
    assert np.abs(stats.g - stats2.g).max() < 1e-8
    F = active_universe(stats)
    r1 = ctgt.iterative_shortcut(stats, provider, (0, 1), F, 0.05)
    r2 = ctgt.iterative_shortcut(stats2, provider2, (0, 1), F, 0.05)
    assert r1.decision == r2.decision


def test_fit_is_deterministic():
    a = fit_null(_dataset(seed=37))
    b = fit_null(_dataset(seed=37))
    assert np.array_equal(a.mu_hat, b.mu_hat)
    assert np.array_equal(a.resid, b.resid)


def test_provider_caches_and_validates():
    data, null, stats, provider = make_instance(seed=41, n=30, m=5)
    s1 = provider.spectrum((1, 2))
    s2 = provider.spectrum((2, 1))            # order-insensitive key
    assert s1 is s2
    d1 = provider.dist((1, 2))
    assert d1 is provider.dist((1, 2))
    with pytest.raises(ValueError):
        provider.spectrum(())
    with pytest.raises(ValueError):
        provider.spectrum((0, 99))


def test_provider_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ctgt.linmodel, "PROVIDER_CACHE_CAP", 4)
    data, null, stats, provider = make_instance(seed=42, n=30, m=6)
    fresh = ctgt.SpectrumProvider(data, null)
    sets = [(j,) for j in range(6)] + [(0, j) for j in range(1, 6)]
    for R in sets + sets[::-1]:
        lam = provider.spectrum(R)
        t = float(stats.g[list(R)].sum())
        c = provider.dist(R).cdf(t)
        assert len(provider._cache) <= 4
        assert np.array_equal(lam, fresh.spectrum(R))
        assert c == fresh.dist(R).cdf(t)


def test_spectrum_function_matches_provider():
    # a Gram matrix built here from data.X, the variances and a
    # projector of our own, for one set with r <= n and one with r > n
    data, null, stats, provider = make_instance(seed=43, n=8, m=12,
                                                confounders=1)
    Z, sigma = data.Z, null.sigma_diag
    Z_w = np.sqrt(sigma)[:, None] * Z
    P = np.eye(data.n_samples) - Z_w @ np.linalg.pinv(Z_w)
    B = P @ (np.sqrt(sigma)[:, None] * data.X)     # W^{1/2} M
    for R in [(0, 3, 7), tuple(range(12))]:
        want = np.linalg.eigvalsh(B[:, list(R)].T @ B[:, list(R)])[::-1]
        got = provider.spectrum(R)
        assert got.size <= min(len(R), data.n_samples)
        assert got == pytest.approx(want[:got.size], rel=1e-9,
                                    abs=1e-9 * want[0])
        assert np.all(np.abs(want[got.size:]) <= 1e-9 * want[0])
    with pytest.raises(NumericalBreakdownError):
        spectrum(np.diag([1.0, -1e-3]))


def test_gram_block_matches_direct_product():
    data, null, stats, provider = make_instance(seed=44, n=30, m=9,
                                                confounders=1)
    M = null.residualize(data.X)
    idx = [6, 2, 8, 0, 5]
    G = provider.gram(idx)
    M_idx = M[:, idx]
    want = M_idx.T @ (null.sigma_diag[:, None] * M_idx)
    assert np.abs(G - want).max() <= 1e-12 * np.abs(want).max()
    # leading blocks are the Gram matrices of the leading members
    for j in range(1, len(idx) + 1):
        assert np.array_equal(G[:j, :j], provider.gram(idx[:j]))
    assert np.trace(G) == pytest.approx(stats.w[idx].sum(), rel=1e-12)


def test_confounder_adjusted_null_holds_its_level():
    # the response depends on a confounder z, and every feature on z^2;
    # none adds to what z explains, so the set is a true null and
    # globaltest may reject it at most alpha of the time (plus two
    # standard errors); a linear confounder residual rejects about 0.27
    rng = np.random.default_rng(2006)
    n, k, alpha, reps = 200, 5, 0.05, 1000
    rejections = 0
    for _ in range(reps):
        z = rng.standard_normal(n)
        p = 1.0 / (1.0 + np.exp(-3.0 * z))
        y = (rng.uniform(size=n) < p).astype(float)
        X = z[:, None] ** 2 + rng.standard_normal((n, k))
        data = Dataset(y=y, Z=np.column_stack([np.ones(n), z]), X=X,
                       feature_names=tuple(f"x{j}" for j in range(k)),
                       sample_ids=tuple(f"s{i}" for i in range(n)))
        with warnings.catch_warnings():    # a few draws clamp mu_hat
            warnings.simplefilter("ignore", SeparationWarning)
            null = fit_null(data)
        res = ctgt.globaltest(feature_stats(data, null),
                              ctgt.SpectrumProvider(data, null),
                              tuple(range(k)), alpha)
        rejections += res.reject
    se = np.sqrt(alpha * (1.0 - alpha) / reps)
    assert rejections / reps <= alpha + 2.0 * se, rejections / reps
