"""Logistic null model, confounder projector, and feature-set spectra.

The testing machinery never touches raw data directly.  A logistic
regression of the response on the confounders alone yields fitted means
and the plug-in diagonal covariance; the (unweighted) confounder
projector turns feature columns into residualized columns; from those
come per-feature statistics and weights, and the eigenvalue spectrum of
any feature set's quadratic form.  Every derived object except the
SpectrumProvider cache is immutable after construction.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import wchi2

MEAN_CLAMP = 1e-6
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
INACTIVE_REL_TOL = 1e-12
EIG_CLAMP_REL_TOL = 1e-10
# entries a SpectrumProvider keeps before dropping its oldest
PROVIDER_CACHE_CAP = 10_000


class RankDeficientError(ValueError):
    """Confounder matrix does not have full column rank."""


class NumericalBreakdownError(RuntimeError):
    """Quadratic form produced an eigenvalue below the negative tolerance."""


class SeparationWarning(UserWarning):
    """Logistic null fit hit separation or the iteration cap; fitted means
    were clamped and the fit proceeds."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Design for one analysis: response, confounders (with intercept), features.

    y : (n,) response coded 0/1, both classes present
    Z : (n, p) confounders, includes an intercept column, p < n
    X : (n, m) feature columns
    """

    y: np.ndarray
    Z: np.ndarray
    X: np.ndarray
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]
    response_labels: tuple[str, str] | None = None

    def __post_init__(self):
        y = _frozen(np.asarray(self.y).ravel())
        Z = _frozen(np.atleast_2d(self.Z))
        X = _frozen(np.atleast_2d(self.X))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        n = y.size
        if n < 2:
            raise ValueError("need at least two samples")
        if Z.shape[0] != n or X.shape[0] != n:
            raise ValueError("row counts of y, Z, X must agree")
        if Z.shape[1] < 1 or X.shape[1] < 1:
            raise ValueError("need at least one confounder column and one feature")
        if Z.shape[1] >= n:
            raise ValueError("more confounders than samples")
        vals = np.unique(y)
        if not np.all(np.isin(vals, (0.0, 1.0))) or vals.size != 2:
            raise ValueError("response must contain both classes, coded 0/1")
        spans = np.ptp(Z, axis=0)
        if not np.any((spans == 0) & (Z[0] != 0)):
            raise ValueError("confounder matrix must include an intercept column")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match X columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if len(self.sample_ids) != n:
            raise ValueError("sample_ids length must match sample count")

    @property
    def n_samples(self) -> int:
        return self.y.size

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class NullModel:
    """Fitted logistic null: means, plug-in variances, projector basis.

    mu_hat : (n,) fitted means, clamped into [1e-6, 1 - 1e-6]
    sigma_diag : (n,) mu_hat * (1 - mu_hat)
    H_basis : (n, p) orthonormal basis of the confounder column space
    resid : (n,) response minus its confounder projection
    """

    mu_hat: np.ndarray
    sigma_diag: np.ndarray
    H_basis: np.ndarray
    resid: np.ndarray

    def __post_init__(self):
        for name in ("mu_hat", "sigma_diag", "H_basis", "resid"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def residualize(self, M: np.ndarray) -> np.ndarray:
        """Project the confounder space out of the columns of M."""
        Q = self.H_basis
        return M - Q @ (Q.T @ M)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature increments g_i, weights w_i, and ratios q_i = g_i / w_i.

    A feature is active when its weight exceeds 1e-12 times the largest
    weight; inactive features carry q_i = nan and are excluded from all
    level arithmetic downstream.
    """

    g: np.ndarray
    w: np.ndarray
    q: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        for name in ("g", "w", "q"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        act = np.array(self.active, dtype=bool)
        act.flags.writeable = False
        object.__setattr__(self, "active", act)

    @property
    def active_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.active)[0])


@dataclass(frozen=True)
class Spectrum:
    """Descending positive eigenvalues of a feature set's quadratic form.

    ambient_n is the sample count (the padded length used when comparing
    spectra); level is the eigenvalue sum, which equals the set's weight
    sum by the trace identity.
    """

    lambdas: np.ndarray
    ambient_n: int
    level: float

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _frozen(np.asarray(self.lambdas).ravel()))

    @property
    def n_nonzero(self) -> int:
        return self.lambdas.size


def fit_null(dataset: Dataset) -> NullModel:
    """Fit the logistic null model of the response on the confounders.

    IRLS on the log-likelihood, started at zero coefficients, declared
    converged when the largest coefficient change drops below IRLS_TOL
    within IRLS_MAX_ITER iterations.
    Raises RankDeficientError for a rank-deficient confounder matrix;
    warns (SeparationWarning) and clamps the means when the fit hits the
    iteration cap or produces means outside [1e-6, 1 - 1e-6].
    """
    Z, y = dataset.Z, dataset.y
    Q, R = np.linalg.qr(Z)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise RankDeficientError(
            "confounder matrix is rank deficient (collinear columns)")

    gamma = np.zeros(Z.shape[1])
    converged = False
    for _ in range(IRLS_MAX_ITER):
        eta = Z @ gamma
        mu = 1.0 / (1.0 + np.exp(-eta))
        wvec = np.clip(mu * (1.0 - mu), 1e-10, None)
        z_work = eta + (y - mu) / wvec
        sw = np.sqrt(wvec)
        gamma_new, *_ = np.linalg.lstsq(sw[:, None] * Z, sw * z_work, rcond=None)
        step = float(np.max(np.abs(gamma_new - gamma)))
        gamma = gamma_new
        if step < IRLS_TOL:
            converged = True
            break

    mu = 1.0 / (1.0 + np.exp(-(Z @ gamma)))
    clamped = bool(np.any((mu < MEAN_CLAMP) | (mu > 1.0 - MEAN_CLAMP)))
    if not converged or clamped:
        warnings.warn(
            "logistic null fit did not converge cleanly"
            + (" (fitted means clamped; data may be separated)" if clamped else "")
            + "; proceeding with current fit",
            SeparationWarning, stacklevel=2)
    mu = np.clip(mu, MEAN_CLAMP, 1.0 - MEAN_CLAMP)
    resid = y - Q @ (Q.T @ y)
    return NullModel(mu_hat=mu, sigma_diag=mu * (1.0 - mu), H_basis=Q, resid=resid)


def feature_stats(dataset: Dataset, null: NullModel) -> FeatureStats:
    """Per-feature statistic increments and weights.

    g_i is the squared inner product of feature i's residualized column
    with the response residual; w_i is that column's sigma-weighted
    squared norm.  Set-level statistics and levels are plain sums of
    these over the member features.
    """
    X = dataset.X
    M = null.residualize(X)
    g = (X.T @ null.resid) ** 2
    w = np.einsum("ij,i,ij->j", M, null.sigma_diag, M)
    w_max = float(w.max(initial=0.0))
    active = w > INACTIVE_REL_TOL * w_max
    q = np.full(w.shape, np.nan)
    q[active] = g[active] / w[active]
    return FeatureStats(g=g, w=w, q=q, active=active)


def _check_index_set(R, n_features: int,
                     name: str = "feature set") -> tuple[int, ...]:
    """R as ascending distinct indices; nonempty and inside [0, n_features)."""
    idx = tuple(sorted(set(int(i) for i in R)))
    if not idx:
        raise ValueError(f"{name} must be nonempty")
    if idx[0] < 0 or idx[-1] >= n_features:
        raise ValueError(f"{name} contains an out-of-range feature index")
    return idx


def weighted_gram(columns: np.ndarray, null: NullModel, idx) -> np.ndarray:
    """r x r sigma-weighted Gram matrix of the residualized columns idx.

    `columns` holds the residualized feature columns,
    null.residualize(dataset.X).  Rows and columns follow the order of
    idx, so the leading j x j block is the Gram matrix of the first j
    columns.  Its eigenvalues are the set's spectrum (plus zeros), its
    trace the set's level, and its squared Frobenius norm the spectrum's
    sum of squares.
    """
    M = columns[:, list(idx)]
    return M.T @ (null.sigma_diag[:, None] * M)


def spectrum(dataset: Dataset, null: NullModel, R,
             columns: np.ndarray | None = None) -> Spectrum:
    """Eigenvalue spectrum of the quadratic form for feature set R.

    Computed from the residualized member columns, read from `columns`
    (null.residualize(dataset.X), computed here when not given): their
    r x r sigma-weighted Gram matrix when r <= n, the n x n form
    otherwise; the two share their nonzero eigenvalues.  Eigenvalues
    within -1e-10*max of zero are clamped to zero; anything below that
    raises NumericalBreakdownError.  Only strictly positive eigenvalues
    are kept.
    """
    idx = _check_index_set(R, dataset.n_features)
    n = dataset.n_samples
    if columns is None:
        columns = null.residualize(dataset.X)
    if len(idx) <= n:
        G = weighted_gram(columns, null, idx)
    else:
        B = np.sqrt(null.sigma_diag)[:, None] * columns[:, list(idx)]
        G = B @ B.T
    vals = np.linalg.eigvalsh(G)
    lam_max = float(vals.max(initial=0.0))
    neg_tol = EIG_CLAMP_REL_TOL * max(lam_max, 0.0)
    if vals.min(initial=0.0) < -neg_tol:
        raise NumericalBreakdownError(
            f"eigenvalue {vals.min():.3e} below tolerance {-neg_tol:.3e}")
    vals = vals[vals > 0.0]
    vals = np.sort(vals)[::-1]
    return Spectrum(lambdas=vals, ambient_n=n, level=float(vals.sum()))


class SpectrumProvider:
    """Caches per-set spectra and their null distributions.

    The residualized feature columns are computed on first use and kept;
    every spectrum and Gram matrix the provider serves comes from them.
    One dict, keyed by frozenset of feature indices, holds each set's
    spectrum and, once requested, its distribution.  It keeps at most
    PROVIDER_CACHE_CAP entries; a new set beyond that drops the oldest.
    A provider is used from one thread; batch functions with workers > 1
    give each worker process its own copy.
    """

    def __init__(self, dataset: Dataset, null: NullModel,
                 trunc_tol: float = 1e-12):
        self.dataset = dataset
        self.null = null
        self.trunc_tol = float(trunc_tol)
        # key -> (spectrum, distribution or None until first requested)
        self._cache: dict[frozenset, tuple] = {}

    def _store(self, key: frozenset, entry: tuple) -> None:
        full = len(self._cache) >= PROVIDER_CACHE_CAP
        if full and key not in self._cache:
            del self._cache[next(iter(self._cache))]
        self._cache[key] = entry

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """The residualized feature columns, n x m, computed on first use."""
        cols = self.null.residualize(self.dataset.X)
        cols.flags.writeable = False
        return cols

    def spectrum(self, R) -> Spectrum:
        key = frozenset(int(i) for i in R)
        hit = self._cache.get(key)
        if hit is None:
            hit = (spectrum(self.dataset, self.null, key, self.columns),
                   None)
            self._store(key, hit)
        return hit[0]

    def dist(self, R) -> wchi2.WeightedChiSq:
        key = frozenset(int(i) for i in R)
        spec, hit = self._cache.get(key, (None, None))
        if hit is None:
            if spec is None:
                spec = spectrum(self.dataset, self.null, key, self.columns)
            hit = wchi2.WeightedChiSq(spec, trunc_tol=self.trunc_tol)
            self._store(key, (spec, hit))
        return hit
