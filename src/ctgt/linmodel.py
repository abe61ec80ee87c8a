"""Logistic null model, confounder projector, and feature-set spectra.

The testing machinery never touches raw data directly.  A logistic
regression of the response on the confounders alone yields fitted means
and the plug-in diagonal covariance W; the W-weighted confounder
projector turns feature columns into residualized columns; from those
come per-feature score statistics and weights (Goeman et al., 2006; the
null is asymptotic), and a SpectrumProvider serves every Gram matrix,
each a block of one, and the spectrum of any feature set's quadratic
form.  Every derived object except the SpectrumProvider cache is
immutable after construction.
"""

from __future__ import annotations

import functools
import operator
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


class NumericalBreakdownError(RuntimeError):
    """Quadratic form produced an eigenvalue below the negative tolerance."""


class SeparationWarning(UserWarning):
    """Logistic null fit hit the iteration cap, as it does on separated
    data; the fit proceeds with its current means."""


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
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match X columns")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
        if bad.size:
            raise ValueError("non-finite values (nan or inf) in feature "
                             "column(s): " + ", ".join(
                                 self.feature_names[j] for j in bad[:5]))
        bad = np.flatnonzero(~np.isfinite(Z).all(axis=0))
        if bad.size:
            raise ValueError("non-finite values (nan or inf) in confounder "
                             f"column {bad[0]} (column 0 is the intercept)")
        vals = np.unique(y)
        if not np.all(np.isin(vals, (0.0, 1.0))) or vals.size != 2:
            raise ValueError("response must contain both classes, coded 0/1")
        spans = np.ptp(Z, axis=0)
        if not np.any((spans == 0) & (Z[0] != 0)):
            raise ValueError("confounder matrix must include an intercept column")
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
    sigma_diag : (n,) mu_hat * (1 - mu_hat), the diagonal of W
    H_basis : (n, p) orthonormal basis of the column space of W^{1/2} Z
    resid : (n,) response minus its fitted mean, y - mu_hat; orthogonal
        to every confounder column (the score equations), up to the
        clamping of mu_hat
    """

    mu_hat: np.ndarray
    sigma_diag: np.ndarray
    H_basis: np.ndarray
    resid: np.ndarray

    def __post_init__(self):
        for name in ("mu_hat", "sigma_diag", "H_basis", "resid"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def residualize(self, M: np.ndarray) -> np.ndarray:
        """W^{-1/2} (I - Q Q^T) W^{1/2} M, Q = H_basis.

        The result is W-orthogonal to every confounder column, so its
        columns are the features as the score test sees them once the
        confounders' effects are fitted; residualizing twice changes
        nothing.
        """
        root = np.sqrt(self.sigma_diag)[:, None]
        Q = self.H_basis
        return M - Q @ (Q.T @ (root * M)) / root


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


def fit_null(dataset: Dataset) -> NullModel:
    """Fit the logistic null model of the response on the confounders.

    IRLS on the log-likelihood, started at zero coefficients, declared
    converged when the largest coefficient change drops below IRLS_TOL
    within IRLS_MAX_ITER iterations.
    Raises ValueError for a rank-deficient confounder matrix;
    warns (SeparationWarning) when the fit hits the iteration cap.  Means
    outside [1e-6, 1 - 1e-6] are clamped, converged or not.
    """
    Z, y = dataset.Z, dataset.y
    R = np.linalg.qr(Z, mode="r")
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise ValueError(
            "confounder matrix is rank deficient (collinear columns)")

    gamma = np.zeros(Z.shape[1])
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
            break
    else:
        warnings.warn(
            f"logistic null fit did not converge within {IRLS_MAX_ITER} "
            "iterations (data may be separated); proceeding with current fit",
            SeparationWarning, stacklevel=2)
    mu = 1.0 / (1.0 + np.exp(-(Z @ gamma)))
    mu = np.clip(mu, MEAN_CLAMP, 1.0 - MEAN_CLAMP)
    sigma = mu * (1.0 - mu)
    Q_w, _ = np.linalg.qr(np.sqrt(sigma)[:, None] * Z)
    return NullModel(mu_hat=mu, sigma_diag=sigma, H_basis=Q_w, resid=y - mu)


def feature_stats(dataset: Dataset, null: NullModel) -> FeatureStats:
    """Per-feature statistic increments and weights.

    g_i is the squared score of feature i, its inner product with the
    response residual y - mu_hat; w_i is the sigma-weighted squared norm
    of its residualized column, the score's null variance.  Set-level
    statistics and levels are plain sums of these over the member
    features.
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


def _index_key(R, name: str = "feature set") -> frozenset:
    """R's members as a frozenset of ints.  numpy integers pass; a
    non-integral member (1.5, "2") raises ValueError instead of being
    truncated."""
    try:
        return frozenset(map(operator.index, R))
    except TypeError:
        raise ValueError(f"{name} contains a non-integral feature "
                         "index") from None


def _check_index_set(R, n_features: int,
                     name: str = "feature set") -> tuple[int, ...]:
    """R as ascending distinct indices; nonempty and inside [0, n_features)."""
    idx = tuple(sorted(_index_key(R, name)))
    if not idx:
        raise ValueError(f"{name} must be nonempty")
    if idx[0] < 0 or idx[-1] >= n_features:
        raise ValueError(f"{name} contains an out-of-range feature index")
    return idx


def spectrum(form: np.ndarray) -> np.ndarray:
    """Positive eigenvalues of a symmetric positive semidefinite matrix.

    Eigenvalues within -1e-10*max of zero are clamped to zero; anything
    below that raises NumericalBreakdownError.  Returns the strictly
    positive eigenvalues, descending, as a read-only array.
    """
    vals = np.linalg.eigvalsh(form)
    lam_max = float(vals.max(initial=0.0))
    neg_tol = EIG_CLAMP_REL_TOL * max(lam_max, 0.0)
    if vals.min(initial=0.0) < -neg_tol:
        raise NumericalBreakdownError(
            f"eigenvalue {vals.min():.3e} below tolerance {-neg_tol:.3e}")
    vals = vals[vals > 0.0]
    return _frozen(np.sort(vals)[::-1])


class SpectrumProvider:
    """Caches the Gram matrix, per-set spectra and their null distributions.

    On first use the provider forms the residualized feature columns M
    and their sigma-weighted Gram matrix G = M^T W M, both read-only;
    every Gram matrix ctgt uses is a block of G (`gram`).  A set's
    spectrum is that of its block of G when r <= n, of the n x n form
    W^{1/2} M_S M_S^T W^{1/2} otherwise; the two share their nonzero
    eigenvalues.  One dict, keyed by frozenset of feature indices, holds
    each set's spectrum and, once requested, its distribution.  It keeps
    at most PROVIDER_CACHE_CAP entries; a new set beyond that drops the
    oldest.  A provider is used from one thread; batch functions with
    workers > 1 give each worker process its own copy.
    """

    def __init__(self, dataset: Dataset, null: NullModel):
        self.dataset = dataset
        self.null = null
        # key -> (spectrum, distribution or None until first requested)
        self._cache: dict[frozenset, tuple] = {}

    @functools.cached_property
    def _columns(self) -> np.ndarray:
        M = self.null.residualize(self.dataset.X)
        M.flags.writeable = False
        return M

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        M = self._columns
        G = M.T @ (self.null.sigma_diag[:, None] * M)
        G.flags.writeable = False
        return G

    def gram(self, idx) -> np.ndarray:
        """The Gram matrix of the features idx, rows in the order of idx,
        so its leading j x j block is that of idx[:j].  Its trace is the
        set's level, its squared Frobenius norm the spectrum's sum of
        squares."""
        return self._gram[np.ix_(idx, idx)]

    def spectrum(self, R) -> np.ndarray:
        key = _index_key(R)
        hit = self._cache.get(key)
        if hit is None:
            idx = _check_index_set(key, self.dataset.n_features)
            if len(idx) <= self.dataset.n_samples:
                form = self.gram(idx)
            else:
                B = (np.sqrt(self.null.sigma_diag)[:, None]
                     * self._columns[:, list(idx)])
                form = B @ B.T
            hit = (spectrum(form), None)
            if len(self._cache) >= PROVIDER_CACHE_CAP:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = hit
        return hit[0]

    def dist(self, R) -> wchi2.WeightedChiSq:
        key = _index_key(R)
        lam = self.spectrum(key)          # stores the entry if it is new
        hit = self._cache[key][1]
        if hit is None:
            hit = wchi2.WeightedChiSq(lam)
            self._cache[key] = (lam, hit)
        return hit
