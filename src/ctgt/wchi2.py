"""Distribution of a nonnegative weighted sum of chi-square(1) variables.

For weights lambda_1 >= ... >= lambda_d > 0 and any scale
0 < beta <= min(lambda), the variable Q = sum_i lambda_i V_i (V_i iid
chi-square with one degree of freedom) is an infinite mixture of central
chi-square distributions:

    P(Q <= t) = sum_k a_k P(chisq_{d + 2k} <= t / beta)

with mixture coefficients from the classical recursion

    a_0 = prod_i sqrt(beta / lambda_i)
    a_k = (2k)^{-1} sum_{j=0}^{k-1} g_{k-j} a_j,   g_k = sum_i (1 - beta/lambda_i)^k.

With beta <= min(lambda) every coefficient is nonnegative and they sum to
one; WeightedChiSq takes beta = min(lambda), which converges fastest
among those choices.  Truncating once the accumulated mass reaches
1 - trunc_tol bounds the absolute cdf error by trunc_tol.  Coefficients
depend only on the weights, so they are computed once per instance;
evaluation uses the chi-square ladder identities

    f_{d+2k}(x) = f_d(x) * (x/2)^k * Gamma(d/2) / Gamma(d/2 + k)
    F_{d+2k}(x) = F_d(x) - 2 * sum_{j=1}^{k} f_{d+2j}(x)

which reduce a cdf call to one regularized-gamma evaluation plus
vectorized exp/cumsum work over the retained terms.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import special

_LN2 = float(np.log(2.0))

# weights this small relative to the largest are dropped before the series
WEIGHT_REL_TOL = 1e-12

# alpha0_diagnostic's scan and bisection settings
ALPHA0_GRID_POINTS = 256
ALPHA0_UPPER_TAIL = 1e-6
ALPHA0_ROOT_TOL = 1e-8


class SeriesStallError(RuntimeError):
    """Coefficient mass failed to reach 1 - trunc_tol within max_terms.

    Signals an extreme weight ratio (the term count grows like
    28 * lambda_max / lambda_min); callers may raise max_terms.
    """


class MajorizationError(ValueError):
    """The claimed majorizing vector does not majorize the other one."""


def _as_weights(spec) -> np.ndarray:
    """Accept a spectrum-like object (has .lambdas) or a plain array."""
    lam = getattr(spec, "lambdas", spec)
    return np.sort(np.asarray(lam, dtype=float).ravel())[::-1]


class WeightedChiSq:
    """Frozen weighted-chi-square distribution with certified cdf error.

    Parameters
    ----------
    lambdas : array-like or spectrum
        Positive weights; entries below 1e-12 times the largest are
        stripped.  Negative entries raise ValueError.
    trunc_tol : float
        Certified absolute cdf error bound (default 1e-12).  Truncation
        only drops nonnegative terms, so up to rounding the computed cdf
        lies in [true cdf - trunc_tol, true cdf].
    max_terms : int
        Series length guard; exceeding it raises SeriesStallError.
    """

    def __init__(self, lambdas, trunc_tol: float = 1e-12,
                 max_terms: int = 100_000):
        lam = _as_weights(lambdas)
        if lam.size == 0:
            raise ValueError("at least one weight required")
        if np.any(lam < 0):
            raise ValueError("weights must be nonnegative")
        lam = lam[lam > WEIGHT_REL_TOL * lam[0]]
        if lam.size == 0:
            raise ValueError("all weights are zero")
        if not 0 < trunc_tol < 1:
            raise ValueError("trunc_tol must be in (0, 1)")
        self._lam = lam
        self._beta = float(lam[-1])
        self._trunc_tol = float(trunc_tol)
        self._coeffs = self._build_coefficients(int(max_terms))
        self._lam.flags.writeable = False
        self._coeffs.flags.writeable = False

    @property
    def lambdas(self) -> np.ndarray:
        return self._lam

    @property
    def trunc_tol(self) -> float:
        return self._trunc_tol

    @property
    def n_terms(self) -> int:
        return self._coeffs.size

    @property
    def mass(self) -> float:
        """Accumulated coefficient mass (>= 1 - trunc_tol by construction)."""
        return float(self._coeffs.sum())

    def _build_coefficients(self, max_terms: int) -> np.ndarray:
        lam, beta = self._lam, self._beta
        ratios = 1.0 - beta / lam          # in [0, 1)
        target = 1.0 - self._trunc_tol
        cap = 64
        a = np.zeros(cap)
        g = np.zeros(cap)                  # g[k] holds g_k, k >= 1
        a[0] = float(np.exp(0.5 * np.sum(np.log(beta / lam))))
        mass = a[0]
        powers = np.ones_like(ratios)
        k = 0
        while mass < target:
            k += 1
            if k >= max_terms:
                raise SeriesStallError(
                    f"residual coefficient mass {1.0 - mass:.3e} still above "
                    f"trunc_tol {self._trunc_tol:.1e} after {max_terms} terms "
                    f"(weight ratio {lam[0] / lam[-1]:.3e}); increase "
                    f"max_terms or condense the weights")
            if k >= cap:
                cap *= 2
                a = np.resize(a, cap)
                g = np.resize(g, cap)
                a[k:] = 0.0
                g[k:] = 0.0
            powers *= ratios
            g[k] = powers.sum()
            # a_k = (2k)^-1 * sum_{j<k} g_{k-j} a_j
            ak = float(np.dot(g[1:k + 1][::-1], a[:k])) / (2.0 * k)
            if ak < 0.0:       # rounding guard; exact value is >= 0
                ak = 0.0
            a[k] = ak
            mass += ak
        coeffs = a[:k + 1].copy()
        # invariant: nonnegative, partial sums bounded by one
        assert coeffs.min() >= 0.0
        assert coeffs.sum() <= 1.0 + 1e-9
        return coeffs

    def cdf(self, t):
        """P(Q <= t); scalar in, scalar out; vectorized over arrays."""
        t_in = np.asarray(t, dtype=float)
        scalar = t_in.ndim == 0
        t_arr = np.atleast_1d(t_in)
        out = np.zeros(t_arr.shape)
        pos = t_arr > 0
        if pos.any():
            out[pos] = self._cdf_positive(t_arr[pos])
        return float(out[0]) if scalar else out

    def _cdf_positive(self, t: np.ndarray) -> np.ndarray:
        x = t / self._beta
        d = self._lam.size
        half_d = 0.5 * d
        coeffs = self._coeffs
        f0 = special.gammainc(half_d, 0.5 * x)
        acc = coeffs[0] * f0
        n_terms = coeffs.size
        if n_terms > 1:
            ks = np.arange(1, n_terms)
            log_gamma = special.gammaln(half_d + ks)
            # chunk so the (points x terms) workspace stays modest
            block = max(1, int(4_000_000 // n_terms))
            for start in range(0, x.size, block):
                sl = slice(start, start + block)
                xb = x[sl]
                log_f = ((half_d - 1.0 + ks)[None, :] * np.log(xb)[:, None]
                         - 0.5 * xb[:, None]
                         - (half_d + ks)[None, :] * _LN2
                         - log_gamma[None, :])
                f = np.exp(log_f)
                ladder = f0[sl, None] - 2.0 * np.cumsum(f, axis=1)
                np.maximum(ladder, 0.0, out=ladder)
                acc[sl] += ladder @ coeffs[1:]
        return np.clip(acc, 0.0, 1.0)

    def quantile(self, p: float, tol: float = 1e-10) -> float:
        """Upper end of a bisection bracket of the p-quantile.

        Bisection keeps cdf(lo) < p <= cdf(hi) and returns hi once
        cdf(hi) - p <= tol, or once lo and hi are adjacent floats.  The
        result t therefore never lies below the quantile of the computed
        cdf, and since the computed cdf sits at most trunc_tol below the
        true one, the true cdf at t lies in [p, p + tol + trunc_tol].
        """
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        scale = float(self._lam.sum())
        # the chi2(1) p-quantile as scipy.stats computes it, without its import
        hi = scale * max(2.0 * float(special.gammaincinv(0.5, p)), 1.0)
        lo = 0.0
        for _ in range(200):
            c_hi = self.cdf(hi)
            if c_hi >= p:
                break
            lo, hi = hi, 2.0 * hi
        else:  # pragma: no cover - cdf tends to 1, bracket must close
            raise RuntimeError("failed to bracket quantile")
        while c_hi - p > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            c = self.cdf(mid)
            if c < p:
                lo = mid
            else:
                hi, c_hi = mid, c
        return hi


def partial_sum_gap(major, minor) -> float:
    """Most negative gap of (partial sums of major) - (partial sums of minor).

    Vectors are zero-padded to a common length and sorted descending.  A
    return value >= -tol together with matching totals certifies that
    `major` majorizes `minor`.
    """
    a = _as_weights(major)
    b = _as_weights(minor)
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    return float(np.min(np.cumsum(a) - np.cumsum(b)))


def majorizes(major, minor, tol: float = 1e-8) -> bool:
    """Definition check: equal totals and no partial sum of major below minor's."""
    a = _as_weights(major)
    b = _as_weights(minor)
    scale = max(1.0, float(a.sum()), float(b.sum()))
    if abs(float(a.sum()) - float(b.sum())) > tol * scale:
        return False
    return partial_sum_gap(a, b) >= -tol * scale


def condense_weights(weights, reltol: float) -> np.ndarray:
    """Merge weights below reltol * max into lumps; returns sorted desc.

    Repeatedly replaces the two smallest entries by their sum (popped
    from and pushed back onto a min-heap) while the smallest entry is
    below the threshold.  Each merge is a transfer onto a single
    coordinate, so the result majorizes the input (same total,
    partial sums only grow) and the matching weighted chi-square variable
    is larger in the sense the envelope construction needs.  Bounding the
    weight ratio this way caps the mixture series length, which grows
    like 28 * lambda_max / lambda_min.  The total is preserved exactly up
    to float addition; entries must be positive.
    """
    if not (0.0 < reltol < 1.0):
        raise ValueError("reltol must be in (0, 1)")
    v = _as_weights(weights)
    if v.size == 0:
        return v
    if v[-1] <= 0.0:
        raise ValueError("weights must be positive")
    tau = reltol * v[0]
    if v[-1] >= tau:
        return v
    heap = v[::-1].tolist()        # ascending, hence already a min-heap
    while len(heap) >= 2 and heap[0] < tau:
        heapq.heappush(heap, heapq.heappop(heap) + heapq.heappop(heap))
    return np.sort(np.asarray(heap, dtype=float))[::-1]


def alpha0_diagnostic(lambda_true, lambda_major, *,
                      trunc_tol: float = 1e-12) -> float:
    """Largest significance level at which the majorizing bound is valid.

    Scans cdf(major) - cdf(true) on a geometric grid of
    ALPHA0_GRID_POINTS points from the true distribution's median to its
    (1 - ALPHA0_UPPER_TAIL)-quantile, bisects the last sign change t0 to
    relative tolerance ALPHA0_ROOT_TOL, and returns the tail probability
    1 - cdf_true(t0).  For levels alpha <= that value, the (1 - alpha)-quantile of the
    majorizing distribution dominates the true one.

    Degenerate scans: equal weight vectors give 1.0 (no crossing past the
    median); a difference that is nonpositive across the whole grid means
    the crossing sits at or before the median, reported conservatively as
    the tail probability at the grid start; a difference still positive at
    the grid end means the crossing lies beyond the scan, reported as the
    tail probability there.

    Raises MajorizationError when lambda_major does not majorize
    lambda_true (partial-sum check, tolerance 1e-8 relative to the level).
    """
    lam_t = _as_weights(lambda_true)
    lam_m = _as_weights(lambda_major)
    if not majorizes(lam_m, lam_t):
        raise MajorizationError(
            "second argument must majorize the first (partial sums dip by "
            f"{-partial_sum_gap(lam_m, lam_t):.3e})")
    n = max(lam_t.size, lam_m.size)
    pad_t = np.pad(lam_t, (0, n - lam_t.size))
    pad_m = np.pad(lam_m, (0, n - lam_m.size))
    scale = max(1.0, float(pad_t.max(initial=0.0)))
    if np.allclose(pad_t, pad_m, rtol=0.0, atol=1e-10 * scale):
        return 1.0

    dist_t = WeightedChiSq(lam_t, trunc_tol=trunc_tol)
    dist_m = WeightedChiSq(lam_m, trunc_tol=trunc_tol)
    lo = dist_t.quantile(0.5)
    hi = dist_t.quantile(1.0 - ALPHA0_UPPER_TAIL)
    grid = np.geomspace(lo, hi, ALPHA0_GRID_POINTS)
    diff = dist_m.cdf(grid) - dist_t.cdf(grid)

    noise = 10.0 * max(dist_t.trunc_tol, dist_m.trunc_tol)
    signs = np.where(diff > noise, 1, np.where(diff < -noise, -1, 0))
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if changes.size == 0:
        if np.all(diff <= noise):
            return 1.0 - dist_t.cdf(grid[0])
        return 1.0 - dist_t.cdf(grid[-1])

    i = int(changes[-1])
    a, b = float(grid[i]), float(grid[i + 1])
    fa = float(diff[i])
    while b - a > ALPHA0_ROOT_TOL * (1.0 + b):
        m = 0.5 * (a + b)
        fm = float(dist_m.cdf(m) - dist_t.cdf(m))
        if fm == 0.0:
            a = b = m
            break
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    t0 = 0.5 * (a + b)
    return float(1.0 - dist_t.cdf(t0))
