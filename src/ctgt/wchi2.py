"""Distribution of a nonnegative weighted sum of chi-square(1) variables.

For weights lambda_1 >= ... >= lambda_d > 0 and beta = min(lambda), the
variable Q = sum_i lambda_i V_i (V_i iid chi-square with one degree of
freedom) is an infinite mixture of central chi-square distributions
(Ruben, 1962):

    P(Q <= t) = sum_k a_k P(chisq_{d + 2k} <= t / beta)

whose coefficients are those of the generating function

    A(z) = sum_k a_k z^k = prod_i sqrt(beta / lambda_i) (1 - r_i z)^(-1/2)
         = a_0 exp(sum_{k>=1} h_k z^k),   h_k = g_k / (2k),

with r_i = 1 - beta/lambda_i in [0, 1) and power sums g_k = sum_i r_i^k.
Every coefficient is nonnegative and they sum to A(1) = 1.

Building the coefficients.  All power sums g_1 .. g_{n-1} come from one
matrix product (r_i^{Bm}) x (r_i^j), k = Bm + j.  One real FFT of the
h_k evaluates the exponent at the n-th roots of unity, and one inverse
FFT of exp(log a_0 + exponent) returns a_k plus the aliased sum
a_{k+n} + a_{k+2n} + ...  Cutting the exponent's series at n changes no
coefficient below n and only lowers those above it, so aliasing adds
mass, and at most the tail sum_{k>=n} a_k.  n is the smallest power of
two above the Cauchy bound

    sum_{k>=n} a_k <= A(rho) rho^(-n) rho / (rho - 1),   1 < rho < 1/max(r),

minimised over a grid of rho, at eps = ALIAS_FRACTION * trunc_tol.  The
series is cut at the first K whose accumulated mass reaches
1 - trunc_tol; truncation lowers the cdf by at most trunc_tol.  Rounding
in the FFTs and the exponential (about 1e-13 in the coefficients' L1
norm, measured against the classical recursion
a_k = (2k)^-1 sum_{j<k} g_{k-j} a_j) sits beside trunc_tol: up to
rounding, the computed cdf lies in
[true cdf - trunc_tol, true cdf + ALIAS_FRACTION * trunc_tol].

Evaluating the cdf.  With x = t / beta, the chi-square ladder identities

    f_{d+2k}(x) = f_d(x) * (x/2)^k * Gamma(d/2) / Gamma(d/2 + k)
    F_{d+2k}(x) = F_d(x) - 2 * sum_{j=1}^{k} f_{d+2j}(x)

reduce a call to one regularized-gamma evaluation plus exp/cumsum work
over the retained terms.  The densities' normalizing constants
log(2^{m/2} Gamma(m/2)), m = d + 2k, depend on m alone, so one table,
extended on demand, serves every distribution.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import special

_LN2 = float(np.log(2.0))

# weights this small relative to the largest are dropped before the series
WEIGHT_REL_TOL = 1e-12

# bound on the coefficient mass the FFT may alias, as a fraction of trunc_tol
ALIAS_FRACTION = 1e-3

# grid of s = (1 - rho * max(r)) / (1 - max(r)) in (0, 1) for the tail bound
_TAIL_BOUND_GRID = np.geomspace(1e-6, 0.99, 16)

# relative offset of the second point of each cdf call in quantile, whose
# difference quotient is the Newton slope
_SLOPE_STEP = 1e-7

# cdf calls one quantile search may make before giving up
_QUANTILE_MAX_CALLS = 2000

# log(2^{m/2} Gamma(m/2)) at index m, the cdf ladder's normalizing
# constants; a pure function of m, so the table is shared and only grows
_log_norm_table = np.zeros(0)

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


def _power_of_two(n: float) -> int:
    """Smallest power of two >= max(n, 16)."""
    return 1 << max(4, int(np.ceil(np.log2(max(n, 1.0)))))


def _series_length(w: np.ndarray, log_a0: float, eps: float) -> float:
    """A length n with sum_{k>=n} a_k <= eps, from the Cauchy bound.

    `w` holds beta / lambda_i < 1 for the weights above beta.  For rho
    in (1, 1/max(r)), a_k <= A(rho) rho^-k, so the tail from n on is at
    most A(rho) rho^-n rho / (rho - 1); each grid point gives the n that
    brings this to eps, and the smallest wins.  Written in w and
    rho - 1 so that nothing cancels when max(r) is close to 1.
    """
    w_min = float(w.min())
    r = 1.0 - w
    r_max = 1.0 - w_min
    rho_m1 = w_min * (1.0 - _TAIL_BOUND_GRID) / r_max        # rho - 1
    # 1 - r_i rho = w_i - r_i (rho - 1) > 0 on the whole grid
    log_a = log_a0 - 0.5 * np.log(w[None, :] - r[None, :]
                                  * rho_m1[:, None]).sum(axis=1)
    log_rho = np.log1p(rho_m1)
    need = (log_a + log_rho - np.log(rho_m1) - np.log(eps)) / log_rho
    return float(np.min(need)) + 1.0


def _log_normalizers(stop: int) -> np.ndarray:
    """The table of log(2^{m/2} Gamma(m/2)), covering at least m < stop."""
    global _log_norm_table
    if _log_norm_table.size < stop:
        half_m = 0.5 * np.arange(max(stop, 2 * _log_norm_table.size))
        _log_norm_table = half_m * _LN2 + special.gammaln(half_m)
    return _log_norm_table


def _aliased_series(r: np.ndarray, log_a0: float, n: int) -> np.ndarray:
    """a_k plus at most a_{k+n} + a_{k+2n} + ..., for k < n, up to rounding.

    Power sums g_k = sum_i r_i^k for k = B m + j come from the product of
    the (n/B) x d matrix r_i^{Bm} with the d x B matrix r_i^j.  The real
    FFT of h_k = g_k / (2k) is the conjugate of the exponent at the n-th
    roots of unity, and the inverse real FFT of exp(log a_0 + that) gives
    the coefficients, aliased.
    """
    block = 1 << (n.bit_length() // 2)            # B, a power of two <= n
    powers = np.power(r[:, None], np.arange(block)[None, :])
    strides = np.power(r[None, :],
                       (block * np.arange(n // block))[:, None])
    g = (strides @ powers).ravel()
    h = np.zeros(n)
    h[1:] = g[1:] / (2.0 * np.arange(1, n))
    return np.fft.irfft(np.exp(log_a0 + np.fft.rfft(h)), n)


class WeightedChiSq:
    """Frozen weighted-chi-square distribution with certified cdf error.

    The mixture coefficients are built once, from the generating function
    evaluated by FFT at a power-of-two number of roots of unity chosen by
    a Cauchy tail bound (see the module docstring); no term is computed
    by a per-term loop.

    Parameters
    ----------
    lambdas : array-like or spectrum
        Positive weights; entries below 1e-12 times the largest are
        stripped.  Negative entries raise ValueError.
    trunc_tol : float
        Certified absolute cdf error bound (default 1e-12).  Truncation
        only drops nonnegative terms, and FFT aliasing adds at most
        ALIAS_FRACTION * trunc_tol, so up to rounding (about 1e-13) the
        computed cdf lies in [true cdf - trunc_tol, true cdf +
        ALIAS_FRACTION * trunc_tol].
    max_terms : int
        Series length guard: SeriesStallError is raised exactly when the
        accumulated mass cannot reach 1 - trunc_tol within max_terms
        terms.
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
        """Accumulated coefficient mass (>= 1 - trunc_tol by construction).

        Summed in order, as the truncation rule sums it."""
        return float(np.cumsum(self._coeffs)[-1])

    def _build_coefficients(self, max_terms: int) -> np.ndarray:
        lam, beta = self._lam, self._beta
        w = beta / lam                     # 1 - r_i, in (0, 1]
        log_a0 = 0.5 * float(np.sum(np.log(w)))
        target = 1.0 - self._trunc_tol
        a0 = float(np.exp(log_a0))
        if a0 >= target:
            return np.array([a0])
        w = w[w < 1.0]                     # r_i = 0 adds nothing to g_k
        need = _series_length(w, log_a0, ALIAS_FRACTION * self._trunc_tol)
        # A series that may stall is first tried at about twice max_terms:
        # aliasing only adds mass, so if even the aliased mass falls short
        # of the target within max_terms, the series stalls.
        n = _power_of_two(min(need, 2.0 * max_terms))
        while True:
            a = _aliased_series(1.0 - w, log_a0, n)
            np.maximum(a, 0.0, out=a)      # rounding guard; exact values >= 0
            last = int(np.searchsorted(np.cumsum(a), target))
            if last >= min(n, max_terms):
                mass = float(a[:min(n, max_terms)].sum())
                raise SeriesStallError(
                    f"residual coefficient mass {1.0 - mass:.3e} still above "
                    f"trunc_tol {self._trunc_tol:.1e} after {max_terms} terms "
                    f"(weight ratio {lam[0] / lam[-1]:.3e}); increase "
                    f"max_terms or condense the weights")
            if n >= need:
                break
            n = _power_of_two(need)        # too short to bound the aliasing
        coeffs = a[:last + 1].copy()
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
        if coeffs.size > 1:
            stop = d + 2 * coeffs.size                   # m = d + 2k, k >= 1
            log_norm = _log_normalizers(stop)[d + 2:stop:2]
            powers = half_d + np.arange(log_norm.size)      # d/2 + k - 1
            # chunk so the (points x terms) workspace stays modest; rows
            # are summed one by one, so a point's value does not depend
            # on the other points of the call
            block = max(1, int(4_000_000 // log_norm.size))
            for start in range(0, x.size, block):
                sl = slice(start, start + block)
                xb = x[sl]
                log_f = (np.log(xb)[:, None] * powers[None, :]
                         - 0.5 * xb[:, None] - log_norm[None, :])
                ladder = f0[sl, None] - 2.0 * np.cumsum(np.exp(log_f), axis=1)
                np.maximum(ladder, 0.0, out=ladder)
                acc[sl] += (ladder * coeffs[1:]).sum(axis=1)
        return np.clip(acc, 0.0, 1.0)

    def quantile(self, p: float, tol: float = 1e-10) -> float:
        """Upper end of a safeguarded Newton bracket of the p-quantile.

        The search starts at the Satterthwaite two-moment approximation
        g * chisq_h.  Each step makes one cdf call at [t, t * (1 + 1e-7)]:
        the first value updates the bracket cdf(lo) < p <= cdf(hi), and
        the difference quotient is the slope of a Newton step aimed at
        p + tol/2.  A step that leaves the bracket is replaced by
        bisection; until some point reaches p, the step is at most a
        doubling of t.  The search returns a point whose computed cdf
        lies in [p, p + tol], or hi once lo and hi are adjacent floats.
        The result therefore never lies below the quantile of the
        computed cdf.  Since the computed cdf sits at
        most trunc_tol below and ALIAS_FRACTION * trunc_tol above the
        true one (up to rounding), the true cdf there lies in
        [p - ALIAS_FRACTION * trunc_tol, p + tol + trunc_tol].
        """
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        lam = self._lam
        scale = float(np.sum(lam * lam) / np.sum(lam))
        dof = float(np.sum(lam)) / scale
        t = max(2.0 * scale * float(special.gammaincinv(0.5 * dof, p)),
                np.finfo(float).tiny)
        aim = p + 0.5 * tol
        lo, hi = 0.0, np.inf
        for _ in range(_QUANTILE_MAX_CALLS):
            t_up = t * (1.0 + _SLOPE_STEP)
            c, c_up = self.cdf(np.array([t, t_up]))
            if c < p:
                lo = t
            else:
                hi = t
                if c - p <= tol:
                    return t
            slope = (c_up - c) / (t_up - t)
            step = t + (aim - c) / slope if slope > 0.0 else np.nan
            if hi == np.inf:           # no point has reached p yet
                t = min(step, 2.0 * t) if step > t else 2.0 * t
            else:
                t = step if lo < step < hi else 0.5 * (lo + hi)
                if not lo < t < hi:
                    return hi
        raise RuntimeError("quantile search failed")  # pragma: no cover


def chernoff_tail_bound(level: float, sq_sum: float, lam_bound: float,
                        t: float) -> float:
    """Upper bound on P(Q >= t) from three numbers, no spectrum needed.

    Q = sum_i lambda_i V_i as above, with level L = sum(lambda),
    sq_sum S2 = sum(lambda^2) and any lam_bound M >= max(lambda).  Since
    lambda^k <= M^(k-2) lambda^2 for k >= 2, the cumulant series of Q
    gives, for 0 <= s < 1/(2M),

        log E exp(sQ) = sum_i -1/2 log(1 - 2 s lambda_i)
                      <= s L + (S2 / M^2) (-1/2 log(1 - 2 s M) - s M).

    The Chernoff bound P(Q >= t) <= exp(-s t) E exp(sQ), minimised at
    2 s M = z / (1 + z), is (Laurent & Massart 2000, Lemma 1, relaxed)

        P(Q >= t) <= exp(-(nu/2) (z - log(1 + z))),
        nu = S2 / M^2,   z = (t - L) M / S2,

    for t > L; for t <= L the bound is 1.  The exponent decreases in both
    S2 and M, so among r weights summing to L the bound is smallest for
    equal weights (S2 = L^2 / r, M = L / r).
    """
    if t <= level:
        return 1.0
    nu = sq_sum / (lam_bound * lam_bound)
    z = (t - level) * lam_bound / sq_sum
    return float(np.exp(-0.5 * nu * (z - np.log1p(z))))


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
