"""Reference computations made apart from ctgt, used to check its outputs.

Every study the benchmark builds has an intercept as its only
confounder, so the logistic null fit has the closed form mu = mean(y)
and the confounder projector is column centring.  From that, with numpy
alone:

* the statistic of a set S is sum_{i in S} (x_i . (y - mean(y)))^2;
* its null distribution is sum_j lambda_j chi2_1, with lambda the
  eigenvalues of sigma * Xc_S^T Xc_S, sigma = mean(y) (1 - mean(y)) and
  Xc_S the centred member columns;
* the tail probability P(Q > q) comes from Imhof's (1961) inversion
  integral, evaluated with scipy.integrate.quad.

Nothing here imports ctgt.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate

# A p-value this close to alpha (or closer than the quadrature's own error
# estimate) cannot be told apart from alpha; such a set counts as unchecked.
P_TOL_FLOOR = 1e-9
# quadrature target; errors stay near 1e-14 against closed forms
EPSABS = 1e-12


def imhof_sf(lambdas, q: float,
              epsabs: float = EPSABS) -> tuple[float, float]:
    """P(sum_j lambda_j V_j > q), V_j iid chi-square(1), and an error estimate.

    Imhof (1961): P(Q > q) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du
    with theta(u) = sum_j arctan(lambda_j u) / 2 - q u / 2 and
    rho(u) = prod_j (1 + lambda_j^2 u^2)^(1/4).  The weights are scaled
    so the largest is one.  The integral is split at u = 1: the head is a
    plain adaptive quadrature; on the tail, sin(A(u) - w u) is expanded
    into sin(A) cos(w u) - cos(A) sin(w u), whose slowly varying factors
    go to QUADPACK's Fourier-integral rule (QAWF).
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    if lam.size == 0 or np.any(lam < 0):
        raise ValueError("weights must be nonnegative and at least one")
    lam = lam[lam > 0]
    if lam.size == 0:
        raise ValueError("all weights are zero")
    if q <= 0:
        return 1.0, 0.0
    scale = float(lam.max())
    lam = lam / scale
    x = float(q) / scale
    omega = 0.5 * x

    def angle_and_denominator(u):
        # sum_j log(1 + i lambda_j u) = sum_j [log(1 + lambda_j^2 u^2) / 2
        #                                      + i arctan(lambda_j u)]
        s = complex(np.log1p(1j * u * lam).sum())
        return 0.5 * s.imag, u * np.exp(0.5 * s.real)

    def head(u):
        a, d = angle_and_denominator(u)
        return np.sin(a - omega * u) / d

    def tail_cos_factor(u):
        a, d = angle_and_denominator(u)
        return np.sin(a) / d

    def tail_sin_factor(u):
        a, d = angle_and_denominator(u)
        return np.cos(a) / d

    with warnings.catch_warnings():
        # QAWF warns about slowly decaying factors (one or two weights)
        # even where its result is accurate; the tests compare it against
        # closed forms in exactly those cases.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        h, e1 = integrate.quad(head, 0.0, 1.0, epsabs=epsabs,
                               epsrel=10 * epsabs, limit=500)
        t1, e2 = integrate.quad(tail_cos_factor, 1.0, np.inf, weight="cos",
                                wvar=omega, epsabs=epsabs, limlst=200)
        t2, e3 = integrate.quad(tail_sin_factor, 1.0, np.inf, weight="sin",
                                wvar=omega, epsabs=epsabs, limlst=200)
    p = 0.5 + (h + t1 - t2) / np.pi
    return min(max(p, 0.0), 1.0), (e1 + e2 + e3) / np.pi


class Study:
    """A case/control table seen through the closed-form intercept-only null."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        ybar = float(y.mean())
        self.sigma = ybar * (1.0 - ybar)
        self.Xc = X - X.mean(axis=0)
        self.g = (X.T @ (y - ybar)) ** 2

    def statistic(self, members) -> float:
        return float(self.g[list(members)].sum())

    def spectrum(self, members) -> np.ndarray:
        M = self.Xc[:, sorted(members)]
        vals = np.linalg.eigvalsh(self.sigma * (M.T @ M))
        return vals[vals > 1e-10 * max(float(vals.max()), 0.0)]

    def p_value(self, members,
                epsabs: float = EPSABS) -> tuple[float, float]:
        """Independent p-value of the set's own Globaltest, with its error."""
        return imhof_sf(self.spectrum(members), self.statistic(members),
                        epsabs)


def verdict(p: float, err: float, alpha: float) -> str | None:
    """'reject' or 'not_reject' at level alpha, None when too close to call."""
    if abs(p - alpha) <= max(P_TOL_FLOOR, 10.0 * err):
        return None
    return "reject" if p <= alpha else "not_reject"
