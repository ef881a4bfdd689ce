"""Large-order expansion of the radius of starlikeness.

The expansion ansatz is

    r*(L) = L * ( c + sum_{k>=1} eps_k(eta) L^-k ),

where the defining condition, written through the zero power sums
Z^(k) of the derivative-free reduced equation, becomes the formal identity
in u = 1/L

    1 = sum_{m>=1} [ u^(m-1) E^(m+1) Zeta_(2m)(u)
                     + u^(m+1) E^(m+1) Zeta_(2m+1)(u) ] / (1 + u)
        - eta E u / (1 + u)^2,                      E = c + sum eps_k u^k,

with Zeta_j(u) = sum_n zeta_n^(j) u^n taken from
:func:`coulombstar.rayleigh.zeta_coeffs`.  The u^0 coefficient forces
c^2 zeta_0^(2) = 1, i.e. c = sqrt(2); each further power of u is linear in
the next eps and is solved exactly over Q(sqrt2)[eta]
(:func:`epsilon_coeffs`).  The solve works on the identity multiplied by
1 + u, whose u^j coefficient is a finite sum of entries of the power table
of E's coefficient list times zeta entries, summed by one
``EtaPolynomial.dot``; that table and :func:`annihilation_residuals` share
one kernel, ``exact._powers``.
:func:`epsilon_coeffs_recurrence` computes the
same table from the fully expanded coefficient recurrence (a seed identity
for eps_1 plus an order-(n+2) relation), as an independent transcription;
the two must and do agree.

A caution that matters for consumers: the truncated expansion produced
here does *not* track the directly computed radius at large L -- the
measured growth of the radius is r* ~ L, not sqrt(2) L, so the remainder
does not shrink with the expansion order.  ``empirical_order`` exists to
measure exactly that, and the acceptance gate reports the discrepancy
honestly rather than hiding it.  See the README for the full story.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .errors import DegenerateFit, GateViolation
from .exact import EtaPolynomial, Sqrt2Rational, _powers
from .rayleigh import zeta_coeffs
from .radii import radius_f

__all__ = [
    "EpsilonTable",
    "epsilon_coeffs",
    "epsilon_coeffs_recurrence",
    "annihilation_residuals",
    "radius_asymptotic",
    "OrderFit",
    "empirical_order",
]

_SQRT2 = Sqrt2Rational.sqrt2()
_C_POLY = EtaPolynomial([_SQRT2])
_ETA = EtaPolynomial.eta()
_NEG_ETA = -_ETA
_ZERO = EtaPolynomial([])


@dataclass(frozen=True)
class EpsilonTable:
    """Leading constant c and correction polynomials eps_1..eps_N."""

    c: Sqrt2Rational
    eps: List[EtaPolynomial]

    @property
    def order(self) -> int:
        return len(self.eps)

    def as_floats(self, eta: float) -> List[float]:
        return [float(self.c)] + [e(float(eta)) for e in self.eps]


def _zeta2(k: int) -> EtaPolynomial:
    return zeta_coeffs(2, k)[k]


def _zeta(j: int, n: int) -> EtaPolynomial:
    return zeta_coeffs(j, n)[n]


def _identity_coeff(P: List[list], E: Sequence[EtaPolynomial],
                    j: int) -> EtaPolynomial:
    """[u^j] of G(u) - eta u E/(1+u), the defining identity times (1 + u),

        G = sum_{m>=1} E^(m+1) (u^(m-1) Zeta_(2m) + u^(m+1) Zeta_(2m+1)),

    from the coefficients E = [c, eps_1, ...] and their power table
    P = _powers(E, j + 2).  Needs E and the zeta rows through order j.
    The last terms are [u^j] -eta u E/(1+u) = sum_{i<j} (-1)^(j-i) eta E_i."""
    pairs = []
    for m in range(1, j + 2):
        Pk = P[m + 1]
        pairs += [(Pk[q], _zeta(2 * m, j - m + 1 - q))
                  for q in range(j - m + 2)]
        pairs += [(Pk[q], _zeta(2 * m + 1, j - m - 1 - q))
                  for q in range(j - m)]
    pairs += [(_ETA if (j - i) % 2 == 0 else _NEG_ETA, E[i])
              for i in range(j)]
    return EtaPolynomial.dot(pairs)


#: eps_1, eps_2, ... solved so far.  Process-global and grow-only: a longer
#: request solves only the orders it lacks.  Not safe to share across threads.
_CACHE: List[EtaPolynomial] = []


def epsilon_coeffs(N: int) -> EpsilonTable:
    """Correction polynomials eps_1..eps_N of the large-order radius
    expansion, exact over Q(sqrt2)[eta].

    Solved order by order from the defining identity multiplied by 1 + u,
    G(u) - eta u E/(1+u) = 1 + u (see :func:`_identity_coeff`): eps_j
    enters the u^j coefficient only through zeta_0^(2) [u^j] E^2 =
    sqrt2 eps_j, so each order is that coefficient taken with eps_j = 0,
    less [j <= 1], times -sqrt2/2.  Re-substitution (see
    :func:`annihilation_residuals`) kills every coefficient of L^0 .. L^-N
    exactly.  The solved orders are kept in ``_CACHE``, a process-global,
    grow-only table that is not safe to share across threads; the zeta rows
    it needs are built in one call first.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if len(_CACHE) < N:
        zeta_coeffs(2 * N + 2, N)
        neg_inv_lead = Sqrt2Rational(0, Fraction(-1, 2))
        for j in range(len(_CACHE) + 1, N + 1):
            E = [_C_POLY] + _CACHE + [_ZERO]
            H = _identity_coeff(_powers(E, j + 2), E, j)
            _CACHE.append((H - 1 if j == 1 else H) * neg_inv_lead)
    return EpsilonTable(c=_SQRT2, eps=list(_CACHE[:N]))


def annihilation_residuals(N: int) -> List[EtaPolynomial]:
    """Re-substitute the solved table into the defining identity and return
    the exact coefficients of u^0-1, u^1, ..., u^N (all must be the zero
    polynomial).

    The coefficients H_j of the identity times (1 + u) come from one power
    table of the full E; dividing by 1 + u again gives R_j = H_j - R_(j-1).
    """
    E = [_C_POLY] + epsilon_coeffs(N).eps
    P = _powers(E, N + 2)
    R: List[EtaPolynomial] = []
    for j in range(N + 1):
        H = _identity_coeff(P, E, j)
        R.append(H - R[-1] if R else H)
    R[0] = R[0] - 1
    return R


# ---------------------------------------------------------------------------
# independent transcription: seed + fully expanded recurrence
# ---------------------------------------------------------------------------

def epsilon_coeffs_recurrence(N: int) -> EpsilonTable:
    """The same eps table computed from the expanded coefficient identities
    instead of the series solve.

    Seed (order u^1):  2 c zeta_0^(2) eps_1 =
        c eta - c^2 (zeta_1^(2) - zeta_0^(2)) - zeta_0^(4) A_{3,0}.

    Order u^(n+2):  0 =
        (-1)^n c eta (n+2)
      + eta sum_{k=0}^{n} (-1)^(n-k+1) (n-k+1) eps_{k+1}
      + c^2 sum_{k=0}^{n+2} (-1)^(n-k) zeta_k^(2)
      + sum_{j=0}^{n} [ sum_{k=0}^{n-j} (-1)^(n-j-k) zeta_k^(2) ]
                      [ sum_{l=0}^{j} eps_{l+1} eps_{j-l+1} ]
      + 2 c sum_{k=0}^{n+1} eps_{k+1} sum_{q=0}^{n-k+1} (-1)^(n-k-q+1) zeta_q^(2)
      + sum_{j=0}^{n+1} (-1)^(n-j+1) sum_{m=2}^{j+2}
                      sum_{k=0}^{j-m+2} zeta_{j-m-k+2}^(2m) A_{m+1,k}
      + sum_{j=0}^{n}   (-1)^(n-j)   sum_{m=1}^{j+1}
                      sum_{k=0}^{j-m+1} zeta_{j-m-k+1}^(2m+1) A_{m+1,k},

    with A_{m+1,k} the u^k coefficient of E^(m+1); the k = n+1 term of the
    2c-sum isolates sqrt2 * eps_{n+2}, which the function solves for.
    """
    if N < 0:
        raise ValueError("N must be >= 0")

    def sgn(k: int) -> int:        # (-1)**k that stays an int for k < 0
        return 1 if k % 2 == 0 else -1

    eps: List[EtaPolynomial] = []
    c = _C_POLY
    if N >= 1:
        rhs = (c * _ETA
               - c * c * (_zeta2(1) - _zeta2(0))
               - _zeta(4, 0) * (_SQRT2 * _SQRT2 * _SQRT2))
        eps.append(rhs * Sqrt2Rational(0, Fraction(1, 2)))
    dot = EtaPolynomial.dot
    for n in range(0, N - 1):
        # E to order u^(n+1) known; A_{m+1,k} = powers[m+1][k], m+1 <= n+4
        powers = _powers([c] + eps, n + 4)
        # brackets [1] .. [7] of the relation above as (factor, sum) pairs
        terms = []
        # [1]
        terms.append((sgn(n) * (n + 2), c * _ETA))
        # [2]
        terms.append((dot([(sgn(n - k + 1) * (n - k + 1), eps[k])
                           for k in range(n + 1)]), _ETA))
        # [3]
        terms.append((c * c, dot([(sgn(n - k), _zeta2(k))
                                  for k in range(n + 3)])))
        # [4]
        for j in range(n + 1):
            zsum = dot([(sgn(n - j - k), _zeta2(k))
                        for k in range(n - j + 1)])
            esum = dot([(eps[l], eps[j - l]) for l in range(j + 1)])
            terms.append((zsum, esum))
        # [5] without its k = n+1 term (that term is sqrt2 * eps_{n+2})
        for k in range(n + 1):
            zsum = dot([(sgn(n - k - q + 1), _zeta2(q))
                        for q in range(n - k + 2)])
            terms.append((2 * c * eps[k], zsum))
        # [6]
        for j in range(n + 2):
            inner = dot([(_zeta(2 * m, j - m - k + 2), powers[m + 1][k])
                         for m in range(2, j + 3)
                         for k in range(j - m + 3)])
            terms.append((sgn(n - j + 1), inner))
        # [7]
        for j in range(n + 1):
            inner = dot([(_zeta(2 * m + 1, j - m - k + 1), powers[m + 1][k])
                         for m in range(1, j + 2)
                         for k in range(j - m + 2)])
            terms.append((sgn(n - j), inner))
        # sqrt2 * eps_{n+2} + (the sum of the terms) = 0
        eps.append(dot(terms) * Sqrt2Rational(0, Fraction(-1, 2)))
    return EpsilonTable(c=_SQRT2, eps=eps)


# ---------------------------------------------------------------------------
# numeric evaluation and empirical order measurement
# ---------------------------------------------------------------------------

def radius_asymptotic(L: float, eta: float, N: int) -> float:
    """Evaluate the truncated expansion L (c + sum_{k<=N} eps_k(eta)/L^k).

    Preconditions: real L > 0 (the expansion variable is 1/L), N >= 0.
    """
    if isinstance(L, complex) or not L > 0:
        raise GateViolation("the expansion needs real L > 0")
    table = epsilon_coeffs(N)
    u = 1.0 / float(L)
    acc = 0.0
    for e in reversed(table.eps):
        acc = (acc + e(float(eta))) * u
    return float(L) * (float(table.c) + acc)


@dataclass(frozen=True)
class OrderFit:
    """Log-log slope of scaled errors against L (with fit residual)."""

    slope: float
    fit_residual: float
    errors: List[float]

    def __float__(self) -> float:
        return self.slope


def empirical_order(L_values: Sequence[float], eta: float, N: int) -> OrderFit:
    """Measure d log(err)/d log(L) for err(L) = |r*(L) - expansion_N(L)|/L.

    If the expansion captured the radius to order N, the slope would sit
    near -(N+1).  Raises DegenerateFit when an error underflows the
    resolvable range (nothing left to fit).
    """
    Ls = [float(x) for x in L_values]
    if len(Ls) < 2:
        raise ValueError("need at least two L values")
    if any(x <= 0 for x in Ls):
        raise GateViolation("the expansion needs real L > 0")
    errs: List[float] = []
    for L in Ls:
        direct = radius_f(L, eta, 0.0).value
        approx = radius_asymptotic(L, eta, N)
        err = abs(direct - approx) / L
        if not err > 1e-15:
            raise DegenerateFit(
                f"scaled error {err:.3e} at L = {L} is below the resolvable "
                "floor; the fit would be meaningless")
        errs.append(err)
    x = np.log(np.asarray(Ls))
    y = np.log(np.asarray(errs))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    return OrderFit(slope=float(slope), fit_residual=resid, errors=errs)
