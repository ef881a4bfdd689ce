"""Large-order expansion of the radius of starlikeness.

The expansion ansatz is

    r*(L) = L * ( c + sum_{k>=1} eps_k(eta) L^-k ),

where the defining condition, written through the zero power sums
Z^(k) of the derivative-free reduced equation, becomes the formal identity
in u = 1/L

    1 = sum_{m>=1} [ u^(m-1) E^(m+1) Zeta_(2m)(u)
                     + u^(m+1) E^(m+1) Zeta_(2m+1)(u) ] / (1 + u)
        - eta E u / (1 + u)^2,                      E = c + sum eps_k u^k,

with Zeta_j(u) = sum_n zeta_n^(j) u^n read from the zeta memo of
:mod:`coulombstar.rayleigh`.  The u^0 coefficient forces
c^2 zeta_0^(2) = 1, i.e. c = sqrt(2); each further power of u is linear in
the next eps and is solved exactly over Q(sqrt2)[eta]
(:func:`epsilon_coeffs`).  The solve works on the identity multiplied by
1 + u, whose u^j coefficient is a finite sum of entries of the power table
of E's coefficient list times zeta entries, summed by one
``EtaPolynomial.dot``.  Each exact table is the one store of its facts:
the solved eps are row 1 of the power table ``_POWERS``, grown in place by
``exact._powers`` by a column and a diagonal per order and read as it
stands by :func:`annihilation_residuals`, and the zeta rows grow on a miss
as the identity reads them, so they hold only the staircase it reads, row
k through order N + 1 - ceil(k/2).
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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .errors import DegenerateFit, GateViolation
from .exact import EtaPolynomial, Sqrt2Rational, _powers
from .rayleigh import _ZETA, _ensure_zeta
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


def _zeta(j: int, n: int) -> EtaPolynomial:
    """zeta_n^(j), read from the memo, which grows on a miss."""
    _ensure_zeta(j, n)
    return _ZETA[j][0][n]


def _identity_coeff(P: List[list], E: Sequence[EtaPolynomial],
                    j: int) -> EtaPolynomial:
    """[u^j] of G(u) - eta u E/(1+u), the defining identity times (1 + u),

        G = sum_{m>=1} E^(m+1) (u^(m-1) Zeta_(2m) + u^(m+1) Zeta_(2m+1)),

    from the coefficients E = [c, eps_1, ...] and their power table
    P = _powers(E, k_max) at any k_max >= j + 2.  Needs E through order
    j - 1 and P through order j; the zeta rows grow as they are read.
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


#: the power table of [c, eps_1, ..., eps_M], the solved coefficients, with
#: k_max = M + 2: row 1 is the one store of the solved eps, and the table
#: holds every entry :func:`annihilation_residuals` reads through order M.
#: Grown in place by ``_powers``, a column and a diagonal per solved order;
#: between calls it is a fresh build, with no placeholder column.
#: Process-global and grow-only; not safe to share across threads.
_POWERS: List[list] = []


def epsilon_coeffs(N: int) -> EpsilonTable:
    """Correction polynomials eps_1..eps_N of the large-order radius
    expansion, exact over Q(sqrt2)[eta].

    Solved order by order from the defining identity multiplied by 1 + u,
    G(u) - eta u E/(1+u) = 1 + u (see :func:`_identity_coeff`): eps_j
    enters the u^j coefficient only through zeta_0^(2) [u^j] E^2 =
    sqrt2 eps_j, so each order is that coefficient taken with eps_j = 0,
    less [j <= 1], times -sqrt2/2.  Re-substitution (see
    :func:`annihilation_residuals`) kills every coefficient of L^0 .. L^-N
    exactly.  The solved orders live in row 1 of ``_POWERS``, a
    process-global, grow-only table that is not safe to share across
    threads: each step grows it with a zero placeholder for eps_j, and one
    last ``_powers`` call recomputes that column with the solved value.  The
    zeta rows grow as the identity reads them, row k through
    zeta_{N + 1 - ceil(k/2)}.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    E = _POWERS[1][:] if _POWERS else [_C_POLY]
    neg_inv_lead = Sqrt2Rational(0, Fraction(-1, 2))
    for j in range(len(E), N + 1):
        E.append(_ZERO)
        H = _identity_coeff(_powers(E, j + 2, _POWERS), E, j)
        E[j] = (H - 1 if j == 1 else H) * neg_inv_lead
    _powers(E, len(E) + 1, _POWERS)
    return EpsilonTable(c=_SQRT2, eps=E[1:N + 1])


def annihilation_residuals(N: int) -> List[EtaPolynomial]:
    """Re-substitute the solved table into the defining identity and return
    the exact coefficients of u^0-1, u^1, ..., u^N (all must be the zero
    polynomial).

    The coefficients H_j of the identity times (1 + u) are read off the
    power table of the solve as it stands; dividing by 1 + u again gives
    R_j = H_j - R_(j-1).
    """
    epsilon_coeffs(N)
    R: List[EtaPolynomial] = []
    for j in range(N + 1):
        H = _identity_coeff(_POWERS, _POWERS[1], j)
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
    powers: List[list] = []
    c = _C_POLY
    if N >= 1:
        rhs = (c * _ETA
               - c * c * (_zeta(2, 1) - _zeta(2, 0))
               - _zeta(4, 0) * (_SQRT2 * _SQRT2 * _SQRT2))
        eps.append(rhs * Sqrt2Rational(0, Fraction(1, 2)))
    dot = EtaPolynomial.dot
    # the sums that do not change with n, each formed once and read at every
    # later order: alt2[m] = sum_{k<=m} (-1)^(m-k) zeta_k^(2) (brackets [3],
    # [4], [5]), ee[j] = sum_l eps_{l+1} eps_{j-l+1} ([4]), and the
    # alternating partial sums alt6[t] = sum_{j<=t} (-1)^(t-j) inner_j of
    # the inner double sums of [6], likewise alt7 of [7]
    alt2: List[EtaPolynomial] = []
    ee: List[EtaPolynomial] = []
    alt6: List[EtaPolynomial] = []
    alt7: List[EtaPolynomial] = []

    def push_alt(alt: List[EtaPolynomial], x: EtaPolynomial) -> None:
        alt.append(x - alt[-1] if alt else x)

    for n in range(0, N - 1):
        # E to order u^(n+1) known; A_{m+1,k} = powers[m+1][k], m+1 <= n+4,
        # from a table of this function's own, grown in place each step;
        # the entries [6] and [7] read at order n are final from here on
        _powers([c] + eps, n + 4, powers)
        for m in range(len(alt2), n + 3):
            push_alt(alt2, _zeta(2, m))
        ee.append(dot([(eps[l], eps[n - l]) for l in range(n + 1)]))
        for j in range(len(alt6), n + 2):
            push_alt(alt6, dot([(_zeta(2 * m, j - m - k + 2),
                                 powers[m + 1][k])
                                for m in range(2, j + 3)
                                for k in range(j - m + 3)]))
        push_alt(alt7, dot([(_zeta(2 * m + 1, n - m - k + 1), powers[m + 1][k])
                            for m in range(1, n + 2)
                            for k in range(n - m + 2)]))
        # brackets [1] .. [7] of the relation above as (factor, sum) pairs;
        # [5] without its k = n+1 term, which is sqrt2 * eps_{n+2}
        terms = [(sgn(n) * (n + 2), c * _ETA),
                 (dot([(sgn(n - k + 1) * (n - k + 1), eps[k])
                       for k in range(n + 1)]), _ETA),
                 (c * c, alt2[n + 2])]
        terms += [(alt2[n - j], ee[j]) for j in range(n + 1)]
        terms += [(2 * c * eps[k], alt2[n - k + 1]) for k in range(n + 1)]
        terms += [(1, alt6[n + 1]), (1, alt7[n])]
        # sqrt2 * eps_{n+2} + (the sum of the terms) = 0
        eps.append(dot(terms) * Sqrt2Rational(0, Fraction(-1, 2)))
    return EpsilonTable(c=_SQRT2, eps=eps)


# ---------------------------------------------------------------------------
# numeric evaluation and empirical order measurement
# ---------------------------------------------------------------------------

def _check_expansion_args(Ls: Sequence[float], eta: float) -> None:
    """Raise GateViolation unless every L is real, finite and > 0 and eta
    is finite."""
    if any(isinstance(L, complex) or not 0 < L < math.inf for L in Ls):
        raise GateViolation("the expansion needs finite real L > 0")
    if not math.isfinite(eta):
        raise GateViolation(f"the expansion needs finite eta, got {eta!r}")


def radius_asymptotic(L: float, eta: float, N: int) -> float:
    """Evaluate the truncated expansion L (c + sum_{k<=N} eps_k(eta)/L^k).

    Preconditions: finite real L > 0 (the expansion variable is 1/L),
    finite real eta, N >= 0.
    """
    _check_expansion_args([L], eta)
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
    near -(N+1).  The line is the least-squares fit of log(err) against
    log(L).  Raises ValueError unless the L values hold two distinct
    logarithms (a line needs two abscissae), and DegenerateFit when an
    error underflows the resolvable range (nothing left to fit).
    """
    Ls = [float(x) for x in L_values]
    _check_expansion_args(Ls, eta)
    x = [math.log(L) for L in Ls]
    if len(set(x)) < 2:
        raise ValueError("need at least two distinct L values")
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
    y = [math.log(e) for e in errs]
    x_bar, y_bar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    slope = (math.fsum((a - x_bar) * (b - y_bar) for a, b in zip(x, y))
             / math.fsum((a - x_bar) ** 2 for a in x))
    resid = math.sqrt(math.fsum((slope * (a - x_bar) + y_bar - b) ** 2
                                for a, b in zip(x, y)) / len(x))
    return OrderFit(slope=slope, fit_residual=resid, errors=errs)
