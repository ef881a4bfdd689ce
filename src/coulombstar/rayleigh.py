"""Rayleigh-type zero sums and their large-order Laurent coefficients.

Two families of power sums over zeros are computed by exact recurrences:

* ``rayleigh_Z``  -- Z^(k) = sum (-rho_n)^(-k) over the nontrivial zeros of
  the regular Coulomb function, via

      Z^(2)   = (1/(2L+3)) (1 + eta^2/(L+1)^2),
      Z^(k+1) = (1/(2L+k+2)) ( (2 eta/(L+1)) Z^(k)
                               + sum_{l=1}^{k-2} Z^(l+1) Z^(k-l) ).

  The sign convention is the recurrence's: for odd k this is
  -sum rho_n^(-k) (at L = 2, eta = -1, Z^(3) = -5/378 while the zeros give
  +5/378); even k are plain zero sums.  The odd zeta rows below inherit it.

* ``rayleigh_Ztilde`` -- the plain power sums over the zeros of the
  *derivative*, with the true sign for every k, built from an auxiliary
  coefficient sequence (``gen_coeffs_a``) of the logarithmic derivative at
  the origin.

Both run over exact rationals whenever L and eta are rational (ints,
Fractions, or floats with denominator <= 2^20) and over floats otherwise.

``zeta_coeffs`` holds the coefficients zeta_n^(k) of the large-order Laurent
expansions of Z^(k),

    Z^(2k)   = L^-(2k-1) * sum_n zeta_n^(2k)   L^-n,
    Z^(2k+1) = L^-(2k+1) * sum_n zeta_n^(2k+1) L^-n,

as exact polynomials in eta; ``zeta_laurent_eval`` sums them numerically
(inclusive of the n = n_terms term).  ``euler_rayleigh_bounds`` turns the
derivative-zero sums into two-sided bounds for the square of the smallest
positive zero of F':

    (Ztilde^(2s))^(-1/s)  <  rho~_1^2  <  Ztilde^(2s)/Ztilde^(2s+2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .errors import BoundsInvalid, GateViolation, RegionWarning
from .exact import EtaPolynomial, _rational_dot, p_coeff
from .specfun import CoulombParams, _is_exactable

__all__ = [
    "RayleighTable",
    "EulerRayleighBounds",
    "rayleigh_Z",
    "gen_coeffs_a",
    "rayleigh_Ztilde",
    "euler_rayleigh_bounds",
    "zeta_coeffs",
    "zeta_laurent_eval",
]

Number = Union[Fraction, float]

#: float ``rayleigh_Ztilde`` warns when a sum is this many times smaller than
#: its largest term.  Against the exact tables on a grid of 120 (L, eta)
#: points up to k = 24, with the ratio taken as a running maximum over k,
#: entries whose ratio stayed below 1e6 were off by at most 2.3e-10, and
#: every entry off by more than 1e-10 had a ratio above 5e5.
_ZTILDE_COND_MAX = 1e6


@dataclass(frozen=True)
class RayleighTable:
    """Zero power sums values[k] for k = 2 .. k_max."""

    params: CoulombParams
    kind: str                      # "Z" (function zeros) or "Ztilde" (F' zeros)
    values: Dict[int, Number]
    exact: bool

    def __getitem__(self, k: int) -> Number:
        return self.values[k]


@dataclass(frozen=True)
class EulerRayleighBounds:
    """Two-sided bounds for the squared smallest positive zero of F'."""

    s: int
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _pick_mode(params: CoulombParams, exact):
    if params.is_complex:
        raise GateViolation("zero power sums need real L")
    want = (_is_exactable(params.L) and _is_exactable(params.eta)
            if exact is None else bool(exact))
    if want and not (_is_exactable(params.L) and _is_exactable(params.eta)):
        raise ValueError(
            f"exact mode needs rational L and eta, got L={params.L!r}, "
            f"eta={params.eta!r}")
    if want:
        return Fraction(params.L), Fraction(params.eta), True
    return float(params.L), float(params.eta), False


def _pairs(Z: Dict[int, Fraction], total: int) -> list:
    """The pairs (Z[a], Z[b]) with a + b = total and a, b >= 2, for one
    exact sum (:func:`~coulombstar.exact._rational_dot`)."""
    return [(Z[a], Z[total - a]) for a in range(2, total - 1)]


def _pair_sum(Z: Dict[int, float], total: int) -> float:
    """sum of Z[a] Z[b] over a + b = total, a, b >= 2, in float: each
    unordered pair is multiplied once and doubled."""
    acc = 0
    for a in range(2, (total + 1) // 2):
        acc += Z[a] * Z[total - a]
    acc = 2 * acc
    if total % 2 == 0:
        acc += Z[total // 2] * Z[total // 2]
    return acc


def rayleigh_Z(params: CoulombParams, k_max: int,
               exact: Union[bool, None] = None) -> RayleighTable:
    """Zero sums Z^(k) = sum (-rho_n)^(-k), k = 2 .. k_max, over the
    nontrivial zeros rho_n of the regular solution: for even k the plain
    power sums, for odd k their negatives (the recurrence's convention).

    Preconditions: real L > -1, k_max in [2, 64] (exact mode caps at 40 to
    keep rationals manageable).
    """
    L, eta, is_exact = _pick_mode(params, exact)
    cap = 40 if is_exact else 64
    if not 2 <= k_max <= cap:
        raise ValueError(f"k_max must be in [2, {cap}], got {k_max}")
    Z: Dict[int, Number] = {}
    one = Fraction(1) if is_exact else 1.0
    Z[2] = (one + eta * eta / ((L + 1) * (L + 1))) / (2 * L + 3)
    w = 2 * eta / (L + 1)
    for k in range(2, k_max):
        acc = (_rational_dot([(w, Z[k])] + _pairs(Z, k + 1)) if is_exact
               else w * Z[k] + _pair_sum(Z, k + 1))
        Z[k + 1] = acc / (2 * L + k + 2)
    return RayleighTable(params=params, kind="Z", values=Z, exact=is_exact)


def gen_coeffs_a(params: CoulombParams, n_max: int,
                 exact: Union[bool, None] = None) -> List[Number]:
    """Taylor coefficients of the origin expansion driving the F'-zero sums.

    a_0 = 2 eta / (L (L+1)),
    a_1 = -(2 + 2 eta a_0) / (L (L+1)),
    a_n = -(2 eta a_{n-1} - a_{n-2}) / (L (L+1))      (n >= 2).

    Requires L > -1 and L != 0 (the normalization divides by L).
    """
    L, eta, _ = _pick_mode(params, exact)
    if L == 0:
        raise GateViolation("the auxiliary sequence is undefined at L = 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d = L * (L + 1)
    a: List[Number] = [2 * eta / d]
    if n_max >= 1:
        a.append(-(2 + 2 * eta * a[0]) / d)
    for _ in range(2, n_max + 1):
        a.append(-(2 * eta * a[-1] - a[-2]) / d)
    return a


def rayleigh_Ztilde(params: CoulombParams, k_max: int,
                    exact: Union[bool, None] = None) -> RayleighTable:
    """Power sums over the zeros of F' (the derivative of the regular
    solution), k = 2 .. k_max.

    (2L+3) Zt^(2) = 1 - L a_1 - p a_0 + p^2            with p = (L+2) eta/(L+1)^2,
    (2L+4) Zt^(3) = -L a_2 - p a_1 + (a_0 - 2 p) Zt^(2),
    and for n >= 0

    (2L+n+5) Zt^(n+4) = -L a_{n+3} - p a_{n+2}
                        + sum_{m=0}^{n+1} a_m Zt^(3+n-m)
                        + sum_{m=0}^{n}   Zt^(m+2) Zt^(n-m+2)
                        - 2 p Zt^(n+3).

    Requires L > -1, L != 0.  The float mode is unstable when L(L+1) is
    small against |eta|: the a_n grow like (2 eta/(L(L+1)))^n and their
    combinations cancel, so at (L, eta) = (0.001, -3.41) the float Zt^(8)
    and Zt^(10) come out negative.  At large k it loses digits elsewhere
    too.  It emits RegionWarning when a sum is more than 1e6 times smaller
    than its largest term; use exact mode there.
    """
    L, eta, is_exact = _pick_mode(params, exact)
    cap = 40 if is_exact else 64
    if not 2 <= k_max <= cap:
        raise ValueError(f"k_max must be in [2, {cap}], got {k_max}")
    a = gen_coeffs_a(params, k_max - 1, exact)
    p = (L + 2) * eta / ((L + 1) * (L + 1))
    one = Fraction(1) if is_exact else 1.0
    Zt: Dict[int, Number] = {}
    cond, k_cond = 0.0, 2

    def put(k: int, pairs: list, den: Number) -> None:
        # Zt[k] = (sum of x*y over pairs + sum Zt[a] Zt[k-a]) / den; float
        # mode tracks the largest |term| / |sum| over the table
        nonlocal cond, k_cond
        if is_exact:
            Zt[k] = _rational_dot(pairs + _pairs(Zt, k)) / den
            return
        terms = [x * y for x, y in pairs]
        if k >= 4:
            terms.append(_pair_sum(Zt, k))
        acc = sum(terms)
        Zt[k] = acc / den
        big = max(map(abs, terms))
        if big > cond * abs(acc):
            cond, k_cond = (big / abs(acc) if acc else math.inf), k

    put(2, [(one, one), (-L, a[1]), (-p, a[0]), (p, p)], 2 * L + 3)
    if k_max >= 3:
        put(3, [(-L, a[2]), (-p, a[1]), (a[0], Zt[2]), (-2 * p, Zt[2])],
            2 * L + 4)
    for n in range(0, k_max - 3):
        put(n + 4, [(-L, a[n + 3]), (-p, a[n + 2]), (-2 * p, Zt[n + 3])]
            + [(a[m], Zt[3 + n - m]) for m in range(0, n + 2)],
            2 * L + n + 5)
    if cond > _ZTILDE_COND_MAX:
        warnings.warn(
            f"float Ztilde table cancels: the sum for Zt^({k_cond}) is "
            f"{cond:.3g} times smaller than its largest term, so entries "
            "may have lost most of their digits; use exact mode "
            "(exact=True, rational L and eta)", RegionWarning, stacklevel=2)
    return RayleighTable(params=params, kind="Ztilde", values=Zt,
                         exact=is_exact)


def euler_rayleigh_bounds(params: CoulombParams, s: int) -> EulerRayleighBounds:
    """Euler-Rayleigh sandwich for the squared first positive zero of F'.

    lower = (Zt^(2s))^(-1/s),  upper = Zt^(2s)/Zt^(2s+2); both converge to
    the true square monotonically as s grows.  The table is built exactly
    from the rationals equal to L and eta, because the float recurrence is
    unstable for small L(L+1) (see :func:`rayleigh_Ztilde`); the exact cap
    k <= 40 bounds s.  Preconditions: L > -1, L != 0, eta < 0,
    1 <= s <= 19.  Raises BoundsInvalid when a needed table entry is
    nonpositive (the sandwich would be vacuous).
    """
    if not 1 <= s <= 19:
        raise ValueError(f"s must be in [1, 19], got {s}")
    if params.is_complex or not float(params.eta) < 0:
        raise GateViolation("two-sided bounds are stated for real L and eta < 0")
    rational = CoulombParams(Fraction(params.L), Fraction(params.eta))
    table = rayleigh_Ztilde(rational, 2 * s + 2, exact=True)
    z_lo, z_hi = table[2 * s], table[2 * s + 2]
    if z_lo <= 0 or z_hi <= 0:
        raise BoundsInvalid(
            f"Ztilde^({2 * s}) = {z_lo} or Ztilde^({2 * s + 2}) = {z_hi} "
            "is nonpositive; no valid sandwich")
    lower = float(z_lo) ** (-1.0 / s)
    upper = float(z_lo) / float(z_hi)
    return EulerRayleighBounds(s=s, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Laurent coefficients of Z^(k) in 1/L
# ---------------------------------------------------------------------------

_Row = Tuple[List[EtaPolynomial], List[EtaPolynomial], List[EtaPolynomial]]

#: zeta tables memo: j -> ([zeta_0^(j), ..., zeta_n^(j)], S', S''), with the
#: pair series S' and S'' of :func:`_grow_row` (empty for j = 2) kept so that
#: the row can grow without recomputing them.  A row grows only after every
#: row below it is at least as long, so row lengths never increase with j.
#: Process-global and grow-only: rows are added or lengthened in place, never
#: dropped.  Not safe to share across threads.
_ZETA: Dict[int, _Row] = {}

_ETA2 = EtaPolynomial([0, 0, 1])


def _zeta_2(n: int) -> EtaPolynomial:
    """zeta_n^(2) = p_n + eta^2 sum_{m=0}^{n-2} (-1)^m (m+1) p_{n-2-m}."""
    tail = _rational_dot(((-1) ** m * (m + 1), p_coeff(2, n - 2 - m))
                         for m in range(n - 1))
    return p_coeff(2, n) + tail * _ETA2


def _grow_row(j: int, n_max: int) -> None:
    """Lengthen row j >= 3 of the memo through zeta_{n_max}, computing only
    the orders it lacks; the rows below must reach n_max already.

    S'_q and S''_q sum the Cauchy products [u^q] Zeta_a Zeta_(j-a) over
    a = 2 .. j-2 with a even and a odd; each unordered pair is multiplied
    once and doubled.  With the p_n^(j) expansion of 1/(2L + j + 1) and
    T_n = 2 eta sum_l c_l zeta_{n-l}^(j-1), c_l = sum_{m<=l} (-1)^m p_{l-m},

        zeta_n^(j) = sum_q p_{n-q} (S'_q + S''_q) + T_n                (j odd),
        zeta_n^(j) = sum_q p_{n-q} S'_q
                     + sum_q p_{n-2-q} S''_q + T_{n-2}                (j even).
    """
    row, *S = _ZETA.setdefault(j, ([], [], []))
    have = len(row)
    if have > n_max:
        return
    dot = EtaPolynomial.dot

    def part(q: int, parity: int) -> EtaPolynomial:
        # the doubled pairs a < j - a, then the middle pair a = j/2
        twice = dot([(_ZETA[a][0][m], _ZETA[j - a][0][q - m])
                     for a in range(2 + parity, (j + 1) // 2, 2)
                     for m in range(q + 1)])
        mid = _ZETA[j // 2][0] if j % 4 == 2 * parity else None
        return dot([(2, twice)] + (
            [(mid[m], mid[q - m]) for m in range(q + 1)] if mid else []))

    for q in range(len(S[0]), n_max + 1):   # S runs ahead if a growth was cut
        even, odd = part(q, 0), part(q, 1)
        S[0].append(even)
        S[1].append(odd)
    p = [p_coeff(j, n) for n in range(n_max + 1)]
    c: List[Fraction] = []
    for l in range(n_max + 1):
        c.append(p[l] - (c[-1] if c else 0))
    w = [EtaPolynomial([0, 2 * x]) for x in c]
    prev = _ZETA[j - 1][0]

    def T(n: int) -> list:
        return [(w[n - q], prev[q]) for q in range(n + 1)]

    if j % 2:
        both = [S[0][q] + S[1][q] for q in range(n_max + 1)]
        row.extend(dot([(p[n - q], both[q]) for q in range(n + 1)] + T(n))
                   for n in range(have, n_max + 1))
    else:
        row.extend(dot([(p[n - q], S[0][q]) for q in range(n + 1)]
                       + [(p[n - 2 - q], S[1][q]) for q in range(n - 1)]
                       + (T(n - 2) if n >= 2 else []))
                   for n in range(have, n_max + 1))


def _ensure_zeta(j_max: int, n_max: int) -> None:
    """Grow the memo to hold rows 2 .. j_max through zeta_{n_max}: each row
    gains only the orders it lacks, and rows above j_max are left as they
    are."""
    if j_max in _ZETA and len(_ZETA[j_max][0]) > n_max:
        return                          # so are the rows below it
    row = _ZETA.setdefault(2, ([], [], []))[0]
    row.extend(_zeta_2(n) for n in range(len(row), n_max + 1))
    for j in range(3, j_max + 1):
        _grow_row(j, n_max)


def zeta_coeffs(k: int, n_max: int) -> List[EtaPolynomial]:
    """Laurent coefficients zeta_0^(k) .. zeta_{n_max}^(k) of Z^(k) as exact
    polynomials in eta.

    The expansion solved order by order from the Z recurrences is

        Z^(2m)   = L^-(2m-1) sum_n zeta_n^(2m)   L^-n,
        Z^(2m+1) = L^-(2m+1) sum_n zeta_n^(2m+1) L^-n.

    The rows are memoised in ``_ZETA``, a process-global, grow-only table
    that is not safe to share across threads; a longer request computes
    only the orders the memo lacks.

    Preconditions: k >= 2, n_max >= 0.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _ensure_zeta(k, n_max)
    return list(_ZETA[k][0][: n_max + 1])


def zeta_laurent_eval(k: int, params: CoulombParams, n_terms: int) -> float:
    """Numerically sum the Laurent expansion of Z^(k) through L^-(n_terms)
    *inclusive* (n = 0 .. n_terms after the leading power).

    Emits RegionWarning when L <= k + 1, where the truncated tail is not
    small and the value is only indicative.
    """
    if params.is_complex:
        raise GateViolation("the Laurent evaluation needs real L")
    L = float(params.L)
    eta = float(params.eta)
    if L <= 0:
        raise GateViolation("the Laurent expansion is in 1/L with L > 0")
    if L <= k + 1:
        warnings.warn(
            f"L = {L} <= k + 1 = {k + 1}: Laurent truncation error is not "
            "small here", RegionWarning, stacklevel=2)
    rows = zeta_coeffs(k, n_terms)
    u = 1.0 / L
    acc = 0.0
    for n in range(n_terms, -1, -1):
        acc = acc * u + rows[n](eta)
    lead = k - 1 if k % 2 == 0 else k
    return acc * u ** lead
