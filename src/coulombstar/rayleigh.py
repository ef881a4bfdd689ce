"""Rayleigh-type zero sums and their large-order Laurent coefficients.

Two families of power sums over zeros, each entry one dot product:

* ``rayleigh_Z``  -- Z^(k) = sum (-rho_n)^(-k) over the nontrivial zeros of
  the regular Coulomb function, via

      Z^(2)   = (1/(2L+3)) (1 + eta^2/(L+1)^2),
      Z^(k+1) = (1/(2L+k+2)) ( (2 eta/(L+1)) Z^(k)
                               + sum_{l=1}^{k-2} Z^(l+1) Z^(k-l) ).

  The sign convention is the recurrence's: for odd k this is
  -sum rho_n^(-k) (at L = 2, eta = -1, Z^(3) = -5/378 while the zeros give
  +5/378); even k are plain zero sums.  The odd zeta rows below inherit it.

* ``rayleigh_Ztilde`` -- Zt^(k) = sum rho~_n^(-k) over the zeros of the
  *derivative* F' other than 0, with the true sign for every k, read off
  the Z table.  Write F = C z^(L+1) S(z) with S(0) = 1.  Apart from z = 0,
  F' vanishes where h = S + z S'/(L+1) = S (1 + q), q = z S'/((L+1) S).
  Hadamard's product gives z S'/S = a_1 z - sum_{k>=2} s_k z^k, with
  a_1 = eta/(L+1) and s_k = sum rho_n^(-k) = (-1)^k Z^(k) (the sign flip
  from Z's convention), and likewise Zt^(k) = -k [z^k] log h.  Taking
  -k [z^k] of log h = log S + log(1 + q), and m_k = k [z^k] log(1 + q)
  from (1 + q) sum_k m_k z^k = z q',

      Zt^(k) = s_k - m_k,        m_1 = eta/(L+1)^2,
      (L+1) m_k = -k s_k - (eta/(L+1)) m_{k-1} + sum_{j=1}^{k-2} m_j s_{k-j}.

Both tables run through the same loops in the arithmetic of their inputs:
exact rationals when L and eta are ints or Fractions, floats when either is
a float.  Only the dot product differs.  ``exact=True`` runs exact on the
dyadic value of a float, and ``exact=False`` runs float.  An exact table of a
float with a long binary expansion is slow: Ztilde through k = 64 at
L = 0.1, eta = 0.3 takes about 0.7 s on a 2-core host, against 14 ms at
L = 1/10, eta = 3/10.

``zeta_coeffs`` holds the coefficients zeta_n^(k) of the large-order Laurent
expansions of Z^(k),

    Z^(2k)   = L^-(2k-1) * sum_n zeta_n^(2k)   L^-n,
    Z^(2k+1) = L^-(2k+1) * sum_n zeta_n^(2k+1) L^-n,

as exact polynomials in eta; ``zeta_laurent_eval`` sums them numerically
(inclusive of the n = n_terms term).  With u = 1/L and
Zeta_k(u) = sum_n zeta_n^(k) u^n, the Z recurrence becomes

    Zeta_2 (2 + 3u)     = 1 + eta^2 u^2/(1+u)^2,
    Zeta_j (2 + (j+1)u) = S'(u) + u^s S''(u) + 2 eta u^s Zeta_(j-1)(u)/(1+u),

with s = 0 for odd j and s = 2 for even j, and S', S'' the sums of the
Cauchy products Zeta_a Zeta_(j-a), a = 2 .. j-2, of j's parity and of the
other one.  Dividing by 2 + (j+1)u is a first-order recurrence in n, so each
zeta_n^(j) is one dot over the lower rows, the alternating partial sums of
row j-1 (the coefficients of Zeta_(j-1)/(1+u)) and zeta_(n-1)^(j).

``euler_rayleigh_bounds`` turns the derivative-zero sums into two-sided
bounds for the square of the smallest positive zero of F':

    (Ztilde^(2s))^(-1/s)  <  rho~_1^2  <  Ztilde^(2s)/Ztilde^(2s+2).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple, Union

from .errors import BoundsInvalid, GateViolation, RegionWarning
from .exact import EtaPolynomial, _rational_dot
from .specfun import CoulombParams

__all__ = [
    "RayleighTable",
    "EulerRayleighBounds",
    "rayleigh_Z",
    "rayleigh_Ztilde",
    "euler_rayleigh_bounds",
    "zeta_coeffs",
    "zeta_laurent_eval",
]

Number = Union[Fraction, float]

#: the largest k a table holds, in either arithmetic
_K_MAX = 64


class RayleighTable(NamedTuple):
    """Zero power sums values[k] for k = 2 .. k_max.

    ``table[k]`` reads ``values[k]``, not the k-th field, so indexing
    disagrees with the tuple's iteration and ``len`` (four fields):
    ``table[0]`` raises KeyError and a slice raises TypeError.  The
    override stays because the benchmark's worker (``perfbench/worker.py``)
    reads ``table[k]``, and the harness changes only with its workloads
    (ROADMAP item 11b).
    """

    params: CoulombParams
    kind: str                      # "Z" (function zeros) or "Ztilde" (F' zeros)
    values: Dict[int, Number]
    exact: bool

    def __getitem__(self, k: int) -> Number:
        return self.values[k]


class EulerRayleighBounds(NamedTuple):
    """Two-sided bounds for the squared smallest positive zero of F'."""

    s: int
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _float_dot(pairs) -> float:
    """The sum of x*y over ``pairs`` in float, in the order given."""
    return sum(x * y for x, y in pairs)


def _pick_mode(params: CoulombParams, k_max: int, exact):
    """(L, eta, dot) for a table through k_max: Fractions and
    :func:`~coulombstar.exact._rational_dot`, or floats and a plain sum;
    the arithmetic is the inputs' unless ``exact`` says (module
    docstring)."""
    if params.is_complex:
        raise GateViolation("zero power sums need real L")
    if not 2 <= k_max <= _K_MAX:
        raise ValueError(f"k_max must be in [2, {_K_MAX}], got {k_max}")
    if exact is None:
        exact = all(isinstance(x, (int, Fraction))
                    for x in (params.L, params.eta))
    if exact:
        return Fraction(params.L), Fraction(params.eta), _rational_dot
    try:
        return float(params.L), float(params.eta), _float_dot
    except OverflowError as exc:
        raise GateViolation(f"a float table needs L and eta in the float "
                            f"range: {exc}") from exc


def _pairs(Z: Dict[int, Number], total: int) -> list:
    """The pairs (Z[a], Z[b]) with a + b = total and a, b >= 2, in order."""
    return [(Z[a], Z[total - a]) for a in range(2, total - 1)]


def _z_sums(L: Number, eta: Number, dot, k_max: int) -> Dict[int, Number]:
    """Z^(2) .. Z^(k_max) by the recurrence of the module docstring."""
    Z = {2: (1 + eta * eta / ((L + 1) * (L + 1))) / (2 * L + 3)}
    w = 2 * eta / (L + 1)
    for k in range(2, k_max):
        Z[k + 1] = dot([(w, Z[k])] + _pairs(Z, k + 1)) / (2 * L + k + 2)
    return Z


def rayleigh_Z(params: CoulombParams, k_max: int,
               exact: Union[bool, None] = None) -> RayleighTable:
    """Zero sums Z^(k) = sum (-rho_n)^(-k), k = 2 .. k_max, over the
    nontrivial zeros rho_n of the regular solution: for even k the plain
    power sums, for odd k their negatives (the recurrence's convention).

    Exact rationals when L and eta are ints or Fractions, floats when
    either is a float; ``exact=True`` runs exact on the dyadic value of a
    float (slow for a long binary expansion, module docstring), and
    ``exact=False`` runs float.  Preconditions: real L > -1, k_max in
    [2, 64].
    """
    L, eta, dot = _pick_mode(params, k_max, exact)
    return RayleighTable(params=params, kind="Z",
                         values=_z_sums(L, eta, dot, k_max),
                         exact=dot is _rational_dot)


def rayleigh_Ztilde(params: CoulombParams, k_max: int,
                    exact: Union[bool, None] = None) -> RayleighTable:
    """Power sums Zt^(k) = sum rho~_n^(-k) over the zeros rho~_n != 0 of F'
    (the derivative of the regular solution), k = 2 .. k_max.

    From the zero sums s_k = (-1)^k Z^(k) of F, with the true sign restored
    for odd k, and the coefficients m_k of z (log(1 + q))', where
    1 + q = h/S and h = S + z S'/(L+1) (module docstring):

        Zt^(k) = s_k - m_k,        m_1 = eta/(L+1)^2,
        (L+1) m_k = -k s_k - (eta/(L+1)) m_{k-1}
                    + sum_{j=1}^{k-2} m_j s_{k-j}.

    The arithmetic and ``exact`` are as for :func:`rayleigh_Z`.
    Preconditions: real L > -1, k_max in [2, 64].
    """
    L, eta, dot = _pick_mode(params, k_max, exact)
    Z = _z_sums(L, eta, dot, k_max)
    s = {k: -z if k % 2 else z for k, z in Z.items()}
    a1 = eta / (L + 1)
    m = {1: a1 / (L + 1)}
    for k in range(2, k_max + 1):
        m[k] = dot([(-k, s[k]), (-a1, m[k - 1])]
                   + [(m[j], s[k - j]) for j in range(1, k - 1)]) / (L + 1)
    return RayleighTable(params=params, kind="Ztilde",
                         values={k: s[k] - m[k] for k in s},
                         exact=dot is _rational_dot)


def euler_rayleigh_bounds(params: CoulombParams, s: int) -> EulerRayleighBounds:
    """Euler-Rayleigh sandwich for the squared first positive zero of F'.

    lower = (Zt^(2s))^(-1/s),  upper = Zt^(2s)/Zt^(2s+2); both converge to
    the true square monotonically as s grows.  The table is built exactly
    (``exact=True``) on the rationals equal to L and eta, so the check that
    both entries are positive is a sign test on exact values, not on
    rounded ones; a float L or eta with a long binary expansion makes it
    slow (module docstring).
    Preconditions: real L > -1, eta < 0, 1 <= s <= 19.  Raises
    BoundsInvalid when a needed table entry is nonpositive (the sandwich
    would be vacuous).
    """
    if not 1 <= s <= 19:
        raise ValueError(f"s must be in [1, 19], got {s}")
    if params.is_complex or not float(params.eta) < 0:
        raise GateViolation("two-sided bounds are stated for real L and eta < 0")
    table = rayleigh_Ztilde(params, 2 * s + 2, exact=True)
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

_Row = Tuple[List[EtaPolynomial], List[EtaPolynomial]]

#: zeta tables memo: j -> ([zeta_0^(j), ..., zeta_n^(j)], V), with V the
#: coefficients of Zeta_j/(1+u), the alternating partial sums of the row,
#: grown as far as row j + 1 reads them.  A row grows only after every row
#: below it is at least as long, so row lengths never increase with j.
#: Process-global and grow-only: rows are added or lengthened in place,
#: never dropped.  Not safe to share across threads.
_ZETA: Dict[int, _Row] = {}

_ETA = EtaPolynomial.eta()
_ETA2 = EtaPolynomial([0, 0, 1])


def _zeta_2(row: List[EtaPolynomial], n: int) -> EtaPolynomial:
    """zeta_n^(2) from zeta_{n-1}^(2) = row[n - 1]: with u = 1/L,
    Zeta_2 (2 + 3u) = 1 + eta^2 u^2/(1+u)^2, so

        2 zeta_n + 3 zeta_{n-1} = [n = 0] + (-1)^n (n-1) eta^2 [n >= 2].
    """
    pairs = [(Fraction(-3, 2), row[n - 1])] if n else [(Fraction(1, 2), 1)]
    if n >= 2:
        pairs.append((Fraction((-1) ** n * (n - 1), 2), _ETA2))
    return EtaPolynomial.dot(pairs)


def _half(x: EtaPolynomial) -> EtaPolynomial:
    """x/2, by doubling the denominator rather than by a dot."""
    return EtaPolynomial._new(2 * x._d, list(x._A), list(x._B))


def _grow_row(j: int, n_max: int) -> None:
    """Lengthen row j >= 3 of the memo through zeta_{n_max}, computing only
    the orders it lacks; the rows below must reach n_max already.

    In u = 1/L the Z recurrence reads, with s = 0 for odd j and s = 2 for
    even j and V = Zeta_(j-1)/(1+u),

        Zeta_j (2 + (j+1)u) = S'(u) + u^s S''(u) + 2 eta u^s V(u),

    where S' and S'' sum the Cauchy products Zeta_a Zeta_(j-a) over
    a = 2 .. j-2 of j's parity and of the other one.  Dividing by
    2 + (j+1)u is the first-order recurrence

        zeta_n = [u^n] (S' + u^s S'')/2 + eta V_(n-s) - (j+1)/2 zeta_(n-1),

    so each entry is one dot: the unordered pairs a < j - a at weight 1
    (order n for a of j's parity, n - s for the other), half the middle
    square a = j/2, eta V_(n-s) and the previous entry.  V_n, the
    alternating partial sums of row j - 1, are grown first, as far as this
    row reads them.
    """
    row, _ = _ZETA.setdefault(j, ([], []))
    if len(row) > n_max:
        return
    s = 0 if j % 2 else 2
    prev, V = _ZETA[j - 1]
    for n in range(len(V), n_max - s + 1):
        V.append(prev[n] - V[n - 1] if n else prev[0])
    lag = [s * ((a + j) % 2) for a in range(j // 2 + 1)]
    step = Fraction(-(j + 1), 2)
    for n in range(len(row), n_max + 1):
        pairs = [(_ZETA[a][0][m], _ZETA[j - a][0][n - lag[a] - m])
                 for a in range(2, (j + 1) // 2)
                 for m in range(n - lag[a] + 1)]
        q = n - lag[j // 2]
        if j % 2 == 0 and q >= 0:            # half the middle square
            mid = _ZETA[j // 2][0]
            pairs += [(mid[m], mid[q - m]) for m in range((q + 1) // 2)]
            if q % 2 == 0:
                pairs.append((mid[q // 2], _half(mid[q // 2])))
        if n >= s:
            pairs.append((_ETA, V[n - s]))
        if n:
            pairs.append((step, row[n - 1]))
        row.append(EtaPolynomial.dot(pairs))


def _ensure_zeta(j_max: int, n_max: int) -> None:
    """Grow the memo to hold rows 2 .. j_max through zeta_{n_max}: each row
    gains only the orders it lacks, and rows above j_max are left as they
    are."""
    if j_max in _ZETA and len(_ZETA[j_max][0]) > n_max:
        return                          # so are the rows below it
    row = _ZETA.setdefault(2, ([], []))[0]
    for n in range(len(row), n_max + 1):
        row.append(_zeta_2(row, n))
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
