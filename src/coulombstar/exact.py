"""Exact coefficient arithmetic.

This module supplies the small algebraic toolbox the recurrences are run in.
Every coefficient lives in one field, Q(sqrt 2): an ``int`` or a
:class:`fractions.Fraction` is an element with no sqrt2 part, so ints,
Fractions and :class:`Sqrt2Rational` values mix freely.  Floats and complex
numbers are refused with :class:`RingMismatch`, which keeps inexact input out
of the exact tables.

* :class:`Sqrt2Rational` -- elements ``a + b*sqrt(2)`` of the real quadratic
  field Q(sqrt 2), needed because the leading coefficient of the large-order
  expansion of the starlikeness radius lives there.  An element with b = 0
  equals, and hashes like, the rational ``a``.
* :class:`EtaPolynomial` -- polynomials in the Sommerfeld parameter ``eta``
  with coefficients in Q(sqrt 2).
* :class:`TruncatedSeries` -- truncated power/Laurent series in one symbol
  with exact scalar or eta-polynomial coefficients, just enough arithmetic
  for order-by-order solves.
* ``p_coeff`` / ``geometric_expansion`` -- the expansion
  ``1/(2L + alpha + 1) = (1/L) * sum_n p_n^(alpha) L^(-n)`` with
  ``p_n^(alpha) = ((-1)^n / 2) * ((alpha + 1)/2)^n``.
* ``potential_polynomials`` -- coefficients of integer powers of a
  unit-constant-term series (ordinary potential polynomials).

Doctest smoke tests::

    >>> p_coeff(2, 0), p_coeff(2, 1), p_coeff(2, 2)
    (Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8))
    >>> p_coeff(3, 2)
    Fraction(2, 1)
    >>> x = Sqrt2Rational(1, 1)       # 1 + sqrt2
    >>> x * Sqrt2Rational(-1, 1)      # (sqrt2 - 1)(sqrt2 + 1) = 1
    Sqrt2Rational(a=Fraction(1, 1), b=Fraction(0, 1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence, Union

from .errors import RingMismatch

__all__ = [
    "Sqrt2Rational",
    "EtaPolynomial",
    "TruncatedSeries",
    "p_coeff",
    "geometric_expansion",
    "potential_polynomials",
]

_RationalLike = Union[int, Fraction]


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise RingMismatch(f"expected an exact rational scalar, got {x!r}")


@dataclass(frozen=True)
class Sqrt2Rational:
    """An element ``a + b*sqrt(2)`` of the field Q(sqrt 2).

    ``a`` and ``b`` are stored as Fractions; ints are accepted and coerced.
    Since sqrt(2) is irrational the representation is unique, so equality is
    structural; an element with b = 0 equals the rational ``a`` and hashes
    like it.  Division uses the conjugate:
    ``1/(a + b s) = (a - b s)/(a^2 - 2 b^2)`` and the norm ``a^2 - 2b^2``
    vanishes only for a = b = 0.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Sqrt2Rational":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def one(cls) -> "Sqrt2Rational":
        return cls(Fraction(1), Fraction(0))

    @classmethod
    def sqrt2(cls) -> "Sqrt2Rational":
        return cls(Fraction(0), Fraction(1))

    @classmethod
    def from_rational(cls, q: _RationalLike) -> "Sqrt2Rational":
        return cls(_as_fraction(q), Fraction(0))

    # -- helpers ------------------------------------------------------
    @staticmethod
    def _lift(other) -> "Sqrt2Rational":
        if isinstance(other, Sqrt2Rational):
            return other
        if isinstance(other, (int, Fraction)):
            return Sqrt2Rational(_as_fraction(other), Fraction(0))
        return NotImplemented  # type: ignore[return-value]

    def conjugate(self) -> "Sqrt2Rational":
        return Sqrt2Rational(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (zero iff the element is zero)."""
        return self.a * self.a - 2 * self.b * self.b

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):       # rational: a only
            return Sqrt2Rational(self.a + other, self.b)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2Rational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "Sqrt2Rational":
        return Sqrt2Rational(-self.a, -self.b)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2Rational(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2Rational(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):       # rational: scale a, b
            return Sqrt2Rational(self.a * other, self.b * other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Sqrt2Rational(self.a * o.a + 2 * self.b * o.b,
                             self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Sqrt2Rational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return Sqrt2Rational(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __str__(self) -> str:
        return format_sqrt2(self)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_sqrt2(x) -> str:
    """Render ``a + b*sqrt2`` like ``5*sqrt2/4 - 1/4`` (sqrt2 part first); a
    rational ``x`` renders as ``num/den``."""
    a, b = (x.a, x.b) if isinstance(x, Sqrt2Rational) else (x, 0)
    if not x:
        return "0"
    parts = []
    if b:
        num, den = b.numerator, b.denominator
        core = "sqrt2" if abs(num) == 1 else f"{abs(num)}*sqrt2"
        if den != 1:
            core += f"/{den}"
        parts.append(("-" if num < 0 else "") + core)
    if a:
        s = _frac_str(abs(a))
        if parts:
            parts.append(("- " if a < 0 else "+ ") + s)
        else:
            parts.append(("-" if a < 0 else "") + s)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# polynomials in eta
# ---------------------------------------------------------------------------

#: the exact scalars; ints and Fractions are the b = 0 part of Q(sqrt2)
_EXACT = (int, Fraction, Sqrt2Rational)


def _exact(x):
    """Return ``x`` if it is an exact scalar, else raise RingMismatch."""
    if isinstance(x, _EXACT):
        return x
    raise RingMismatch(f"inexact coefficient {x!r}")


class EtaPolynomial:
    """A polynomial in the symbol ``eta`` with coefficients in Q(sqrt2).

    coeffs[i] multiplies eta**i; trailing zeros are trimmed on construction.
    Coefficients may be ints, Fractions and Sqrt2Rationals in any mix, and a
    polynomial combines with an exact scalar directly.

    >>> z2 = EtaPolynomial([Fraction(9, 8), 0, Fraction(1, 2)])
    >>> str(z2)
    '9/8 + 1/2*eta^2'
    >>> z2(Fraction(2))
    Fraction(25, 8)
    >>> z2 == EtaPolynomial([Sqrt2Rational(Fraction(9, 8), 0), 0,
    ...                      Sqrt2Rational(Fraction(1, 2), 0)])
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ---------------------------------------------------------
    @classmethod
    def constant(cls, value) -> "EtaPolynomial":
        return cls([value])

    @classmethod
    def eta(cls) -> "EtaPolynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @staticmethod
    def _operand(x):
        if isinstance(x, EtaPolynomial):
            return x
        if isinstance(x, _EXACT):
            return EtaPolynomial([x])
        return None

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return EtaPolynomial([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return EtaPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, _EXACT):
            return EtaPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, EtaPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return EtaPolynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return EtaPolynomial(out)

    __rmul__ = __mul__

    def shift_eta(self, k: int = 1) -> "EtaPolynomial":
        """Multiply by eta**k."""
        if not self.coeffs:
            return self
        return EtaPolynomial([0] * k + list(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        # a constant polynomial equals its scalar, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    # -- evaluation and printing ------------------------------------------
    def __call__(self, eta):
        """Evaluate at ``eta`` (Horner).  A float/complex argument gives a
        float/complex result; exact arguments stay exact."""
        if isinstance(eta, (float, complex)):
            acc = 0.0 if not isinstance(eta, complex) else 0j
            for c in reversed(self.coeffs):
                acc = acc * eta + float(c)
            return acc
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * eta + c
        return acc

    @staticmethod
    def _term_str(c, i: int) -> str:
        body = format_sqrt2(c)
        if i == 0:
            return body
        var = "eta" if i == 1 else f"eta^{i}"
        if c == 1:
            return var
        if c == -1:
            return "-" + var
        if " " in body:
            body = f"({body})"
        return f"{body}*{var}"

    def to_str(self, descending: bool = False) -> str:
        if not self.coeffs:
            return "0"
        idx = range(len(self.coeffs))
        order = reversed(idx) if descending else idx
        pieces = []
        for i in order:
            c = self.coeffs[i]
            if not c:
                continue
            t = self._term_str(c, i)
            if not pieces:
                pieces.append(t)
            elif t.startswith("-"):
                pieces.append("- " + t.lstrip("- "))
            else:
                pieces.append("+ " + t)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"EtaPolynomial({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A truncated (possibly Laurent) series sum_{n>=lead} c_n x^n + O(x^order).

    ``lead`` may be negative; ``order`` is exclusive, i.e. the coefficient of
    x^(order) is *unknown*, not zero.  ``coeff(n)`` returns ``Fraction(0)``
    for known-zero positions and raises IndexError beyond the truncation
    order, so silent reads of unknown coefficients cannot happen.

    Coefficients are exact scalars or :class:`EtaPolynomial` objects, in any
    mix.
    """

    __slots__ = ("lead", "coeffs", "order")

    def __init__(self, lead: int, coeffs: Sequence, order: int):
        if lead + len(coeffs) > order:
            raise ValueError(
                f"{len(coeffs)} coefficients from x^{lead} overrun O(x^{order})")
        cs = [c if isinstance(c, EtaPolynomial) else _exact(c)
              for c in coeffs]
        # normalize: strip leading/trailing zeros
        while cs and not cs[0]:
            cs.pop(0)
            lead += 1
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            lead = order
        self.lead = lead
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [], order)

    def coeff(self, n: int):
        if n >= self.order:
            raise IndexError(
                f"coefficient of x^{n} lies beyond the O(x^{self.order}) "
                "truncation")
        if self.lead <= n < self.lead + len(self.coeffs):
            return self.coeffs[n - self.lead]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lead = min(self.lead, other.lead)
        if lead >= order:
            return TruncatedSeries.zero(order)
        cs = [self.coeff(n) + other.coeff(n) for n in range(lead, order)]
        return TruncatedSeries(lead, cs, order)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.lead, [-c for c in self.coeffs],
                               self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scalar_mul(other)
        # x^order * (lead term of other) is the first unknown product
        order = min(self.order + other.lead, other.order + self.lead)
        lead = self.lead + other.lead
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries.zero(order)
        n_out = min(order - lead, len(self.coeffs) + len(other.coeffs) - 1)
        if n_out <= 0:
            return TruncatedSeries.zero(order)
        out = [Fraction(0)] * n_out
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            jmax = min(len(other.coeffs), n_out - i)
            for j in range(jmax):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] = out[i + j] + ci * cj
        return TruncatedSeries(lead, out, order)

    __rmul__ = __mul__

    def scalar_mul(self, s) -> "TruncatedSeries":
        """Multiply every coefficient by an exact scalar or eta-polynomial."""
        return TruncatedSeries(self.lead, [s * c for c in self.coeffs],
                               self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x**k (k may be negative)."""
        return TruncatedSeries(self.lead + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend O(x^{self.order}) knowledge to O(x^{order})")
        cs = [c for n, c in enumerate(self.coeffs) if self.lead + n < order]
        return TruncatedSeries(min(self.lead, order), cs, order)

    def power(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative powers are not supported")
        # x^0 with the same truncation window as self would claim too much
        # knowledge for k = 0; keep the caller honest and use self.order.
        if k == 0:
            return TruncatedSeries(0, [1], self.order)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def evaluate(self, x):
        """Numerically evaluate sum c_n x^n (lead may be negative)."""
        acc = 0.0 if not isinstance(x, complex) else 0j
        for n in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * x + float(self.coeffs[n])
        return acc * x ** self.lead if self.coeffs else acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order == other.order and self.lead == other.lead
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.lead, self.coeffs, self.order))

    def __repr__(self) -> str:
        terms = ", ".join(f"x^{self.lead + n}: {c}"
                          for n, c in enumerate(self.coeffs))
        return f"TruncatedSeries({terms or '0'} + O(x^{self.order}))"


# ---------------------------------------------------------------------------
# geometric expansion coefficients and potential polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def p_coeff(alpha, n: int) -> Fraction:
    """n-th coefficient of L/(2L + alpha + 1) as a series in 1/L:

    p_n = ((-1)^n / 2) * ((alpha + 1)/2)^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    base = (_as_fraction(alpha) + 1) / 2
    return Fraction((-1) ** n, 2) * base ** n


def geometric_expansion(alpha, n_max: int) -> TruncatedSeries:
    """1/(2L + alpha + 1) as a TruncatedSeries in u = 1/L.

    Returns lead 1 with coefficients p_0 .. p_{n_max}, i.e.
    (u/1) * sum_{n<=n_max} p_n u^n + O(u^{n_max+2}).
    """
    cs = [p_coeff(alpha, n) for n in range(n_max + 1)]
    return TruncatedSeries(1, cs, n_max + 2)


def potential_polynomials(exponent: int, args: Sequence, n_max: int):
    """Coefficients A_{exponent, k} of (1 + sum_j args[j] x^(j+1))^exponent.

    Returns the list [A_0, ..., A_{n_max}] of exact coefficients.  A_0 = 1
    always; for exponent m and a series with only the linear term a,
    A_k = C(m, k) a^k.
    """
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    base = TruncatedSeries(0, [1] + list(args),
                           max(n_max + 1, len(args) + 1)).truncate(n_max + 1)
    powd = base.power(exponent)
    return [powd.coeff(k) for k in range(n_max + 1)]
