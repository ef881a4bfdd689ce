"""Exact coefficient arithmetic.

This module supplies the small algebraic toolbox the recurrences are run in.
Every coefficient lives in one field, Q(sqrt 2): an ``int`` or a
:class:`fractions.Fraction` is an element with no sqrt2 part, so ints,
Fractions and :class:`Sqrt2Rational` values mix freely.  Floats and complex
numbers are refused with :class:`RingMismatch`, which keeps inexact input out
of the exact tables.

* :class:`EtaPolynomial` -- polynomials in the Sommerfeld parameter ``eta``
  with coefficients in Q(sqrt 2), stored as one positive integer denominator
  d and two integer lists A and B: coefficient i is (A_i + B_i sqrt2)/d.
  Each result is reduced once by gcd(d, *A, *B) and trimmed of trailing
  zeros, so equal values have equal storage and sums, products, shifts and
  exact evaluation run on plain ints, with no Fraction per coefficient
  product.  The Fraction / Sqrt2Rational coefficients are a view built on
  first use.
* :class:`Sqrt2Rational` -- the elements ``a + b*sqrt(2)`` of the real
  quadratic field Q(sqrt 2), needed because the leading coefficient of the
  large-order expansion of the starlikeness radius lives there.  It is the
  constant EtaPolynomial: the same storage and the same arithmetic, plus the
  field's own conjugate, norm, inverse and division.  A sum, difference or
  product is a Sqrt2Rational unless an operand is a plain EtaPolynomial, and
  then it is an EtaPolynomial.  An element with b = 0 equals, and hashes
  like, the rational ``a``.
* ``EtaPolynomial.dot`` -- the one summation kernel, and so the one product
  of Q(sqrt 2): the sum of x*y over a list of pairs, accumulated as integer
  convolutions over the lcm of the product denominators and reduced once.
  A sum or a product of two polynomials or scalars is a one- or two-term
  dot, and every sum of products in the exact layer (the power table, the
  zeta rows, the large-order identity and its recurrence transcription) is
  one call.  ``_rational_dot`` is its form for Fractions, one reduction per
  entry of the exact Rayleigh tables.
* ``_powers`` -- the one power kernel: the coefficient table of B^0 .. B^k
  for a truncated series B given as a plain coefficient list, built by
  Cauchy products, each entry one ``dot``.  It holds only the triangle
  [x^q] B^k with k + q <= k_max, the entries its readers use, and grows a
  table it is given in place: columns whose coefficients are unchanged are
  kept, and only the missing entries are computed.  The large-order solve
  keeps its solved coefficients in row 1 of one such table, which its
  re-substitution check reads as it stands; the expanded recurrence grows
  its own, and ``potential_polynomials`` reads one row.
* ``potential_polynomials`` -- coefficients of integer powers of a
  unit-constant-term series (ordinary potential polynomials).

Doctest smoke tests::

    >>> x = Sqrt2Rational(1, 1)       # 1 + sqrt2
    >>> x * Sqrt2Rational(-1, 1)      # (sqrt2 - 1)(sqrt2 + 1) = 1
    Sqrt2Rational(a=Fraction(1, 1), b=Fraction(0, 1))
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .errors import RingMismatch

__all__ = [
    "Sqrt2Rational",
    "EtaPolynomial",
    "format_sqrt2",
    "potential_polynomials",
]

_RationalLike = Union[int, Fraction]


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise RingMismatch(f"expected an exact rational scalar, got {x!r}")


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
# polynomials in eta, and Q(sqrt2) as their constants
# ---------------------------------------------------------------------------

def _parts(x):
    """Integers (p, r, s) with x = (p + r*sqrt2)/s and s > 0, for an exact
    scalar ``x``; anything else raises RingMismatch."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    if isinstance(x, Sqrt2Rational):
        return x._A[0] if x._A else 0, x._B[0] if x._B else 0, x._d
    raise RingMismatch(f"inexact coefficient {x!r}")


def _storage(x):
    """(d, A, B, length) of an eta-polynomial, or of an int or Fraction as a
    constant polynomial; anything else raises RingMismatch."""
    if isinstance(x, EtaPolynomial):
        return x._d, x._A, x._B, x._n
    p, _, s = _parts(x)
    return (s, (p,), (), 1) if p else (1, (), (), 0)


class EtaPolynomial:
    """A polynomial in the symbol ``eta`` with coefficients in Q(sqrt2).

    Coefficients may be given as ints, Fractions and Sqrt2Rationals in any
    mix, and a polynomial combines with an exact scalar directly.  They are
    stored over one positive integer denominator d as two integer lists,
    coefficient i being (A[i] + B[i]*sqrt2)/d.  Every result is reduced by
    gcd(d, *A, *B) and each list is trimmed of trailing zeros, so equal
    values have equal storage and all arithmetic runs on plain ints.

    ``coeffs`` (coeffs[i] multiplies eta**i, no trailing zeros) is a view
    built on first use: Sqrt2Rationals when any sqrt2 part is nonzero,
    Fractions otherwise.

    >>> z2 = EtaPolynomial([Fraction(9, 8), 0, Fraction(1, 2)])
    >>> str(z2)
    '9/8 + 1/2*eta^2'
    >>> z2(Fraction(2))
    Fraction(25, 8)
    >>> z2 == EtaPolynomial([Sqrt2Rational(Fraction(9, 8), 0), 0,
    ...                      Sqrt2Rational(Fraction(1, 2), 0)])
    True
    """

    __slots__ = ("_d", "_A", "_B", "_n", "_view")

    def __init__(self, coeffs: Sequence):
        parts = [_parts(c) for c in coeffs]
        d = math.lcm(*(s for _, _, s in parts))
        self._set(d, [p * (d // s) for p, _, s in parts],
                  [r * (d // s) for _, r, s in parts])

    def _set(self, d: int, A: List[int], B: List[int]) -> None:
        while A and not A[-1]:
            A.pop()
        while B and not B[-1]:
            B.pop()
        g = math.gcd(d, *A, *B)
        if g != 1:
            d //= g
            A = [v // g for v in A]
            B = [v // g for v in B]
        self._d, self._A, self._B = d, tuple(A), tuple(B)
        self._n, self._view = max(len(A), len(B)), None

    @classmethod
    def _new(cls, d: int, A: List[int], B: List[int]) -> "EtaPolynomial":
        out = cls.__new__(cls)
        out._set(d, A, B)
        return out

    # -- basics ---------------------------------------------------------
    @classmethod
    def eta(cls) -> "EtaPolynomial":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple:
        if self._view is None:
            d, A, B = self._d, self._A, self._B
            if B:
                A = A + (0,) * (len(B) - len(A))
                B = B + (0,) * (len(A) - len(B))
                self._view = tuple(Sqrt2Rational._new(d, [a], [b])
                                   for a, b in zip(A, B))
            else:
                self._view = tuple(Fraction(a, d) for a in A)
        return self._view

    @property
    def degree(self) -> int:
        return self._n - 1

    def coeff(self, i: int):
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return Fraction(0)

    # -- arithmetic -------------------------------------------------------
    @classmethod
    def dot(cls, pairs) -> "EtaPolynomial":
        """The sum of x*y over ``pairs``, where each x and y is an
        eta-polynomial or an exact scalar.

        The summation kernel of the exact layer: every product is
        accumulated as two integer convolutions over the lcm of the product
        denominators, and the sum is reduced once, where adding the products
        one by one would pay a reduction per partial sum.  Equal values have
        equal storage, so the result is the term-by-term sum.  Sums,
        differences and products of polynomials are one- and two-term dots.

        >>> x = EtaPolynomial([1, Fraction(1, 2)])
        >>> EtaPolynomial.dot([(x, x), (Fraction(-1, 4), 3)]).to_str()
        '1/4 + eta + 1/4*eta^2'
        >>> EtaPolynomial.dot([])
        EtaPolynomial([])
        """
        terms, n = [], 0
        for x, y in pairs:
            dx, Ax, Bx, nx = _storage(x)
            dy, Ay, By, ny = _storage(y)
            if nx and ny:
                terms.append((dx * dy, Ax, Bx, Ay, By))
                n = max(n, nx + ny - 1)
        d = math.lcm(*(s for s, *_ in terms))
        A, B = [0] * n, [0] * n
        # (Ax + Bx s)(Ay + By s) = Ax Ay + 2 Bx By + (Ax By + Bx Ay) s
        for s, Ax, Bx, Ay, By in terms:
            m = d // s
            for i, v in enumerate(Ax):
                if v:
                    v *= m
                    for j, w in enumerate(Ay, i):
                        A[j] += v * w
                    for j, w in enumerate(By, i):
                        B[j] += v * w
            for i, v in enumerate(Bx):
                if v:
                    v *= m
                    for j, w in enumerate(Ay, i):
                        B[j] += v * w
                    v *= 2
                    for j, w in enumerate(By, i):
                        A[j] += v * w
        return cls._new(d, A, B)

    def _kind(self, other) -> type:
        """The class of a sum, difference or product with ``other``:
        Sqrt2Rational unless an operand is a plain EtaPolynomial."""
        return (EtaPolynomial if EtaPolynomial in (type(self), type(other))
                else Sqrt2Rational)

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._kind(other).dot(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self._d, [-v for v in self._A],
                         [-v for v in self._B])

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._kind(other).dot(((1, self), (-1, other)))

    def __rsub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._kind(other).dot(((1, other), (-1, self)))

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._kind(other).dot(((self, other),))

    __rmul__ = __mul__

    def shift_eta(self, k: int = 1) -> "EtaPolynomial":
        """Multiply by eta**k."""
        if not self:
            return self
        pad = [0] * k
        return EtaPolynomial._new(self._d, pad + list(self._A) if self._A
                                  else [], pad + list(self._B) if self._B
                                  else [])

    def __bool__(self) -> bool:
        return bool(self._A or self._B)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return _storage(other)[:3] == (self._d, self._A, self._B)

    def __hash__(self) -> int:
        # a rational constant equals its scalar, so it hashes like it
        if self._B or self._n > 1:
            return hash((self._d, self._A, self._B))
        return hash(Fraction(self._A[0] if self._A else 0, self._d))

    # -- evaluation and printing ------------------------------------------
    def __call__(self, eta):
        """Evaluate at ``eta`` (Horner).  A float/complex argument gives a
        float/complex result; exact arguments stay exact: a Fraction, or a
        Sqrt2Rational when the polynomial or ``eta`` has a sqrt2 part."""
        if isinstance(eta, (float, complex)):
            acc = 0.0 if not isinstance(eta, complex) else 0j
            for c in reversed(self.coeffs):
                acc = acc * eta + float(c)
            return acc
        # eta = (p + r s)/q; after k steps acc = (X + Y s)/(d q^k)
        p, r, q = _parts(eta)
        A, B = self._A, self._B
        X = Y = 0
        qk = 1
        for i in range(self.degree, -1, -1):
            qk *= q
            a = A[i] if i < len(A) else 0
            b = B[i] if i < len(B) else 0
            X, Y = X * p + 2 * Y * r + a * qk, X * r + Y * p + b * qk
        den = self._d * qk
        if B or r:
            return Sqrt2Rational._new(den, [X], [Y])
        return Fraction(X, den)

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
        if not self:
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


class Sqrt2Rational(EtaPolynomial):
    """An element ``a + b*sqrt(2)`` of the field Q(sqrt 2): the constant
    :class:`EtaPolynomial`, built from ``a`` and ``b`` (ints or Fractions)
    and read back as the Fractions ``.a`` and ``.b``.

    Sums, differences, products, negation, equality and hashing are the
    polynomial's, so every product in the field is one ``dot``; a result is
    a Sqrt2Rational unless an operand is a plain EtaPolynomial.  Since
    sqrt(2) is irrational the representation is unique, and an element with
    b = 0 equals the rational ``a`` and hashes like it.  Division uses the
    conjugate: ``1/(a + b s) = (a - b s)/(a^2 - 2 b^2)`` and the norm
    ``a^2 - 2b^2`` vanishes only for a = b = 0.
    """

    __slots__ = ()

    def __init__(self, a: _RationalLike, b: _RationalLike):
        a, b = _as_fraction(a), _as_fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        self._set(d, [a.numerator * (d // a.denominator)],
                  [b.numerator * (d // b.denominator)])

    @property
    def a(self) -> Fraction:
        return Fraction(self._A[0] if self._A else 0, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B[0] if self._B else 0, self._d)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Sqrt2Rational":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "Sqrt2Rational":
        return cls(1, 0)

    @classmethod
    def sqrt2(cls) -> "Sqrt2Rational":
        return cls(0, 1)

    @classmethod
    def from_rational(cls, q: _RationalLike) -> "Sqrt2Rational":
        return cls(q, 0)

    # -- the field ----------------------------------------------------
    def conjugate(self) -> "Sqrt2Rational":
        return self._new(self._d, list(self._A), [-v for v in self._B])

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (zero iff the element is zero)."""
        p, r, s = _parts(self)
        return Fraction(p * p - 2 * r * r, s * s)

    def inverse(self) -> "Sqrt2Rational":
        # (p + r sqrt2)/s has the inverse s (p - r sqrt2)/(p^2 - 2 r^2)
        p, r, s = _parts(self)
        n = p * p - 2 * r * r
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        if n < 0:
            n, s = -n, -s
        return self._new(n, [s * p], [-s * r])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Sqrt2Rational(other, 0)
        elif not isinstance(other, Sqrt2Rational):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return other * self.inverse()

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __str__(self) -> str:
        return format_sqrt2(self)

    def __repr__(self) -> str:
        return f"Sqrt2Rational(a={self.a!r}, b={self.b!r})"


#: what combines with an eta-polynomial: ints, Fractions and eta-polynomials,
#: Sqrt2Rationals among them
_OPERANDS = (int, Fraction, EtaPolynomial)


def _exact(x):
    """Return ``x`` if it is an exact scalar or an eta-polynomial, else
    raise RingMismatch."""
    if isinstance(x, _OPERANDS):
        return x
    raise RingMismatch(f"inexact coefficient {x!r}")


def _rational_dot(pairs) -> Fraction:
    """The sum of x*y over ``pairs`` of ints and Fractions, as one Fraction:
    the rational form of :meth:`EtaPolynomial.dot`, with one lcm of the
    product denominators and one reduction.

    >>> _rational_dot([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 6), 2)])
    Fraction(1, 2)
    """
    terms = [(x.numerator * y.numerator, x.denominator * y.denominator)
             for x, y in pairs]
    d = math.lcm(*(s for _, s in terms))
    return Fraction(sum(p * (d // s) for p, s in terms), d)


# ---------------------------------------------------------------------------
# powers of a series
# ---------------------------------------------------------------------------

def _powers(coeffs: Sequence, k_max: int,
            P: Optional[List[list]] = None) -> List[list]:
    """P[k][q] = [x^q] B^k for k = 0 .. k_max, q < len(coeffs) and
    k + q <= k_max, where B = sum_q coeffs[q] x^q.

    Each power is the Cauchy product of the one below with B; zero entries
    (such as a not yet solved coefficient) are skipped.  Entries are exact
    scalars or eta-polynomials; with any plain EtaPolynomial among
    ``coeffs`` each entry is one :meth:`EtaPolynomial.dot`, and scalar
    entries, Sqrt2Rationals among them, stay scalars.

    A table ``P`` from an earlier call is grown in place and returned.
    Column q depends on coeffs[:q + 1] only, so the columns from the first
    index where ``P[1]`` and ``coeffs`` differ (by ``==``) are dropped, the
    rest are kept, and only the missing entries are computed: the result
    equals a fresh build.

    >>> _powers([1, 1], 3)
    [[1, 0], [1, 1], [1, 2], [1]]
    """
    n = len(coeffs)
    P = [] if P is None else P
    old = P[1] if len(P) > 1 else []
    keep = 0
    while keep < min(n, len(old)) and old[keep] == coeffs[keep]:
        keep += 1
    del P[k_max + 1:]
    for k, row in enumerate(P):
        del row[min(keep, n, k_max - k + 1):]
    P.extend([] for _ in range(len(P), k_max + 1))
    if any(type(c) is EtaPolynomial for c in coeffs):
        add = EtaPolynomial.dot
    else:                               # scalar entries stay scalars
        def add(pairs):
            return sum((x * y for x, y in pairs), 0)
    for k, row in enumerate(P):
        for q in range(len(row), min(n, k_max - k + 1)):
            if k < 2:
                row.append(coeffs[q] if k else int(q == 0))
            else:
                below = P[k - 1]
                row.append(add([(below[i], coeffs[q - i])
                                for i in range(q + 1)
                                if below[i] and coeffs[q - i]]))
    return P


def potential_polynomials(exponent: int, args: Sequence, n_max: int):
    """Coefficients A_{exponent, k} of (1 + sum_j args[j] x^(j+1))^exponent.

    Returns the list [A_0, ..., A_{n_max}] of exact coefficients.  A_0 = 1
    always; for exponent m and a series with only the linear term a,
    A_k = C(m, k) a^k.  Raises ValueError for a negative exponent or n_max.
    """
    if exponent < 0 or n_max < 0:
        raise ValueError("exponent and n_max must be >= 0")
    args = [_exact(a) for a in args]
    base = ([1] + args + [0] * n_max)[:n_max + 1]
    return _powers(base, exponent + n_max)[exponent]
