"""Exact arithmetic: Q(sqrt2), eta-polynomials, powers of a series."""

import doctest
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coulombstar.exact
from coulombstar.exact import (EtaPolynomial, Sqrt2Rational, _powers,
                               format_sqrt2, potential_polynomials)
from coulombstar.errors import RingMismatch
from oracles import p_coeff

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=50)
sqrt2s = st.builds(Sqrt2Rational, fracs, fracs)


def test_module_doctests():
    # the examples in the exact module's docstrings run as written
    failed, attempted = doctest.testmod(coulombstar.exact)
    assert attempted > 0 and failed == 0


# ---------------------------------------------------------------------------
# Sqrt2Rational is a field
# ---------------------------------------------------------------------------

@given(sqrt2s, sqrt2s, sqrt2s)
def test_sqrt2_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(sqrt2s)
def test_sqrt2_inverse(x):
    if x == Sqrt2Rational.zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == Sqrt2Rational.one()


@given(sqrt2s, sqrt2s)
def test_sqrt2_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conjugate() == Sqrt2Rational(x.norm(), 0)


@given(sqrt2s)
def test_sqrt2_float_embedding(x):
    assert math.isclose(float(x), float(x.a) + float(x.b) * math.sqrt(2.0),
                        rel_tol=1e-12, abs_tol=1e-15)


def test_sqrt2_squares_to_two():
    s = Sqrt2Rational.sqrt2()
    assert s * s == Sqrt2Rational(2, 0) == Sqrt2Rational.from_rational(2)


def test_format_sqrt2():
    assert format_sqrt2(Sqrt2Rational(0, 0)) == "0"
    assert format_sqrt2(Sqrt2Rational(1, 0)) == "1"
    assert format_sqrt2(Sqrt2Rational(0, 1)) == "sqrt2"
    assert format_sqrt2(Sqrt2Rational(0, -1)) == "-sqrt2"
    assert format_sqrt2(Sqrt2Rational(Fr(-1, 2), Fr(1, 4))) == "sqrt2/4 - 1/2"
    assert format_sqrt2(Sqrt2Rational(Fr(-1, 4), Fr(5, 4))) == "5*sqrt2/4 - 1/4"
    assert format_sqrt2(Sqrt2Rational(0, Fr(-1, 2))) == "-sqrt2/2"


# ---------------------------------------------------------------------------
# EtaPolynomial
# ---------------------------------------------------------------------------

def test_eta_polynomial_basics():
    p = EtaPolynomial([Fr(9, 8), 0, Fr(1, 2)])
    assert p.degree == 2
    assert p.coeff(1) == 0 and p.coeff(5) == 0
    assert p.to_str() == "9/8 + 1/2*eta^2"
    assert p.to_str(descending=True) == "1/2*eta^2 + 9/8"
    assert str(EtaPolynomial([])) == "0"
    assert str(EtaPolynomial([Fr(-3, 4)])) == "-3/4"
    q = EtaPolynomial.eta() * Fr(1, 2)
    assert q.to_str() == "1/2*eta"


def _in_sqrt2(cs):
    return EtaPolynomial([Sqrt2Rational(c, 0) for c in cs])


@given(st.lists(fracs, max_size=5), st.lists(fracs, max_size=5))
def test_rationals_are_the_b0_part_of_sqrt2_field(cs1, cs2):
    # a Fraction polynomial and its Sqrt2Rational(c, 0) spelling are one value
    p, q = EtaPolynomial(cs1), EtaPolynomial(cs2)
    P, Q = _in_sqrt2(cs1), _in_sqrt2(cs2)
    assert p == P and hash(p) == hash(P) and len({p, P}) == 1
    assert p.to_str() == P.to_str()
    assert p.to_str(descending=True) == P.to_str(descending=True)
    for got in (p + Q, P + q, P + Q):
        assert got == p + q and hash(got) == hash(p + q)
        assert got.to_str() == (p + q).to_str()
    for got in (p * Q, P * q, P * Q):
        assert got == p * q and hash(got) == hash(p * q)
        assert got.to_str() == (p * q).to_str()
    for c in cs1:
        assert Sqrt2Rational(c, 0) == c and hash(Sqrt2Rational(c, 0)) == hash(c)


def test_scalars_mix_freely():
    assert {Sqrt2Rational(1, 0), Fr(1), 1} == {1}
    p = EtaPolynomial([Sqrt2Rational(0, 1), Fr(1, 2), 1])
    assert p.to_str() == "sqrt2 + 1/2*eta + eta^2"
    assert Sqrt2Rational(0, 1) * EtaPolynomial([1, 1]) == \
        EtaPolynomial([Sqrt2Rational(0, 1), Sqrt2Rational(0, 1)])
    # a constant polynomial equals its scalar and hashes like it
    assert EtaPolynomial([Fr(3, 4)]) == Fr(3, 4)
    assert hash(EtaPolynomial([Fr(3, 4)])) == hash(Fr(3, 4))
    assert hash(EtaPolynomial([])) == hash(0)


@pytest.mark.parametrize("inexact", [float, complex])
def test_inexact_rings_are_refused(inexact):
    with pytest.raises(RingMismatch):
        EtaPolynomial([inexact(1)])
    with pytest.raises(TypeError):
        EtaPolynomial([1]) + inexact(1)
    with pytest.raises(RingMismatch):
        potential_polynomials(2, [inexact(1)], 2)
    # evaluation at an inexact eta stays
    assert EtaPolynomial([Fr(1, 2), 1])(0.25) == 0.75
    assert EtaPolynomial([Fr(1, 2), 1])(0.25j) == 0.5 + 0.25j


@given(st.lists(fracs, max_size=5), st.lists(fracs, max_size=5),
       st.floats(-3, 3, allow_nan=False))
def test_eta_polynomial_eval_matches_float(cs1, cs2, x):
    p, q = EtaPolynomial(cs1), EtaPolynomial(cs2)
    exact = (p * q + p)(Fr(1, 4))
    approx = (p * q + p)(0.25)
    assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-9)
    direct = sum(float(c) * x ** i for i, c in enumerate(cs1))
    assert math.isclose(p(x), direct, rel_tol=1e-9, abs_tol=1e-9)


scalars = st.one_of(st.integers(-20, 20), fracs, sqrt2s)


def _lift(c):
    return c if isinstance(c, Sqrt2Rational) else Sqrt2Rational(c, 0)


def _ref(cs):
    """Coefficientwise reference: Sqrt2Rationals, trailing zeros trimmed."""
    out = [_lift(c) for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _same(p, ref):
    # equal coefficients, shown as Sqrt2Rationals iff a sqrt2 part is nonzero
    ref = _ref(ref)
    kinds = {Sqrt2Rational} if any(c.b for c in ref) else {Fr}
    return (p.coeffs == tuple(ref) and p.degree == len(ref) - 1
            and {type(c) for c in p.coeffs} <= kinds)


@given(st.lists(scalars, max_size=5), st.lists(scalars, max_size=5),
       scalars, st.integers(0, 3), fracs)
def test_integer_storage_matches_coefficientwise_reference(cs1, cs2, s, k, x):
    p, q = EtaPolynomial(cs1), EtaPolynomial(cs2)
    a, b = _ref(cs1), _ref(cs2)
    n = max(len(a), len(b))
    a0 = a + [Sqrt2Rational.zero()] * (n - len(a))
    b0 = b + [Sqrt2Rational.zero()] * (n - len(b))
    assert _same(p, cs1) and _same(q, cs2)
    assert _same(p + q, [u + v for u, v in zip(a0, b0)])
    assert _same(p - q, [u - v for u, v in zip(a0, b0)])
    assert _same(-p, [-u for u in a])
    prod = [Sqrt2Rational.zero()] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] = prod[i + j] + u * v
    assert _same(p * q, prod) and _same(q * p, prod)
    assert _same(p * s, [u * s for u in a])
    assert _same(s * p, [s * u for u in a])
    assert _same(p.shift_eta(k), [0] * k * bool(a) + a)
    for at in (x, s):
        want = Sqrt2Rational.zero()
        for u in reversed(a):
            want = want * at + u
        assert p(at) == want
    assert type(p(x)) is (Sqrt2Rational if any(u.b for u in a) else Fr)
    # sums that cancel give the zero polynomial, stored as such
    for zero in (p - p, p + (-p), p + EtaPolynomial([-c for c in cs1]),
                 (p + q) - q - p):
        assert _same(zero, []) and not zero and zero == 0
        assert hash(zero) == hash(0) and zero.to_str() == "0"
    top = p - EtaPolynomial(cs1[1:]).shift_eta(1)     # cancels all but eta^0
    assert _same(top, a[:1]) and top == (a[0] if a else 0)
    assert p + q - q == p and hash(p + q - q) == hash(p)


# zero entries come from the integer 0 and from empty or all-zero lists
operands = st.one_of(scalars,
                     st.lists(scalars, max_size=4).map(EtaPolynomial))


def _coeffwise(x):
    """x as a list of Sqrt2Rational coefficients, without EtaPolynomial
    arithmetic."""
    return [_lift(c) for c in x.coeffs] if isinstance(x, EtaPolynomial) \
        else [_lift(x)]


@given(st.lists(st.tuples(operands, operands), max_size=6))
def test_dot_is_the_term_by_term_sum(pairs):
    got = EtaPolynomial.dot(pairs)
    naive = sum((x * y for x, y in pairs), EtaPolynomial([]))
    assert (got._d, got._A, got._B) == (naive._d, naive._A, naive._B)
    # the same coefficients from a product of Sqrt2Rational lists
    want = [Sqrt2Rational.zero()] * 10
    for x, y in pairs:
        for i, u in enumerate(_coeffwise(x)):
            for j, v in enumerate(_coeffwise(y)):
                want[i + j] = want[i + j] + u * v
    assert _same(got, want)
    # one reduced, trimmed storage
    assert got._d > 0 and math.gcd(got._d, *got._A, *got._B) == 1
    assert not got._A or got._A[-1]
    assert not got._B or got._B[-1]


@given(st.lists(st.tuples(st.one_of(fracs, st.integers(-20, 20)),
                          st.one_of(fracs, st.integers(-20, 20))),
                max_size=6))
def test_rational_dot_is_the_term_by_term_sum(pairs):
    got = coulombstar.exact._rational_dot(pairs)
    assert type(got) is Fr and got == sum((x * y for x, y in pairs), Fr(0))


def test_eta_polynomial_shift():
    p = EtaPolynomial([Fr(2), Fr(3)])
    assert p.shift_eta(2) == EtaPolynomial([0, 0, Fr(2), Fr(3)])


# ---------------------------------------------------------------------------
# expansion helpers
# ---------------------------------------------------------------------------

def test_p_coeff_base_values():
    assert (p_coeff(2, 0), p_coeff(2, 1), p_coeff(2, 2)) == \
        (Fr(1, 2), Fr(-3, 4), Fr(9, 8))
    assert p_coeff(3, 2) == Fr(2)


@given(st.integers(-4, 8), st.integers(1, 12))
def test_p_coeff_recurrence(alpha, n):
    # (2L + alpha + 1) * sum p_n L^-n telescopes iff 2 p_n = -(alpha+1) p_{n-1}
    assert 2 * p_coeff(alpha, n) == -(alpha + 1) * p_coeff(alpha, n - 1)


def test_potential_polynomials_binomial_row():
    A = potential_polynomials(3, [Fr(1)], 6)
    assert A == [Fr(math.comb(3, k)) if k <= 3 else Fr(0) for k in range(7)]
    assert potential_polynomials(0, [Fr(1)], 3) == [1, 0, 0, 0]


@given(st.lists(fracs, min_size=1, max_size=3), st.integers(1, 3),
       st.integers(0, 4))
@settings(max_examples=60)
def test_potential_polynomials_multiplicative(args, m, n):
    # A^(m+1) coefficients = convolution of A^(m) with the base row
    base = potential_polynomials(1, args, n)
    Am = potential_polynomials(m, args, n)
    Am1 = potential_polynomials(m + 1, args, n)
    for k in range(n + 1):
        assert Am1[k] == sum(Am[j] * base[k - j] for j in range(k + 1))


entries = st.one_of(fracs, sqrt2s, st.lists(sqrt2s, max_size=3).map(
    EtaPolynomial))


@given(st.lists(entries, max_size=6), st.lists(entries, max_size=6),
       st.integers(0, 6), st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
@example([1, 0], [EtaPolynomial([])], 1, 3, 3)        # placeholder solved to 0
@example([1, 0], [EtaPolynomial([0, 1])], 1, 3, 4)    # placeholder solved
@example([1, 2, 3], [], 3, 5, 2)                      # k_max lowered
@example([], [1, 1], 0, 2, 3)                         # grown from empty
def test_powers_grown_in_place_equal_a_fresh_build(first, tail, keep,
                                                   k_first, k_max):
    # a table for ``first`` regrown for a kept prefix of it plus a new tail
    coeffs = first[:keep] + tail
    P = _powers(first, k_first)
    assert _powers(coeffs, k_max, P) is P
    fresh = _powers(coeffs, k_max)
    assert [len(row) for row in P] == [len(row) for row in fresh]
    assert all(x == y for row, new in zip(P, fresh) for x, y in zip(row, new))
    # the triangle k + q <= k_max, capped at the length of the list
    assert [len(row) for row in fresh] == [
        min(len(coeffs), k_max - k + 1) for k in range(k_max + 1)]


# ---------------------------------------------------------------------------
# Sqrt2Rational is the constant EtaPolynomial
# ---------------------------------------------------------------------------

def test_sqrt2rational_is_a_constant_eta_polynomial():
    x = Sqrt2Rational(1, 1)
    assert isinstance(x, EtaPolynomial) and x.degree == 0
    assert (x.a, x.b) == (1, 1) and type(x.a) is Fr
    assert Sqrt2Rational(Fr(3, 4), Fr(-1, 6)).b == Fr(-1, 6)
    assert repr(Sqrt2Rational(Fr(1, 2), 0)) == \
        "Sqrt2Rational(a=Fraction(1, 2), b=Fraction(0, 1))"
    with pytest.raises(RingMismatch):
        Sqrt2Rational(0.5, 0)
    # one arithmetic: the field's ring operations are the polynomial's
    assert not {"__add__", "__sub__", "__mul__", "__neg__", "__eq__",
                "__bool__", "__hash__"} & set(vars(Sqrt2Rational))


_SCALAR = Sqrt2Rational(Fr(1, 3), -2)
_POLY = EtaPolynomial([1, Sqrt2Rational(0, 1)])
_KINDS = {"int": 3, "Fraction": Fr(-5, 7), "Sqrt2Rational": _SCALAR,
          "EtaPolynomial": _POLY}


@pytest.mark.parametrize("left", list(_KINDS))
@pytest.mark.parametrize("right", list(_KINDS))
def test_result_class_rule(left, right):
    # Sqrt2Rational unless an operand is a plain EtaPolynomial; two
    # rationals stay out of the exact types altogether
    x, y = _KINDS[left], _KINDS[right]
    if {left, right} <= {"int", "Fraction"}:
        return
    want = EtaPolynomial if "EtaPolynomial" in (left, right) else Sqrt2Rational
    for got, op in ((x + y, "+"), (x - y, "-"), (x * y, "*")):
        assert type(got) is want, (left, op, right)
    assert -_SCALAR == Sqrt2Rational(Fr(-1, 3), 2)
    assert type(-_SCALAR) is Sqrt2Rational and type(-_POLY) is EtaPolynomial
    # and the values are the coefficientwise ones
    P, Q = (v if type(v) is EtaPolynomial else EtaPolynomial([v])
            for v in (x, y))
    assert x + y == P + Q and x - y == P - Q and x * y == P * Q


def test_division_by_a_polynomial_is_refused():
    with pytest.raises(TypeError):
        Sqrt2Rational(1, 1) / EtaPolynomial([0, 1])
    with pytest.raises(TypeError):
        EtaPolynomial([0, 1]) / Sqrt2Rational(1, 1)
    assert 1 / Sqrt2Rational(1, 1) == Sqrt2Rational(-1, 1)
    assert type(Fr(1, 2) / Sqrt2Rational(0, 1)) is Sqrt2Rational


def test_potential_polynomials_of_scalars_stay_scalars():
    s = Sqrt2Rational(0, 1)
    A = potential_polynomials(2, [s, Fr(1, 2)], 3)
    assert all(type(a) is not EtaPolynomial for a in A)
    assert A == [1, 2 * s, 3, s]            # (1 + s x + x^2/2)^2, s^2 = 2
    assert all(type(a) in (int, Fr) for a in potential_polynomials(
        3, [Fr(1, 2), 2], 4))


def test_hash_of_a_constant_with_a_sqrt2_part():
    x = Sqrt2Rational(Fr(-1, 4), Fr(5, 4))
    p = EtaPolynomial([x])
    assert p == x and hash(p) == hash(x)
    assert len({p, x, EtaPolynomial([0, x]).coeff(1)}) == 1
    assert hash(EtaPolynomial([Sqrt2Rational(Fr(2, 3), 0)])) == hash(Fr(2, 3))
