"""Large-order expansion of the radius of starlikeness."""

import hashlib
import math
from fractions import Fraction as Fr

import pytest

from coulombstar import asympt, rayleigh
from coulombstar.asympt import (annihilation_residuals, empirical_order,
                                epsilon_coeffs, epsilon_coeffs_recurrence,
                                radius_asymptotic)
from coulombstar.errors import GateViolation
from coulombstar.exact import EtaPolynomial, Sqrt2Rational, format_sqrt2
from coulombstar.radii import radius_f

SQRT2 = math.sqrt(2.0)


def test_leading_constant_is_sqrt2():
    table = epsilon_coeffs(0)
    assert table.c == Sqrt2Rational.sqrt2()
    assert format_sqrt2(table.c) == "sqrt2"
    assert table.order == 0 and table.eps == []


def test_first_correction_exact():
    # solved from the identity: eps_1 = eta + 5 sqrt2/4 - 1/4
    e1 = epsilon_coeffs(1).eps[0]
    assert e1 == EtaPolynomial(
        [Sqrt2Rational(Fr(-1, 4), Fr(5, 4)), Sqrt2Rational(1, 0)])
    assert e1.to_str(descending=True) == "eta + 5*sqrt2/4 - 1/4"


def test_second_correction_string():
    e2 = epsilon_coeffs(2).eps[1]
    assert e2.to_str(descending=True) == \
        "-sqrt2/4*eta^2 + (-7*sqrt2/8 + 1/2)*eta - 5*sqrt2/64 + 3/8"


EPS_5 = ("eta^5 + (-17*sqrt2/128 + 1/2)*eta^4 + (921*sqrt2/128 - 5/2)*eta^3"
         " + (9281*sqrt2/1024 - 715/32)*eta^2"
         " + (21449*sqrt2/2048 - 949/64)*eta"
         " + 261255*sqrt2/32768 - 2591/256")
EPS_6 = ("31*sqrt2/128*eta^6 + (563*sqrt2/256 - 7/2)*eta^5"
         " + (3597*sqrt2/2048 - 2)*eta^4 + (-49803*sqrt2/2048 + 21)*eta^3"
         " + (-1910711*sqrt2/32768 + 619/8)*eta^2"
         " + (-2681277*sqrt2/65536 + 8631/128)*eta"
         " - 19111509*sqrt2/524288 + 23355/512")


def test_fifth_and_sixth_correction_strings():
    eps = epsilon_coeffs(6).eps
    assert eps[4].to_str(descending=True) == EPS_5
    assert eps[5].to_str(descending=True) == EPS_6


# sha256 of eps_j.to_str(descending=True), then one "a b" line per
# coefficient, for eps_1 .. eps_7 built cold
EPS_7_SHA256 = {
    1: "020596168e66e00266075b1418368387dd0031585560f549301c3e0535d7a4e0",
    2: "4e6c8f0da86c24fd789f8216da7c76182a34603e0ddb8a27d9ae55c3aa4f168e",
    3: "83f1de97206dbcffb750579fa4e4f3bbbfbebf98bb44acc22b68752ce49ad098",
    4: "446472b56abff4b460a8c8895bb1a968f3e06be71fd43bc8ec2b8cd91a999d8c",
    5: "ac8d932e3508556d8631cc4686b81178fe45a7918773ed302ab5dff6897bdfa5",
    6: "90cfc59369b56c5868163945234a1bd6a16075370a825297a00bda2fac85899b",
    7: "a72af09f232c026f56fd0505534698fa62c3637424f27bbb8aa9aaa6e792352c",
}


def test_eps_snapshot(cold_memos):
    got = {}
    for j, e in enumerate(epsilon_coeffs(7).eps, start=1):
        text = "\n".join([e.to_str(descending=True)]
                         + [f"{c.a} {c.b}" for c in e.coeffs])
        got[j] = hashlib.sha256(text.encode()).hexdigest()
    assert got == EPS_7_SHA256


def test_eps_memo_growth_path_is_irrelevant(cold_memos):
    for N in (2, 4, 6):
        grown = epsilon_coeffs(N)
    assert len(asympt._CACHE) == 6
    rayleigh._ZETA.clear()
    asympt._CACHE.clear()
    cold = epsilon_coeffs(6)
    assert grown.eps == cold.eps
    assert epsilon_coeffs(3).eps == cold.eps[:3]
    assert len(asympt._CACHE) == 6


def test_recurrence_matches_series_solve():
    a = epsilon_coeffs(8)
    b = epsilon_coeffs_recurrence(8)
    assert a.c == b.c
    assert a.eps == b.eps
    # every eps coefficient shows as a Sqrt2Rational, rational parts too
    assert all(type(c) is Sqrt2Rational for e in a.eps for c in e.coeffs)


def test_annihilation_residuals_vanish():
    res = annihilation_residuals(8)
    assert len(res) == 9
    assert all(not poly for poly in res)     # exact zero polynomials


def test_radius_asymptotic_closed_form_N1():
    # L (c + eps_1/L) = sqrt2 L + eta + 5 sqrt2/4 - 1/4
    L, eta = 37.0, -1.25
    expect = SQRT2 * L + eta + 5 * SQRT2 / 4 - 0.25
    assert radius_asymptotic(L, eta, 1) == pytest.approx(expect, rel=1e-15)
    assert radius_asymptotic(L, eta, 0) == pytest.approx(SQRT2 * L,
                                                         rel=1e-15)


def test_gates():
    with pytest.raises(GateViolation):
        radius_asymptotic(-2.0, 0.0, 1)
    with pytest.raises(GateViolation):
        radius_asymptotic(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        epsilon_coeffs(-1)
    with pytest.raises(ValueError):
        empirical_order([100.0], -1.0, 1)            # needs >= 2 points
    with pytest.raises(GateViolation):
        empirical_order([10.0, -5.0], -1.0, 1)


def test_eps_floats_match_polynomials():
    table = epsilon_coeffs(3)
    vals = table.as_floats(-1.0)
    assert vals[0] == pytest.approx(SQRT2)
    assert vals[1] == pytest.approx(-1.0 + 5 * SQRT2 / 4 - 0.25)


def test_truncated_expansion_diverges_from_direct_radius():
    # Documented finding: the directly computed radius grows like 1.0 * L
    # while the expansion's leading term is sqrt2 * L, so the scaled error
    # |direct - truncated|/L plateaus near sqrt2 - 1 instead of decaying.
    fit = empirical_order([25.0, 50.0, 100.0, 200.0], -1.0, 1)
    assert len(fit.errors) == 4
    assert all(e > 0.1 for e in fit.errors)
    assert fit.slope > -0.5                       # nowhere near -(N+1) = -2
    assert float(fit) == fit.slope
    # and the direct radius itself tracks L closely
    for L in (50.0, 100.0):
        assert radius_f(L, -1.0).value / L == pytest.approx(1.0, abs=0.06)
