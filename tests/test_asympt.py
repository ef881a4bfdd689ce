"""Large-order expansion of the radius of starlikeness."""

import hashlib
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from coulombstar import asympt, rayleigh
from coulombstar.asympt import (annihilation_residuals, empirical_order,
                                epsilon_coeffs, epsilon_coeffs_recurrence,
                                radius_asymptotic)
from coulombstar.errors import GateViolation
from coulombstar.exact import (EtaPolynomial, Sqrt2Rational, _powers,
                               format_sqrt2)
from coulombstar.radii import radius_f
from coulombstar.rayleigh import zeta_coeffs

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
    assert len(asympt._POWERS[1]) == 7           # c, eps_1 .. eps_6
    rayleigh._ZETA.clear()
    asympt._POWERS.clear()
    cold = epsilon_coeffs(6)
    assert grown.eps == cold.eps
    assert epsilon_coeffs(3).eps == cold.eps[:3]
    assert len(asympt._POWERS[1]) == 7


@pytest.mark.parametrize("N", [1, 3, 6])
def test_eps_builds_only_the_zeta_staircase(N, cold_memos):
    # order j reads zeta_n^(k) only for n <= j + 1 - ceil(k/2), so a cold
    # solve to N holds row k through that order at j = N, and no row above
    # 2N + 2 (at N = 6: 7 entries in row 2, 6 in rows 3 and 4, ..., 1 in
    # rows 13 and 14: 49 entries, where rows 2 .. 14 through order 6 are 91)
    epsilon_coeffs(N)
    held = {k: len(row) for k, (row, *_) in rayleigh._ZETA.items()}
    assert held == {k: N + 2 - (k + 1) // 2 for k in range(2, 2 * N + 3)}


def test_shared_power_table_is_a_fresh_build(cold_memos):
    # the table is the one store of the solved eps: after every call, of
    # either function and in any order, it equals a fresh build of
    # [c, eps_1, ..., eps_M] at k_max = M + 2, with no zero placeholder
    want = epsilon_coeffs_recurrence(7).eps
    for f, N in ((epsilon_coeffs, 0), (epsilon_coeffs, 4),
                 (annihilation_residuals, 2), (epsilon_coeffs, 3),
                 (annihilation_residuals, 6), (epsilon_coeffs, 7),
                 (annihilation_residuals, 5)):
        f(N)
        E = asympt._POWERS[1]
        M = len(E) - 1
        assert E == [asympt._C_POLY] + want[:M]
        assert all(E[1:])
        assert asympt._POWERS == _powers(E, M + 2)


def test_dot_budget_of_the_large_order_layer(cold_memos, monkeypatch):
    # EtaPolynomial.dot calls, in the order of a bench session: a cold
    # eps_1..eps_6 (zeta rows included), the re-substitution check, then
    # the recurrence; last, a cold zeta_coeffs(16, 8).  Measured 117, 14,
    # 121 and 233; the caps allow about 10 % more, and one more for the
    # re-substitution check, which reads the table as it stands
    dot = EtaPolynomial.dot
    calls = []

    def counted(cls, pairs):
        calls.append(1)
        return dot(pairs)

    monkeypatch.setattr(EtaPolynomial, "dot", classmethod(counted))
    for f, cap in ((lambda: epsilon_coeffs(6), 127),
                   (lambda: annihilation_residuals(6), 15),
                   (lambda: epsilon_coeffs_recurrence(6), 133)):
        calls.clear()
        f()
        assert len(calls) <= cap
    rayleigh._ZETA.clear()
    calls.clear()
    zeta_coeffs(16, 8)
    assert len(calls) <= 256


def test_recurrence_reads_neither_the_cache_nor_the_table(monkeypatch):
    want = epsilon_coeffs(5).eps
    monkeypatch.setattr(asympt, "_POWERS", [[None] * 9 for _ in range(9)])
    assert epsilon_coeffs_recurrence(5).eps == want


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
        epsilon_coeffs_recurrence(-1)
    with pytest.raises(ValueError):
        empirical_order([100.0], -1.0, 1)            # needs >= 2 points
    with pytest.raises(ValueError, match="distinct"):
        empirical_order([50.0, 50.0], 0.0, 2)        # one abscissa twice
    with pytest.raises(GateViolation):
        empirical_order([10.0, -5.0], -1.0, 1)


@pytest.mark.parametrize("op, args", [
    (radius_asymptotic, (50.0, math.nan, 2)),
    (radius_asymptotic, (50.0, math.inf, 2)),
    (radius_asymptotic, (math.inf, 0.0, 2)),
    (radius_asymptotic, (math.nan, 0.0, 2)),
    (empirical_order, ([25.0, 50.0], math.nan, 1)),
    (empirical_order, ([25.0, math.inf], -1.0, 1)),
])
def test_non_finite_inputs_are_gated(op, args):
    with pytest.raises(GateViolation, match="finite"):
        op(*args)


@pytest.mark.parametrize("N", [0, 1, 2])
def test_order_fit_is_the_least_squares_line(N):
    # the criterion-8 inputs: slope and residual as numpy's polyfit gives
    Ls = [25.0, 50.0, 100.0, 200.0]
    fit = empirical_order(Ls, -1.0, N)
    x, y = np.log(Ls), np.log(fit.errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.sqrt(np.mean((slope * x + intercept - y) ** 2))
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.fit_residual == pytest.approx(resid, rel=1e-12)


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
