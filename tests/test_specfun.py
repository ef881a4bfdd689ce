"""Series evaluation of F, g, f, Bessel J, and Dini functions."""

import math
import re
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coulombstar.errors import (DegenerateOrder, GammaOverflow, GateViolation,
                                NonConvergence)
from coulombstar.specfun import (CoulombParams, _sum_pair,
                                 coulomb_series_coeffs, eval_F,
                                 eval_F_with_derivative, eval_bessel_j,
                                 eval_dini, eval_f_normalized, eval_g)

# frozen high-precision reference values (50-digit arithmetic, truncated)
G_1_M1 = 0.52526316152998352235828502496453
GP_1_M1 = 0.098077352179639716174027530522628
F_0_M1 = 0.52131464221171596927032349572977
F_1_M1 = 0.62125015453840708591325444486323
F_HALF = 0.69505809904609297148452811685443   # L=1/2, eta=-0.3, z=2.5
F_32 = 1.1458029979478363556761278247437      # L=3.2, eta=0, z=5
J1_1 = 0.44005058574493351595968220371891
J1P_1 = 0.32514710081303303549003532238375
J03_27 = 0.07484269582778452008991118879501   # J_0.3(2.7)
RF_BESSEL = 0.94077056394973735364900174324614  # zero of 2rJ0'(r)+J0(r)


def test_g_oracle():
    res = eval_g(CoulombParams(1.0, -1.0), 1.0)
    assert res.value == pytest.approx(G_1_M1, abs=5e-15)
    assert res.derivative == pytest.approx(GP_1_M1, abs=5e-14)
    assert res.terms_used > 3
    assert res.est_error < 1e-12


def test_F_oracles():
    assert eval_F(CoulombParams(0.0, -1.0), 1.0) == pytest.approx(
        F_0_M1, abs=5e-15)
    assert eval_F(CoulombParams(1.0, -1.0), 1.0) == pytest.approx(
        F_1_M1, abs=5e-15)
    assert eval_F(CoulombParams(0.5, -0.3), 2.5) == pytest.approx(
        F_HALF, abs=5e-14)
    assert eval_F(CoulombParams(3.2, 0.0), 5.0) == pytest.approx(
        F_32, abs=5e-14)


def test_F_at_zero_and_sin_case():
    # L = 0, eta = 0: F = sin z
    p = CoulombParams(0.0, 0.0)
    assert eval_F(p, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
    res = eval_F_with_derivative(p, 0.0)
    assert res.value == 0.0 and res.derivative == pytest.approx(1.0)
    assert eval_F_with_derivative(CoulombParams(2.0, -1.0), 0.0).value == 0.0


def test_bessel_oracles():
    res = eval_bessel_j(1.0, 1.0)
    assert res.value == pytest.approx(J1_1, abs=5e-16)
    assert res.derivative == pytest.approx(J1P_1, abs=5e-16)
    assert eval_bessel_j(0.3, 2.7).value == pytest.approx(J03_27, abs=5e-16)
    # J_0(0) = 1, J_nu(0) = 0 for nu > 0
    assert eval_bessel_j(0.0, 0.0).value == 1.0
    assert eval_bessel_j(2.0, 0.0).value == 0.0


def test_dini_zeros_match_radius_captions():
    # nu=0, H=1/2: d(r) = (2 r J0'(r) + J0(r))/2 vanishes at the first
    # caption value; nu=1/2, H=1/2: d(r) ~ cos(r) vanishes at pi/2
    assert eval_dini(0.0, 0.5, RF_BESSEL).value == pytest.approx(0.0,
                                                                 abs=1e-15)
    assert eval_dini(0.5, 0.5, math.pi / 2).value == pytest.approx(0.0,
                                                                   abs=1e-15)


def test_bessel_reduction_identity():
    # F_{l-1/2, 0}(z) = sqrt(pi z / 2) J_l(z)
    for ell in (0.0, 1.0, 3.7):
        for z in (0.6, 2.0, 7.5):
            F = eval_F(CoulombParams(ell - 0.5, 0.0), z)
            J = eval_bessel_j(ell, z).value
            assert F == pytest.approx(math.sqrt(math.pi * z / 2.0) * J,
                                      rel=1e-12)


def test_exact_series_coefficients():
    L, eta = Fr(1), Fr(-1)
    a = coulomb_series_coeffs(CoulombParams(L, eta), 3, exact=True)
    assert a[0] == 1
    assert a[1] == eta / (L + 1)
    assert a[2] == (2 * eta * a[1] - a[0]) / (2 * (2 * L + 3))
    assert a[3] == (2 * eta * a[2] - a[1]) / (3 * (2 * L + 4))
    assert all(isinstance(x, Fr) for x in a)
    # the float branch runs the same recurrence
    for L, eta in ((Fr(1), Fr(-1)), (Fr(1, 2), Fr(3, 4)),
                   (Fr(-3, 4), Fr(5, 2))):
        exact = coulomb_series_coeffs(CoulombParams(L, eta), 40, exact=True)
        flt = coulomb_series_coeffs(CoulombParams(float(L), float(eta)), 40,
                                    exact=False)
        assert all(isinstance(x, float) for x in flt)
        assert flt == pytest.approx([float(x) for x in exact], rel=1e-13)


@pytest.mark.parametrize("L, eta, z", [
    (0.0, -1.3, 2.5), (2.5, 0.8, 1.7), (0.0, 1.1, 1.5 + 0.8j),
    (4.0, -0.6, -2.0 + 1.2j), (0.4 + 0.3j, -0.9, 1.2),
    (1.5 - 0.2j, 1.4, 0.9 - 0.7j),
])
def test_float_and_mp_passes_agree(L, eta, z):
    # one summation loop serves both precisions; at benign inner points
    # the float pass and a 40-digit pass give the same sums
    p = CoulombParams(L, eta)
    S, T, terms, _, _ = _sum_pair(p, z, 1e-15)
    S40, T40, terms40, est40, _ = _sum_pair(p, z, 1e-15, dps=40)
    assert type(S40) is type(S) and type(T40) is type(T)
    assert S == pytest.approx(S40, rel=1e-13)
    assert T == pytest.approx(T40, rel=1e-13)
    assert abs(terms - terms40) <= 1 and est40 < 1e-13 * abs(S40)


@given(st.floats(-0.9, 4.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_g_matches_direct_polynomial(L, eta, z):
    assume(math.isfinite(L) and math.isfinite(eta) and math.isfinite(z))
    a = coulomb_series_coeffs(CoulombParams(L, eta), 60, exact=False)
    direct = z * sum(c * z ** n for n, c in enumerate(a))
    got = eval_g(CoulombParams(L, eta), z).value
    assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)


@given(st.floats(-0.5, 3.0), st.floats(-2.0, 2.0),
       st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_F_conjugate_symmetry(L, eta, x, y):
    assume(abs(y) > 1e-3)
    p = CoulombParams(L, eta)
    z = complex(x, y)
    a, b = eval_F(p, z), eval_F(p, z.conjugate())
    assert a.conjugate() == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_f_normalized_matches_g_when_L_zero():
    # 1/(L+1) = 1 at L = 0, so f and g coincide
    p = CoulombParams(0.0, -0.7)
    zf = eval_f_normalized(p, 1.3)
    zg = eval_g(p, 1.3)
    assert zf.value == pytest.approx(zg.value, rel=1e-14)
    assert zf.derivative == pytest.approx(zg.derivative, rel=1e-12)


def test_gates_and_errors():
    with pytest.raises(DegenerateOrder):
        CoulombParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        CoulombParams(1.0, 1j)
    with pytest.raises(ValueError):
        eval_g(CoulombParams(0.0, 0.0), 1.0, tol=1e-3)
    with pytest.raises(GammaOverflow):
        eval_F(CoulombParams(0.0, 0.0), 1e308)
    with pytest.raises(NonConvergence):
        eval_g(CoulombParams(0.0, 0.0), 1e200)


def test_complex_L_demotion_and_eval():
    p = CoulombParams(complex(1.0, 0.0), -1.0)
    assert not p.is_complex                       # demoted to real
    pc = CoulombParams(0.2 + 0.1j, 0.0)
    assert pc.is_complex
    v = eval_g(pc, 0.5).value
    assert isinstance(v, complex) and abs(v) > 0


def test_non_convergence_at_fixed_cap():
    # sin z at z = 720: the float terms overflow, and the loop raises at the
    # term where the running sum turns infinite instead of running on to
    # the fixed cap of 10000 terms
    with pytest.raises(NonConvergence, match="within 10000 terms"):
        eval_F(CoulombParams(0, 0), 720.0)


@pytest.mark.parametrize("L, eta, z", [
    (0.0, 0.0, 710.0), (0.0, 0.0, 709j), (2.0, 1.5, 800.0),
    (0.3 + 0.2j, -2.0, 700 + 300j),
])
def test_overflowing_terms_raise_non_convergence(L, eta, z):
    # the exact final sums must not turn overflowed terms into an
    # OverflowError or ValueError from math.fsum; the error names the term
    # where the running sum overflowed, which lies far below the cap
    with pytest.raises(NonConvergence, match="within 10000 terms") as exc:
        eval_g(CoulombParams(L, eta), z)
    n = int(re.search(r"overflowed at term (\d+)", str(exc.value)).group(1))
    assert 2 <= n < 1000


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "defect A: the series stops at |t| <= tol * (peak partial sum ~1e169), "
    "so the truncation error dwarfs sin(400); a retry at more digits keeps "
    "the same truncation and returns the same 1.4e157"))
def test_F_far_beyond_turning_point_is_sin():
    assert eval_F(CoulombParams(0, 0), 400.0) == pytest.approx(
        math.sin(400.0), rel=1e-10)


def test_eta_zero_far_from_origin():
    # sin z needs ~|z| terms; the stop rule must not trigger early on the
    # leading zero terms of the even/odd split.  (An early stop would lose
    # the value entirely; the permitted error here is cancellation noise,
    # term peak ~ e^20 / sqrt(40 pi) ~ 4e7 times machine epsilon.)
    p = CoulombParams(0.0, 0.0)
    assert eval_F(p, 20.0) == pytest.approx(math.sin(20.0), abs=2e-8)
