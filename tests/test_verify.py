"""Independent geometric and analytic verification oracles."""

import math
from fractions import Fraction as Fr

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombstar.errors import GateViolation, NonConvergence, PoleOnCircle
from coulombstar.exact import potential_polynomials
from coulombstar.radii import radius_f, radius_g, radius_phi
from coulombstar.rayleigh import rayleigh_Z, rayleigh_Ztilde
from coulombstar.specfun import CoulombParams
from coulombstar.verify import (boundary_image, companion_order,
                                spirallike_scan, starlike_scan,
                                zero_sum_oracle)
from oracles import dini_rayleigh_oracle

RF_HALF = 0.94077056394973735364900174324614
FIG1_T0 = 0.58814635401704561985200998438744   # [sqrt(r) J0(r)]^2 at RF_HALF


def test_starlike_scan_brackets_radius_f():
    below = starlike_scan("f", 0.999 * RF_HALF, L=-0.5, eta=0.0)
    above = starlike_scan("f", 1.001 * RF_HALF, L=-0.5, eta=0.0)
    assert below.min_real_part > 0.0
    assert above.min_real_part < 0.0
    assert below.grid_size == 1024
    assert 0.0 <= below.argmin_angle < 2 * math.pi


def test_starlike_scan_minimum_on_real_axis():
    # for real parameters the witness minimum sits on the real axis
    r = 0.99 * radius_f(2.0, -1.0).value
    rep = starlike_scan("f", r, L=2.0, eta=-1.0, grid_size=2048)
    angle = min(rep.argmin_angle, 2 * math.pi - rep.argmin_angle)
    assert angle < 0.02 or abs(rep.argmin_angle - math.pi) < 0.02


def test_starlike_scan_beta_families():
    rg = radius_g(1.0, -0.5).value
    assert starlike_scan("g", 0.99 * rg, L=1.0, eta=-0.5).min_real_part > 0
    assert starlike_scan("g", 1.01 * rg, L=1.0, eta=-0.5).min_real_part < 0
    # nu = -0.7 is order L = -1.2 of the Coulomb factor, below the L > -1
    # that the f and g families accept
    for nu, alpha in [(0.3, 0.2), (-0.7, 1.0)]:
        rphi = radius_phi(nu, alpha, 0.5).value
        assert starlike_scan("phi", 0.99 * rphi, nu=nu,
                             alpha=alpha).min_real_part > 0.5
        assert starlike_scan("phi", 1.01 * rphi, nu=nu,
                             alpha=alpha).min_real_part < 0.5


def test_scan_guards():
    # at L = eta = 0, S = sin z / z, first zero pi
    with pytest.raises((GateViolation, PoleOnCircle)):
        starlike_scan("g", math.pi, L=0.0, eta=0.0)
    with pytest.raises(GateViolation):
        starlike_scan("g", 4.0, L=0.0, eta=0.0)   # real-axis zero inside
    with pytest.raises(GateViolation):
        starlike_scan("f", 1.0)             # L and eta missing
    with pytest.raises(GateViolation):
        starlike_scan("phi", 1.0, nu=0.5)   # alpha missing


@pytest.mark.parametrize("nu", [100.0, 200.0])
def test_phi_scan_at_large_order(nu):
    # jhat is S at L = nu - 1/2, eta = 0, summed in z/r with coefficients
    # a_n r^n, the term sizes on |z| = r, so no coefficient that matters
    # underflows.  Well inside the radius the scan matches
    # 1 - r J_{nu+1}/J_nu / (nu + alpha) on the real axis, to the ~7 digits
    # the float sum keeps at nu = 200; near the radius the sum is below its
    # rounding bound, a numerical error
    r = radius_phi(nu, 1.0).value
    rep = starlike_scan("phi", 0.5 * r, nu=nu, alpha=1.0)
    x = 0.5 * r
    ref = 1 - x * mp.besselj(nu + 1, x) / mp.besselj(nu, x) / (nu + 1.0)
    assert rep.min_real_part == pytest.approx(float(ref), rel=1e-5)
    with pytest.raises(PoleOnCircle):
        starlike_scan("phi", 0.99 * r, nu=nu, alpha=1.0)
    with pytest.raises(NonConvergence):          # terms leave the float range
        starlike_scan("phi", 2000.0, nu=nu, alpha=1.0)


@pytest.mark.parametrize("nu, x, alpha", [
    (-0.5, 0.3, 1.0), (-0.5, 1.0, 2.5), (-0.5, 0.05, 0.6), (-0.7, 0.2, 1.0)])
def test_phi_scan_at_small_order(nu, x, alpha):
    # the order L = nu - 1/2 of the Coulomb factor is -1 or below, which
    # CoulombParams refuses; at nu = -1/2, jhat = cos z and the minimum on
    # the real axis is 1 - x tan x/(nu + alpha)
    ref = 1 - x * mp.besselj(nu + 1, x) / mp.besselj(nu, x) / (nu + alpha)
    rep = starlike_scan("phi", x, nu=nu, alpha=alpha)
    assert rep.min_real_part == pytest.approx(float(ref), rel=1e-14)


def test_f_scan_at_large_order():
    # at L = 200 most unscaled coefficients a_n underflow at 0.9 r; the
    # scaled terms a_n r^n keep them, so the scan is not told that 0.9 r
    # lies past the first zero of F.  There the factor cancels below its
    # rounding bound, a numerical error; at 0.5 r it matches r F'/F/(L+1)
    r = radius_f(200.0, 0.0).value
    with pytest.raises(PoleOnCircle):
        starlike_scan("f", 0.9 * r, L=200.0, eta=0.0)
    x = mp.mpf(0.5 * r)
    with mp.workdps(40):     # F_200(0, x) = sqrt(pi x/2) J_200.5(x)
        ref = (0.5 + x * mp.besselj(200.5, x, derivative=1)
               / mp.besselj(200.5, x)) / 201
    rep = starlike_scan("f", 0.5 * r, L=200.0, eta=0.0)
    assert rep.min_real_part == pytest.approx(float(ref), rel=1e-5)


def test_segment_below_rounding_is_a_numerical_error():
    # S > 0 up to the radius, but at L = 100 its float sum near 0.99 of it
    # cancels below the rounding bound: a numerical error, not the caller's
    # scan radius lying beyond the first zero
    r = 0.99 * radius_f(100.0, -1.0).value
    with pytest.raises(PoleOnCircle):
        starlike_scan("f", r, L=100.0, eta=-1.0)


def test_companion_order_values_and_gate():
    assert companion_order(0.2 + 0.1j) == pytest.approx(
        0.19282032302755091741097853660235, abs=1e-15)
    with pytest.raises(GateViolation):
        companion_order(-0.5 + 0.0j)        # Re[L(L+1)] = -1/4


@given(st.floats(-0.49, 10.0, allow_nan=False))
def test_companion_order_fixes_real_orders(L):
    assert companion_order(complex(L, 0.0)) == pytest.approx(
        L, rel=1e-12, abs=1e-12)


def test_spirallike_scan_brackets_companion_radius():
    Lc = 0.2 + 0.1j
    r = radius_f(companion_order(Lc), 0.0).value
    assert spirallike_scan(Lc, 0.0, 0.99 * r).min_real_part > 0
    assert spirallike_scan(Lc, 0.0, 1.01 * r).min_real_part < 0
    rep = spirallike_scan(Lc, 0.0, 0.5 * r)
    assert rep.witness_rotation == pytest.approx(
        math.atan2(0.1, 1.2))               # default theta = arg(L+1)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_scans_refuse_a_non_finite_radius(r):
    with pytest.raises(GateViolation, match="finite"):
        starlike_scan("g", r, L=1.0, eta=0.0)
    with pytest.raises(GateViolation, match="finite"):
        boundary_image("phi", r, 8, nu=1.0, alpha=0.0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_scans_refuse_a_radius_at_or_below_zero(r):
    with pytest.raises(ValueError, match="positive"):
        starlike_scan("f", r, L=0.5, eta=0.0)


@pytest.mark.parametrize("call, exc", [
    (lambda: companion_order(complex(math.nan, 0.0)), GateViolation),
    (lambda: companion_order(complex(math.inf, 0.1)), GateViolation),
    (lambda: potential_polynomials(2, [Fr(1)], -1), ValueError),
    (lambda: starlike_scan("f", 1.0, L=2.0, eta=-1.0, grid_size=16.5),
     ValueError),
    (lambda: spirallike_scan(0.2 + 0.1j, 0.0, 0.5, grid_size=16.5),
     ValueError),
    (lambda: boundary_image("f", 1.0, 8.5, L=2.0, eta=-1.0), ValueError),
], ids=["companion-nan", "companion-inf", "potential-n_max", "starlike-grid",
        "spirallike-grid", "boundary-points"])
def test_inputs_that_escaped_every_gate(call, exc):
    # a non-finite order gave a nan or inf companion order, n_max < 0 a
    # bare IndexError, and a fractional count scanned the next integer
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc


def test_spirallike_gates():
    with pytest.raises(GateViolation):
        spirallike_scan(-2.0 + 0.0j, 0.0, 1.0)
    with pytest.raises(GateViolation):
        spirallike_scan(5.0j, 0.0, 1.0)     # |arg(L+1)| >= pi/4


def test_boundary_image_figures():
    pts = boundary_image("f", RF_HALF, 256, L=-0.5, eta=0.0)
    assert len(pts) == 256
    assert pts[0] == pytest.approx(FIG1_T0, abs=1e-13)
    # closed and conjugate-symmetric (real coefficients)
    assert abs(pts[-1] - pts[0]) < abs(pts[1] - pts[0]) * 2.0
    for k in (1, 7, 100):
        assert pts[-k] == pytest.approx(pts[k].conjugate(), rel=1e-10)
    # figure-2 parameters: image of the pi/2 circle under sin
    pts2 = boundary_image("g", math.pi / 2, 64, L=0.0, eta=0.0)
    assert pts2[0] == pytest.approx(1.0, abs=1e-14)
    t = 2 * math.pi * 5 / 64
    z = (math.pi / 2) * complex(math.cos(t), math.sin(t))
    import cmath
    assert pts2[5] == pytest.approx(cmath.sin(z), rel=1e-12)


@pytest.mark.parametrize("nu, alpha", [
    (0.5, -0.5),                            # nu + alpha = 0
    (0.5, -1.0),                            # nu + alpha < 0
    (-1.0, 2.0),                            # nu = -1
    (-1.5, 3.0),                            # nu < -1
    (1.0, math.inf),                        # scanned as if h = z
    (math.nan, 1.0),                        # a NaN-to-int conversion
])
def test_boundary_image_phi_gates(nu, alpha):
    # the same gates as starlike_scan and radius_phi
    with pytest.raises(GateViolation):
        boundary_image("phi", 1.0, 8, nu=nu, alpha=alpha)


def test_spirallike_scan_at_real_order_is_the_f_scan():
    # an order with zero imaginary part is real: no rotation, the f witness
    eta = -0.5
    r = 0.9 * radius_f(2.0, eta).value
    spiral = spirallike_scan(2.0 + 0j, eta, r)
    star = starlike_scan("f", r, L=2.0, eta=eta)
    assert spiral.witness_rotation == 0.0
    assert spiral.min_real_part == star.min_real_part
    assert spiral.argmin_angle == star.argmin_angle


def test_spirallike_scan_at_real_order_guards_the_first_zero():
    # F(2, -0.5) has its first positive zero below 6; the real-axis guard
    # of starlike_scan applies
    with pytest.raises(GateViolation):
        starlike_scan("f", 7.0, L=2.0, eta=-0.5)
    with pytest.raises(GateViolation):
        spirallike_scan(2.0 + 0j, -0.5, 7.0)


def test_zero_sum_oracle_matches_exact_tables():
    got = zero_sum_oracle(CoulombParams(2.0, 0.0), k=2)
    assert got == pytest.approx(1.0 / 7.0, abs=1e-9)
    got4 = zero_sum_oracle(CoulombParams(2.0, 0.0), k=4)
    exact4 = rayleigh_Z(CoulombParams(Fr(2), Fr(0)), 4, exact=True)[4]
    assert got4 == pytest.approx(float(exact4), abs=1e-12)
    got_eta = zero_sum_oracle(CoulombParams(2.0, -1.0), k=2)
    assert got_eta == pytest.approx(10.0 / 63.0, abs=1e-9)
    # the true zero sums: odd k equal rayleigh_Z's at -eta, not at eta
    # (-5/378 there, the recurrence's sign)
    assert zero_sum_oracle(CoulombParams(2.0, -1.0), k=3) == \
        pytest.approx(5.0 / 378.0, rel=1e-9)
    # derivative zeros
    gotp = zero_sum_oracle(CoulombParams(0.5, 0.0), k=2, which="Fprime")
    assert gotp == pytest.approx(7.0 / 12.0, abs=1e-9)
    exact_t = rayleigh_Ztilde(CoulombParams(Fr(1, 2), Fr(13, 10)), 5,
                              exact=True)
    for k in (3, 5):
        got_t = zero_sum_oracle(CoulombParams(0.5, 1.3), k=k, which="Fprime")
        assert got_t == pytest.approx(float(exact_t[k]), rel=1e-9)


def test_zero_sum_oracle_gates():
    p = CoulombParams(1.0, 0.0)
    for k in (1, 7, 2.0):
        with pytest.raises(ValueError):
            zero_sum_oracle(p, k=k)
    with pytest.raises(ValueError):
        zero_sum_oracle(p, which="G")
    with pytest.raises(GateViolation):
        zero_sum_oracle(CoulombParams(0.2 + 0.1j, 0.0), k=2)
    # eta > 0 is served
    assert zero_sum_oracle(CoulombParams(1.0, 0.5), k=3) == pytest.approx(
        float(rayleigh_Z(CoulombParams(Fr(1), Fr(-1, 2)), 3)[3]), rel=1e-9)


def test_dini_rayleigh_oracle_exact():
    assert dini_rayleigh_oracle(1, 1) == Fr(1, 4)
    # cross-check against the F' recurrence through the Bessel reduction:
    # F'_{L,0} zeros = Dini zeros for nu = L + 1/2, H = 1/2 (both signs)
    assert 2 * dini_rayleigh_oracle(1, Fr(1, 2)) == \
        rayleigh_Ztilde(CoulombParams(Fr(1, 2), Fr(0)), 2, exact=True)[2]
    assert 2 * dini_rayleigh_oracle(0, Fr(1, 2)) == \
        rayleigh_Ztilde(CoulombParams(Fr(-1, 2), Fr(0)), 2, exact=True)[2]


@settings(deadline=None, max_examples=8)
@given(st.floats(-0.9, 30.0), st.floats(-3.0, 3.0))
def test_zero_sum_oracle_tracks_recurrence(L, eta):
    rec = float(rayleigh_Z(CoulombParams(L, -eta), 2, exact=False)[2])
    got = zero_sum_oracle(CoulombParams(L, eta), k=2)
    assert got == pytest.approx(rec, rel=1e-8)
