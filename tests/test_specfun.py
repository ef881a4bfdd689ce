"""Series evaluation of F, g, f, Bessel J, and Dini functions."""

import cmath
import math
import random
import re
from fractions import Fraction as Fr

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coulombstar import specfun
from coulombstar.errors import GammaOverflow, GateViolation, NonConvergence
from coulombstar.specfun import (CoulombParams, _fsum, _safe_index,
                                 _series_pair, _sum_pair_fixed, _terms,
                                 _working_dps, eval_F,
                                 eval_F_with_derivative, eval_bessel_j,
                                 eval_dini, eval_f_normalized, eval_g)
from oracles import (coulomb_series_coeffs, sum_pair_fixed_reference,
                     terms_reference)

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
    # F ~ C z^(L+1) and F' ~ C (L+1) z^L at z -> 0, decided on Re L: F' -> 0
    # for Re L > 0 and inf for Re L < 0; on Re L = 0 with Im L != 0 its
    # modulus tends to |C (L+1)| while its phase turns, so it has no limit
    for L, value, deriv in [
            (0.5 + 0.1j, 0.0, 0.0), (-0.5 + 0.1j, 0.0, math.inf),
            (-0.5, 0.0, math.inf), (0.1j, 0.0, math.nan),
            (-1.5 + 0.1j, math.inf, math.inf),
            (-1.0 + 0.2j, math.nan, math.inf)]:
        res = eval_F_with_derivative(CoulombParams(L, 0.3), 0.0)
        for got, want in ((res.value, value), (res.derivative, deriv)):
            assert got == want or math.isnan(got) and math.isnan(want), L
    # the derivative near 0 grows like |z|^(Re L)
    p = CoulombParams(-0.5 + 0.1j, 0.0)
    d = [eval_F_with_derivative(p, z).derivative for z in (1e-12, 1e-14)]
    assert abs(d[1]) == pytest.approx(10 * abs(d[0]), rel=1e-6)
    assert abs(d[0]) > 5e5


def test_bessel_oracles():
    res = eval_bessel_j(1.0, 1.0)
    assert res.value == pytest.approx(J1_1, abs=5e-16)
    assert res.derivative == pytest.approx(J1P_1, abs=5e-16)
    assert eval_bessel_j(0.3, 2.7).value == pytest.approx(J03_27, abs=5e-16)
    # J_0(0) = 1, J_nu(0) = 0 for nu > 0
    assert eval_bessel_j(0.0, 0.0).value == 1.0
    assert eval_bessel_j(2.0, 0.0).value == 0.0
    # -1 < nu < 0: J ~ (z/2)^nu / Gamma(nu + 1) -> +inf and J' -> -inf as
    # z -> 0+, the signs mpmath gives at z = 1e-30
    for nu in (-0.5, -0.3):
        res = eval_bessel_j(nu, 0.0)
        assert res.value == math.inf and res.derivative == -math.inf
        assert mp.besselj(nu, 1e-30) > 1e8
        assert mp.besselj(nu, 1e-30, derivative=1) < -1e38
        # d(r) = r J' + H J ~ (nu + H) J at r -> 0+
        assert eval_dini(nu, 1.0, 0.0).value == math.inf


def test_bessel_prefactor_overflow_raises_gamma_overflow():
    # (z/2)^(nu - 1) / Gamma(nu + 1) at nu = -0.3, z = 1e-300 is ~1e390:
    # the exponent is checked before exp, as for F's combined prefactor
    with pytest.raises(GammaOverflow, match="overflows"):
        eval_bessel_j(-0.3, 1e-300)
    with pytest.raises(GammaOverflow):
        eval_bessel_j(-0.3, 1e-300 + 1e-300j)
    assert eval_bessel_j(-0.3, 1e-200).derivative < 0   # 1e258 still fits


@pytest.mark.parametrize("nu", [171.5, 180.0, 200.0])
def test_bessel_large_order(nu):
    # 1/Gamma(nu + 1) overflows above nu ~ 170; the prefactor lives in log
    # space, so J and J' keep their digits until they underflow
    for z in (0.5, 20.0, 35.0, -20.0, 30.0 + 5.0j, -12.0 + 20.0j, 3.0 - 34.0j):
        res = eval_bessel_j(nu, z)
        for got, ref in ((res.value, mp.besselj(nu, z)),
                         (res.derivative, mp.besselj(nu, z, derivative=1))):
            ref = complex(ref)
            assert abs(got - ref) <= 1e-12 * abs(ref), (z, got, ref)
    assert eval_bessel_j(nu, 0.5).value == 0.0        # J ~ 1e-400 underflows


@pytest.mark.parametrize("nu, H, value, deriv", [
    (-0.5, 0.0, -math.inf, math.inf),   # (nu + H) times J and J' at 0+
    (-0.5, 0.5, 0.0, 0.0),              # nu + H = 0: d = -r J_{nu+1}
    (0.5, 1.0, 0.0, math.inf),
    (1.0, 0.0, 0.0, 0.5),
    (0.0, 1.0, 1.0, 0.0),
    (2.0, 1.0, 0.0, 0.0),
    (1.0, -1.0, 0.0, 0.0),
])
def test_dini_at_zero_is_the_one_sided_limit(nu, H, value, deriv):
    res = eval_dini(nu, H, 0.0)
    assert (res.value, res.derivative) == (value, deriv)
    # d and d' = H J' + (nu^2/r - r) J at r = 1e-30, where the limits show
    with mp.workdps(100):
        r = mp.mpf("1e-30")
        J, dJ = mp.besselj(nu, r), mp.besselj(nu, r, derivative=1)
        for got, ref in ((value, r * dJ + H * J),
                         (deriv, H * dJ + (nu * nu / r - r) * J)):
            if math.isinf(got):
                assert abs(ref) > 1e10 and mp.sign(ref) == math.copysign(
                    1, got)
            else:
                assert abs(ref - got) < 1e-10


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
    a = coulomb_series_coeffs(L, eta, 3)
    assert a[0] == 1
    assert a[1] == eta / (L + 1)
    assert a[2] == (2 * eta * a[1] - a[0]) / (2 * (2 * L + 3))
    assert a[3] == (2 * eta * a[2] - a[1]) / (3 * (2 * L + 4))
    assert all(isinstance(x, Fr) for x in a)
    # float inputs run the same recurrence in float
    for L, eta in ((Fr(1), Fr(-1)), (Fr(1, 2), Fr(3, 4)),
                   (Fr(-3, 4), Fr(5, 2))):
        exact = coulomb_series_coeffs(L, eta, 40)
        flt = coulomb_series_coeffs(float(L), float(eta), 40)
        assert all(isinstance(x, float) for x in flt)
        assert flt == pytest.approx([float(x) for x in exact], rel=1e-13)


@pytest.mark.parametrize("L, eta, z", [
    (0.5, -1.3, 1.2), (2.5, 0.8, 1.7 + 0.9j), (-0.7, 2.0, 0.4),
    (-1.0, 0.0, 2.0), (-1.0, 0.0, 1.5 - 1.1j), (0.4 + 0.3j, -0.9, 1.2),
    (1.5 - 0.2j, 1.4, 0.9 - 0.7j),
])
def test_float_terms_are_the_exact_terms(L, eta, z):
    # each stored term t_n of the float pass is a_n z^n, with a_n from the
    # reference recurrence in exact rationals; a complex L runs it in
    # 50-digit mpmath, as a Fraction has no complex form
    ts = _terms(L, eta, z, 1e-15)[0]
    with mp.workdps(50):
        if isinstance(L, complex):
            a = coulomb_series_coeffs(mp.mpc(L), mp.mpf(eta), len(ts) - 1)
        else:
            a = [mp.mpf(c.numerator) / c.denominator for c in
                 coulomb_series_coeffs(Fr(L), Fr(eta), len(ts) - 1)]
        want = [complex(c * mp.mpc(z) ** n) for n, c in enumerate(a)]
    for t, w in zip(ts, want):
        assert abs(t - w) <= 1e-13 * abs(w)


@pytest.mark.parametrize("L, eta, z", [
    (0.0, -1.3, 2.5), (2.5, 0.8, 1.7), (0.0, 1.1, 1.5 + 0.8j),
    (4.0, -0.6, -2.0 + 1.2j), (0.4 + 0.3j, -0.9, 1.2),
    (1.5 - 0.2j, 1.4, 0.9 - 0.7j),
])
def test_float_and_mp_passes_agree(L, eta, z):
    # at benign inner points the float terms, correctly rounded, and the
    # fixed-point pass at 40 digits over the same count give the same sums
    ts = _terms(L, eta, z, 1e-15)[0]
    S, T = _fsum(ts), _fsum([n * t for n, t in enumerate(ts)])
    S40, T40, _ = _sum_pair_fixed(L, eta, z, len(ts), 40)
    assert type(S40) is type(S) and type(T40) is type(T)
    assert S == pytest.approx(S40, rel=1e-13)
    assert T == pytest.approx(T40, rel=1e-13)


def _series_60(L, eta, z, terms):
    """S and z S' over the first ``terms`` terms, in 60-digit mpmath, from
    the recurrence of the coefficients a_n rather than of the terms."""
    with mp.workdps(60):
        L, eta, z = mp.mpc(L), mp.mpf(eta), mp.mpc(z)
        a = [mp.mpf(1), eta / (L + 1)]
        for n in range(2, terms):
            a.append((2 * eta * a[-1] - a[-2]) / (n * (n + 2 * L + 1)))
        t = [c * z ** n for n, c in enumerate(a)]
        return (complex(mp.fsum(t)),
                complex(mp.fsum(n * tn for n, tn in enumerate(t))))


def _mp_refs(L, eta, x):
    """(F, F', sqrt(F^2 + G^2), sqrt(F'^2 + G'^2), C x^L) at real x > 0
    from mpmath at 20 digits, as floats; F' and G' from the order ladder
    (L + 1) u_L' = ((L + 1)^2/x + eta) u_L - sqrt((L + 1)^2 + eta^2) u_{L+1}
    (Abramowitz & Stegun 14.2.2), which is faster than mpmath's diff."""
    with mp.workdps(20):
        L, eta, x = mp.mpf(L), mp.mpf(eta), mp.mpf(x)
        F, G = mp.coulombf(L, eta, x), mp.coulombg(L, eta, x)
        F1, G1 = mp.coulombf(L + 1, eta, x), mp.coulombg(L + 1, eta, x)
        a, b = (L + 1) ** 2 / x + eta, mp.sqrt((L + 1) ** 2 + eta ** 2)
        dF, dG = (a * F - b * F1) / (L + 1), (a * G - b * G1) / (L + 1)
        logC = (L * mp.log(2) - mp.pi * eta / 2
                + mp.re(mp.loggamma(L + 1 + 1j * eta)) - mp.loggamma(2 * L + 2))
        return tuple(float(v) for v in (
            F, dF, mp.hypot(F, G), mp.hypot(dF, dG), mp.exp(logC) * x ** L))


# outer points whose float pass is rejected, with the term counts of the
# 27-32 digit mpmath pass that the fixed-point retry replaced (tol 1e-14)
RETRY_POINTS = [
    (0.0, -1.5, 28.0, 83), (3.0, 1.5, 34.0, 90), (5.0, -1.5, 25.0, 73),
    (0.3, 1.7, 30.0, 85), (10.0, 0.0, 30.0, 78),
    (0.0, -1.5, 25.995 + 0.52j, 79), (3.0, 1.5, -32.862 - 3.018j, 88),
    (0.0, 1.5, 32.835 + 3.295j, 91),
    (0.4 + 0.3j, -1.5, 28.0, 82), (0.4 + 0.3j, 1.5, 34.0, 93),
    (2 - 0.7j, -1.5, 32.959 - 1.649j, 90),
    (1 + 1.5j, 1.5, -25.891 - 2.378j, 78),
]


#: the complex retry points at real L with |Im z| <= 0.6 Re z past the
#: turning point, which the continuation of Steed's values serves
CONTINUED_RETRY_POINTS = (25.995 + 0.52j, 32.835 + 3.295j)


@pytest.mark.parametrize("L, eta, z, terms", RETRY_POINTS)
def test_fixed_point_retry(L, eta, z, terms):
    # the reference sums the same number of terms: where the series stops
    # is the stopping rule's business, and this checks the arithmetic
    S, T, used, _, bits = _series_pair(L, eta, z, 1e-14)
    assert bits > 0 and used == terms
    assert used == len(_terms(L, eta, z, 1e-14)[0])   # the float count
    S60, T60 = _series_60(L, eta, z, used)
    assert abs(S - S60) <= 1e-13 * abs(S60)
    assert abs(T - T60) <= 1e-13 * abs(T60)
    real = isinstance(L, float) and isinstance(z, float)
    assert type(S) is type(T) is (float if real else complex)
    res = eval_g(CoulombParams(L, eta), z, tol=1e-14)
    if real:
        # Steed's method serves real points past the turning point
        assert (res.method, res.retry_bits) == ("steed", 0)
        F, _, env, _, cxl = _mp_refs(L, eta, z)
        assert abs(res.value - F / cxl) <= 1e-13 * env / cxl
    elif z in CONTINUED_RETRY_POINTS:
        # and its continuation those near the real axis, where the retry
        # is 2.5e-5 off at 25.995 + 0.52i
        assert (res.method, res.retry_bits) == ("continuation", 0)
        g = _mp_continuation_refs(L, eta, z)[2]
        assert abs(res.value - g) <= min(1e-13 * abs(g), res.est_error)
    else:
        assert (res.method, res.retry_bits) == ("fixed", bits)


@pytest.mark.parametrize("L, eta, z, n_terms", [
    (2.0, 1.5, 800.0, 1134), (0.3 + 0.2j, -2.0, 700 + 300j, 520),
], ids=["2.0-1.5-800.0", "(0.3+0.2j)--2.0-(700+300j)"])
def test_fixed_point_sum_out_of_float_range(L, eta, z, n_terms):
    # exact integer sums beyond 1.8e308 must not surface as OverflowError;
    # the float pass raises first on these inputs, so the count is given.
    # (eval_g takes Steed's method at the real point: see
    # test_overflowing_terms_raise_non_convergence)
    dps = _working_dps(L, eta, abs(z))
    with pytest.raises(NonConvergence, match="leaves the float range"):
        _sum_pair_fixed(L, eta, z, n_terms, dps)
    with pytest.raises(NonConvergence):       # and so does the loop it pins
        sum_pair_fixed_reference(L, eta, z, n_terms, dps)


def test_fixed_point_kernel_is_the_reference_loop_bit_for_bit():
    # the kernel divides through the norm of C_n and takes sum n t_n from
    # the sum of the partial sums; (S, z S', p) must stay what the loop as
    # first written gives, at real and complex L (near -1 too), eta = 0 and
    # not, real and complex z, from one term up, at 17 to 80 digits
    rng = random.Random(33)
    for i in range(2000):
        L = rng.choice([rng.uniform(-0.999, 60.0),
                        -1.0 + 10.0 ** rng.uniform(-9.0, -1.0)])
        if rng.random() < 0.4:
            L = complex(L, rng.uniform(-3.0, 3.0))
        eta = rng.choice([0.0, rng.uniform(-5.0, 5.0)])
        r = 10.0 ** rng.uniform(-2.0, 1.6)
        z = rng.choice([r, -r, r * cmath.exp(1j * rng.uniform(-3.2, 3.2))])
        n = 1 + i % 3 if i < 30 else rng.randint(1, 150)
        dps = rng.randint(17, 80)
        got = _sum_pair_fixed(L, eta, z, n, dps)
        want = sum_pair_fixed_reference(L, eta, z, n, dps)
        assert got == want, (L, eta, z, n, dps)
        assert [type(x) for x in got] == [type(x) for x in want]


def test_float_terms_are_the_reference_loop_bit_for_bit():
    # _terms holds t_{n-1}, t_{n-2} and tol * scale in locals; the term
    # list, scale and stop must stay what the loop as first written gives,
    # on a sample shaped like the benchmark's eval points (L in (-1, 200],
    # eta in [-2, 3], |z| <= 35, real and complex), and both must raise
    # where the float sum overflows
    rng = random.Random(34)
    for _ in range(2000):
        L = rng.uniform(-0.99, 200.0)
        if rng.random() < 0.25:
            L = complex(L, rng.uniform(-2.0, 2.0))
        eta = rng.choice([0.0, rng.uniform(-2.0, 3.0)])
        r = rng.uniform(0.01, 35.0)
        z = rng.choice([r, -r, r * cmath.exp(1j * rng.uniform(-3.2, 3.2))])
        tol = rng.choice([1e-16, 1e-14, 1e-12, 1e-6])
        ts, scale = _terms(L, eta, z, tol)
        ts_ref, scale_ref = terms_reference(L, eta, z, tol)
        assert (ts, scale) == (ts_ref, scale_ref), (L, eta, z, tol)
        assert [type(t) for t in ts] == [type(t) for t in ts_ref]
    for L, eta, z in [(0.0, 0.0, 710.0), (0.0, 0.0, 709j),
                      (0.3 + 0.2j, -2.0, 700 + 300j)]:
        for loop in (_terms, terms_reference):
            with pytest.raises(NonConvergence):
                loop(L, eta, z, 1e-14)


def _exact_stop(L, eta, z, tol):
    """Where the stopping rule of ``_terms`` stops when it runs in exact
    rationals of the float inputs: (term count, |t_n| / (tol * peak) for
    every n)."""
    L, eta, z, tol = Fr(L), Fr(eta), Fr(z), Fr(tol)
    ts = [Fr(1), eta * z / (L + 1)]
    S = ts[0] + ts[1]
    peak = max(Fr(1), abs(S))
    ratios = [None, None]
    n_safe = _safe_index(float(L), float(eta), float(z))
    streak = 0
    for n in range(2, 1000):
        ts.append((2 * eta * z * ts[-1] - z * z * ts[-2])
                  / (n * (n + 2 * L + 1)))
        S += ts[-1]
        peak = max(peak, abs(S))
        ratios.append(abs(ts[-1]) / (tol * peak))
        streak = streak + 1 if ratios[-1] <= 1 and n >= n_safe else 0
        if streak == 3:
            return n + 1, ratios
    raise AssertionError("no stop within 1000 terms")


@given(st.floats(0.0, 10.0), st.floats(-2.0, 2.0), st.floats(20.0, 40.0))
@settings(max_examples=40, deadline=None)
def test_float_pass_stops_where_the_exact_rule_stops(L, eta, z):
    # the float pass alone decides the count the fixed-point retry re-sums;
    # on retried outer points it must be the count the same rule gives in
    # exact arithmetic, or one off only where a term sits on the boundary
    assume(_series_pair(L, eta, z, 1e-14)[4] > 0)
    n_float = len(_terms(L, eta, z, 1e-14)[0])
    n_exact, ratios = _exact_stop(L, eta, z, 1e-14)
    if n_float != n_exact:
        assert abs(n_float - n_exact) == 1
        lo, hi = sorted((n_float, n_exact))
        assert any(abs(r - 1) <= 1e-9 for r in ratios[max(2, lo - 4):hi])


@given(st.floats(-0.9, 4.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_g_matches_direct_polynomial(L, eta, z):
    assume(math.isfinite(L) and math.isfinite(eta) and math.isfinite(z))
    a = coulomb_series_coeffs(L, eta, 60)
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
    with pytest.raises(GateViolation):
        CoulombParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        CoulombParams(1.0, 1j)
    eta = CoulombParams(1.0, 2 + 0j).eta           # a real eta, demoted
    assert type(eta) is float and eta == 2.0
    with pytest.raises(ValueError, match="real"):
        eval_bessel_j(1 + 1j, 2.0)
    with pytest.raises(ValueError):
        eval_g(CoulombParams(0.0, 0.0), 1.0, tol=1e-3)
    with pytest.raises(GammaOverflow):
        eval_F(CoulombParams(0.0, 0.0), 1e308)
    with pytest.raises(NonConvergence):
        eval_g(CoulombParams(0.0, 0.0), 1e200)


@pytest.mark.parametrize("op, args", [
    (CoulombParams, (-2.0, 0.0)),
    (eval_bessel_j, (-1.5, 1.0)),
])
def test_an_order_at_or_below_minus_one_is_a_gate_violation(op, args):
    # the class the radii raise for the same order, not a subclass of it
    with pytest.raises(GateViolation) as exc:
        op(*args)
    assert type(exc.value) is GateViolation


@pytest.mark.parametrize("tol", [1.0, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("op, args", [
    (eval_bessel_j, (1.0, 5.0)),
    (eval_dini, (1.0, 0.5, 5.0)),
])
def test_bessel_type_evaluators_gate_tol(op, args, tol):
    # the tol range of the Coulomb evaluators: tol = 1 returned
    # J_1(5) = -0.32337 against -0.32758, and tol = -1 ran the Dini series
    # to its cap of 10000 terms
    with pytest.raises(ValueError, match="tol"):
        op(*args, tol=tol)


P1 = CoulombParams(1.0, 0.0)


@pytest.mark.parametrize("op, args", [
    (CoulombParams, (math.nan, 0.0)),
    (CoulombParams, (-math.inf, 0.0)),
    (CoulombParams, (complex(math.inf, 1.0), 0.0)),
    (CoulombParams, (1.0, math.nan)),
    (CoulombParams, (1.0, math.inf)),
    (eval_g, (P1, math.nan)),
    (eval_g, (P1, complex(1.0, math.inf))),
    (eval_F_with_derivative, (P1, math.inf)),
    (eval_f_normalized, (P1, -math.inf)),
    (eval_bessel_j, (1.0, math.inf)),
    (eval_bessel_j, (math.nan, 1.0)),
    (eval_dini, (1.0, 0.0, math.nan)),
    (eval_dini, (1.0, math.inf, 1.0)),
])
def test_non_finite_inputs_are_gated(op, args, monkeypatch):
    # a NaN or infinite L, eta or z used to run the series to its cap of
    # 10000 terms and raise NonConvergence; the gate must raise first
    def no_series(*_):
        raise AssertionError("the series ran")

    monkeypatch.setattr(specfun, "_series_pair", no_series)
    with pytest.raises(GateViolation, match="finite"):
        op(*args)


@pytest.mark.parametrize("L", [1.5, -0.5, 0.3 + 0.2j])
@pytest.mark.parametrize("fn", [eval_g, eval_f_normalized])
def test_normalized_forms_at_zero(fn, L, monkeypatch):
    # g(0) = f(0) = 0 and g'(0) = f'(0) = 1 at every order, without the
    # series; its precision sizing takes log |z| and needs z != 0
    near = fn(CoulombParams(L, -0.7), 1e-9)
    assert abs(near.value) < 2e-9
    assert near.derivative == pytest.approx(1.0, abs=1e-8)

    def no_series(*_):
        raise AssertionError("the series ran")

    monkeypatch.setattr(specfun, "_series_pair", no_series)
    res = fn(CoulombParams(L, -0.7), 0.0)
    assert (res.value, res.derivative) == (0.0, 1.0)
    assert type(res.value) is type(res.derivative) is float
    assert (res.terms_used, res.est_error, res.retry_bits) == (1, 0.0, 0)


def test_complex_L_demotion_and_eval():
    p = CoulombParams(complex(1.0, 0.0), -1.0)
    assert not p.is_complex                       # demoted to real
    pc = CoulombParams(0.2 + 0.1j, 0.0)
    assert pc.is_complex
    v = eval_g(pc, 0.5).value
    assert isinstance(v, complex) and abs(v) > 0


def test_terms_at_order_minus_one():
    # L = -1 is allowed at eta = 0, where t_1 = 0 and S(z) = cos z
    ts, scale = _terms(-1.0, 0.0, 2.0, 1e-15)
    assert ts[1] == 0.0 and scale == 1.0
    assert math.fsum(ts) == pytest.approx(math.cos(2.0), rel=1e-15)
    assert max(abs(t) for t in ts[-3:]) <= 1e-15


def test_non_convergence_at_fixed_cap():
    # sin z at z = 720: the float terms overflow, and the loop raises at the
    # term where the running sum turns infinite instead of running on to
    # the fixed cap of 10000 terms; eval_F takes Steed's method there
    with pytest.raises(NonConvergence, match="within 10000 terms"):
        _series_pair(0.0, 0.0, 720.0, 1e-14)
    res = eval_F_with_derivative(CoulombParams(0, 0), 720.0)
    assert res.method == "steed"
    assert abs(res.value - math.sin(720.0)) <= 1e-13


@pytest.mark.parametrize("L, eta, z", [
    (0.0, 0.0, 710.0), (0.0, 0.0, 709j), (2.0, 1.5, 800.0),
    (0.3 + 0.2j, -2.0, 700 + 300j),
])
def test_overflowing_terms_raise_non_convergence(L, eta, z):
    # the exact final sums must not turn overflowed terms into an
    # OverflowError or ValueError from math.fsum; the error names the term
    # where the running sum overflowed, which lies far below the cap.  The
    # real points go to the series directly, since eval_g takes Steed's
    # method there, and must give the mpmath value
    real = isinstance(z, float)
    with pytest.raises(NonConvergence, match="within 10000 terms") as exc:
        if real:
            _series_pair(L, eta, z, 1e-12)
        else:
            eval_g(CoulombParams(L, eta), z)
    n = int(re.search(r"overflowed at term (\d+)", str(exc.value)).group(1))
    assert 2 <= n < 1000
    if real:
        res = eval_g(CoulombParams(L, eta), z)
        F, _, env, _, cxl = _mp_refs(L, eta, z)
        assert res.method == "steed"
        assert abs(res.value - F / cxl) <= 1e-13 * env / cxl


def test_F_far_beyond_turning_point_is_sin():
    assert eval_F(CoulombParams(0, 0), 400.0) == pytest.approx(
        math.sin(400.0), rel=1e-10)


def test_steed_cf1_is_the_radii_kernel_plus_a_sign():
    # the one CF1 kernel, at Steed's offset d = L + 1: its sign bit must be
    # the sign of F, also past many zeros
    for L, eta, x in [(-0.5, 0.0, 3.0), (0.0, 0.0, 400.0), (7.0, -3.0, 55.5),
                      (2.0, 1.5, 800.0), (-0.9, 3.0, 17.0), (25.0, 0.5, 64.0),
                      (-1.25, 0.0, 100.0), (40.0, 2.0, 41.0)]:
        with mp.workdps(20):
            F = mp.coulombf(L, eta, x)
        assert specfun._cf1(L, eta, L + 1.0, x)[1] == (F < 0), (L, eta, x)


def _turn(L, eta):
    """The turning point eta + sqrt(eta^2 + L(L+1)), at least 0."""
    return max(eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0)), 0.0)


def _outer_xs(L, eta):
    """Real points from just past the turning point to 3000."""
    tp = _turn(L, eta)
    xs = {tp + 1e-3, tp + 1.0, max(tp, specfun._STEED_MIN_Z) + 1e-3, 30.0,
          3000.0}
    return sorted(x for x in xs if x > tp)


def _check_F_g(L, eta, x, rel, drel):
    """F, F', g and g' at real x against mpmath, to ``rel`` of the
    envelope sqrt(F^2 + G^2) (scaled by 1/(C x^L) for g) and ``drel`` of
    the derivative's; a Steed value must lie within its est_error."""
    p = CoulombParams(L, eta)
    rF, rg = eval_F_with_derivative(p, x), eval_g(p, x)
    F, dF, env, denv, cxl = _mp_refs(L, eta, x)
    steed = max(_turn(L, eta), specfun._STEED_MIN_Z) < x
    assert rF.method == rg.method == ("steed" if steed else "series"), x
    dg, dgenv = (dF - L * F / x) / cxl, (denv + abs(L) / x * env) / cxl
    for got, want, scale in ((rF.value, F, rel * env),
                             (rF.derivative, dF, drel * denv),
                             (rg.value, F / cxl, rel * env / cxl),
                             (rg.derivative, dg, drel * dgenv)):
        assert abs(got - want) <= scale, (x, got, want)
    if steed:
        assert abs(rF.value - F) <= rF.est_error, x
        assert abs(rg.value - F / cxl) <= rg.est_error, x


def _check_J(nu, x, rel, drel):
    """J_nu and J_nu' at real x against mpmath, to ``rel`` and ``drel`` of
    sqrt(J^2 + Y^2) and sqrt(J'^2 + Y'^2); a Steed value must lie within
    its est_error."""
    res = eval_bessel_j(nu, x)
    with mp.workdps(20):
        J, Y = mp.besselj(nu, x), mp.bessely(nu, x)
        dJ, dY = (mp.besselj(nu, x, derivative=1),
                  mp.bessely(nu, x, derivative=1))
        env, denv = float(mp.hypot(J, Y)), float(mp.hypot(dJ, dY))
        J, dJ = float(J), float(dJ)
    assert abs(res.value - J) <= rel * env, (nu, x)
    assert abs(res.derivative - dJ) <= drel * denv, (nu, x)
    if res.method == "steed":
        assert abs(res.value - J) <= res.est_error, (nu, x)


# F' and J' reach 1.05e-13 and 1.46e-13 of their envelope at x = 3000: CF1
# rounds its order L + 1 + k once a term, alike across each binade of k,
# which leaves x F'/F some 3e-13 relative there at a non-dyadic L
@pytest.mark.parametrize("L", [-0.9, 0.0, 7.0, 25.0, 40.0])
@pytest.mark.parametrize("eta", [-3.0, -0.5, 0.0, 0.5, 2.0, 3.0])
def test_outer_real_points_match_mpmath(L, eta):
    # past the turning point the series cancels against its peak partial
    # sum (defect A); Steed's method is right to 1e-13 of the envelope
    for x in _outer_xs(L, eta):
        _check_F_g(L, eta, x, 1e-13, 2e-13)
        if eta == 0.0:
            _check_J(L + 0.5, x, 1e-13, 2e-13)


@pytest.mark.parametrize("nu", [-0.99, -0.9, -0.75, -0.5])
def test_bessel_j_past_the_turning_point_below_order_minus_half(nu):
    # J_nu = sqrt(2/(pi x)) F_{nu-1/2}(0, x) at the orders nu - 1/2 <= -1
    # that CF1 and CF2 allow at eta = 0 and CoulombParams refuses
    for x in (0.5, 4.5, 30.0, 3000.0):
        _check_J(nu, x, 1e-13, 2e-13)
    res = eval_bessel_j(nu, 30.0)
    assert res.method == "steed" and res.terms_used > 2
    with mp.workdps(20):
        d = 30 * mp.besselj(nu, 30, derivative=1) + 0.5 * mp.besselj(nu, 30)
    dini = eval_dini(nu, 0.5, 30.0)
    assert dini.method == "steed"
    assert abs(dini.value - float(d)) <= 1e-13


def test_est_error_covers_mpmath_with_the_prefactor_rounding():
    # F = C z^(L+1) S and J = (z/2)^nu S / Gamma(nu + 1) glue their
    # prefactor on in log space, and its rounding, eps times the terms of
    # the exponent, is part of est_error: every F and J record of a fixed
    # sample (L in (-0.9, 30), |eta| <= 3, |z| <= 40, half of z and of F's L
    # complex) lies within its est_error of 30-digit mpmath.  The
    # exponent's rounding alone puts about a third of this sample's series
    # records outside a bound that leaves it out
    rng = random.Random(35)
    seen = {"series": 0, "fixed": 0, "steed": 0, "continuation": 0}
    with mp.workdps(30):
        for _ in range(500):
            L, eta = rng.uniform(-0.9, 30.0), rng.uniform(-3.0, 3.0)
            r = rng.uniform(0.1, 40.0)
            z = rng.choice([r, r * cmath.exp(1j * rng.uniform(-3.2, 3.2))])
            if rng.random() < 0.5:
                res, ref = eval_bessel_j(L + 0.5, z), mp.besselj(L + 0.5, z)
            else:
                if rng.random() < 0.5:
                    L = complex(L, rng.uniform(-3.0, 3.0))
                res = eval_F_with_derivative(CoulombParams(L, eta), z)
                ref = mp.coulombf(L, eta, z)
            seen[res.method] += 1
            assert abs(res.value - ref) <= res.est_error, (L, eta, z)
    assert seen["series"] >= 300 and seen["steed"] >= 50, seen


@pytest.mark.parametrize("L", [-0.99, -0.999])
@pytest.mark.parametrize("eta", [-3.0, 0.5, 2.0, 3.0])
def test_outer_points_near_order_minus_one(L, eta):
    # CF1 cancels d + x eta/(L + 1) against its fraction near L = -1 with
    # eta > 0 (CHANGES.md FOUND #13): 7.0e-13 of the envelope just past the
    # turning point at eta = 3; a step down the order ladder would mend it
    for x in _outer_xs(L, eta):
        _check_F_g(L, eta, x, 1e-12, 1e-12)


def test_f_past_the_turning_point_matches_mpmath():
    # f = z (g/z)^(1/(L+1)) is read off g, so past the turning point it
    # takes Steed's method: the series alone is off by up to 1.7e13
    # relative on these points.  At points where |F| >= 0.1 of the envelope, f and
    # f' = f F'/((L+1) F) against 30-digit mpmath, on the principal branch
    n = 0
    for L in (-0.5, 0.0, 1.0, 3.0, 7.5):
        for eta in (-2.0, -0.5, 0.0, 0.5, 2.0):
            lo = max(_turn(L, eta), 4.0)
            for x in (lo + 0.37 * (60.0 - lo), lo + 0.83 * (60.0 - lo)):
                with mp.workdps(30):
                    F, G = mp.coulombf(L, eta, x), mp.coulombg(L, eta, x)
                    if abs(F) < 0.1 * mp.hypot(F, G):
                        continue
                    a = (L + 1) ** 2 / mp.mpf(x) + eta
                    b = mp.sqrt((L + 1) ** 2 + mp.mpf(eta) ** 2)
                    dF = (a * F - b * mp.coulombf(L + 1, eta, x)) / (L + 1)
                    logC = (L * mp.log(2) - mp.pi * eta / 2
                            + mp.re(mp.loggamma(L + 1 + 1j * eta))
                            - mp.loggamma(2 * L + 2))
                    S = F / (mp.exp(logC) * mp.mpf(x) ** (L + 1))
                    f = x * mp.power(mp.mpc(S), 1 / mp.mpf(L + 1))
                    f, df = complex(f), complex(f * dF / ((L + 1) * F))
                res = eval_f_normalized(CoulombParams(L, eta), x)
                assert res.method == "steed", (L, eta, x)
                assert abs(res.value - f) <= 1e-12 * abs(f), (L, eta, x)
                assert abs(res.derivative - df) <= 1e-12 * abs(df), (L, eta, x)
                n += 1
    assert n >= 25


def test_steed_g_est_error_covers_the_prefactor_at_large_negative_eta():
    # g = F / (C z^L) reads log C, where pi eta / 2 and
    # Re log Gamma(L + 1 + i eta) cancel at large |eta|; its rounding is
    # eps times their moduli, not times the value of log C.  A bound that
    # left them out missed (L, eta, z) = (0.907, -293.8, 12.4) by 2.47x
    rng = random.Random(34)
    pts = [(0.9069939732728832, -293.7966730623718, 12.41810820164115)]
    for _ in range(80):
        L, eta = rng.uniform(-0.9, 30.0), -10.0 ** rng.uniform(1.5, 2.5)
        pts.append((L, eta, max(_turn(L, eta), 4.0) + rng.uniform(0.5, 36.0)))
    for L, eta, z in pts:
        res = eval_g(CoulombParams(L, eta), z)
        assert res.method == "steed", (L, eta, z)
        with mp.workdps(50):
            L_, eta_, z_ = mp.mpf(L), mp.mpf(eta), mp.mpf(z)
            logC = (L_ * mp.log(2) - mp.pi * eta_ / 2
                    + mp.re(mp.loggamma(L_ + 1 + 1j * eta_))
                    - mp.loggamma(2 * L_ + 2))
            g = mp.coulombf(L_, eta_, z_) / (mp.exp(logC) * z_ ** L_)
        assert abs(res.value - float(g)) <= res.est_error, (L, eta, z)


# ---------------------------------------------------------------------------
# Steed's values continued to complex z near the real axis
# ---------------------------------------------------------------------------

def _continuation_points(n):
    """n seeded (L, eta, z), z = x + iy in the continuation's sector: L in
    (-0.9, 60), eta = 0 at every third point and in (-10, 10) otherwise, x
    from just past max(turning point, 4) (every fifth point) to about 200,
    and |y| up to 0.6 x in both half-planes (every seventh point on the
    edge).  |eta| stays at 10 or below, where Steed's est_error, which the
    continuation scales, holds."""
    rng = random.Random(35)
    pts = []
    for i in range(n):
        L = rng.uniform(-0.9, 60.0)
        eta = 0.0 if i % 3 == 0 else rng.uniform(-10.0, 10.0)
        x0 = max(_turn(L, eta), specfun._STEED_MIN_Z)
        x = (x0 * (1.0 + 1e-9) if i % 5 == 0
             else x0 + (200.0 - x0) * rng.random() ** 2)
        y = 0.6 * x if i % 7 == 0 else rng.uniform(0.0, 0.6) * x
        pts.append((L, eta, complex(x, y if i % 2 else -y)))
    return pts


def _mp_continuation_refs(L, eta, z):
    """(F, F', g, g', f, f') at real L and complex z from 30-digit mpmath;
    F' from the order ladder of ``_mp_refs``, g = F / (C z^L) and f read
    off g as ``eval_f_normalized`` reads it."""
    with mp.workdps(30):
        L_, z_ = mp.mpf(L), mp.mpc(z)
        F, F1 = mp.coulombf(L_, eta, z_), mp.coulombf(L_ + 1, eta, z_)
        a, b = (L_ + 1) ** 2 / z_ + eta, mp.sqrt((L_ + 1) ** 2 + eta ** 2)
        dF = (a * F - b * F1) / (L_ + 1)
        logC = (L_ * mp.log(2) - mp.pi * eta / 2
                + mp.re(mp.loggamma(L_ + 1 + 1j * eta))
                - mp.loggamma(2 * L_ + 2))
        czl = mp.exp(logC) * z_ ** L_
        g, dg = F / czl, (dF - L_ * F / z_) / czl
        f = z_ * mp.exp(mp.log(g / z_) / (L_ + 1))
        df = f / z_ * (1 + (z_ * dg / g - 1) / (L_ + 1))
        return tuple(complex(v) for v in (F, dF, g, dg, f, df))


def test_continuation_matches_mpmath_within_its_est_error():
    # F, F', g, g', f, f', J and J' in the sector 0 < |Im z| <= 0.6 Re z
    # past the turning point, against 30-digit mpmath: every value and
    # derivative within 1e-12 relative, and F, g and J within their
    # est_error.  Measured worst: 1.1e-13 relative (g at large L, the
    # prefactor's rounding), 0.26 of est_error
    for L, eta, z in _continuation_points(400):
        p = CoulombParams(L, eta)
        rF, rg = eval_F_with_derivative(p, z), eval_g(p, z)
        rf = eval_f_normalized(p, z)
        F, dF, g, dg, f, df = _mp_continuation_refs(L, eta, z)
        recs = [(rF, F, dF), (rg, g, dg), (rf, f, df)]
        if eta == 0.0:
            with mp.workdps(30):
                J = complex(mp.besselj(L + 0.5, z))
                dJ = complex(mp.besselj(L + 0.5, z, derivative=1))
            recs.append((eval_bessel_j(L + 0.5, z), J, dJ))
        for res, want, dwant in recs:
            assert res.method == "continuation", (L, eta, z)
            assert res.retry_bits == 0
            assert abs(res.value - want) <= 1e-12 * abs(want), (L, eta, z)
            assert abs(res.derivative - dwant) <= 1e-12 * abs(dwant), \
                (L, eta, z)
        for res, want, _ in recs[:2] + recs[3:]:
            assert abs(res.value - want) <= res.est_error, (L, eta, z)


#: Steed's records at real x, as they were before the continuation:
#: (L, eta, x, F, F', g, g'), and (nu, x, J, J')
STEED_RECORDS = [
    (-0.5, 0.0, 4.5, -0.8522202066443918, 0.5196247944601057,
     -1.4424412904330464, 0.7192294346700457),
    (0.0, -1.5, 25.995, 0.6351351266693551, 0.7792013323931576,
     0.20687739756726695, 0.25380291068417327),
    (3.7, 2.5, 30.0, -0.725150673517366, 0.6901322824441448,
     -0.1216089190648464, 0.1307347126444342),
    (25.0, -3.0, 150.0, 0.7921648333566046, 0.6091093318362498,
     1.0015525185301551e-23, 6.031857486186791e-24),
    (7.0, 0.0, 40.0, -0.999224390878146, -0.13674631386200187,
     -1.2362382940184182e-05, 4.7159452395529895e-07),
    (0.3, 1.7, 200.0, 0.9178864369836102, 0.4040519615076916,
     11.630489653258397, 5.102274928499992),
]
STEED_J_RECORDS = [
    (0.0, 4.5, -0.3205425089851215, 0.23106043192337053),
    (7.5, 40.0, -0.12605877787102174, -0.01567571886519189),
]


def test_real_z_keeps_steeds_method_bit_for_bit():
    for L, eta, x, *want in STEED_RECORDS:
        p = CoulombParams(L, eta)
        rF, rg = eval_F_with_derivative(p, x), eval_g(p, x)
        assert rF.method == rg.method == "steed"
        got = [rF.value, rF.derivative, rg.value, rg.derivative]
        assert list(map(repr, got)) == list(map(repr, want)), (L, eta, x)
    for nu, x, *want in STEED_J_RECORDS:
        rJ = eval_bessel_j(nu, x)
        assert rJ.method == "steed"
        got = [rJ.value, rJ.derivative]
        assert list(map(repr, got)) == list(map(repr, want)), (nu, x)


@pytest.mark.parametrize("L, eta, z", [
    (3.0, 1.0, complex(30.0, 18.3)),           # |y| just above 0.6 x
    (3.0, 1.0, complex(30.0, -18.3)),
    (3.0, 1.0, complex(4.6055, 0.5)),          # x just below the turning
    (2.0, 0.0, complex(3.99, 1.0)),            # point, and below 4
    (0.0, 1.5, complex(-32.835, 3.295)),       # the left half-plane
    (0.5 + 0.1j, -1.5, complex(28.0, 1.0)),    # complex L
])
def test_outside_the_sector_keeps_the_series(L, eta, z):
    # every other input keeps its path; Im z = 0 must not divide by y
    p = CoulombParams(L, eta)
    for res in (eval_F_with_derivative(p, z), eval_g(p, z)):
        assert res.method in ("series", "fixed"), (L, eta, z)
    if eta == 0.0:
        assert eval_bessel_j(L + 0.5, z).method == "series"


@pytest.mark.parametrize("z", [complex(25.995, 0.0), complex(25.995, -0.0)])
def test_real_valued_complex_z_takes_steeds_method(z):
    # a complex z with Im z = 0 past the turning point is its real part:
    # F, g, f and J take Steed's method and return the float call's values,
    # where the series and its retry were 3.3e-5 off
    p, x = CoulombParams(0.0, -1.5), z.real
    refs = _mp_continuation_refs(0.0, -1.5, x)
    for op, want in ((eval_F_with_derivative, refs[0:2]),
                     (eval_g, refs[2:4]), (eval_f_normalized, refs[4:6])):
        res = op(p, z)
        assert res.method == "steed", op
        assert repr(res) == repr(op(p, x)), op
        for got, ref in zip((res.value, res.derivative), want):
            assert abs(got - ref) <= 1e-12 * abs(ref), (op, got, ref)
    res = eval_bessel_j(2.5, complex(30.0, z.imag))
    assert res.method == "steed"
    assert repr(res) == repr(eval_bessel_j(2.5, 30.0))
    with mp.workdps(30):
        want = (mp.besselj(2.5, 30), mp.besselj(2.5, 30, derivative=1))
    for got, ref in zip((res.value, res.derivative), map(float, want)):
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


@pytest.mark.parametrize("L, eta, z", [
    (0.0, 0.0, complex(2000.0, 800.0)), (5.0, 0.0, complex(2000.0, 705.0)),
    (0.0, 0.0, complex(9000.0, -5000.0)),
])
def test_continuation_out_of_float_range_raises(L, eta, z):
    # F ~ e^|y| / 2 leaves the float range past |y| ~ 709
    for op in (eval_F_with_derivative, eval_g, eval_f_normalized):
        with pytest.raises(NonConvergence, match="leave the float range"):
            op(CoulombParams(L, eta), z)
    with pytest.raises(NonConvergence, match="leave the float range"):
        eval_bessel_j(L + 0.5, z)


def test_continuation_near_the_float_range_matches_sin():
    # 3005 Taylor terms at |y| = 690, where sin z is 1e299
    res = eval_F_with_derivative(CoulombParams(0.0, 0.0),
                                 complex(2000.0, 690.0))
    with mp.workdps(30):
        ref = complex(mp.sin(mp.mpc(2000, 690)))
    assert res.method == "continuation"
    assert abs(res.value - ref) <= min(1e-12 * abs(ref), res.est_error)


def _loggamma_points(rng, n):
    """n points w with Re w > 0 in eight strata: both sides of |w| = 14,
    |Im w| up to 600, Re w near 0, near the roots 1 and 2 of
    Re log Gamma, the orders of the prefactor, and log-uniform moduli."""
    strata = [
        lambda: cmath.rect(rng.uniform(12.0, 16.0), rng.uniform(-1.5, 1.5)),
        lambda: complex(rng.uniform(0.0, 30.0), rng.uniform(-600.0, 600.0)),
        lambda: complex(10.0 ** rng.uniform(-8.0, -1.0),
                        rng.uniform(-30.0, 30.0)),
        lambda: complex(rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)),
        lambda: complex(rng.uniform(0.5, 2.5), rng.uniform(-0.2, 0.2)),
        lambda: complex(rng.uniform(0.0, 250.0), rng.uniform(-3.0, 3.0)),
        lambda: complex(rng.uniform(0.0, 20.0), rng.uniform(-20.0, 20.0)),
        lambda: complex(10.0 ** rng.uniform(-3.0, 2.5),
                        rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0,
                                                                     2.8)),
    ]
    ws = [strata[i % len(strata)]() for i in range(n)]
    return [complex(abs(w.real) or 1e-9, w.imag) for w in ws]


def test_loggamma_matches_mpmath_on_its_branch():
    # the prefactor's log Gamma: Stirling at |w| >= 14, CPython's Lanczos
    # sum below.  Within 2e-15 of max(1, |ref|) of 40-digit mpmath, on
    # mpmath's branch (a 2 pi jump in Im would show as an error of ~6);
    # scipy.special.loggamma reaches 4.7e-15 on these points (1.2e-15 here)
    rng = random.Random(14)
    ws = _loggamma_points(rng, 4000)
    assert sum(abs(w) < 14.0 for w in ws) >= 1000
    assert sum(abs(w) >= 14.0 for w in ws) >= 1000
    assert max(abs(w.imag) for w in ws) > 550.0
    assert min(w.real for w in ws) < 1e-7
    with mp.workdps(40):
        for w in ws:
            ref = mp.loggamma(w)
            err = abs(mp.mpc(specfun._loggamma(w)) - ref)
            assert err <= 2e-15 * max(1.0, abs(ref)), w


@pytest.mark.parametrize("w", [-0.5 + 1j, -3.7 - 0.2j, -12.25 + 40j,
                               1e-300 - 2j])
def test_loggamma_left_of_the_imaginary_axis(w):
    # complex orders may put L + 1 +- i eta and 2L + 2 in Re w <= 0
    with mp.workdps(40):
        ref = mp.loggamma(w)
    assert abs(specfun._loggamma(w) - complex(ref)) <= 1e-13 * max(1, abs(ref))


def test_a_pole_of_the_prefactor_gives_nan_not_an_error():
    # L + 1 + i eta = -1 at L = -2 - 0.5i, eta = 0.5: Gamma has a pole there
    assert cmath.isnan(specfun._loggamma(complex(-1.0, 0.0)))
    res = eval_F_with_derivative(CoulombParams(-2 - 0.5j, 0.5), 1.5)
    assert cmath.isnan(res.value)


@pytest.mark.parametrize("L, eta", [(0.0, 0.0), (0.4, -2.0), (7.3, 2.5),
                                    (-0.95, 0.7), (150.0, -300.0),
                                    (0.3 + 0.8j, 1.5), (-2.5 + 1j, -0.5)])
def test_log_prefactor_matches_mpmath(L, eta):
    lc, scale = specfun._log_prefactor(L, eta)
    with mp.workdps(40):
        L_ = mp.mpc(L)
        a = L_ * mp.log(2) - mp.pi * eta / 2
        b = (mp.loggamma(L_ + 1 + 1j * eta)
             + mp.loggamma(L_ + 1 - 1j * eta)) / 2
        c = mp.loggamma(2 * L_ + 2)
        ref = a + b - c
        ref_scale = abs(mp.re(a)) + abs(mp.re(b)) + abs(mp.re(c))
    assert abs(lc - complex(ref)) <= 8 * specfun._EPS * max(1.0, ref_scale)
    assert scale == pytest.approx(float(ref_scale), rel=1e-13)


def test_log_prefactor_at_huge_order_is_not_an_error():
    # math.lgamma raises OverflowError past 2L + 2 ~ 2.6e305; its log Gamma
    # terms are inf there instead, as they were from scipy
    lc, scale = specfun._log_prefactor(1e306, 0.0)
    assert not cmath.isfinite(lc) and scale == math.inf


@pytest.mark.parametrize("op, args", [
    (eval_F_with_derivative, (CoulombParams(1e306, 0.0), 1.0)),
    (eval_F_with_derivative, (CoulombParams(1e305, 1.0), 1.0)),
    (eval_F_with_derivative, (CoulombParams(2e305, 1.0), 1.0 + 1j)),
    (eval_F, (CoulombParams(1e306, 0.0), 0.5)),
    (eval_bessel_j, (1e306, 1.0)),
    (eval_bessel_j, (1e306, 1.0 + 1j)),
])
def test_a_log_prefactor_that_is_not_finite_raises_gamma_overflow(op, args):
    # past L ~ 1.3e305 the terms of log C overflow: log C is inf - inf, or
    # a finite remnant beside a scale of inf, and F came out NaN, or 0.0
    # with est_error NaN; Bessel J raised a bare OverflowError from lgamma
    with pytest.raises(GammaOverflow, match="overflows"):
        op(*args)


def test_steed_g_whose_scale_overflows_raises_gamma_overflow():
    # g = F / (C z^L) ~ e^(pi eta) leaves the float range at eta = 300; F
    # itself is fine (the series overflowed its running sum here instead)
    with pytest.raises(GammaOverflow, match="overflows"):
        eval_g(CoulombParams(0.0, 300.0), 700.0)
    res = eval_F_with_derivative(CoulombParams(0.0, 300.0), 700.0)
    # mpmath's coulombf at 20 digits (it takes ~45 s there)
    assert res.method == "steed"
    assert abs(res.value - 1.6248785141197847973) <= 1e-13


def test_eta_zero_far_from_origin():
    # sin z needs ~|z| terms; the stop rule must not trigger early on the
    # leading zero terms of the even/odd split.  (An early stop would lose
    # the value entirely; the permitted error here is cancellation noise,
    # term peak ~ e^20 / sqrt(40 pi) ~ 4e7 times machine epsilon.)
    p = CoulombParams(0.0, 0.0)
    assert eval_F(p, 20.0) == pytest.approx(math.sin(20.0), abs=2e-8)


# ---------------------------------------------------------------------------
# huge orders: the tail index of the series does not overflow
# ---------------------------------------------------------------------------

def test_safe_index_at_huge_order():
    # (2L + 1)^2 leaves the float range near L = 6.7e153; the index does not
    assert _safe_index(1e200, 0.0, 1.0) == 2
    assert _safe_index(1e160, 3.0, 50.0) == 2
    # unchanged where the square is still finite
    assert [_safe_index(*a) for a in ((0.5, 1.0, 30.0), (-0.9, -2.0, 35.0),
                                      (1e100, 0.0, 1.0), (6e153, 0.0, 1.0))
            ] == [43, 53, 2, 2]


def test_g_at_huge_order_is_one_at_one():
    res = eval_g(CoulombParams(1e200, 0), 1.0)
    assert res.value == 1.0 and res.method == "series"


def test_F_with_derivative_at_huge_order_returns_a_value():
    res = eval_F_with_derivative(CoulombParams(1e160, 0), 1.0)
    assert res.value == 0.0 and res.derivative == 0.0


def test_bessel_j_at_huge_order_returns_a_value():
    assert eval_bessel_j(1e200, 1.0).value == 0.0


def test_scan_at_huge_order_returns_a_report():
    from coulombstar.verify import starlike_scan
    rep = starlike_scan("g", 1.0, L=1e300, eta=0.0)
    assert rep.radius_scanned == 1.0 and rep.min_real_part > 0.0
