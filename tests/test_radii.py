"""Radii of starlikeness/univalence as first positive roots."""

import itertools
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _u_backward, radius_oracle

from coulombstar import radii
from coulombstar.errors import GateViolation, NonConvergence
from coulombstar.radii import (Family, RadiusQuery, radius_f, radius_g,
                               radius_phi)
from coulombstar.specfun import (CoulombParams, _cf1, _series_pair,
                                 eval_dini, eval_F_with_derivative)
from coulombstar.verify import boundary_image, companion_order, starlike_scan

# frozen references (50-digit root solves, truncated)
RF_HALF = 0.94077056394973735364900174324614   # f: L=-1/2, eta=0
RG_SIN = 1.5707963267948966192313216916398     # g: L=0, eta=0 (pi/2)
RPHI_J1 = 1.8411837813406593026436295136444    # phi: nu=1, alpha=0
RG_1 = 2.0815759778181006105376496015686       # g: L=1, eta=0
RPHI_BETA = 0.78474849668644230940174152118419  # phi: nu=.3, a=.2, beta=.5
RF_1_M05 = 2.1350258313079295874646740945348   # f: L=1, eta=-0.5
RF_2_M1 = 2.7882730564941223017032913698272    # f: L=2, eta=-1
RF_5_M1 = 6.0618127601370528333462731465673    # f: L=5, eta=-1
RF_BIG = {25: 26.9668237166703170448807, 50: 52.5623744227758205353665,
          100: 103.321527849835745655214, 200: 204.284663166751552588212}
ELL_C = 0.19282032302755091741097853660235     # companion of 0.2+0.1i
RF_COMPANION = 1.8030026117637125053549356588862
RF_100_5 = 109.590769486334766650456            # f: L=100, eta=5
RF_20_M20 = 9.8584102160585234882965380398397   # f: L=20, eta=-20
RF_ATTRACT = 8.4797898954018493048794108756805e-05  # f: L=-.95, eta=-20, b=.3
# phi, alpha = 0: first positive zero of J_nu' (mpmath besseljzero)
RPHI_BIG = {30: 32.5342235567901424086452, 100: 103.768377682542268707241,
            200: 204.740960276771232593814}
RPHI_NEG = 0.49082223744721337577760905720382   # phi: nu=-.75, a=1.5, b=.2
RG_BETA_NEAR_1 = 0.17303198713330553805217334630856  # g: L=0, eta=0, b=.99
RF_150_1 = 146.162981868498937943056            # f: L=150, eta=1, b=.3
# g: L=25.744362816149444, eta=4312.5803759295095, b=0.9999998475984988
# (40-digit CF1 at d = 1 - beta in floats)
RG_CASCADE = "8644.834910041192071493704"
# 40-digit roots for the error-bound check (mpmath CF1 at 60 digits, with
# c formed exactly from the float inputs)
ROOTS_40 = {
    ("g", 400.0, -30.0, 0.999): "0.01336367726294554259368025470002808412448",
    ("g", 0.0, 0.0, 0.5): "1.165561185207211306833917977958560669135",
    ("f", 100.0, -1.0, 0.0): "103.3215278498357456552135144225511309242",
    ("f", -0.95, -20.0, 0.3):
        "0.00008479789895401856733863643314733447603658",
    ("f", -0.9999, 30.0, 0.3): "64.09300581462395272987827794044553934443",
    ("g", 150.5, -1.3, 0.0): "16.15156368364761648142457867568027981645",
    ("g", 160.0, 1.7, 0.7): "11.69120762026339884742924113364614990074",
    ("phi", 135.5, 1.9, 0.35): "128.6741212120065871702326482368592150174",
    ("g", 2.85, 17.85, 0.9998): "38.17156038450787811139897859483645403637",
    ("f", 4.0, 17.75, 0.0): "39.52855604259406923471743863547192236172",
    # beta within 2^-30 of 1: L + beta rounds away ~1e-3 of 1 - beta
    ("g", 300.0, 0.0, 1 - 2 ** -30):
        "0.0007493914280883315858315466856019754021124",
    ("g", 1000.0, 0.0, 1 - 2 ** -30):
        "0.00136581079105194397722946734136953454313",
    # beta one ulp below 1: c = L + beta rounds to L + 1
    ("g", 5.0, 0.0, 1 - 2 ** -53):
        "0.00000003799065585131037839619860961296057996669",
    ("g", 1e5, 0.0, 0.0): "447.2158315735254133605555115931374247768",
    # strong attraction: hypot(eta, L + 1) - |eta| cancels to 0 here
    ("f", 0.0, -1e9, 0.5):
        "0.0000000004237447145839860908030911481133194818026",
    ("f", -0.9, -1e8, 0.5):
        "0.0000000000479929851463729094766021848106711992679",
    ("f", -0.9999999, -1000.0, 0.5):
        "4.999999744736504418171461288439765567126e-18",
}

RADIUS = {"f": radius_f, "g": radius_g, "phi": radius_phi}


def test_radius_f_frozen_values():
    assert radius_f(-0.5, 0.0).value == pytest.approx(RF_HALF, abs=1e-13)
    assert radius_f(1.0, -0.5).value == pytest.approx(RF_1_M05, abs=1e-12)
    assert radius_f(2.0, -1.0).value == pytest.approx(RF_2_M1, abs=1e-12)
    assert radius_f(5.0, -1.0).value == pytest.approx(RF_5_M1, abs=1e-12)


def test_radius_g_frozen_values():
    assert radius_g(0.0, 0.0).value == pytest.approx(RG_SIN, abs=1e-13)
    assert radius_g(1.0, 0.0).value == pytest.approx(RG_1, abs=1e-12)


def test_radius_phi_frozen_values():
    # alpha = 0: first positive zero of J_nu'
    assert radius_phi(1.0, 0.0).value == pytest.approx(RPHI_J1, abs=1e-12)
    assert radius_phi(0.3, 0.2, 0.5).value == pytest.approx(RPHI_BETA,
                                                            abs=1e-12)


def test_radius_large_order_frozen_values():
    for L, ref in RF_BIG.items():
        got = radius_f(float(L), -1.0).value
        assert got == pytest.approx(ref, rel=1e-12)
    for nu, ref in RPHI_BIG.items():
        assert radius_phi(float(nu), 0.0).value == pytest.approx(ref, rel=1e-12)


def test_unseeded_root_past_turning_point():
    # the root lies beyond 100, where a fixed scan ceiling used to stop
    assert radius_f(100.0, 5.0).value == pytest.approx(RF_100_5, rel=1e-12)


def test_strong_attraction():
    # at L = 20, eta = -20 the power series cancels to ~1e-8 in floats
    assert radius_f(20.0, -20.0).value == pytest.approx(RF_20_M20, abs=1e-12)
    # F vanishes near 0.0026: the search must not step over the root and the
    # pole of r F'/F at that zero
    assert radius_f(-0.95, -20.0, 0.3).value == pytest.approx(RF_ATTRACT,
                                                              rel=1e-10)


def test_radius_phi_order_below_minus_half():
    # nu = -0.75 is order L = nu - 1/2 = -1.25 of the eta = 0 kernel
    assert radius_phi(-0.75, 1.5, 0.2).value == pytest.approx(RPHI_NEG,
                                                              abs=1e-12)


def test_log_derivative_kernel():
    # CF1 against the series ratio r F'/F = L + 1 + r S'/S at small order
    # (the series itself: past the turning point the evaluators run CF1) ...
    for L in (-0.5, 0.0, 1.5, 5.0, 20.0):
        for eta in (-1.0, 0.0, 2.0):
            for r in (0.5, 2.0, 6.0):
                S, T = _series_pair(L, eta, r, 1e-14)[:2]
                assert _cf1(L, eta, L + 1.0, r)[0] == pytest.approx(
                    L + 1.0 + T / S, rel=1e-12)
    # ... and against mpmath's coulombf at large order
    with mp.workdps(30):
        for L in (100, 200):
            for eta in (-1, 0, 2):
                for r in (L // 2, L):
                    F = mp.coulombf(L, eta, r)
                    dF = mp.diff(lambda x: mp.coulombf(L, eta, x), r)
                    assert _cf1(float(L), float(eta), L + 1.0,
                                float(r))[0] \
                        == pytest.approx(float(r * dF / F), rel=1e-12)


def _cf1_reference(L, eta, d, r):
    """The CF1 loop as first written, choosing the eta branch per term, with
    the Lentz product started at the offset d in place of L + 1."""
    lam = L + 1.0
    f = (d + r * eta / lam if eta else d) or 1e-300
    C, D = f, 0.0
    r2 = r * r
    for k in range(1000 + 2 * int(r)):
        m = lam + k
        if eta:
            a = -r2 * (1.0 + eta * eta / (m * m))
            b = (2.0 * m + 1.0) * (1.0 + r * eta / (m * (m + 1.0)))
        else:
            a, b = -r2, 2.0 * m + 1.0
        D = 1.0 / (b + a * D or 1e-300)
        C = b + a / C or 1e-300
        delta = C * D
        f *= delta
        if abs(delta - 1.0) <= 2.220446049250313e-16:
            return f
    raise AssertionError("reference CF1 did not converge")


def test_log_derivative_bit_identical_to_reference_loop():
    # the kernel hoists eta^2, r eta and -r^2 and picks the eta branch once;
    # every value must stay bit for bit what the per-term loop gives, at
    # Steed's offset d = L + 1 and at the radii's kappa (1 - beta) of f, g
    # and phi
    pts = [(L, eta, r) for L in (-0.5, 0.0, 1.5, 5.0, 20.0)
           for eta in (-1.0, 0.0, 2.0) for r in (0.5, 2.0, 6.0)]
    pts += [(float(L), float(eta), float(r)) for L in (100, 200)
            for eta in (-1, 0, 2) for r in (L // 2, L)]
    rng = random.Random(3)
    pts += [(rng.uniform(-0.99, 300.0),
             rng.choice([0.0, -0.0, rng.uniform(-40.0, 40.0)]),
             math.exp(rng.uniform(-12.0, 6.5))) for _ in range(2000)]
    pts += [(-1.25, 0.0, 1.3), (-1.0, 0.0, 0.7)]
    cases = []
    for L, eta, r in pts:
        beta = rng.choice([0.0, rng.uniform(0.0, 0.999)])
        cases += [(L, eta, L + 1.0, r), (L, eta, (L + 1.0) * (1.0 - beta), r),
                  (L, eta, 1.0 - beta, r)]
        # phi at nu = L + 1/2, with nu + alpha in (0, 3)
        nu = L + 0.5
        alpha = rng.uniform(0.0, 3.0) - nu
        cases.append((nu - 0.5, 0.0, (nu + alpha) * (1.0 - beta), r))
    for L, eta, d, r in cases:
        assert _cf1(L, eta, d, r)[0] == _cf1_reference(L, eta, d, r), \
            (L, eta, d, r)


def test_complex_order_companion_route():
    ell = companion_order(0.2 + 0.1j)
    assert ell == pytest.approx(ELL_C, abs=1e-15)
    assert radius_f(ell, 0.0).value == pytest.approx(RF_COMPANION, abs=1e-12)


def test_result_structure():
    res = radius_g(0.0, 0.0)
    lo, hi = res.bracket
    assert lo <= res.value <= hi
    assert hi - lo < 1e-12
    assert res.residual < 1e-12
    assert res.iterations > 0


def test_residual_identity_scale():
    # the residual is |r F'/F - beta (L+1)| at the root
    res = radius_f(2.0, -1.0, 0.25)
    assert res.residual < 1e-10


def test_beta_monotonicity():
    rs = [radius_f(1.0, -0.5, b).value for b in (0.0, 0.25, 0.5, 0.75)]
    assert rs == sorted(rs, reverse=True)
    assert radius_g(1.0, -0.5).value < radius_f(1.0, -0.5).value  # L+1 > 1


def test_radius_query_dispatch():
    assert RadiusQuery(Family.F_POWER, L=-0.5, eta=0.0).solve().value == \
        pytest.approx(RF_HALF, abs=1e-12)
    assert RadiusQuery("g", L=0.0, eta=0.0).solve().value == \
        pytest.approx(RG_SIN, abs=1e-12)
    assert RadiusQuery("phi", nu=1.0, alpha=0.0).solve().value == \
        pytest.approx(RPHI_J1, abs=1e-12)
    with pytest.raises(GateViolation):
        RadiusQuery("f", L=1.0).solve()            # missing eta
    with pytest.raises(GateViolation):
        RadiusQuery("phi", nu=1.0).solve()         # missing alpha


@pytest.mark.parametrize("family, op, kw", [
    ("f", radius_f, {"L": 2.0, "eta": -1.0}),
    ("g", radius_g, {"L": 0.3, "eta": 0.7}),
    ("phi", radius_phi, {"nu": 1.5, "alpha": 0.5}),
])
@pytest.mark.parametrize("beta", [0.0, 0.25, 0.9])
def test_radius_query_is_the_direct_call(family, op, kw, beta):
    # both go through the one family map: every field agrees bit for bit
    direct = op(*kw.values(), beta)
    assert repr(RadiusQuery(family, beta, **kw).solve()) == repr(direct)


def _gate_class(call):
    with pytest.raises(GateViolation) as exc:
        call()
    return type(exc.value)


@pytest.mark.parametrize("family, a, b", [
    ("f", None, 0.0), ("g", 1.0, None),                 # missing
    ("phi", None, 1.0), ("phi", 1.0, None),
    ("f", math.inf, 0.0), ("g", 0.0, math.nan),         # non-finite
    ("phi", math.nan, 1.0), ("phi", 1.0, -math.inf),
    ("f", -1.0, 0.0), ("g", -2.5, 1.0),                 # out of range
    ("phi", -1.0, 3.0), ("phi", 0.5, -0.5),
    ("f", 0.2 + 0.1j, 0.0),                             # complex
    ("phi", 1.0 + 1.0j, 0.0), ("phi", 1.0, 0.5j),
])
def test_one_gate_for_radii_query_and_scan(family, a, b):
    # radius_*, RadiusQuery and starlike_scan take the same inputs and read
    # the same family map, so a bad input raises the same class from each
    op = {"f": radius_f, "g": radius_g, "phi": radius_phi}[family]
    kw = dict(zip(("nu", "alpha") if family == "phi" else ("L", "eta"),
                  (a, b)))
    direct = _gate_class(lambda: op(a, b))
    assert _gate_class(RadiusQuery(family, **kw).solve) is direct
    assert _gate_class(lambda: starlike_scan(family, 1.0, **kw)) is direct


def test_gates():
    with pytest.raises(GateViolation):
        radius_f(-1.0, 0.0)
    with pytest.raises(GateViolation):
        radius_f(1.0, 0.0, beta=1.0)
    with pytest.raises(GateViolation):
        radius_f(1.0, 0.0, beta=-0.1)
    with pytest.raises(GateViolation):
        radius_f(0.2 + 0.1j, 0.0)      # complex L: use the companion order
    with pytest.raises(GateViolation):
        radius_phi(-1.5, 0.0)
    with pytest.raises(GateViolation):
        radius_phi(0.5, -0.5)          # nu + alpha = 0


_OWN = {"f": {"L": 1.0, "eta": -0.5}, "g": {"L": 0.5, "eta": 1.0},
        "phi": {"nu": 1.0, "alpha": 0.5}}
_TAKERS = {
    "radius": lambda fam, kw: radii._radius(    # the path of every radius_*
        Family(fam), 0.0, *(kw.get(x) for x in ("L", "eta", "nu", "alpha"))),
    "RadiusQuery": lambda fam, kw: RadiusQuery(fam, **kw).solve(),
    "starlike_scan": lambda fam, kw: starlike_scan(fam, 0.5, **kw),
    "boundary_image": lambda fam, kw: boundary_image(fam, 0.5, 8, **kw),
}


@pytest.mark.parametrize("taker", list(_TAKERS))
@pytest.mark.parametrize("family, extra", [
    ("f", "nu"), ("f", "alpha"), ("g", "nu"), ("g", "alpha"),
    ("phi", "L"), ("phi", "eta"),
])
def test_an_input_of_the_other_family_is_refused(taker, family, extra):
    # an input the family does not take is refused, not ignored, even a
    # zero: only an absent input is no input
    call = _TAKERS[taker]
    call(family, _OWN[family])
    with pytest.raises(GateViolation, match=f"takes no .*{extra}="):
        call(family, {**_OWN[family], extra: 0.0})


@pytest.mark.parametrize("op, args", [
    (radius_phi, (1.0, math.inf)),      # the Riccati step bound is NaN
    (radius_phi, (math.nan, 1.0)),
    (radius_phi, (-math.inf, 2.0)),
    (radius_f, (1.0, math.nan)),
    (radius_f, (math.inf, 0.0)),
    (radius_g, (0.0, -math.inf)),
])
def test_non_finite_inputs_are_gated(op, args, monkeypatch):
    # the gate must raise before the root search starts, which at
    # alpha = inf would never return
    def no_search(*_):
        raise AssertionError("the root search ran")

    monkeypatch.setattr(radii, "_first_root", no_search)
    with pytest.raises(GateViolation, match="finite"):
        op(*args)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.7, 0.3), (3.0, 0.5)])
def test_radius_phi_at_order_minus_half(alpha, beta):
    # jhat = cos z at nu = -1/2, the order L = -1 of the eta = 0 kernel: the
    # radius solves (alpha - 1/2)(1 - beta) cos r = r sin r
    c = (alpha - 0.5) * (1.0 - beta)
    with mp.workdps(40):
        ref = mp.findroot(lambda x: c * mp.cos(x) - x * mp.sin(x), 0.5)
    res = radius_phi(-0.5, alpha, beta)
    assert res.value == pytest.approx(float(ref), rel=4e-16)
    assert res.iterations <= 8


def test_radius_beta_near_one_frozen_value():
    # the root of r cot r = 0.99 lies below the start, so the search
    # brackets it in (0, start)
    assert radius_g(0.0, 0.0, beta=0.99).value == pytest.approx(
        RG_BETA_NEAR_1, rel=1e-12)


def test_dini_changes_sign_across_radius_f():
    # f at L = -1/2, eta = 0 is the first zero of 2 r J0'(r) + J0(r)
    r = radius_f(-0.5, 0.0).value
    assert eval_dini(0.0, 0.5, r - 1e-9).value > 0.0
    assert eval_dini(0.0, 0.5, r + 1e-9).value < 0.0


def test_walk_cost_does_not_grow_with_the_root():
    # steps in ln r are fourth-order, Newton or doubling, so a root near
    # 1e4 costs at most twenty evaluations
    assert radius_f(150.0, 1.0, 0.3).value == pytest.approx(RF_150_1,
                                                            rel=1e-12)
    res = radius_g(0.0, 5000.0, 0.5)
    assert res.iterations <= 20       # 18 measured; the cap adds 2
    assert res.residual < 1e-6


def test_rounding_band_does_not_cascade_into_bisection():
    # the iterates close in on the root from one side inside the rounding
    # band, a bracket width away from the far end; a step no longer than
    # half the bracket is taken, not bisected, so the bisections do not
    # follow each other one call at a time (32 calls without that rule)
    res = radius_g(25.744362816149444, 4312.5803759295095, 0.9999998475984988)
    assert res.iterations <= 20       # 20 measured
    with mp.workdps(50):
        err = float(abs(mp.mpf(res.value) / mp.mpf(RG_CASCADE) - 1))
    assert err <= res.error_bound


def _rdu(L, eta, d, r, u):
    """r u' from the Riccati equation, in the factored form of the search."""
    return (d - u) * (2.0 * L + 1.0 - d + u) + r * (2.0 * eta - r)


def _v2(L, eta, d, r, u):
    """v'' = 2 r (eta - r) - 2 W v' in s = ln r, W = u + L + 1/2 - d."""
    return (2.0 * r * (eta - r)
            - 2.0 * (u + L + 0.5 - d) * _rdu(L, eta, d, r, u))


@pytest.mark.parametrize("eta", [0.0, -3.0, 40.0])
def test_second_derivative_in_ln_r_from_the_riccati_equation(eta):
    # the step takes v'' = 2 r (eta - r) - 2 W v' for v(s) = u(e^s),
    # v' = r u' and W = u + L + 1/2 - d; it must match a centred difference
    # of v' along CF1 at the f, g and phi offsets d
    L, beta, alpha, h = 3.0, 0.3, 2.0, 1e-5

    def dv(s):
        x = math.exp(s)
        return _rdu(L, eta, d, x, _cf1(L, eta, d, x)[0])

    for d in ((L + 1.0) * (1.0 - beta), 1.0 - beta,
              (L + 0.5 + alpha) * (1.0 - beta)):
        root = radii._first_root(L, eta, d).value
        for r in (0.3 * root, 0.8 * root, root, 1.1 * root):
            v2 = _v2(L, eta, d, r, _cf1(L, eta, d, r)[0])
            s = math.log(r)
            fd = (dv(s + h) - dv(s - h)) / (2.0 * h)
            assert fd == pytest.approx(v2, rel=1e-6), (d, r)


@pytest.mark.parametrize("eta", [0.0, -3.0, 40.0])
def test_third_derivative_in_ln_r_from_the_riccati_equation(eta):
    # the fourth-order step takes v''' = 2 eta r - 4 r^2 - 2 v'^2 - 2 W v'',
    # the derivative of v'' in s; it must match a centred difference of v''
    # along CF1 at the f, g and phi offsets d
    L, beta, alpha, h = 3.0, 0.3, 2.0, 1e-5

    def v2(s):
        x = math.exp(s)
        return _v2(L, eta, d, x, _cf1(L, eta, d, x)[0])

    for d in ((L + 1.0) * (1.0 - beta), 1.0 - beta,
              (L + 0.5 + alpha) * (1.0 - beta)):
        root = radii._first_root(L, eta, d).value
        for r in (0.3 * root, 0.8 * root, root, 1.1 * root):
            u = _cf1(L, eta, d, r)[0]
            v1 = _rdu(L, eta, d, r, u)
            v3 = (2.0 * eta * r - 4.0 * r * r - 2.0 * v1 * v1
                  - 2.0 * (u + L + 0.5 - d) * _v2(L, eta, d, r, u))
            s = math.log(r)
            fd = (v2(s + h) - v2(s - h)) / (2.0 * h)
            assert fd == pytest.approx(v3, rel=1e-6), (d, r)


def test_eta_zero_start_lies_below_the_first_zero_of_F():
    # at eta = 0 the search starts at most at max(2 sqrt(L + 3/2), L + 1),
    # short of j_{nu,1}, nu = L + 1/2, where F = sqrt(pi r/2) J_nu has its
    # first zero: j_{nu,1} > sqrt(nu (nu + 2)) >= nu + 1/2 for nu >= 1/4
    # (Watson 15.3), and j_{nu,1} >= j_{-1/2,1} = pi/2 below
    for nu in [-0.49, -0.3, -0.1, 0.0, 0.1, 0.25, 0.5, *range(1, 51)]:
        if nu < 0.0:
            j = mp.findroot(lambda x: mp.besselj(nu, x), (1.0, 2.5),
                            solver="anderson")
        else:
            j = mp.besseljzero(nu, 1)
        L = nu - 0.5
        assert max(2.0 * math.sqrt(L + 1.5), L + 1.0) < j, nu


def test_kernel_calls_per_radius():
    # a fixed grid over all three families: 588 radii took 5.20 kernel
    # calls on average and at most 14; the caps add 0.5 and 2
    its = []
    for L, eta, beta in itertools.product(
            (-0.95, -0.5, 0.0, 0.7, 3.0, 12.0, 40.0, 100.0, 200.0),
            (-20.0, -4.0, -1.0, 0.0, 0.5, 3.0, 20.0),
            (0.0, 0.3, 0.7, 0.95)):
        its.append(radius_f(L, eta, beta).iterations)
        its.append(radius_g(L, eta, beta).iterations)
    for nu, alpha, beta in itertools.product(
            (-0.9, -0.25, 0.5, 2.0, 10.0, 50.0, 200.0), (1.0, 3.0, 10.0),
            (0.0, 0.3, 0.7, 0.95)):
        its.append(radius_phi(nu, alpha, beta).iterations)
    assert sum(its) / len(its) <= 5.70
    assert max(its) <= 16


def test_large_order_radii_start_from_the_law():
    # f, g and phi above order 20 at beta in (0, 1) start at the large-order
    # law: 108 radii took 3.69 kernel calls on average, 4.19 from the Taylor
    # root and the cap alone; each stays within its error bound of the
    # oracle
    its = []
    cases = [(fam, L, eta, beta) for fam in ("f", "g")
             for L in (25.0, 60.0, 120.0, 190.0) for eta in (-1.5, 0.0, 1.5)
             for beta in (0.2, 0.5, 0.8)]
    cases += [("phi", nu, alpha, beta) for nu in (25.0, 60.0, 120.0, 190.0)
              for alpha in (1.0, 2.0, 5.0) for beta in (0.2, 0.5, 0.8)]
    for family, p1, p2, beta in cases:
        res = RADIUS[family](p1, p2, beta)
        its.append(res.iterations)
        with mp.workdps(50):
            root = radius_oracle(*_exact_inputs(family, p1, p2, beta),
                                 res.value)
            err = float(abs(mp.mpf(res.value) / root - 1))
        assert err <= res.error_bound, (family, p1, p2, beta)
    assert sum(its) / len(its) <= 3.94


def test_the_law_start_is_the_wkb_law_where_it_applies():
    law = radii._law_start
    # no law where beta_e = 1 - d/(L + 1) is <= 0 (f at beta = 0, phi with
    # alpha > 1/2 at beta = 0), where it rounds to 1 (g at L = 1e200), or
    # at L + 1 <= 0 (phi at nu <= -1/2), which it must not divide by
    for L, eta, d in ((50.0, 1.0, 51.0), (9.5, 0.0, 13.0), (1e200, 0.0, 1.0),
                      (-1.0, 0.0, 0.5), (-1.25, 0.0, 0.2)):
        assert law(L, eta, d) == math.inf, (L, eta, d)
    # hypot keeps the law finite where (nu gamma)^2 overflows
    assert law(1e200, 0.0, 0.5e200) == pytest.approx(0.75 ** 0.5 * 1e200,
                                                     rel=1e-15)
    # the first WKB correction kappa(beta_e) is in it: it is 0.51 to 1.70
    # at these f roots, which the law meets to O(1/L)
    for family, L, eta, beta in (("f", 1e4, 0.0, 0.5), ("f", 1e4, 3.0, 0.3),
                                 ("f", 1e4, -3.0, 0.8), ("g", 1e4, 0.0, 0.5)):
        d = (L + 1.0 if family == "f" else 1.0) * (1.0 - beta)
        assert abs(RADIUS[family](L, eta, beta).value - law(L, eta, d)) \
            <= 0.01, (family, L, eta, beta)


def test_error_bound_covers_true_error():
    with mp.workdps(50):
        for (family, p1, p2, beta), ref in ROOTS_40.items():
            res = RADIUS[family](p1, p2, beta)
            err = float(abs(mp.mpf(res.value) / mp.mpf(ref) - 1))
            assert err <= res.error_bound, (family, p1, p2, beta)
            if beta < 1 - 1e-6:
                assert res.error_bound < 1e-8
    # u is summed from d = L + 1 - c, so c near L + 1 costs no digits
    for beta, L, eta in ((0.999, 400.0, -30.0), (1 - 2 ** -30, 1000.0, 0.0)):
        res = radius_g(L, eta, beta)
        ref = mp.mpf(ROOTS_40[("g", L, eta, beta)])
        assert float(abs(mp.mpf(res.value) / ref - 1)) <= 1e-15
        assert res.error_bound < 1e-13


def _exact_inputs(family, p1, p2, beta):
    """(L, eta, d) of a radius at the exact values of its float inputs,
    d = kappa (1 - beta) unrounded."""
    p1, p2, beta = (mp.mpf(x) for x in (p1, p2, beta))
    if family == "phi":
        return p1 - mp.mpf(0.5), 0, (p1 + p2) * (1 - beta)
    return p1, p2, (p1 + 1 if family == "f" else 1) * (1 - beta)


def test_radius_oracle_reproduces_the_frozen_roots():
    with mp.workdps(50):
        for (family, p1, p2, beta), ref in ROOTS_40.items():
            r0 = RADIUS[family](p1, p2, beta).value
            root = radius_oracle(*_exact_inputs(family, p1, p2, beta), r0)
            assert abs(root / mp.mpf(ref) - 1) <= 1e-35, (family, p1, p2)


def test_error_bound_covers_the_oracle_on_a_bench_shaped_sample():
    # 30 radii mixed as in the benchmark: f, g and phi in turn, orders
    # below and above 20 up to 200, |eta| <= 3, beta = 0 or up to 0.9
    rng = random.Random(33)
    for i in range(30):
        family = ("f", "g", "phi")[i % 3]
        p1 = rng.uniform(20.0, 200.0) if i % 2 else rng.uniform(-0.95, 20.0)
        p2 = rng.uniform(-3.0, 3.0)
        if family == "phi":
            p2 = max(-p1, 0.0) + 0.05 + abs(p2)       # nu + alpha > 0
        beta = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.9)
        res = RADIUS[family](p1, p2, beta)
        with mp.workdps(50):
            root = radius_oracle(*_exact_inputs(family, p1, p2, beta),
                                 res.value)
            err = float(abs(mp.mpf(res.value) / root - 1))
        assert err <= res.error_bound, (family, p1, p2, beta, err)


@pytest.mark.parametrize("L, eta, beta", [
    (7.6369154699946264, 78.29664914202772, 0.9999997095722585),
    (3.765980911148495, 620.5476168502129, 0.999759431507538),
    (2.4561606678717682, 119.3260957393461, 0.07510630030453092),
])
def test_a_step_out_of_the_bracket_falls_back_to_the_midpoint(L, eta, beta):
    # on these inputs (from tools/radius_fuzz.py) one step leaves the
    # bracket and the search takes its midpoint instead; the root it then
    # finds is within its error_bound of the 40-digit oracle
    res = radius_f(L, eta, beta)
    with mp.workdps(50):
        root = radius_oracle(*_exact_inputs("f", L, eta, beta), res.value)
        err = float(abs(mp.mpf(res.value) / root - 1))
    assert err <= res.error_bound, err


def test_extreme_attraction_and_beta_one_ulp_below_one():
    # the bound on the first zero of F must not cancel to 0 when
    # (L + 1)^2 << eps eta^2, and u must stay positive near 0 when
    # L + beta rounds to L + 1
    for family, L, eta, beta in [("f", 0.0, -1e9, 0.5), ("f", -0.9, -1e8, 0.5),
                                 ("f", -0.9999999, -1000.0, 0.5),
                                 ("g", 5.0, 0.0, 1 - 2 ** -53)]:
        ref = float(ROOTS_40[(family, L, eta, beta)])
        assert RADIUS[family](L, eta, beta).value == pytest.approx(
            ref, rel=1e-14)


def test_reduced_kernel_rounds_u_to_its_leading_terms():
    # near the roots of g the kernel's u is within 10 eps of d + r|eta|/lam
    # of a 40-digit CF1, where r F'/F - c would lose L eps
    pts = [(1e3, 0.0, 1.0, 44.743725800387445),
           (1e5, 0.0, 1.0, 447.21583157352546),
           (1e3, 0.0, 2.0 ** -30, 0.001365810791051944),
           (1e5, 0.0, 2.0 ** -30, 0.013647978197917033),
           (400.0, -30.0, 1.0 - 0.999, 0.013363677262945543),
           (400.0, 30.0, 1.0, 71.32010821928922),
           (0.0, 5000.0, 0.5, 10021.945212595074)]
    with mp.workdps(40):
        for L, eta, d, r in pts:
            err = abs(_cf1(L, eta, d, r)[0] - _u_backward(L, eta, d, r))
            scale = d + r * abs(eta) / (L + 1.0)
            assert err <= 10.0 * math.ulp(1.0) * scale, (L, eta, d, r)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.9, 10.0, exclude_min=True), st.floats(-3.0, 3.0),
       st.floats(0.0, 0.95), st.floats(0.5, 5.0))
def test_first_sign_change_is_the_root(L, eta, beta, alpha):
    # r F'/F = L + 1 + r S'/S from the power series, not from CF1: u stays
    # positive up to the radius and changes sign across it, for all three
    # families
    nu = L + 0.5
    cases = [(radius_f(L, eta, beta), L, eta, beta * (L + 1.0)),
             (radius_g(L, eta, beta), L, eta, L + beta),
             (radius_phi(nu, alpha, beta), L, 0.0,
              nu + 0.5 - (nu + alpha) * (1.0 - beta))]
    for res, L_, eta_, c in cases:
        def u(r):
            S, T = _series_pair(L_, eta_, r, 1e-14)[:2]
            return L_ + 1.0 + T / S - c

        r = res.value
        assert all(u(0.99 * r * k / 16) > 0.0 for k in range(1, 17))
        assert u(r * (1.0 - 1e-6)) > 0.0 > u(r * (1.0 + 1e-6))


def test_univalence_equals_starlikeness_at_beta_zero():
    # beta = 0 root is the first positive zero of F' (radius of univalence):
    # cross-check f-radius against the derivative of F vanishing
    r = radius_f(2.0, -1.0).value
    d = eval_F_with_derivative(CoulombParams(2.0, -1.0), r).derivative
    assert abs(d) < 1e-12


@pytest.mark.parametrize("L", [1e300, 1e308])
def test_huge_order_raises_a_library_error(L):
    # (L + 1/2)^2 overflows at 1e300, 2L + 3 at 1e308: neither escapes bare
    with pytest.raises(NonConvergence, match="float range"):
        radius_g(L, 0)


def test_huge_order_below_the_overflow_keeps_its_root():
    assert radius_g(1e200, 0).value == 1.414213562373095e+100
