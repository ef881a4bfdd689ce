"""Independent references for the benchmark's correctness checks.

Nothing here imports ``coulombstar``.  Values come from three sources:

* function values: ``mpmath.coulombf`` and ``mpmath.besselj`` at
  ``REF_DPS`` digits (mpmath raises its own working precision when its
  hypergeometric sums cancel);
* radii: the first positive root of the reduced equation, written through
  the logarithmic derivative, which Barnett's continued fraction CF1
  (Barnett, Feng, Steed & Goldfarb, Comput. Phys. Commun. 8, 1974) gives
  stably for any real order.  A float scan brackets the first sign change
  and mpmath refines it at ``REF_DPS`` digits;
* exact tables: the Rayleigh recurrences re-transcribed over
  ``fractions.Fraction``, and stored strings (``exact_ref.json``) for the
  Laurent and large-order coefficient tables.

``check_frozen_oracles`` reproduces the frozen 50-digit oracles of the test
suite with these generators; the benchmark refuses to run until it passes.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath as mp

REF_DPS = 30
TINY_NORMAL = 2.2250738585072014e-308

_HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_REF_PATH = os.path.join(_HERE, "exact_ref.json")


# ---------------------------------------------------------------------------
# continued fractions for the logarithmic derivatives
# ---------------------------------------------------------------------------

def _lentz(b0, terms, eps, tiny):
    """Modified Lentz evaluation of b0 + a1/(b1 + a2/(b2 + ...)).

    ``terms`` yields (a_k, b_k); stops when a step changes the value by less
    than ``eps`` relatively."""
    f = b0 if b0 != 0 else tiny
    C, D = f, 0 * f
    for a, b in terms:
        D = b + a * D
        if D == 0:
            D = tiny
        C = b + a / C
        if C == 0:
            C = tiny
        D = 1 / D
        delta = C * D
        f *= delta
        if abs(delta - 1) < eps:
            return f
    raise ArithmeticError("continued fraction did not converge")


def _cf_limit(r) -> int:
    return 2000 + 20 * int(abs(r))


def coulomb_dlog(L, eta, r, one=1.0):
    """F_L'(eta, r)/F_L(eta, r) by CF1; ``one`` fixes the number type
    (1.0 for floats, ``mp.mpf(1)`` for mpmath)."""
    lam = L + one
    eta = eta * one
    r = r * one
    eps = 1e-16 if isinstance(one, float) else mp.mpf(10) ** (-mp.mp.dps - 2)
    tiny = 1e-300 if isinstance(one, float) else mp.mpf(10) ** (-10 * mp.mp.dps)

    def terms():
        for k in range(_cf_limit(r)):
            m = lam + k
            yield (-(one + eta * eta / (m * m)),
                   (2 * m + 1) * (one / r + eta / (m * (m + 1))))

    return _lentz(lam / r + eta / lam, terms(), eps, tiny)


def bessel_ratio(nu, r, one=1.0):
    """J_{nu+1}(r)/J_nu(r) by CF1."""
    nu = nu * one
    r = r * one
    eps = 1e-16 if isinstance(one, float) else mp.mpf(10) ** (-mp.mp.dps - 2)
    tiny = 1e-300 if isinstance(one, float) else mp.mpf(10) ** (-10 * mp.mp.dps)

    def terms():
        yield one, 2 * (nu + 1) / r
        for k in range(2, _cf_limit(r)):
            yield -one, 2 * (nu + k) / r

    return _lentz(0 * one, terms(), eps, tiny)


def reduced(family, p1, p2, beta, one=1.0):
    """u(r) with the sign of the reduced equation H(r) on (0, first zero).

    f:   u = r F'/F - beta (L+1)         (p1, p2) = (L, eta)
    g:   u = r F'/F - (L + beta)          (p1, p2) = (L, eta)
    phi: u = (nu+alpha)(1-beta) - r J_{nu+1}/J_nu    (p1, p2) = (nu, alpha)

    H divided by the entire factor S (or jhat), which stays positive up to
    the first zero of F (or J); u falls to -inf there, so its first sign
    change is the first root of H.
    """
    if family == "phi":
        c = (p1 + p2) * (1 - beta) * one
        return lambda r: c - r * bessel_ratio(p1, r, one)
    c = (beta * (p1 + 1) if family == "f" else p1 + beta) * one
    return lambda r: r * coulomb_dlog(p1, p2, r, one) - c


def radius_ref(family: str, p1: float, p2: float, beta: float,
               dps: int = REF_DPS) -> mp.mpf:
    """First positive root of the reduced equation, to about ``dps`` digits.

    The float scan step stays below the gap between the root and the first
    zero of F (or J), so the scan cannot step over both."""
    order = p1 if family != "phi" else p1 - 0.5
    u = reduced(family, p1, p2, beta)
    cap = 0.15 * max(1.0, order + 1.0) ** (1.0 / 3.0)
    r, f_r = 1e-3, u(1e-3)
    if not f_r > 0:
        raise ArithmeticError("reduced equation not positive at 0+")
    while True:
        h = min(0.02 * (1.0 + r), cap)
        x = r + h
        f_x = u(x)
        if f_x <= 0:
            break
        r, f_r = x, f_x
        if r > 10.0 * (abs(order) + abs(p2) + 10.0):
            raise ArithmeticError("reference scan found no root")
    lo, hi = r, x
    for _ in range(24):
        mid = (lo + hi) / 2
        if u(mid) > 0:
            lo = mid
        else:
            hi = mid
    with mp.workdps(dps + 5):
        um = reduced(family, mp.mpf(p1), mp.mpf(p2), mp.mpf(beta), mp.mpf(1))
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        # the float bracket is far wider than the float error of u, but
        # fall back to the scan bracket if the signs disagree in mpmath
        if not (um(lo) > 0 >= um(hi)):
            lo, hi = mp.mpf(r), mp.mpf(x)
        return _illinois(um, lo, hi, mp.mpf(10) ** (-dps))


def _illinois(fn, lo, hi, rtol):
    """Root of fn in [lo, hi] (fn(lo) > 0 >= fn(hi)) by the Illinois
    variant of regula falsi, to relative width ``rtol``."""
    f_lo, f_hi = fn(lo), fn(hi)
    side = 0
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = (lo + hi) / 2
        f_x = fn(x)
        if f_x > 0:
            lo, f_lo = x, f_x
            if side == -1:
                f_hi /= 2
            side = -1
        else:
            hi, f_hi = x, f_x
            if side == 1:
                f_lo /= 2
            side = 1
        if f_x == 0 or hi - lo <= rtol * abs(x):
            return +x
    raise ArithmeticError("root refinement did not converge")


# ---------------------------------------------------------------------------
# function values
# ---------------------------------------------------------------------------

def _mpz(z):
    return mp.mpc(z.real, z.imag) if isinstance(z, complex) else mp.mpf(z)


def coulomb_prefactor(L, eta):
    """C_L(eta) = 2^L e^(-pi eta/2) |Gamma(L+1+i eta)| / Gamma(2L+2)."""
    L, eta = mp.mpf(L), mp.mpf(eta)
    return (mp.power(2, L) * mp.exp(-mp.pi * eta / 2)
            * abs(mp.gamma(mp.mpc(L + 1, eta))) / mp.gamma(2 * L + 2))


def value_ref(fn: str, L: float, eta: float, z, dps: int = REF_DPS):
    """Reference value of F, g, f or Bessel J (order L) at z as a Python
    float or complex."""
    with mp.workdps(dps):
        zz = _mpz(z)
        if fn == "besselJ":
            v = mp.besselj(mp.mpf(L), zz)
        else:
            F = mp.coulombf(mp.mpf(L), mp.mpf(eta), zz)
            if fn == "F":
                v = F
            else:
                g = F / (coulomb_prefactor(L, eta) * mp.power(zz, L))
                if fn == "g":
                    v = g
                elif fn == "f":
                    v = zz * mp.exp(mp.log(g / zz) / (mp.mpf(L) + 1))
                else:
                    raise ValueError(f"unknown function {fn!r}")
        if isinstance(z, complex) or isinstance(v, mp.mpc) and v.imag != 0:
            return complex(v)
        return float(mp.re(v))


def close(got, ref, rtol: float) -> bool:
    """Relative agreement; a reference below the normal double range only
    asks the float result to be below that range too."""
    if got is None or not isinstance(got, (int, float, complex)):
        return False
    if isinstance(got, float) and not math.isfinite(got):
        return False
    if isinstance(got, complex) and not (math.isfinite(got.real)
                                         and math.isfinite(got.imag)):
        return False
    if abs(ref) < TINY_NORMAL:
        return abs(got) < TINY_NORMAL
    return abs(got - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# exact tables
# ---------------------------------------------------------------------------

def rayleigh_Z_ref(L: Fraction, eta: Fraction, kmax: int):
    """Z^(2..kmax) over the zeros of F, exact."""
    Z = {2: (1 + eta * eta / ((L + 1) * (L + 1))) / (2 * L + 3)}
    for k in range(2, kmax):
        acc = 2 * eta / (L + 1) * Z[k]
        acc += sum(Z[m + 1] * Z[k - m] for m in range(1, k - 1))
        Z[k + 1] = acc / (2 * L + k + 2)
    return Z


def rayleigh_Ztilde_ref(L: Fraction, eta: Fraction, kmax: int):
    """Ztilde^(2..kmax) over the zeros of F', exact (L != 0)."""
    d = L * (L + 1)
    a = [2 * eta / d]
    a.append(-(2 + 2 * eta * a[0]) / d)
    while len(a) < kmax + 1:
        a.append(-(2 * eta * a[-1] - a[-2]) / d)
    p = (L + 2) * eta / ((L + 1) * (L + 1))
    Zt = {2: (1 - L * a[1] - p * a[0] + p * p) / (2 * L + 3)}
    Zt[3] = (-L * a[2] - p * a[1] + a[0] * Zt[2] - 2 * p * Zt[2]) / (2 * L + 4)
    for n in range(0, kmax - 3):
        acc = -L * a[n + 3] - p * a[n + 2] - 2 * p * Zt[n + 3]
        acc += sum(a[m] * Zt[3 + n - m] for m in range(n + 2))
        acc += sum(Zt[m + 2] * Zt[n - m + 2] for m in range(n + 1))
        Zt[n + 4] = acc / (2 * L + n + 5)
    return {k: v for k, v in Zt.items() if k <= kmax}


def load_exact_ref(path: str = EXACT_REF_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def asympt_value_ref(exact_ref: dict, L: float, eta: float, N: int) -> float:
    """L (sqrt2 + sum_{k<=N} eps_k(eta) L^-k) from the stored coefficients
    (each eps_k as [a_i, b_i] pairs: (a_i + b_i sqrt2) eta^i)."""
    with mp.workdps(REF_DPS):
        s2 = mp.sqrt(2)
        acc = s2
        for k in range(1, N + 1):
            poly = exact_ref["eps_coeffs"][str(k)]
            val = mp.mpf(0)
            for i, (a, b) in enumerate(poly):
                fa, fb = Fraction(a), Fraction(b)
                val += (mp.mpf(fa.numerator) / fa.denominator
                        + s2 * mp.mpf(fb.numerator) / fb.denominator) \
                    * mp.mpf(eta) ** i
            acc += val / mp.mpf(L) ** k
        return float(mp.mpf(L) * acc)


# ---------------------------------------------------------------------------
# frozen oracles of the test suite (tests/test_specfun.py, tests/test_radii.py)
# ---------------------------------------------------------------------------

#: name -> (frozen value, relative tolerance): the values are printed to 32
#: significant digits (24 for the large orders)
SPECFUN_ORACLES = {
    "G_1_M1": 0.52526316152998352235828502496453,
    "GP_1_M1": 0.098077352179639716174027530522628,
    "F_0_M1": 0.52131464221171596927032349572977,
    "F_1_M1": 0.62125015453840708591325444486323,
    "F_HALF": 0.69505809904609297148452811685443,
    "F_32": 1.1458029979478363556761278247437,
    "J1_1": 0.44005058574493351595968220371891,
    "J1P_1": 0.32514710081303303549003532238375,
    "J03_27": 0.07484269582778452008991118879501,
    "RF_BESSEL": 0.94077056394973735364900174324614,
}
RADII_ORACLES = {
    "RF_HALF": 0.94077056394973735364900174324614,
    "RG_SIN": 1.5707963267948966192313216916398,
    "RPHI_J1": 1.8411837813406593026436295136444,
    "RG_1": 2.0815759778181006105376496015686,
    "RPHI_BETA": 0.78474849668644230940174152118419,
    "RF_1_M05": 2.1350258313079295874646740945348,
    "RF_2_M1": 2.7882730564941223017032913698272,
    "RF_5_M1": 6.0618127601370528333462731465673,
    "RF_BIG": {25: 26.9668237166703170448807, 50: 52.5623744227758205353665,
               100: 103.321527849835745655214,
               200: 204.284663166751552588212},
    "ELL_C": 0.19282032302755091741097853660235,
    "RF_COMPANION": 1.8030026117637125053549356588862,
}


def _oracle_values():
    """(name, reference-generator value, frozen value) for every oracle."""
    out = []
    with mp.workdps(40):
        def g_pair(L, eta, z):
            C = coulomb_prefactor(L, eta)
            F = mp.coulombf(L, eta, z)
            dF = mp.diff(lambda t: mp.coulombf(L, eta, t), z)
            zL = mp.power(z, L)
            return F / (C * zL), (dF - L * F / z) / (C * zL)

        g, gp = g_pair(mp.mpf(1), mp.mpf(-1), mp.mpf(1))
        s = SPECFUN_ORACLES
        out += [("G_1_M1", g, s["G_1_M1"]), ("GP_1_M1", gp, s["GP_1_M1"])]
        out.append(("F_0_M1", mp.coulombf(0, -1, 1), s["F_0_M1"]))
        out.append(("F_1_M1", mp.coulombf(1, -1, 1), s["F_1_M1"]))
        out.append(("F_HALF", mp.coulombf(mp.mpf("0.5"), mp.mpf("-0.3"),
                                          mp.mpf("2.5")), s["F_HALF"]))
        out.append(("F_32", mp.coulombf(mp.mpf("3.2"), 0, 5), s["F_32"]))
        out.append(("J1_1", mp.besselj(1, 1), s["J1_1"]))
        out.append(("J1P_1", mp.besselj(1, 1, derivative=1), s["J1P_1"]))
        out.append(("J03_27", mp.besselj(mp.mpf("0.3"), mp.mpf("2.7")),
                    s["J03_27"]))
    r = RADII_ORACLES
    rad = [("RF_BESSEL", ("phi", 0.0, 0.5, 0.0), s["RF_BESSEL"]),
           ("RF_HALF", ("f", -0.5, 0.0, 0.0), r["RF_HALF"]),
           ("RG_SIN", ("g", 0.0, 0.0, 0.0), r["RG_SIN"]),
           ("RPHI_J1", ("phi", 1.0, 0.0, 0.0), r["RPHI_J1"]),
           ("RG_1", ("g", 1.0, 0.0, 0.0), r["RG_1"]),
           ("RPHI_BETA", ("phi", 0.3, 0.2, 0.5), r["RPHI_BETA"]),
           ("RF_1_M05", ("f", 1.0, -0.5, 0.0), r["RF_1_M05"]),
           ("RF_2_M1", ("f", 2.0, -1.0, 0.0), r["RF_2_M1"]),
           ("RF_5_M1", ("f", 5.0, -1.0, 0.0), r["RF_5_M1"])]
    rad += [(f"RF_BIG[{L}]", ("f", float(L), -1.0, 0.0), v)
            for L, v in r["RF_BIG"].items()]
    with mp.workdps(40):
        # companion order of L = 0.2 + 0.1i: l(l+1) = Re(L(L+1))
        Lc = mp.mpc("0.2", "0.1")
        ell = (-1 + mp.sqrt(1 + 4 * mp.re(Lc * (Lc + 1)))) / 2
    out.append(("ELL_C", ell, r["ELL_C"]))
    rad.append(("RF_COMPANION", ("f", float(ell), 0.0, 0.0),
                r["RF_COMPANION"]))
    for name, args, frozen in rad:
        out.append((name, radius_ref(*args, dps=40), frozen))
    return out


def check_frozen_oracles(rtol: float = 1e-14) -> list:
    """Names of frozen oracles the generators fail to reproduce (empty when
    all agree).  The frozen floats carry 16-17 significant digits, so the
    default tolerance is a few units in their last place."""
    bad = []
    for name, got, frozen in _oracle_values():
        if not abs(float(got) - frozen) <= rtol * abs(frozen):
            bad.append(f"{name}: reference {mp.nstr(got, 20)} vs frozen "
                       f"{frozen!r}")
    return bad
