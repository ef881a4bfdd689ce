"""Power-series evaluation of the regular Coulomb function and relatives.

The regular solution of ``w'' + (1 - 2 eta / z - L(L+1)/z^2) w = 0`` that
vanishes at the origin factors as

    F(z) = C_L(eta) * z^(L+1) * S(z),          S(z) = sum_n a_n z^n,

with a_0 = 1, a_1 = eta/(L+1) and

    n (n + 2L + 1) a_n = 2 eta a_{n-1} - a_{n-2}          (n >= 2),

and the gamma-factor prefactor

    C_L(eta) = 2^L e^(-pi eta / 2) |Gamma(L+1+i eta)| / Gamma(2L+2).

Everything downstream (radii, scans, Rayleigh sums) is phrased in terms of
the entire factor ``S`` and the shifted form ``g(z) = z S(z)``, so those
never touch the prefactor and stay finite for any order.  ``eval_F`` glues
the prefactor back on in log space.

Numerics: series terms are generated by the same three-term recurrence
applied to t_n = a_n z^n directly (no separate z**n factor, so nothing
overflows).  A plain running sum drives the stopping rule; the returned sums
are taken over the stored terms at the end, correctly rounded by
``math.fsum`` in float.  When cancellation eats the working precision the
same loop re-runs under mpmath at a precision chosen from the size of
log10(C_L(eta) z^(L+1)).
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

import mpmath as mp
from scipy.special import loggamma

from .errors import DegenerateOrder, GammaOverflow, NonConvergence

__all__ = [
    "CoulombParams",
    "SeriesEval",
    "coulomb_series_coeffs",
    "eval_g",
    "eval_F",
    "eval_F_with_derivative",
    "eval_f_normalized",
    "eval_bessel_j",
    "eval_dini",
]

Scalar = Union[float, complex]

#: denominators above this make a float "inexact" for auto exact-mode
_EXACT_DENOM_CAP = 1 << 20

_EPS = 2.220446049250313e-16

#: series length cap; a longer series raises NonConvergence
_MAX_TERMS = 10000


def _is_exactable(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    if isinstance(x, float):
        if not math.isfinite(x):
            return False
        return Fraction(x).denominator <= _EXACT_DENOM_CAP
    return False


@dataclass(frozen=True)
class CoulombParams:
    """Order L and Sommerfeld parameter eta.

    L may be real (float/int/Fraction, must be > -1) or genuinely complex;
    eta must be real.  A complex L with zero imaginary part is demoted to
    the real value it is.
    """

    L: Union[float, complex, Fraction]
    eta: Union[float, Fraction]

    def __post_init__(self) -> None:
        L, eta = self.L, self.eta
        if isinstance(eta, complex):
            if eta.imag != 0:
                raise ValueError("eta must be real")
            eta = eta.real
            object.__setattr__(self, "eta", eta)
        if isinstance(L, complex) and L.imag == 0:
            L = L.real
            object.__setattr__(self, "L", L)
        if not isinstance(L, complex) and L <= -1:
            raise DegenerateOrder(
                f"order L = {L} <= -1 makes the series recurrence degenerate")

    @property
    def is_complex(self) -> bool:
        return isinstance(self.L, complex)

    def real_L(self) -> float:
        return self.L.real if isinstance(self.L, complex) else float(self.L)


@dataclass(frozen=True)
class SeriesEval:
    """Value/derivative pair with truncation diagnostics."""

    value: Scalar
    derivative: Scalar
    terms_used: int
    est_error: float


def coulomb_series_coeffs(params: CoulombParams, n_max: int,
                          exact: Union[bool, None] = None) -> List:
    """Coefficients a_0 .. a_{n_max} of the entire factor S.

    exact=True demands Fraction output (L and eta must be exactly
    representable rationals); exact=False forces float/complex; None picks
    exact when possible.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    want_exact = (_is_exactable(params.L) and _is_exactable(params.eta)
                  if exact is None else exact)
    if want_exact:
        if not (_is_exactable(params.L) and _is_exactable(params.eta)):
            raise ValueError(
                "exact coefficients need rational L and eta; got "
                f"L={params.L!r}, eta={params.eta!r}")
        L, eta, one = Fraction(params.L), Fraction(params.eta), Fraction(1)
    else:
        L = complex(params.L) if params.is_complex else params.real_L()
        eta = float(params.eta)
        one = 1.0 + 0j if params.is_complex else 1.0
    a: List = [one]
    if n_max >= 1:
        a.append(eta / (L + 1))
    for n in range(2, n_max + 1):
        a.append((2 * eta * a[n - 1] - a[n - 2]) / (n * (n + 2 * L + 1)))
    return a


# ---------------------------------------------------------------------------
# series summation
# ---------------------------------------------------------------------------

def _safe_index(L_real: float, eta: float, z_abs: float) -> int:
    """First index from which the term recurrence is provably contractive
    (coefficient sum < 1/2), so that 'three small terms' implies a
    geometrically bounded tail."""
    rhs = 4.0 * abs(eta) * z_abs + 2.0 * z_abs * z_abs
    b = 2.0 * L_real + 1.0
    if not math.isfinite(rhs) or rhs > 1e18:
        return _MAX_TERMS   # the sum loop reports NonConvergence
    n = 0.5 * (-b + math.sqrt(b * b + 4.0 * rhs))
    return max(2, int(n) + 1)


def _fsum(xs: list) -> Scalar:
    """Correctly rounded sum; real and imaginary parts apart for complex."""
    if isinstance(xs[0], complex):
        return complex(math.fsum([x.real for x in xs]),
                       math.fsum([x.imag for x in xs]))
    return math.fsum(xs)


def _sum_pair(params: CoulombParams, z: Scalar, tol: float,
              dps: Optional[int] = None):
    """Sum S(z) and z S'(z) in float, or in mpmath at ``dps`` digits.

    Returns (S, zSp, terms, est_error, scale) as Python floats or complexes;
    ``zSp`` is z*S'(z) so the caller never divides by a z that might be
    zero.  The running sum of the terms sets ``scale`` (its peak modulus)
    for the stopping rule.  In float the returned sums are the correctly
    rounded sums of the stored terms (``math.fsum``); in mpmath they are
    plain sums at ``dps`` digits.
    """
    cplx = params.is_complex or isinstance(z, complex)
    with mp.workdps(dps) if dps else contextlib.nullcontext():
        if dps:
            L = (mp.mpc(params.L) if params.is_complex
                 else mp.mpf(params.real_L()))
            eta = mp.mpf(float(params.eta))
            zz = mp.mpc(z) if cplx else mp.mpf(z)
            one = mp.mpf(1)
        else:
            L = complex(params.L) if params.is_complex else params.real_L()
            eta, zz = float(params.eta), z
            one = 1.0 + 0j if cplx else 1.0
        two_eta_z, z_sq, two_L = 2 * eta * zz, zz * zz, 2 * L
        ts = [one, eta * zz / (L + 1)]
        S = one + ts[1]                  # running sum, for the stopping rule
        scale = max(1.0, abs(S))
        last3 = [1.0, abs(ts[1]), 1.0]
        n_safe = _safe_index(params.real_L(), float(params.eta), abs(z))
        streak = 0
        for n in range(2, _MAX_TERMS + 1):
            t = (two_eta_z * ts[-1] - z_sq * ts[-2]) / (n * (n + two_L + 1))
            ts.append(t)
            S += t
            a = abs(S)
            if a > scale:
                if a == math.inf:        # overflowed terms never stop
                    raise NonConvergence(
                        f"series for S(z) did not converge within "
                        f"{_MAX_TERMS} terms: the float sum overflowed at "
                        f"term {n} (L={params.L!r}, eta={params.eta!r}, "
                        f"z={z!r})")
                scale = a
            at = abs(t)
            last3[n % 3] = at
            if at <= tol * scale and n >= n_safe:
                streak += 1
                if streak >= 3:
                    break
            else:
                streak = 0
        else:
            raise NonConvergence(
                f"series for S(z) did not converge within {_MAX_TERMS} terms "
                f"(L={params.L!r}, eta={params.eta!r}, z={z!r}, dps={dps})")
        nts = [n * t for n, t in enumerate(ts)]
        if dps:
            S, T = (complex(S), complex(sum(nts))) if cplx \
                else (float(S), float(sum(nts)))
        else:
            try:
                S, T = _fsum(ts), _fsum(nts)
            except (OverflowError, ValueError):  # terms or their sum overflow
                S = T = math.nan                 # and the caller retries
        ulp = 10.0 ** (1 - dps) if dps else _EPS
        est = float(max(last3)) + 4.0 * ulp * float(scale)
        return S, T, len(ts), est, float(scale)


def _working_dps(params: CoulombParams, z_abs: float) -> int:
    """Decimal digits that keep the dominant cancellation harmless.

    The digits lost in summing S at z comparable to the turning point are
    close to log10 of C_L(eta) * z^(L+1) (the headroom between the largest
    term of F's series and F itself), plus a slowly growing |z| term.
    """
    L = complex(params.L) if params.is_complex else params.real_L()
    if z_abs <= 0.0:
        z_abs = 1.0
    lg = (_log_prefactor(params) + (L + 1) * math.log(z_abs)).real
    lost = max(0.0, lg / math.log(10.0))
    return 25 + int(lost) + int(0.06 * z_abs)


def _series_pair(params: CoulombParams, z: Scalar, tol: float):
    """S(z) and z S'(z), retrying under mpmath when cancellation is fatal.

    The float pass is kept whenever its own error estimate is small
    relative to the result; otherwise the evaluation is redone at a
    precision sized to the expected digit loss.
    """
    S, T, terms, est, scale = _sum_pair(params, z, tol)
    bad = (not (abs(S) + abs(T) < math.inf)
           or est > 1e-6 * (abs(S) + abs(T) + 1e-300))
    if not bad:
        return S, T, terms, est, scale
    S, T, terms, est, scale = _sum_pair(params, z, tol,
                                        _working_dps(params, abs(z)))
    return S, T, terms, est + _EPS * (abs(S) + abs(T)), scale


def _demote(x: Scalar) -> Scalar:
    if isinstance(x, complex) and x.imag == 0.0:
        return x.real
    return x


def eval_g(params: CoulombParams, z: Scalar, tol: float = 1e-12) -> SeriesEval:
    """The shifted regular solution g(z) = z S(z) and its derivative.

    g is entire in z with g(0) = 0, g'(0) = 1, independent of the gamma
    prefactor.  tol is the truncation target for the series tail relative
    to the largest partial sum; it must lie in [1e-16, 1e-6].
    """
    if not (1e-16 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-16, 1e-6], got {tol!r}")
    if z == 0:
        one = 1.0 + 0j if params.is_complex else 1.0
        return SeriesEval(value=0.0 * one, derivative=one, terms_used=1,
                          est_error=0.0)
    S, T, terms, est, _ = _series_pair(params, z, tol)
    # g = z*S ; g' = S + z S' = S + T
    return SeriesEval(value=_demote(z * S), derivative=_demote(S + T),
                      terms_used=terms, est_error=est * abs(z))


def _log_prefactor(params: CoulombParams):
    """log C_L(eta) as a complex number (real for real L)."""
    L = complex(params.L) if params.is_complex else complex(params.real_L())
    eta = float(params.eta)
    return (L * math.log(2.0) - math.pi * eta / 2.0
            + 0.5 * (loggamma(L + 1 + 1j * eta) + loggamma(L + 1 - 1j * eta))
            - loggamma(2 * L + 2))


def eval_F_with_derivative(params: CoulombParams, z: Scalar,
                           tol: float = 1e-14) -> SeriesEval:
    """F(z) and F'(z) via the entire factor and a log-space prefactor.

    F = C z^(L+1) S and F' = C z^L ((L+1) S + z S'); the combined exponent
    log C + (L+1) log z is formed first so huge gamma factors and tiny
    powers cancel before exponentiation.  Principal branch of log z for
    non-integer L+1.  Raises GammaOverflow when even the combined exponent
    exceeds the float range.
    """
    if not (1e-16 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-16, 1e-6], got {tol!r}")
    lc = _log_prefactor(params)
    L = complex(params.L) if params.is_complex else params.real_L()
    if z == 0:
        C = cmath.exp(lc)
        val: Scalar = 0.0
        if isinstance(L, complex) or L > 0:
            deriv: Scalar = 0.0
        elif L == 0:
            deriv = _demote(C)
        else:  # -1 < L < 0: z^L blows up at 0
            deriv = math.inf
        return SeriesEval(value=val, derivative=deriv, terms_used=1,
                          est_error=0.0)
    logz = cmath.log(z)
    log_total = lc + (L + 1) * logz
    if log_total.real > 709.0:
        raise GammaOverflow(
            f"combined prefactor exponent {log_total.real:.1f} overflows "
            "double precision")
    S, T, terms, est, _ = _series_pair(params, z, tol)
    pref = cmath.exp(log_total)          # C z^(L+1)
    value = pref * S
    deriv = pref / z * ((L + 1) * S + T)
    real_inputs = (not params.is_complex) and not isinstance(z, complex)
    if real_inputs and isinstance(z, (int, float)) and z > 0:
        value, deriv = value.real, deriv.real
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms, est_error=est * abs(pref))


def eval_F(params: CoulombParams, z: Scalar, tol: float = 1e-14) -> Scalar:
    """The regular Coulomb function F(z) (value only)."""
    return eval_F_with_derivative(params, z, tol).value


def eval_f_normalized(params: CoulombParams, z: Scalar,
                      tol: float = 1e-14) -> SeriesEval:
    """The power-normalized form f(z) = z * S(z)^(1/(L+1)) and derivative.

    Principal branch of the fractional power; f(0) = 0, f'(0) = 1.
    """
    if not (1e-16 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-16, 1e-6], got {tol!r}")
    if z == 0:
        return SeriesEval(value=0.0, derivative=1.0, terms_used=1,
                          est_error=0.0)
    S, T, terms, est, _ = _series_pair(params, z, tol)
    L = complex(params.L) if params.is_complex else params.real_L()
    root = cmath.exp(cmath.log(S) / (L + 1))
    value = z * root
    deriv = root * (1 + T / (S * (L + 1)))
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms, est_error=est * abs(z))


# ---------------------------------------------------------------------------
# Bessel and Dini evaluations (independent series, used for cross-checks)
# ---------------------------------------------------------------------------

def eval_bessel_j(nu: float, z: Scalar, tol: float = 1e-15) -> SeriesEval:
    """Bessel J_nu(z) and J'_nu(z) from the ascending series.

    nu must be real and > -1.  The terms are summed in float with Kahan
    compensation and there is no precision retry, so at |z| well beyond
    nu, where the terms peak far above |J|, cancellation can leave wrong
    digits.
    """
    if isinstance(nu, complex):
        raise ValueError("nu must be real")
    nu = float(nu)
    if nu <= -1:
        raise DegenerateOrder(f"Bessel order nu = {nu} <= -1 not supported")
    if z == 0:
        if nu == 0:
            return SeriesEval(value=1.0, derivative=0.0, terms_used=1,
                              est_error=0.0)
        if nu == 1:
            return SeriesEval(value=0.0, derivative=0.5, terms_used=1,
                              est_error=0.0)
        deriv = 0.0 if nu > 1 else math.inf
        return SeriesEval(value=0.0, derivative=deriv, terms_used=1,
                          est_error=0.0)
    w = z * z / 4.0
    t: Scalar = 1.0 / math.gamma(nu + 1.0)
    U, cU = t, 0.0 * t            # sum t_m
    V, cV = nu * t, 0.0 * t       # sum (2m + nu) t_m
    scale = abs(t)
    streak = 0
    last = abs(t)
    m = 0
    for m in range(1, _MAX_TERMS + 1):
        t = -t * w / (m * (m + nu))
        y = t - cU
        s_new = U + y
        cU = (s_new - U) - y
        U = s_new
        vt = (2 * m + nu) * t
        y = vt - cV
        v_new = V + y
        cV = (v_new - V) - y
        V = v_new
        a = abs(U)
        if a > scale:
            scale = a
        last = abs(t)
        if last <= tol * scale and m * (m + nu) > 2 * abs(w):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
    else:
        raise NonConvergence(
            f"Bessel series did not converge within {_MAX_TERMS} terms "
            f"(nu={nu}, z={z!r})")
    if isinstance(z, complex):
        half_pow = cmath.exp(nu * cmath.log(z / 2.0))
        half_pow_m1 = cmath.exp((nu - 1.0) * cmath.log(z / 2.0))
    else:
        if z < 0 and nu != int(nu):
            half_pow = cmath.exp(nu * cmath.log(complex(z) / 2.0))
            half_pow_m1 = cmath.exp((nu - 1.0) * cmath.log(complex(z) / 2.0))
        else:
            half_pow = math.copysign(abs(z / 2.0) ** nu, 1.0) \
                if z > 0 else (z / 2.0) ** nu
            half_pow_m1 = (z / 2.0) ** (nu - 1.0)
    value = half_pow * U
    deriv = 0.5 * half_pow_m1 * V
    est = (last + 4.0 * _EPS * scale) * abs(half_pow)
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=m + 1, est_error=est)


def eval_dini(nu: float, H: float, r: Scalar, tol: float = 1e-15) -> SeriesEval:
    """The Dini function d(r) = r J'_nu(r) + H J_nu(r) and its derivative.

    d'(r) follows from the Bessel equation:
    d' = H J'_nu + (nu^2/r - r) J_nu  (r != 0).
    """
    je = eval_bessel_j(nu, r, tol)
    value = r * je.derivative + H * je.value
    if r == 0:
        return SeriesEval(value=H * je.value, derivative=0.0,
                          terms_used=je.terms_used, est_error=je.est_error)
    deriv = H * je.derivative + (nu * nu / r - r) * je.value
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=je.terms_used,
                      est_error=je.est_error * (abs(r) + abs(H)))
