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
float pass's terms are re-summed: the same number of terms is recomputed in
fixed point on Python integers (``_sum_pair_fixed``), at a precision chosen
from the size of log10(C_L(eta) z^(L+1)); its sums are exact in the
integers and rounded to float once.  ``SeriesEval.retry_bits`` says which
pass produced a value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

# Nothing here calls mpmath, but the package must keep importing it at
# load: the traced benchmark times ``cli.import_mpmath_ms`` from the modules
# a fresh ``python -m coulombstar`` imports, and stops with "no samples"
# when none imports mpmath (CHANGES.md FOUND #29).  Drop this import with
# that benchmark change.
import mpmath  # noqa: F401
from scipy.special import loggamma

from .errors import GammaOverflow, GateViolation, NonConvergence

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

#: bits carried by the fixed-point retry beyond its decimal digits
_GUARD_BITS = 20


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
    eta must be real.  Both must be finite.  A complex L with zero imaginary
    part is demoted to the real value it is.  Raises GateViolation for a
    non-finite input or a real L <= -1, ValueError for a complex eta.
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
        _check_finite("L", L)
        _check_finite("eta", eta)
        if not isinstance(L, complex) and L <= -1:
            raise GateViolation(
                f"order L = {L} <= -1 makes the series recurrence degenerate")

    @property
    def is_complex(self) -> bool:
        return isinstance(self.L, complex)

    def real_L(self) -> float:
        return self.L.real if isinstance(self.L, complex) else float(self.L)


def _check_finite(name: str, x) -> None:
    """Raise GateViolation if the float or complex argument ``x`` is
    infinite or NaN; ints and Fractions are finite."""
    if isinstance(x, (float, complex)) and not cmath.isfinite(x):
        raise GateViolation(f"{name} must be finite, got {x!r}")


def _check_tol_z(tol: float, z) -> None:
    """The gates of every evaluator: ValueError unless tol lies in
    [1e-16, 1e-6], GateViolation unless z is finite."""
    if not 1e-16 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-16, 1e-6], got {tol!r}")
    _check_finite("z", z)


def _exact_mode(params: CoulombParams, exact: Union[bool, None]) -> bool:
    """Whether to work in exact rationals: ``exact`` when given, else
    whether L and eta are both exactly representable.  Raises ValueError
    when exact mode is demanded of an L or eta that is not."""
    exactable = _is_exactable(params.L) and _is_exactable(params.eta)
    if exact and not exactable:
        raise ValueError(
            f"exact mode needs rational L and eta, got L={params.L!r}, "
            f"eta={params.eta!r}")
    return exactable if exact is None else bool(exact)


@dataclass(frozen=True)
class SeriesEval:
    """Value/derivative pair with truncation diagnostics.

    ``retry_bits`` names the path that produced the value: 0 when the float
    pass was kept, otherwise the working precision in bits of the
    fixed-point retry.
    """

    value: Scalar
    derivative: Scalar
    terms_used: int
    est_error: float
    retry_bits: int = 0


def coulomb_series_coeffs(params: CoulombParams, n_max: int,
                          exact: Union[bool, None] = None) -> List:
    """Coefficients a_0 .. a_{n_max} of the entire factor S.

    exact=True demands Fraction output (L and eta must be exactly
    representable rationals); exact=False forces float/complex; None picks
    exact when possible.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if _exact_mode(params, exact):
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


def _terms(L: Scalar, eta: float, z: Scalar, tol: float):
    """The terms t_n = a_n z^n of S(z) in float, with their stopping data.

    L is a float or complex, eta a float; L = -1 is allowed at eta = 0,
    where t_1 = 0 and S(z) = cos z.  Returns (ts, scale): the stored terms
    and the peak modulus of the running sum, which sets ``scale`` for the
    stopping rule (three terms in a row at most ``tol * scale``, from the
    index ``_safe_index`` on; so there are at least five terms).
    Raises NonConvergence when the running sum overflows or the cap
    ``_MAX_TERMS`` is reached.
    """
    one = 1.0 + 0j if isinstance(L, complex) or isinstance(z, complex) else 1.0
    two_eta_z, z_sq, two_L = 2 * eta * z, z * z, 2 * L
    ts = [one, eta * z / (L + 1) if eta else 0.0 * z]
    S = one + ts[1]                      # running sum, for the stopping rule
    scale = max(1.0, abs(S))
    n_safe = _safe_index(L.real, eta, abs(z))
    streak = 0
    for n in range(2, _MAX_TERMS + 1):
        t = (two_eta_z * ts[-1] - z_sq * ts[-2]) / (n * (n + two_L + 1))
        ts.append(t)
        S += t
        a = abs(S)
        if a > scale:
            if a == math.inf:            # overflowed terms never stop
                raise NonConvergence(
                    f"series for S(z) did not converge within "
                    f"{_MAX_TERMS} terms: the float sum overflowed at "
                    f"term {n} (L={L!r}, eta={eta!r}, z={z!r})")
            scale = a
        if abs(t) <= tol * scale and n >= n_safe:
            streak += 1
            if streak >= 3:
                return ts, scale
        else:
            streak = 0
    raise NonConvergence(
        f"series for S(z) did not converge within {_MAX_TERMS} terms "
        f"(L={L!r}, eta={eta!r}, z={z!r})")


def _dyadic(*xs: float):
    """(k, [x * 2^k as int ...]) for floats xs, with the least such k."""
    ratios = [x.as_integer_ratio() for x in xs]
    k = max(d for _, d in ratios).bit_length() - 1
    return k, [m << (k - d.bit_length() + 1) for m, d in ratios]


def _sum_pair_fixed(params: CoulombParams, z: Scalar, n_terms: int,
                    dps: int):
    """S and z S' over the terms t_0 .. t_{n_terms - 1}, at ``dps`` digits
    on fixed-point Python integers.

    Each term t_n is held as a pair of integers (re, im) scaled by 2^p,
    p = ceil(dps log2 10) + ``_GUARD_BITS``.  L, eta and z are floats, so
    they are exact dyadic rationals: with all of them scaled by one power
    of two 2^k to integers, t_n = (A t_{n-1} - B t_{n-2}) / (2^k C_n) with
    A = 2 eta z 4^k, B = z^2 4^k and C_n = 2^k n(n + 2L + 1) all exact
    integers, so each term carries one floor division and no other
    rounding.  Each division errs by less than 2^-p absolute, which at
    scale >= 1 is less than a ``dps``-digit float pass commits on the
    largest term.  The sums S and sum n t_n are exact in the integers and
    rounded to float once.

    Where the series stops is not decided here: ``n_terms`` is the float
    pass's count.  Returns (S, zSp, p).  Raises NonConvergence when a sum
    leaves the float range.
    """
    p = math.ceil(dps * math.log2(10.0)) + _GUARD_BITS
    L = complex(params.L)
    eta = float(params.eta)
    zc = complex(z)
    k, (lr, li, e, xr, xi) = _dyadic(L.real, L.imag, eta, zc.real, zc.imag)
    ar, ai = 2 * e * xr, 2 * e * xi
    br, bi = xr * xr - xi * xi, 2 * xr * xi
    one = 1 << p
    tr, ti, qr, qi = one, 0, 0, 0        # t_{n-1}, t_{n-2}; t_{-1} = 0
    Sr, Si, Tr, Ti = one, 0, 0, 0        # sum t_n, sum n t_n
    for n in range(1, n_terms):
        nr = ar * tr - ai * ti - br * qr + bi * qi
        ni = ar * ti + ai * tr - br * qi - bi * qr
        cr = (n * (n + 1) << k) + 2 * n * lr
        ci = 2 * n * li
        d = (cr * cr + ci * ci) << k
        qr, qi = tr, ti
        tr, ti = (nr * cr + ni * ci) // d, (ni * cr - nr * ci) // d
        Sr += tr
        Si += ti
        Tr += n * tr
        Ti += n * ti
    try:
        S, T = complex(Sr / one, Si / one), complex(Tr / one, Ti / one)
    except OverflowError:
        raise NonConvergence(
            f"series for S(z) at {dps} digits: the sum of {n_terms} terms "
            f"leaves the float range (L={params.L!r}, eta={params.eta!r}, "
            f"z={z!r})") from None
    if not (params.is_complex or isinstance(z, complex)):
        S, T = S.real, T.real
    return S, T, p


def _working_dps(params: CoulombParams, z_abs: float) -> int:
    """Decimal digits that keep the dominant cancellation harmless.

    The digits lost in summing S at z comparable to the turning point are
    close to log10 of C_L(eta) * z^(L+1) (the headroom between the largest
    term of F's series and F itself), plus a slowly growing |z| term.
    Needs z_abs > 0: every evaluator answers z = 0 without the series.
    """
    L = complex(params.L) if params.is_complex else params.real_L()
    lg = (_log_prefactor(params) + (L + 1) * math.log(z_abs)).real
    lost = max(0.0, lg / math.log(10.0))
    return 25 + int(lost) + int(0.06 * z_abs)


def _series_pair(params: CoulombParams, z: Scalar, tol: float):
    """(S, zSp, terms, est_error, retry_bits), retrying in fixed point
    when cancellation is fatal.

    ``zSp`` is z*S'(z), so the caller never divides by a z that might be
    zero.  The stopping rule of ``_terms`` is the only one the series has.
    The float pass sums its terms, correctly rounded (``math.fsum``), and
    is kept whenever its error estimate is small relative to the result
    (retry_bits 0).  Otherwise ``_sum_pair_fixed`` re-sums the same number
    of terms at a precision sized to the expected digit loss, and
    retry_bits is that pass's precision in bits.  Either way ``est_error``
    is the largest of the last three terms plus the rounding error on the
    peak partial sum ``scale``, at the unit roundoff of the pass that ran.
    """
    L = complex(params.L) if params.is_complex else params.real_L()
    ts, scale = _terms(L, float(params.eta), z, tol)
    tail = max(abs(t) for t in ts[-3:])
    try:
        S, T = _fsum(ts), _fsum([n * t for n, t in enumerate(ts)])
    except (OverflowError, ValueError):  # terms or their sum overflow
        S = T = math.nan                 # and the fixed-point pass retries
    est = tail + 4.0 * _EPS * scale
    size = abs(S) + abs(T)
    if size < math.inf and est <= 1e-6 * (size + 1e-300):
        return S, T, len(ts), est, 0
    dps = _working_dps(params, abs(z))
    S, T, bits = _sum_pair_fixed(params, z, len(ts), dps)
    est = (tail + 4.0 * 10.0 ** (1 - dps) * scale
           + _EPS * (abs(S) + abs(T)))
    return S, T, len(ts), est, bits


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
    _check_tol_z(tol, z)
    if z == 0:
        one = 1.0 + 0j if params.is_complex else 1.0
        return SeriesEval(value=0.0 * one, derivative=one, terms_used=1,
                          est_error=0.0)
    S, T, terms, est, bits = _series_pair(params, z, tol)
    # g = z*S ; g' = S + z S' = S + T
    return SeriesEval(value=_demote(z * S), derivative=_demote(S + T),
                      terms_used=terms, est_error=est * abs(z),
                      retry_bits=bits)


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
    _check_tol_z(tol, z)
    lc = _log_prefactor(params)
    L = complex(params.L) if params.is_complex else params.real_L()
    if z == 0:
        # F ~ C z^(L+1) and F' ~ C (L+1) z^L as z -> 0: each tends to 0 or
        # to inf, or turns without a limit where its power of z has real
        # part 0 and Im L != 0
        re = L.real
        val: Scalar = 0.0 if re > -1 else math.inf if re < -1 else math.nan
        if re > 0:
            deriv: Scalar = 0.0
        elif L == 0:
            deriv = _demote(cmath.exp(lc))
        else:
            deriv = math.inf if re < 0 else math.nan
        return SeriesEval(value=val, derivative=deriv, terms_used=1,
                          est_error=0.0)
    logz = cmath.log(z)
    log_total = lc + (L + 1) * logz
    if log_total.real > 709.0:
        raise GammaOverflow(
            f"combined prefactor exponent {log_total.real:.1f} overflows "
            "double precision")
    S, T, terms, est, bits = _series_pair(params, z, tol)
    pref = cmath.exp(log_total)          # C z^(L+1)
    value = pref * S
    deriv = pref / z * ((L + 1) * S + T)
    real_inputs = (not params.is_complex) and not isinstance(z, complex)
    if real_inputs and isinstance(z, (int, float)) and z > 0:
        value, deriv = value.real, deriv.real
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms, est_error=est * abs(pref),
                      retry_bits=bits)


def eval_F(params: CoulombParams, z: Scalar, tol: float = 1e-14) -> Scalar:
    """The regular Coulomb function F(z) (value only)."""
    return eval_F_with_derivative(params, z, tol).value


def eval_f_normalized(params: CoulombParams, z: Scalar,
                      tol: float = 1e-14) -> SeriesEval:
    """The power-normalized form f(z) = z * S(z)^(1/(L+1)) and derivative.

    Principal branch of the fractional power; f(0) = 0, f'(0) = 1.
    """
    _check_tol_z(tol, z)
    if z == 0:
        return SeriesEval(value=0.0, derivative=1.0, terms_used=1,
                          est_error=0.0)
    S, T, terms, est, bits = _series_pair(params, z, tol)
    L = complex(params.L) if params.is_complex else params.real_L()
    root = cmath.exp(cmath.log(S) / (L + 1))
    value = z * root
    deriv = root * (1 + T / (S * (L + 1)))
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms, est_error=est * abs(z),
                      retry_bits=bits)


# ---------------------------------------------------------------------------
# Bessel and Dini evaluations (independent series, used for cross-checks)
# ---------------------------------------------------------------------------

def eval_bessel_j(nu: float, z: Scalar, tol: float = 1e-15) -> SeriesEval:
    """Bessel J_nu(z) and J'_nu(z) from the ascending series.

    nu must be real (ValueError), finite and > -1, and z finite
    (GateViolation).  tol, the truncation target for the series tail
    relative to its largest partial sum, must lie in [1e-16, 1e-6]
    (ValueError).  The series of J_nu(z) Gamma(nu + 1) / (z/2)^nu
    starts at 1; the factor (z/2)^nu / Gamma(nu + 1) is applied in log
    space, so large orders neither overflow nor lose the result before it
    underflows.  The terms are summed in float with Kahan compensation and
    there is no precision retry, so at |z| well beyond nu, where the terms
    peak far above |J|, cancellation can leave wrong digits.  Raises
    GammaOverflow when that factor, or its counterpart in J', exceeds the
    float range.
    """
    if isinstance(nu, complex):
        raise ValueError("nu must be real")
    nu = float(nu)
    _check_finite("nu", nu)
    _check_tol_z(tol, z)
    if nu <= -1:
        raise GateViolation(f"Bessel order nu = {nu} <= -1 not supported")
    if z == 0:
        # the limits as z -> 0+ of J ~ (z/2)^nu / Gamma(nu + 1) and of
        # J' ~ nu (z/2)^(nu - 1) / (2 Gamma(nu + 1)), at nu != 0
        value = 1.0 if nu == 0 else 0.0 if nu > 0 else math.inf
        deriv = (0.5 if nu == 1 else 0.0 if nu == 0 or nu > 1
                 else math.copysign(math.inf, nu))
        return SeriesEval(value=value, derivative=deriv, terms_used=1,
                          est_error=0.0)
    w = z * z / 4.0
    t: Scalar = 1.0
    U, cU = 1.0, 0.0              # sum t_m
    V, cV = nu, 0.0               # sum (2m + nu) t_m
    scale = 1.0
    streak = 0
    last = 1.0
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
    # half_pow = (z/2)^nu / Gamma(nu + 1), half_pow_m1 = (z/2)^(nu-1) / ...
    lg = math.lgamma(nu + 1.0)
    lz = math.log(abs(z) / 2.0)
    top = max(nu * lz, (nu - 1.0) * lz) - lg
    if top > 709.0:
        raise GammaOverflow(
            f"Bessel prefactor exponent {top:.1f} overflows double "
            f"precision (nu={nu}, z={z!r})")
    if isinstance(z, complex) or (z < 0 and nu != int(nu)):
        lz = cmath.log(complex(z) / 2.0)
        half_pow = cmath.exp(nu * lz - lg)
        half_pow_m1 = cmath.exp((nu - 1.0) * lz - lg)
    else:                         # z > 0, or z < 0 at an integer order
        sz = math.copysign(1.0, z)
        half_pow = sz ** nu * math.exp(nu * lz - lg)
        half_pow_m1 = sz ** (nu - 1.0) * math.exp((nu - 1.0) * lz - lg)
    value = half_pow * U
    deriv = 0.5 * half_pow_m1 * V
    est = (last + 4.0 * _EPS * scale) * abs(half_pow)
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=m + 1, est_error=est)


def eval_dini(nu: float, H: float, r: Scalar, tol: float = 1e-15) -> SeriesEval:
    """The Dini function d(r) = r J'_nu(r) + H J_nu(r) and its derivative.

    d'(r) follows from the Bessel equation:
    d' = H J'_nu + (nu^2/r - r) J_nu  (r != 0).  At r = 0 it returns the
    limits as r -> 0+, d = (nu + H) J_nu and d' = (nu + H) J'_nu from the
    limits of ``eval_bessel_j``, and 0 and 0 at nu + H = 0, where
    d = -r J_{nu+1}.  nu, H and r must be finite, and tol must lie in
    [1e-16, 1e-6], as for ``eval_bessel_j``.
    """
    _check_finite("H", H)
    je = eval_bessel_j(nu, r, tol)
    if r == 0:
        k = nu + H
        value, deriv = (k * je.value, k * je.derivative) if k else (0.0, 0.0)
        return SeriesEval(value=value, derivative=deriv,
                          terms_used=je.terms_used, est_error=je.est_error)
    value = r * je.derivative + H * je.value
    deriv = H * je.derivative + (nu * nu / r - r) * je.value
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=je.terms_used,
                      est_error=je.est_error * (abs(r) + abs(H)))
