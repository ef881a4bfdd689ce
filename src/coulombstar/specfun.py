"""Evaluation of the regular Coulomb function and relatives: the power
series, and Steed's continued fractions past the turning point, continued
to complex z near the real axis.

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
``math.fsum`` in float.  When cancellation eats the working precision a
deeper pass runs in rounds: each measures the digits h that the last sums
lost against the peak partial sum, stops the series at tol 10^-h, and sums
those terms in fixed point on Python integers (``_sum_pair_fixed``) at
18 + h digits, with one floor division a term; its sums are exact in the
integers, sum n t_n is read off the sum of the partial sums, and both are
rounded to float once.  Bessel J keeps its own float loop, and reads the
deeper pass of S at L = nu - 1/2, eta = 0 where that loop cancels.  The
series ``est_error`` of F and Bessel J includes the rounding of the
log-space prefactor.  The prefactor's log Gamma comes from the standard
library: ``math.lgamma`` at real arguments, and at complex ones
``_loggamma``, Stirling's series (DLMF 5.11.1) at |w| >= 14 and the
Lanczos sum of CPython's ``math.lgamma`` below; so this module, like the
package, imports neither numpy, scipy nor mpmath.

Past the turning point eta + sqrt(eta^2 + L(L+1)) the series cancels
against its peak partial sum, by more digits the farther out.  At real L,
eta and z there (z > 4 and z <= ``_MAX_TERMS``), F, g and Bessel J
come from Steed's method instead (Barnett, Feng, Steed & Goldfarb, Comput.
Phys. Commun. 8, 1974): CF1 (``_cf1``, the package's one CF1 kernel,
which the radii read too) gives F'/F and the sign of F, CF2 (``_cf2``)
gives H+'/H+, and the Wronskian gives |F|.  At complex z = x + iy with
x in that range and 0 < |y| <= 0.6 x, Steed's F(x) and F'(x) are continued
along the Coulomb equation by the Taylor series of F about x
(``_continuation``), whose terms shrink like (|y|/x)^n.  Complex orders,
and complex z elsewhere, stay on the series.  ``_outer`` makes this route
decision, and calls the route, for every evaluator: it returns F and
u = z F'/F, which F, g and Bessel J each read in one branch with their
own formulas.  ``eval_f_normalized`` reads ``eval_g``, so f takes g's
path, and ``eval_dini`` reads ``eval_bessel_j``.
``SeriesEval.method`` says which path produced a value, and ``retry_bits``
which pass of the series.  ``CoulombParams`` and ``SeriesEval`` are named
tuples; ``CoulombParams`` runs its gates in ``__new__``, so that
``_replace`` keeps them.
Only float and fixed-point code lives here; the exact a_n are a test
reference (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import GammaOverflow, GateViolation, NonConvergence

__all__ = [
    "CoulombParams",
    "SeriesEval",
    "eval_g",
    "eval_F",
    "eval_F_with_derivative",
    "eval_f_normalized",
    "eval_bessel_j",
    "eval_dini",
]

Scalar = Union[float, complex]

_EPS = 2.220446049250313e-16
_TINY = 1e-300

#: series length cap; a longer series raises NonConvergence
_MAX_TERMS = 10000

#: bits carried by the fixed-point retry beyond its decimal digits
_GUARD_BITS = 20


class CoulombParams(namedtuple("CoulombParams", "L eta")):
    """Order L and Sommerfeld parameter eta.

    L may be real (float/int/Fraction, must be > -1) or genuinely complex;
    eta must be real.  Both must be finite.  A complex L with zero imaginary
    part is demoted to the real value it is.  Raises GateViolation for a
    non-finite input or a real L <= -1, ValueError for a complex eta.  The
    gates also hold for ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, L: Union[float, complex, Fraction],
                eta: Union[float, Fraction]):
        if isinstance(eta, complex):
            if eta.imag != 0:
                raise ValueError("eta must be real")
            eta = eta.real
        if isinstance(L, complex) and L.imag == 0:
            L = L.real
        _check_finite("L", L)
        _check_finite("eta", eta)
        if not isinstance(L, complex) and L <= -1:
            raise GateViolation(
                f"order L = {L} <= -1 makes the series recurrence degenerate")
        return tuple.__new__(cls, (L, eta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


def _check_tol_z(tol: float, z):
    """The gates of every evaluator, which then reads the z returned:
    ValueError unless tol lies in [1e-16, 1e-6], GateViolation unless z is
    finite.  A complex z with Im z = 0 and Re z > 0 comes back as the float
    Re z, so that it takes the path of that float; at Re z <= 0 it stays
    complex, as the sign of its zero imaginary part picks the side of the
    branch cut of log z."""
    if not 1e-16 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-16, 1e-6], got {tol!r}")
    _check_finite("z", z)
    if isinstance(z, complex) and z.imag == 0 and z.real > 0:
        return z.real
    return z


class SeriesEval(NamedTuple):
    """Value/derivative pair with truncation diagnostics.

    ``method`` names the path that produced the value: ``"series"`` when
    the float pass of the series was kept, ``"fixed"`` for its deeper
    fixed-point pass, whose last round's precision in bits is
    ``retry_bits`` (0 on the other paths), and whose ``terms_used`` counts
    that round's terms of S (for Bessel J, S at L = nu - 1/2, eta = 0,
    whose odd terms are 0), ``"steed"`` for Steed's continued fractions,
    where ``terms_used`` counts the terms of CF1 and CF2, and
    ``"continuation"`` for Steed's values continued to complex z, where it
    counts the terms of CF1, CF2 and the Taylor series.
    """

    value: Scalar
    derivative: Scalar
    terms_used: int
    est_error: float
    retry_bits: int = 0
    method: str = "series"


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
    if abs(b) < 1e150:
        n = 0.5 * (-b + math.sqrt(b * b + 4.0 * rhs))
    else:       # b * b would overflow, and 4 rhs is lost beside it anyway
        n = rhs / b if b > 0.0 else -b
    return max(2, int(n) + 1)


def _fsum_pair(ts: list):
    """(sum t_n, sum n t_n), each correctly rounded; real and imaginary
    parts apart for complex terms, split once."""
    fsum, mul, ns = math.fsum, operator.mul, range(len(ts))
    if isinstance(ts[0], complex):
        re, im = [t.real for t in ts], [t.imag for t in ts]
        return (complex(fsum(re), fsum(im)),
                complex(fsum(map(mul, ns, re)), fsum(map(mul, ns, im))))
    return fsum(ts), fsum(map(mul, ns, ts))


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
    t2, t1 = one, eta * z / (L + 1) if eta else 0.0 * z   # t_{n-2}, t_{n-1}
    ts = [t2, t1]
    S = one + t1                         # running sum, for the stopping rule
    scale = max(1.0, abs(S))
    small = tol * scale
    n_safe = _safe_index(L.real, eta, abs(z))
    streak = 0
    # n as the float x too, so the divisor takes float operations only
    x, append = 1.0, ts.append
    for n in range(2, _MAX_TERMS + 1):
        x += 1.0
        t = (two_eta_z * t1 - z_sq * t2) / (x * (x + two_L + 1.0))
        append(t)
        t2, t1 = t1, t
        S += t
        a = abs(S)
        if a > scale:
            if a == math.inf:            # overflowed terms never stop
                raise NonConvergence(
                    f"series for S(z) did not converge within "
                    f"{_MAX_TERMS} terms: the float sum overflowed at "
                    f"term {n} (L={L!r}, eta={eta!r}, z={z!r})")
            scale = a
            small = tol * scale
        if n >= n_safe and abs(t) <= small:
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


def _sum_pair_fixed(L: Scalar, eta: float, z: Scalar, n_terms: int,
                    dps: int):
    """S and z S' over the terms t_0 .. t_{n_terms - 1}, at ``dps`` digits
    on fixed-point Python integers.

    Each term t_n is held as a pair of integers (re, im) scaled by 2^p,
    p = ceil(dps log2 10) + ``_GUARD_BITS``.  L, eta and z are floats, so
    they are exact dyadic rationals: with all of them scaled by one power
    of two 2^k to integers, t_n = N_n / (2^k C_n) with N_n = A t_{n-1} -
    B t_{n-2}, A = 2 eta z 4^k, B = z^2 4^k and C_n = 2^k n(n + 2L + 1)
    all exact integers, so each term carries one floor division and no
    other rounding.  N_n's parts are divided through the norm,
    N_n conj(C_n) // (|C_n|^2 2^k), the floor of the same rational as the
    loop first written (``tests/oracles.py``), so every term is the same
    integer.  Each division errs by less than 2^-p absolute, which at
    scale >= 1 is less than a ``dps``-digit float pass commits on the
    largest term.  S = S_{N-1} and the sum P = S_0 + ... + S_{N-2} of the
    partial sums are exact in the integers, and so is
    sum n t_n = (N - 1) S - P; both are rounded to float once.

    Where the series stops is not decided here: ``n_terms`` is the float
    pass's count.  Returns (S, zSp, p).  Raises NonConvergence when a sum
    leaves the float range.
    """
    p = math.ceil(dps * math.log2(10.0)) + _GUARD_BITS
    Lc, zc = complex(L), complex(z)
    k, (lr, li, e, xr, xi) = _dyadic(Lc.real, Lc.imag, eta, zc.real, zc.imag)
    ar, ai = 2 * e * xr, 2 * e * xi
    br, bi = xr * xr - xi * xi, 2 * xr * xi
    one = 1 << p
    tr, ti, qr, qi = one, 0, 0, 0        # t_{n-1}, t_{n-2}; t_{-1} = 0
    Sr, Si, Pr, Pi = one, 0, 0, 0        # S_{n-1} = sum t_m, P = sum S_m
    for n in range(1, n_terms):
        nr = ar * tr - ai * ti - br * qr + bi * qi
        ni = ar * ti + ai * tr - br * qi - bi * qr
        cr = (n * (n + 1) << k) + 2 * n * lr
        ci = 2 * n * li
        # C_1 = 2 (L + 1) is 0 at L = -1, where eta = 0 makes N_1 = 0 and
        # t_1 = 0, as in ``_terms``
        d = ((cr * cr + ci * ci) << k) or 1
        qr, qi = tr, ti
        tr, ti = (nr * cr + ni * ci) // d, (ni * cr - nr * ci) // d
        Pr += Sr
        Pi += Si
        Sr += tr
        Si += ti
    # sum n t_n = (N - 1) S_{N-1} - (S_0 + ... + S_{N-2}), exactly
    Tr, Ti = (n_terms - 1) * Sr - Pr, (n_terms - 1) * Si - Pi
    try:
        S, T = complex(Sr / one, Si / one), complex(Tr / one, Ti / one)
    except OverflowError:
        raise NonConvergence(
            f"series for S(z) at {dps} digits: the sum of {n_terms} terms "
            f"leaves the float range (L={L!r}, eta={eta!r}, "
            f"z={z!r})") from None
    if not (isinstance(L, complex) or isinstance(z, complex)):
        S, T = S.real, T.real
    return S, T, p


#: digits the deeper series pass may lose to cancellation.  Below it tol
#: 10^-h stays a normal float, and an S under 1e-300 (``_TINY``) of its
#: scale reads as 300 lost digits, so a sum that rounds to 0 raises too
_MAX_LOST = 290


def _series_pair(L: Scalar, eta: float, z: Scalar, tol: float):
    """(S, zSp, terms, est_error, retry_bits): the float pass, or where its
    cancellation is fatal the deeper fixed-point pass.

    ``zSp`` is z*S'(z), so the caller never divides by a z that might be
    zero.  The stopping rule of ``_terms`` is the only one the series has.
    The float pass sums its terms, correctly rounded (``math.fsum``), and
    is kept where its last three terms plus 4 eps of its peak partial sum
    lie within 1e-6 of |S| + |z S'| (retry_bits 0).  Otherwise the deeper
    pass runs in rounds.  Each takes h digits, runs ``_terms`` at tol
    10^-h and ``_sum_pair_fixed`` over those terms at 18 + h digits, and
    measures the digits its S lost, lost = ceil(log10(scale / |S|)).  The
    first round takes h = lost of the float pass, each later one
    max(lost, 2h), at most ``_MAX_LOST``; the pass ends at the first round with lost <= h, whose tail then lies below
    tol |S|, and retry_bits is that round's precision in bits.  A round at
    ``_MAX_LOST`` whose S still loses more raises NonConvergence, so no
    more than eleven rounds run.  ``est_error`` is the largest of the last
    three terms plus the rounding error on the peak partial sum ``scale``:
    (4 + n) eps of it on the float pass, n eps for the rounding each of
    its n terms carries, and on the deeper pass 4 units of its roundoff
    plus the final rounding of S and z S' to float.
    """
    ts, scale = _terms(L, eta, z, tol)
    try:
        S, T = _fsum_pair(ts)
    except (OverflowError, ValueError):  # terms or their sum overflow,
        S = T = math.nan                 # and lose every digit
    est, size = max(map(abs, ts[-3:])) + 4.0 * _EPS * scale, abs(S) + abs(T)
    if size < math.inf and est <= 1e-6 * (size + 1e-300):
        # the n terms' own rounding, n eps of scale, is reported, not ruled on
        return S, T, len(ts), est + len(ts) * _EPS * scale, 0
    h = -1                               # no deeper round has run
    while (lost := math.ceil(-math.log10(max(_TINY, abs(S) / scale)))) > h:
        if h == _MAX_LOST:
            raise NonConvergence(f"series for S(z) lost over {_MAX_LOST} "
                                 f"digits (L={L!r}, eta={eta!r}, z={z!r})")
        h = min(max(lost, 2 * h), _MAX_LOST)
        ts, scale = _terms(L, eta, z, tol * 10.0 ** -h)
        S, T, bits = _sum_pair_fixed(L, eta, z, len(ts), 18 + h)
    return S, T, len(ts), (max(map(abs, ts[-3:])) + _EPS * (abs(S) + abs(T))
                           + 4.0 * 10.0 ** (-17 - h) * scale), bits


# ---------------------------------------------------------------------------
# Steed's method past the turning point
# ---------------------------------------------------------------------------

#: Steed's method serves real z from here on past the turning point: below
#: it CF2 takes about 60/z terms, each dearer than a series term, and the
#: series, whose cancellation grows with z, is both faster and right
_STEED_MIN_Z = 4.0

#: the continuation serves z = x + iy with |y| <= rho x.  Its Taylor terms
#: about x shrink like (|y|/x)^n, since the nearest singular point of the
#: Coulomb equation is z = 0; at rho = 0.6 the benchmark's outer complex
#: points need at most 64 of them, and every such point whose series pass
#: was rejected has |y|/x < 0.27
_CONTINUATION_RHO = 0.6


def _cf1(L: float, eta: float, d: float, x: float):
    """(u, neg, terms): u = x F_L'(eta, x) / F_L(eta, x) - (L + 1 - d) for
    x > 0 by Barnett's continued fraction CF1 (Barnett, Feng, Steed &
    Goldfarb, Comput. Phys. Commun. 8, 1974), scaled by x and evaluated by
    the modified Lentz method:

        u = d + x eta/lam - a_lam / (b_lam - a_{lam+1} / (b_{lam+1} - ...))

    with lam = L + 1, a_m = x^2 (1 + eta^2/m^2) and
    b_m = (2m+1)(1 + x eta/(m(m+1))).  The offset d replaces lam in the
    leading term, so the radii's u = x F'/F - c, at d = L + 1 - c, is
    summed without first forming x F'/F and subtracting c; Steed's method
    takes d = L + 1, which gives x F'/F itself.  The eta terms are skipped
    at eta = 0, where F_L = sqrt(pi x/2) J_{L+1/2} and any L > -3/2 is
    allowed.  ``neg`` is the sign of F_L(eta, x): the parity of the
    negative Lentz D's, since each D has the sign of F_m / F_{m-1} and F is
    positive at orders far above x.  ``terms`` is the number of Lentz
    terms.  Raises NonConvergence past a cap of 1000 + 2x terms.
    """
    lam = L + 1.0
    nr2 = -x * x
    n = 1000 + 2 * int(x)
    # locals, |delta - 1| <= eps as one chained comparison, and k carried
    # as the float kf, so the loop takes float adds only
    tiny, lo, hi = _TINY, 1.0 - _EPS, 1.0 + _EPS
    neg = False
    # CF1 converges once m passes the turning point, which lies below ~x
    if eta:
        e2, xe = eta * eta, x * eta
        f = d + xe / lam or tiny
        C, D, kf = f, 0.0, -1.0
        for k in range(n):
            kf += 1.0
            m = lam + kf
            a = nr2 * (1.0 + e2 / (m * m))
            b = (2.0 * m + 1.0) * (1.0 + xe / (m * (m + 1.0)))
            D = 1.0 / (b + a * D or tiny)
            if D < 0.0:
                neg = not neg
            C = b + a / C or tiny
            delta = C * D
            f *= delta
            if lo <= delta <= hi:
                return f, neg, k + 1
    else:
        f = d or tiny
        C, D, kf = f, 0.0, -1.0
        for k in range(n):
            kf += 1.0
            b = 2.0 * (lam + kf) + 1.0
            D = 1.0 / (b + nr2 * D or tiny)
            if D < 0.0:
                neg = not neg
            C = b + nr2 / C or tiny
            delta = C * D
            f *= delta
            if lo <= delta <= hi:
                return f, neg, k + 1
    raise NonConvergence(
        f"CF1 for x F'/F did not converge (L={L!r}, eta={eta!r}, x={x!r})")


def _cf2(L: float, eta: float, x: float):
    """(p, q, terms): p + iq = H+_L'(eta, x) / H+_L(eta, x) by Steed's CF2
    (DLMF 33.8.2),

        p + iq = i (1 - eta/x) + (i/x) ab/(2(x - eta + i) +)
                 (a+1)(b+1)/(2(x - eta + 2i) +) ...,

    a = 1 + L + i eta and b = -L + i eta, summed forward by Steed's
    algorithm until a term is below eps of the sum in modulus.  It
    converges fast past the turning point, in about 60/x terms at small x.
    Raises NonConvergence past ``_MAX_TERMS`` terms.
    """
    # a b, then (a+k)(b+k), which grows by step = 2k + 2i eta
    ab = complex(-(eta * eta + L * (L + 1.0)), eta)
    step = complex(0.0, 2.0 * eta)
    b = complex(2.0 * (x - eta), 2.0)
    D = 1.0 / b
    dh = 1j / x * ab * D
    h = complex(0.0, 1.0 - eta / x) + dh
    for k in range(1, _MAX_TERMS):
        step += 2.0
        ab += step
        b += 2j
        D = 1.0 / (b + ab * D)
        dh *= b * D - 1.0
        h += dh
        if abs(dh) <= _EPS * abs(h):
            return h.real, h.imag, k + 1
    raise NonConvergence(
        f"CF2 for H+'/H+ did not converge within {_MAX_TERMS} terms "
        f"(L={L!r}, eta={eta!r}, x={x!r})")


def _turning_point(L: float, eta: float) -> float:
    """The outer turning point eta + sqrt(eta^2 + L(L+1)) of F_L(eta, .),
    or 0 where there is none on the positive axis."""
    return max(eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0)), 0.0)


def _outer(L: Scalar, eta: float, z: Scalar):
    """(F, u, est, terms, method): F_L(eta, z), u = z F'/F, an error
    estimate for F and the terms used, past the turning point, or None
    where the series serves.  ``"steed"`` (``_steed``) at real L and z,
    with z past the turning point eta + sqrt(eta^2 + L(L+1)) and
    ``_STEED_MIN_Z``, and at most ``_MAX_TERMS``, about as many terms as
    CF1 then takes; ``"continuation"`` (``_continuation``) at real L and
    complex z = x + iy with such x and 0 < |y| <= ``_CONTINUATION_RHO`` x.
    The one route decision of F, g, f, Bessel J and Dini."""
    if isinstance(L, complex):
        return None
    cplx = isinstance(z, complex)
    if cplx:
        x = z.real
        if not 0.0 < abs(z.imag) <= _CONTINUATION_RHO * x:
            return None
    elif isinstance(z, (int, float)):
        x = z
    else:
        return None
    if not max(_turning_point(L, eta), _STEED_MIN_Z) < x <= _MAX_TERMS:
        return None
    if cplx:
        F, dF, est, terms = _continuation(L, eta, z)
        return F, z * dF / F, est, terms, "continuation"
    F, u, est, terms, _ = _steed(L, eta, z)
    return F, u, est, terms, "steed"


def _steed(L: float, eta: float, x: float):
    """(F, u, est, terms, env): F_L(eta, x), u = x F'/F, an error estimate
    for F, the CF1 plus CF2 terms and the envelope, by Steed's method
    (Barnett, Feng, Steed & Goldfarb 1974) at real x past the turning
    point.

    CF1 gives f = F'/F and the sign of F, CF2 gives p + iq = H+'/H+, and
    the Wronskian G F' - G' F = 1 with G = (f - p) F / q fixes

        |F| = (q + (f - p)^2 / q)^(-1/2),

    where env = 1/sqrt(q) = sqrt(F^2 + G^2) is the envelope.  ``est`` is
    the envelope times eps per term of both fractions, plus the rounding of
    u at the scale |L + 1| + x |eta| / |L + 1| of its leading terms, which
    reaches F through the factor 1/(q x).
    """
    u, neg, n1 = _cf1(L, eta, L + 1.0, x)
    p, q, n2 = _cf2(L, eta, x)
    f = u / x
    F = 1.0 / math.sqrt(q + (f - p) * (f - p) / q)
    env = 1.0 / math.sqrt(q)
    lam = abs(L + 1.0)
    scale = lam + x * abs(eta) / lam if eta else lam
    est = _EPS * env * (n1 + n2 + scale / (q * x))
    return -F if neg else F, u, est, n1 + n2, env


# ---------------------------------------------------------------------------
# Steed's values continued to complex z
# ---------------------------------------------------------------------------

def _continuation(L: float, eta: float, z: complex):
    """(F, F', est, terms): F_L(eta, z) and F_L'(eta, z) at z = x + iy,
    Steed's values at x continued along the Coulomb equation (DLMF 33.2.1)
    by the Taylor series of F about x in h = iy.

    Times z^2 the equation reads z^2 F'' + (z^2 - 2 eta z - L(L+1)) F = 0.
    With F(x + h) = sum c_n h^n and a_n = c_n y^n, all real at real L, eta
    and x, it gives

        x^2 (n+2)(n+1) a_{n+2} = -[2x(n+1)n y a_{n+1}
            + (n(n-1) + x^2 - 2 eta x - L(L+1)) y^2 a_n
            + 2(x - eta) y^3 a_{n-1} + y^4 a_{n-2}],

    from a_0 = F(x) and a_1 = F'(x) y, and F(z) = sum a_n i^n,
    F'(z) = sum n a_n i^(n-1) / y.  The loop divides through by x^2 and
    takes an even and an odd term a step.  The sums stop after three terms
    in a row below eps of both sums of moduli, sum |a_n| and sum n |a_n|,
    or raise NonConvergence past ``_MAX_TERMS`` terms or when they leave
    the float range.  ``est`` scales Steed's error relative to the
    envelope, plus eps a term, by sum |a_n| and the envelope at x: an error
    in F(x) or F'(x) grows along the continuation no faster than the sum of
    moduli of a solution at the envelope's size.  ``terms`` counts CF1, CF2
    and the Taylor terms.
    """
    x, y = z.real, z.imag
    F, u, est, n_steed, env = _steed(L, eta, x)
    r = y / x
    r2 = r * r
    # the coefficients of a_n, a_{n-1} and a_{n-2} past n(n-1) r^2, over x^2
    c2 = (x * x - 2.0 * eta * x - L * (L + 1.0)) * r2
    c3 = 2.0 * (x - eta) * y * r2
    c4 = y * y * r2
    a1 = F * u / x * y
    p1, p2, p3, p4 = a1, F, 0.0, 0.0      # a_{m-1} .. a_{m-4}
    Fr, Fi, Dr, Di = F, a1, a1, 0.0       # F(z) and y F'(z), by parts
    A = abs(F) + abs(a1)                  # sum |a_n|
    B = abs(a1)                           # sum n |a_n|
    eps, two_r = _EPS, 2.0 * r
    j, k = 0, 0                           # (m - 2)(m - 3), (m - 1)(m - 2)
    streak = 0
    for m in range(2, _MAX_TERMS, 2):
        mm = m * (m - 1)
        a = -(k * two_r * p1 + (j * r2 + c2) * p2 + c3 * p3 + c4 * p4) / mm
        b = -(mm * two_r * a + (k * r2 + c2) * p1 + c3 * p2
              + c4 * p3) / (mm + 2 * m)
        p4, p3, p2, p1 = p2, p1, a, b
        j, k = mm, mm + 2 * m
        ma, mb = m * a, (m + 1) * b
        if m & 2:                         # i^m = -1
            Fr -= a
            Fi -= b
            Di += ma
            Dr -= mb
        else:
            Fr += a
            Fi += b
            Di -= ma
            Dr += mb
        ta, tb, tma, tmb = abs(a), abs(b), abs(ma), abs(mb)
        A += ta + tb
        B += tma + tmb
        tiny, dtiny = eps * A, eps * B
        if ta <= tiny and tma <= dtiny:
            streak += 1
            if tb <= tiny and tmb <= dtiny:
                streak += 1
                if streak >= 3:
                    break
            else:
                streak = 0
        elif tb <= tiny and tmb <= dtiny:
            streak = 1
        elif not B < math.inf:       # overflowed (inf) or lost (NaN)
            break
        else:
            streak = 0
    terms = m + 2
    if streak < 3 or not B < math.inf:
        what = ("leave the float range" if not B < math.inf
                else f"do not converge within {_MAX_TERMS} terms")
        raise NonConvergence(
            f"Taylor sums continuing F from x = {x!r} to z = {z!r} {what} "
            f"(L={L!r}, eta={eta!r})")
    est = 2.0 * (est / env + terms * eps) * (A + env)
    return (complex(Fr, Fi), complex(Dr, Di) / y, est, n_steed + terms)


def _plain(params: CoulombParams):
    """(L, eta) as the series reads them: L complex for a complex order and
    float otherwise, eta float."""
    return (complex(params.L) if params.is_complex else params.real_L(),
            float(params.eta))


def _demote(x: Scalar) -> Scalar:
    return x.real if isinstance(x, complex) and x.imag == 0.0 else x


def _divide_prefactor(L: float, eta: float, z: Scalar, F: Scalar):
    """(g, k, ex_err): g = F k with k = 1/(C_L(eta) z^L), at real L and z
    off the negative axis, and the rounding of k's exponent
    ex = -log C - L log z relative to k.  ex rounds at the scale of its
    terms, those of log C (where pi eta / 2 and Re log Gamma(L + 1 + i eta)
    cancel at large |eta|) and L log z, and its imaginary part, the phase,
    at its own.  Raises GammaOverflow when k or g leaves the float range.
    """
    lc, lc_scale = _log_prefactor(L, eta)
    cplx = isinstance(z, complex)
    L_logz = L * (cmath.log(z) if cplx else math.log(z))
    ex = -lc.real - L_logz
    if not ex.real <= 709.0:
        raise GammaOverflow(
            f"1/(C z^L) exponent {ex.real:.1f} overflows double precision")
    k = cmath.exp(ex) if cplx else math.exp(ex)
    g = F * k
    if not abs(g) < math.inf:
        raise GammaOverflow(
            f"g = F / (C z^L) overflows double precision at z = {z!r}")
    ex_err = 2.0 * _EPS * (lc_scale + abs(L_logz.real) + abs(ex.real)
                           + abs(ex.imag))
    return g, k, ex_err


def eval_g(params: CoulombParams, z: Scalar, tol: float = 1e-12) -> SeriesEval:
    """The shifted regular solution g(z) = z S(z) and its derivative.

    g is entire in z with g(0) = 0, g'(0) = 1, independent of the gamma
    prefactor.  tol is the truncation target for the series tail relative
    to the largest partial sum; it must lie in [1e-16, 1e-6].  At real L
    and z past the turning point, g = F / (C z^L) from Steed's method, and
    near the real axis there from its continuation (``_outer``); tol
    steers neither.  GammaOverflow if 1/(C z^L) overflows.
    """
    z = _check_tol_z(tol, z)
    if z == 0:
        return SeriesEval(value=0.0, derivative=1.0, terms_used=1,
                          est_error=0.0)
    L, eta = _plain(params)
    outer = _outer(L, eta, z)
    if outer:
        # g = F / (C z^L) and g' = S (z F'/F - L), with S = g/z
        F, u, est, terms, method = outer
        g, k, ex_err = _divide_prefactor(L, eta, z, F)
        return SeriesEval(value=g, derivative=g / z * (u - L),
                          terms_used=terms,
                          est_error=(est + ex_err * abs(F)) * abs(k),
                          method=method)
    S, T, terms, est, bits = _series_pair(L, eta, z, tol)
    # g = z*S ; g' = S + z S' = S + T
    return SeriesEval(value=_demote(z * S), derivative=_demote(S + T),
                      terms_used=terms, est_error=est * abs(z),
                      retry_bits=bits, method="fixed" if bits else "series")


#: CPython's Lanczos sum for math.lgamma (g, and the numerator and
#: denominator coefficients, the latter those of w (w + 1) ... (w + 11))
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS = (
    (23531376880.410759688572007674451636754734846804940, 0.0),
    (42919803642.649098768957899047001988850926355848959, 39916800.0),
    (35711959237.355668049440185451547166705960488635843, 120543840.0),
    (17921034426.037209699919755754458931112671403265390, 150917976.0),
    (6039542586.3520280050642916443072979210699388420708, 105258076.0),
    (1439720407.3117216736632230727949123939715485786772, 45995730.0),
    (248874557.86205415651146038641322942321632125127801, 13339535.0),
    (31426415.585400194380614231628318205362874684987640, 2637558.0),
    (2876370.6289353724412254090516208496135991145378768, 357423.0),
    (186056.26539522349504029498971604569928220784236328, 32670.0),
    (8071.6720023658162106380029022722506138218516325024, 1925.0),
    (210.82427775157934587250973392071336271166969580291, 66.0),
    (2.5066282746310002701649081771338373386264310793408, 1.0))

#: B_2k / (2k (2k - 1)), k = 1 .. 9, the coefficients of Stirling's series
#: in 1/w (DLMF 5.11.1), last first for Horner's rule in 1/w^2
_STIRLING = (43867 / 244188, -3617 / 122400, 1 / 156, -691 / 360360,
             1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _loggamma(w: complex) -> complex:
    """The principal log Gamma(w), the branch that is real on the positive
    axis, to a few eps of max(1, |log Gamma(w)|) at Re w > 0.

    At |w| >= 14, Stirling's series with 9 Bernoulli terms (DLMF 5.11.1),
    whose first omitted term is below 1e-21 there.  Below, the Lanczos sum
    A(w) of CPython's math.lgamma: log Gamma(w) = log A(w) + (w - 1/2)
    (log(w + g - 1/2) - 1) - g, with A summed as a rational function in w
    at |w| < 5 and in 1/w above, as CPython sums it.  Neither shifts w, so
    no sum of logs cancels near |w| = 1.  At Re w <= 0 (complex orders
    only) w is first shifted right by the recurrence log Gamma(w) =
    log Gamma(w + n) - sum log(w + k), whose principal logs keep the branch
    off the negative axis.  At a pole it is NaN.
    """
    if w.real <= 0.0:
        if w.imag == 0.0 and w.real.is_integer():
            return complex(math.nan, math.nan)
        n = math.ceil(0.5 - w.real)
        return _loggamma(w + n) - sum(cmath.log(w + k) for k in range(n))
    m = abs(w)
    if m >= 14.0:
        r = 1.0 / w
        r2 = r * r
        s = 0.0
        for c in _STIRLING:
            s = s * r2 + c
        return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + s * r
    num = den = 0.0
    if m < 5.0:
        for a, b in reversed(_LANCZOS):
            num = num * w + a
            den = den * w + b
    else:
        r = 1.0 / w
        for a, b in _LANCZOS:
            num = num * r + a
            den = den * r + b
    return (cmath.log(num / den) - _LANCZOS_G
            + (w - 0.5) * (cmath.log(w + (_LANCZOS_G - 0.5)) - 1.0))


def _lgamma(x: float) -> float:
    """math.lgamma(x), or inf where that leaves the float range."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _log_prefactor(L: Scalar, eta: float):
    """(log C_L(eta), scale): log C as a complex number, and the sum of
    the moduli of the real parts of its terms, the scale at which it
    rounds.

    log C = a + b - c, with a = L log 2 - pi eta / 2, b the mean of
    log Gamma(L + 1 +- i eta) and c = log Gamma(2L + 2).  At real L the
    pair is conjugate, so b = Re log Gamma(L + 1 + i eta), one call of
    ``_loggamma`` (``math.lgamma`` at eta = 0), and c is ``math.lgamma``;
    at complex L b and c take three calls of ``_loggamma``.
    """
    a = L * math.log(2.0) - math.pi * eta / 2.0
    if isinstance(L, complex):
        b = 0.5 * (_loggamma(L + complex(1.0, eta))
                   + _loggamma(L + complex(1.0, -eta)))
        c = _loggamma(2.0 * L + 2.0)
    else:
        b = (_loggamma(complex(L + 1.0, eta)).real if eta
             else _lgamma(L + 1.0))
        c = _lgamma(2.0 * L + 2.0)
    return complex(a + b - c), abs(a.real) + abs(b.real) + abs(c.real)


def eval_F_with_derivative(params: CoulombParams, z: Scalar,
                           tol: float = 1e-14) -> SeriesEval:
    """F(z) and F'(z) via the entire factor and a log-space prefactor.

    F = C z^(L+1) S and F' = C z^L ((L+1) S + z S'); the combined exponent
    log C + (L+1) log z is formed first so huge gamma factors and tiny
    powers cancel before exponentiation.  Principal branch of log z for
    non-integer L+1.  Raises GammaOverflow when even the combined exponent
    of F or of F' exceeds the float range, or its terms do (past
    L ~ 1.3e305).  On the series ``est_error`` is the series' bound times
    |C z^(L+1)| plus the rounding of that exponent, 2 eps times the terms
    of its real part and its imaginary part, times |F|.  At real L and z
    past the turning point F and F' come from Steed's method instead, and
    near the real axis there from its continuation (``_outer``); tol
    steers neither.
    """
    z = _check_tol_z(tol, z)
    L, eta = _plain(params)
    outer = _outer(L, eta, z)
    if outer:
        F, u, est, terms, method = outer
        return SeriesEval(value=F, derivative=F * u / z, terms_used=terms,
                          est_error=est, method=method)
    lc, lc_scale = _log_prefactor(L, eta)
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
    log_z = cmath.log(z)
    lz = (L + 1) * log_z
    log_total = lc + lz
    # F' = C z^L (...) has the exponent of F less log|z|, the larger of the
    # two where |z| < 1.  Past L ~ 1e305 the terms of log C overflow, and
    # log C is inf - inf or a finite remnant of them; at a pole of
    # Gamma(L + 1 +- i eta) (complex L) they are NaN, and so is F
    log_max = log_total.real - min(log_z.real, 0.0)
    if log_max > 709.0 or lc_scale == math.inf:
        raise GammaOverflow(
            f"combined prefactor exponent {log_max:.5g} (terms up to "
            f"{lc_scale:.3g}) overflows double precision")
    S, T, terms, est, bits = _series_pair(L, eta, z, tol)
    # C z^(L+1), a float at real L and z > 0, so that an F' that overflows
    # stays the real inf and takes no NaN imaginary part from 0 * inf
    pref = _demote(cmath.exp(log_total))
    value = pref * S
    deriv = pref / z * ((L + 1) * S + T)
    # log_total rounds at the scale of its terms, those of log C and
    # (L + 1) log z, and its imaginary part, the prefactor's phase, at its own
    ex_err = 2.0 * _EPS * (lc_scale + abs(lz.real) + abs(log_total.imag))
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms,
                      est_error=est * abs(pref) + ex_err * abs(value),
                      retry_bits=bits, method="fixed" if bits else "series")


def eval_F(params: CoulombParams, z: Scalar, tol: float = 1e-14) -> Scalar:
    """The regular Coulomb function F(z) (value only)."""
    return eval_F_with_derivative(params, z, tol).value


def eval_f_normalized(params: CoulombParams, z: Scalar,
                      tol: float = 1e-14) -> SeriesEval:
    """The power-normalized form f(z) = z * S(z)^(1/(L+1)) and derivative,
    read off g = z S:

        f = z (g/z)^(1/(L+1)),        f' = (f/z) (1 + (z g'/g - 1)/(L+1)).

    Principal branch of the fractional power; f(0) = 0, f'(0) = 1.  f
    takes g's path (``_outer`` past the turning point, the series
    otherwise), its diagnostics and its GammaOverflow, except
    ``est_error``: f's relative error is g's over |L + 1|, plus the
    rounding of log(g/z), of exp and of z times the root.
    """
    z = _check_tol_z(tol, z)
    g = eval_g(params, z, tol)
    if z == 0:
        return g
    L = _plain(params)[0]
    lg = cmath.log(g.value / z)
    root = cmath.exp(lg / (L + 1))
    deriv = root * (1 + (z * g.derivative / g.value - 1) / (L + 1))
    # f's relative error is g's, and the rounding of log(g/z), over |L + 1|,
    # plus that of exp and of z root
    rel = (g.est_error / abs(g.value) + 2 * _EPS * (1 + abs(lg))) / abs(L + 1)
    return g._replace(value=_demote(z * root), derivative=_demote(deriv),
                      est_error=(rel + 2.0 * _EPS) * abs(z * root))


# ---------------------------------------------------------------------------
# Bessel and Dini evaluations (independent series, used for cross-checks)
#
# J_nu(z) Gamma(nu + 1) / (z/2)^nu is S at L = nu - 1/2 and eta = 0, yet J
# keeps its own loop in w = -z^2/4 as its float pass.  At eta = 0 every odd
# term of S is zero, so ``_series_pair`` computes and stores twice the
# terms: over the benchmark's Bessel J points of seeds 1-3 with nu > -1/2 it
# took 35-37 us a value against 16-24 us for this loop (2-core host,
# Python 3.11), and folding J onto it cost the benchmark's eval workload
# 8-12 % of its operations per second; a pair-step eta = 0 loop in
# ``_terms`` left J at 1.3-1.5 times the cost of this loop.  Only where the
# series' rule rejects this loop's sums does J read ``_series_pair``, for
# its deeper pass; the benchmark has no such point.  The loop shares the
# series' tail bound, ``_safe_index``.  Two different series also keep
# acceptance criterion 3, the Bessel reduction at complex z, a comparison
# of two sums, except near the real axis past the turning point, where F
# and J both come from the continuation of Steed's F_{nu-1/2}(0, x): 6 of
# its 60 points (z = 7.231 - 2.481i and 4.280 + 1.408i at each order)
# compare the continuation with itself, and the other 54 still two series.
# ---------------------------------------------------------------------------

def eval_bessel_j(nu: float, z: Scalar, tol: float = 1e-15) -> SeriesEval:
    """Bessel J_nu(z) and J'_nu(z), by Steed's method past the turning
    point and from the ascending series otherwise.

    nu must be real (ValueError), finite and > -1, and z finite
    (GateViolation).  tol, the truncation target for the series tail
    relative to its largest partial sum, must lie in [1e-16, 1e-6]
    (ValueError).  At real z past sqrt(nu^2 - 1/4) and 4 (and at most
    ``_MAX_TERMS``), J_nu(z) = sqrt(2/(pi z)) F_{nu-1/2}(0, z) by Steed's
    method, to about 1e-13 of the envelope sqrt(J^2 + Y^2), and so at
    complex z = x + iy with such x and 0 < |y| <= 0.6 x by its
    continuation (``_outer``); tol steers neither.  Otherwise the series
    of J_nu(z) Gamma(nu + 1) / (z/2)^nu starts at 1; the factor
    (z/2)^nu / Gamma(nu + 1) is applied in log space, so large orders
    neither overflow nor lose the result before it underflows.  The terms
    are summed in float with Kahan compensation, and that pass is kept
    unless the series' rule rejects it: where its last term plus 4 eps of
    its peak partial sum exceeds 1e-6 of |U| + |V - nu U|, with U and V
    its sums of t_m and (2m + nu) t_m, J reads the deeper fixed-point pass
    of S at L = nu - 1/2, eta = 0 (``_series_pair``), since U = S and
    V = nu S + z S'.  The float pass's ``est_error`` is the last term plus
    (4 + m) eps of its peak partial sum, m eps for the rounding each of
    its m terms carries; the deeper pass's is ``_series_pair``'s.  Either
    adds the rounding of the factor's exponent nu log(z/2) -
    lgamma(nu + 1).  Raises NonConvergence when the series' running sum
    overflows, or the deeper pass loses more than ``_MAX_LOST`` digits,
    and GammaOverflow when that factor, or its counterpart in J', exceeds
    the float range, or lgamma(nu + 1) does (past nu ~ 2.5e305).
    """
    if isinstance(nu, complex):
        raise ValueError("nu must be real")
    nu = float(nu)
    _check_finite("nu", nu)
    z = _check_tol_z(tol, z)
    if nu <= -1:
        raise GateViolation(f"Bessel order nu = {nu} <= -1 not supported")
    outer = _outer(nu - 0.5, 0.0, z)
    if outer:
        # J = sqrt(2/(pi z)) F_{nu-1/2}(0, z), J' = J (z F'/F - 1/2) / z
        F, u, est, terms, method = outer
        k = (cmath.sqrt if isinstance(z, complex) else math.sqrt)(
            2.0 / (math.pi * z))
        return SeriesEval(value=k * F, derivative=k * F * (u - 0.5) / z,
                          terms_used=terms, est_error=est * abs(k),
                          method=method)
    if z == 0:
        # the limits as z -> 0+ of J ~ (z/2)^nu / Gamma(nu + 1) and of
        # J' ~ nu (z/2)^(nu - 1) / (2 Gamma(nu + 1)), at nu != 0
        value = 1.0 if nu == 0 else 0.0 if nu > 0 else math.inf
        deriv = (0.5 if nu == 1 else 0.0 if nu == 0 or nu > 1
                 else math.copysign(math.inf, nu))
        return SeriesEval(value=value, derivative=deriv, terms_used=1,
                          est_error=0.0)
    w = z * z / 4.0
    # t_m is the Coulomb term n = 2m of S at L = nu - 1/2, eta = 0, so the
    # tail is bounded from 2m >= n_safe on
    n_safe = _safe_index(nu - 0.5, 0.0, abs(z))
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
            if a == math.inf:            # and inf passes the stopping rule
                raise NonConvergence(
                    f"Bessel series did not converge within {_MAX_TERMS} "
                    f"terms: the float sum overflowed at term {m} "
                    f"(nu={nu}, z={z!r})")
            scale = a
        last = abs(t)
        if last <= tol * scale and 2 * m >= n_safe:
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
    else:
        raise NonConvergence(
            f"Bessel series did not converge within {_MAX_TERMS} terms "
            f"(nu={nu}, z={z!r})")
    # t_m carries about m eps of rounding from the recurrence, on top of
    # the sum's own at the peak partial sum
    terms, est, bits = m + 1, last + (4.0 + m) * _EPS * scale, 0
    if last + 4.0 * _EPS * scale > 1e-6 * (abs(U) + abs(V - nu * U)):
        # the series' rule rejects the float pass: U = S_(nu-1/2)(0, z) and
        # V = nu S + T take the deeper pass
        U, V, terms, est, bits = _series_pair(nu - 0.5, 0.0, z, tol)
        V += nu * U
    # half_pow = (z/2)^nu / Gamma(nu + 1), half_pow_m1 = (z/2)^(nu-1) / ...
    try:
        lg = math.lgamma(nu + 1.0)
    except OverflowError:               # past nu ~ 2.5e305
        raise GammaOverflow(
            f"log Gamma(nu + 1) in the Bessel prefactor overflows double "
            f"precision (nu={nu}, z={z!r})") from None
    lz = math.log(abs(z) / 2.0)
    top = max(nu * lz, (nu - 1.0) * lz) - lg
    if not top <= 709.0:
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
    # the exponent nu log(z/2) - lgamma(nu + 1) rounds at the scale of its
    # terms, and its imaginary part, the phase, at its own
    nu_lz = nu * lz
    ex_err = 2.0 * _EPS * (abs(lg) + abs(nu_lz.real) + abs(nu_lz.imag))
    return SeriesEval(value=_demote(value), derivative=_demote(deriv),
                      terms_used=terms,
                      est_error=est * abs(half_pow) + ex_err * abs(value),
                      retry_bits=bits, method="fixed" if bits else "series")


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
    r = _check_tol_z(tol, r)
    je = eval_bessel_j(nu, r, tol)
    if r == 0:
        k = nu + H
        value, deriv = (k * je.value, k * je.derivative) if k else (0.0, 0.0)
        return je._replace(value=value, derivative=deriv)
    value = r * je.derivative + H * je.value
    deriv = H * je.derivative + (nu * nu / r - r) * je.value
    return je._replace(value=_demote(value), derivative=_demote(deriv),
                       est_error=je.est_error * (abs(r) + abs(H)))
