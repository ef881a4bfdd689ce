"""Radii of starlikeness and univalence of the normalized regular solutions.

Every radius computed here is the smallest positive root of one "reduced"
equation, positive at 0+,

    H(r) = kappa (1-beta) S(r) + r S'(r),

for a normalized form h(z) = z S(z)^(1/kappa) of the Coulomb factor S at
(L, eta).  One map, ``_family_map``, takes a family and its inputs to
(L, eta, kappa) and applies every input gate:

* power-normalized form f(z) = z S(z)^(1/(L+1)):      (L, eta, L + 1)
* shifted form g(z) = z S(z):                          (L, eta, 1)
* generalized Bessel-type normalization phi(z) = z jhat(z)^(1/(nu+alpha)),
  jhat(z) = 0F1(nu+1; -z^2/4), which is S at L = nu - 1/2 and eta = 0:
                                                       (nu - 1/2, 0, nu + alpha)

The radius of starlikeness of order beta is the first positive root; the
case beta = 0 also gives the radius of univalence for these families.

Divided by S, positive up to the first zero of F, H = 0 is the condition
u(r) = r F_L'(eta, r)/F_L(eta, r) - c = 0 on the log-derivative of the
regular Coulomb function, with c = L + 1 - d and d = kappa (1-beta), where
F_L(0, r) = sqrt(pi r/2) J_{L+1/2}(r).  One float kernel, Barnett's
continued fraction CF1 (Barnett, Feng, Steed & Goldfarb, Comput. Phys.
Commun. 8, 1974), gives u for every family and order: ``specfun._cf1``,
which also feeds Steed's method past the turning point.  CF1 writes
r F'/F as L + 1 + r eta/(L+1) plus a fraction; the kernel starts its Lentz
product at d + r eta/(L+1) instead, with d = kappa (1-beta) one rounded
product, so u is never the difference of r F'/F and c, two numbers of size
L for g.

Why the first sign change of u is the root.  u has a pole at the first zero
j of F.  With W = r F'/F - 1/2 and s = ln r, the Riccati equation of F gives
dW/ds = P(r) - W^2 with P(r) = (L + 1/2)^2 + 2 eta r - r^2.  Where dW/ds = 0,
d^2W/ds^2 = dP/ds = 2 r (eta - r), so W has local minima only at r < eta
and local maxima only at r > eta.  Near 0, W = L + 1/2 + eta r/(L+1) +
O(r^2) rises only when eta > 0, and then no minimum can come before its
first maximum.  On (0, j) u is therefore decreasing, or rising then
falling; since u(0+) = d > 0 it has exactly one root there, a simple
crossing, and u > 0 at a point before j means the root lies beyond it.  No
probe for double roots is needed.

The search is one guarded loop of fourth-order steps in s, and the three
derivatives they take are free: the Riccati equation at any point where u
is known gives, with v(s) = u(r) and W = u + L + 1/2 - d = u + c - 1/2,

    v' = r u'(r) = P(r) - W^2 = (d - u)(2L + 1 - d + u) + r (2 eta - r),

factored so that the squares do not cancel, and, since dW/ds = v', its
derivatives in s,

    v''  = 2 r (eta - r) - 2 W v',
    v''' = 2 eta r - 4 r^2 - 2 v'^2 - 2 W v''.

It starts at the positive root of the Taylor polynomial of u,

    d + r eta/(L+1) - Z2 r^2 = 0,    Z2 = (1 + eta^2/(L+1)^2) / (2L + 3),

taken in the form without cancellation for the sign of eta, and capped at
the lower bound (L+1)^2 / (hypot(eta, L+1) + |eta|) on j.  At eta = 0 the
cap is max(2 sqrt(L + 3/2), L + 1), the limit of that bound, and both
terms lie below j = j_{nu,1}, nu = L + 1/2: the Rayleigh sum of
1/j_{nu,k}^2 is 1/(4 (nu + 1)), so j > 2 sqrt(nu + 1); for nu >= 1/4,
j > sqrt(nu (nu + 2)) >= nu + 1/2 (Watson, Bessel Functions, 15.3), and
below that j >= j_{-1/2,1} = pi/2 > L + 1.  Since u(0+) = d > 0, u <= 0
at the start brackets the root in (0, start); otherwise the start is the
lower end and there is no bracket yet.  Each step is the series
reversion of v + v' ds + v'' ds^2/2 + v''' ds^3/6 = 0,

    ds = N / (1 + B N + (C - B^2) N^2),
    N = -v/v',    B = v''/(2 v'),    C = v'''/(6 v'),

whose error is O(N^4), so it converges with order four at one kernel
call a step.  It is never shorter than half the Newton step N, and it is
N where that denominator is <= 0 or not finite (v'^2 overflows past
L ~ 1e154); where r u' >= 0 it is instead a step that doubles the last
one before a bracket, and bisection after.  Before a bracket each step,
from the lower end, halves until a Riccati comparison bound clears it:
for K^2 >= -P over a step, W stays above
K tan(atan(W0/K) - K ds), finite while ds < atan2(K, -W0)/K, so no step
passes j; nor does one pass a ceiling past the turning point.  Every
iterate shrinks the bracket by the sign of u, and bisection replaces a
step that leaves the bracket or is longer than both half the step before
last and half the bracket.  Once a step falls below half the tolerance
1e-15 hi (1e-15 r before a bracket), one evaluation half a tolerance past
the iterate closes the bracket.

Rounding.  The kernel rounds u to a few eps of the two terms its product
starts from, scale = d + r |eta|/(L+1); near the root the fraction is of
that size too.  Where |u| is below 3 eps scale the bracket closes only to
the band of r in which the sign of u is rounding, and where r u' is lost in
rounding too the search stops.  ``RadiusResult``, a named tuple as
``RadiusQuery`` is, returns the bracket end with the smaller |u| as the
root, that |u| as ``residual``, the kernel evaluations as ``iterations``
and a first-order relative forward error

    error_bound = (residual + e_u) / |r u'| + eps,    e_u = 10 eps scale,

where r u' is taken at the root in the factored form, less the share of it
that e_u could account for; it is infinite where that leaves nothing.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional, Tuple

from .errors import GateViolation, NonConvergence, NoRootInScanRange
from .specfun import _EPS, _TINY, _cf1, _turning_point

__all__ = [
    "Family",
    "RadiusQuery",
    "RadiusResult",
    "radius_f",
    "radius_g",
    "radius_phi",
]


class Family(str, enum.Enum):
    """Normalization families of the regular solution."""

    F_POWER = "f"        # z * S^(1/(L+1))
    F_SHIFT = "g"        # z * S
    BESSEL_GEN = "phi"   # z * jhat^(1/(nu+alpha))


class RadiusResult(NamedTuple):
    """First positive root, its final bracket, the residual |u(root)|, the
    number of kernel evaluations and a relative forward-error estimate."""

    value: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int
    error_bound: float


class RadiusQuery(NamedTuple):
    """Radius inputs: the family, beta and the family's two inputs (L and
    eta, or nu and alpha); :meth:`solve` finds the radius."""

    family: Family
    beta: float = 0.0
    L: Optional[float] = None
    eta: Optional[float] = None
    nu: Optional[float] = None
    alpha: Optional[float] = None

    def solve(self) -> RadiusResult:
        return _radius(Family(self.family), self.beta, self.L, self.eta,
                       self.nu, self.alpha)


def _family_map(fam: Family, L, eta, nu, alpha):
    """(L, eta, kappa) of a family, whose radius of order beta is the first
    root of kappa (1 - beta) S + r S' with S the Coulomb factor at (L, eta):
    f gives (L, eta, L + 1), g gives (L, eta, 1) and phi gives
    (nu - 1/2, 0, nu + alpha), where S is jhat.

    Gates: the family's two inputs present, real and finite, and neither
    input of the other family given; L > -1 for f and g, nu > -1 and
    nu + alpha > 0 for phi.  Raises GateViolation.
    """
    phi = fam is Family.BESSEL_GEN
    (a, b), other = ((nu, alpha), (L, eta)) if phi else ((L, eta), (nu, alpha))
    if any(x is not None for x in other):
        x, y = ("L", "eta") if phi else ("nu", "alpha")
        raise GateViolation(f"family {fam.value!r} takes no {x} or {y}, "
                            f"got {x}={other[0]!r}, {y}={other[1]!r}")
    if (a is None or b is None or isinstance(a, complex)
            or isinstance(b, complex)
            or not (math.isfinite(a) and math.isfinite(b))):
        x, y = ("nu", "alpha") if phi else ("L", "eta")
        raise GateViolation(f"family {fam.value!r} needs finite real {x} "
                            f"and {y}, got {x}={a!r}, {y}={b!r}")
    a, b = float(a), float(b)
    if not a > -1.0:
        raise GateViolation(f"need {'nu' if phi else 'L'} > -1, got {a}")
    if not phi:
        return a, b, a + 1.0 if fam is Family.F_POWER else 1.0
    if a + b <= 0.0:
        raise GateViolation(f"need nu + alpha > 0, got nu+alpha = {a + b}")
    # r jhat'/jhat = r J_nu'/J_nu - nu = r F'/F - nu - 1/2 at L = nu - 1/2
    return a - 0.5, 0.0, a + b


def _radius(fam: Family, beta, L, eta, nu, alpha) -> RadiusResult:
    """The radius of order beta in [0, 1): the first root of u with
    d = kappa (1 - beta), from the family map."""
    if not 0.0 <= beta < 1.0:
        raise GateViolation(f"order beta must lie in [0, 1), got {beta}")
    L, eta, kappa = _family_map(fam, L, eta, nu, alpha)
    try:
        return _first_root(L, eta, kappa * (1.0 - beta))
    except (OverflowError, ZeroDivisionError) as exc:
        # at huge order the search's own floats leave the range, such as
        # (L + 1/2)^2 in the Riccati bound or 2L + 3 in the start
        raise NonConvergence(f"the root search left the float range at "
                             f"L={L!r}, eta={eta!r}: {exc}") from exc


def _first_root(L: float, eta: float, d: float) -> RadiusResult:
    """First positive root of u(r) = r F_L'(eta, r)/F_L(eta, r) - c by the
    guarded loop of fourth-order steps in s = ln r of the module docstring;
    d = L + 1 - c, formed exactly by the caller, since L + 1 - c in floats
    cancels as c nears L + 1.  The Riccati equation gives v', v'' and v'''
    from each value of u, so a step costs one call of ``_cf1``."""
    # start at the root of the Taylor polynomial d + r eta/lam - Z2 r^2 of
    # u, capped at a lower bound on the first zero of F:
    # (L+1)^2 / (hypot(eta, L+1) + |eta|) for L > -1, and its limit
    # max(2 sqrt(L + 3/2), L + 1) at eta = 0
    lam = L + 1.0
    if eta:
        e = eta / lam
        r = lam * lam / (math.hypot(eta, lam) + abs(eta))
    else:
        e = 0.0
        r = max(2.0 * math.sqrt(L + 1.5), lam)
    Z2 = (1.0 + e * e) / (2.0 * L + 3.0)
    s = math.sqrt(e * e + 4.0 * Z2 * d)
    r = min(r, (e + s) / (2.0 * Z2) if e > 0.0 else 2.0 * d / (s - e))
    # every root sought here lies before the first zero of F, which lies
    # within 2.4 Airy lengths past the outer turning point; that length is
    # at most (L/2)^(1/3) at large order and (2 eta)^(1/3) at large eta
    ceiling = (_turning_point(L, eta)
               + 4.0 * max(L, eta, 1.0) ** (1.0 / 3.0) + 10.0)
    # r u' moves by |2L + 1 - 2d| per unit of u, so the rounding of u makes
    # any r u' below du_u * noise, and a step or band width drawn from it,
    # noise
    du_u = abs(2.0 * L + 1.0 - 2.0 * d)
    ae = abs(eta) / lam if eta else 0.0
    # r u' = (d - u)(a + u) + r (2 eta - r) = P(r) - W^2, factored so that
    # it does not cancel, with W = u + w0
    a, w0, eta2 = 2.0 * L + 1.0 - d, L + 0.5 - d, 2.0 * eta
    ur, evals = _cf1(L, eta, d, r)[0], 1
    # u(0+) = d > 0, so u(start) <= 0 brackets the root in (0, start);
    # otherwise hi stays infinite until a step finds u <= 0
    lo, ulo, hi, uhi = ((r, ur, math.inf, -math.inf) if ur > 0.0
                        else (0.0, d, r, ur))
    dx = dx_old = hi - lo
    step, h, band = 0.5, 0.0, 0.0    # step: the doubling step in s = ln r
    while True:
        bracketed = hi < math.inf
        tol = max(1e-15 * (hi if bracketed else r), band)
        if hi - lo <= tol:
            break
        if lo >= ceiling:
            raise NoRootInScanRange(
                f"no sign change of the reduced equation found on "
                f"(0, {ceiling}]")
        dur = (d - ur) * (a + ur) + r * (eta2 - r)
        w = ur + w0
        ds = math.inf if bracketed else step
        if dur < 0.0:
            # the fourth-order step of the module docstring, with v' = r u'
            # and v'', v''' from the Riccati equation: at least half the
            # Newton step, and Newton's where the denominator is <= 0 or
            # not finite (v'^2 overflows past L ~ 1e154)
            v2 = 2.0 * r * (eta - r) - 2.0 * w * dur
            v3 = eta2 * r - 4.0 * r * r - 2.0 * dur * dur - 2.0 * w * v2
            ds = -ur / dur
            B, C = v2 / (2.0 * dur), v3 / (6.0 * dur)
            den = 1.0 + B * ds + (C - B * B) * ds * ds
            if 0.0 < den < math.inf:
                ds /= min(den, 2.0)
        # before a bracket, halve the step until the Riccati bound clears it
        cap = math.log(ceiling / r)
        while True:
            x = r * math.exp(ds) if ds < cap else ceiling
            if bracketed:
                break
            # P(r) = (L + 1/2)^2 + 2 eta r - r^2 is concave, so least at an
            # end of the step
            hs = (L + 0.5) ** 2
            K = math.sqrt(max(-min(hs + eta2 * r - r * r,
                                   hs + eta2 * x - x * x), _TINY))
            if min(ds, cap) < 0.9 * math.atan2(K, -w) / K:
                break
            ds *= 0.5
        step = 2.0 * ds
        # CF1 rounds u to a few eps of the two terms it starts from, d and
        # r eta/(L + 1); below that level its sign means nothing
        noise = 3.0 * _EPS * (d + r * ae)
        flat = abs(ur) <= noise
        if flat:
            if dur >= -du_u * noise:
                break                # u carries no more information
            # u is zero to rounding: no narrower bracket means anything
            band = max(band, -2.0 * r * noise / dur)
            tol = max(tol, band)
        if abs(x - r) <= 0.5 * tol or flat:
            h = max(h, 0.5 * tol)
            x = r + h if ur > 0.0 else r - h
            h *= 2.0
        elif bracketed and not (lo < x < hi and abs(x - r)
                                <= 0.5 * max(dx_old, hi - lo)):
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise NonConvergence(f"root search underflows at r={r!r}")
        dx_old, dx = dx, abs(x - r)
        r, ur, evals = x, _cf1(L, eta, d, x)[0], evals + 1
        if ur > 0.0:
            lo, ulo = r, ur
        else:
            hi, uhi = r, ur
    root, ur = (lo, ulo) if ulo < -uhi else (hi, uhi)
    # first-order forward error, void where r u' is lost in rounding
    err_u = abs(ur) + 10.0 * _EPS * (d + root * ae)
    dur = abs(d * a + root * (eta2 - root)) - du_u * err_u
    return RadiusResult(value=root, bracket=(lo, hi), residual=abs(ur),
                        iterations=evals,
                        error_bound=err_u / dur + _EPS if dur > 0.0
                        else math.inf)


def radius_f(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of f(z) = z S(z)^(1/(L+1)).

    First positive root of (L+1)(1-beta) S + r S'; for beta = 0 this is the
    first positive zero of F' and also the radius of univalence.
    Preconditions: real L > -1, real eta, 0 <= beta < 1.
    """
    return _radius(Family.F_POWER, beta, L, eta, None, None)


def radius_g(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of the shifted form g = z S(z).

    First positive root of (1-beta) S + r S'.
    """
    return _radius(Family.F_SHIFT, beta, L, eta, None, None)


def radius_phi(nu, alpha, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of
    phi(z) = z jhat(z)^(1/(nu+alpha)), jhat(z) = 0F1(nu+1; -z^2/4).

    First positive root of (nu+alpha)(1-beta) jhat + r jhat'.
    Preconditions: real nu > -1, real alpha, nu + alpha > 0, 0 <= beta < 1.
    """
    return _radius(Family.BESSEL_GEN, beta, None, None, nu, alpha)
