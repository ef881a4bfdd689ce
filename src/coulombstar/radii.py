"""Radii of starlikeness and univalence of the normalized regular solutions.

Every radius computed here is the smallest positive root of a "reduced"
equation that is positive at 0+:

* power-normalized form f(z) = z S(z)^(1/(L+1)):
      H_f(r)   = (L+1)(1-beta) S(r) + r S'(r)
* shifted form g(z) = z S(z):
      H_g(r)   = (1-beta) S(r) + r S'(r)
* generalized Bessel-type normalization phi(z) = z jhat(z)^(1/(nu+alpha))
  with jhat(z) = 0F1(nu+1; -z^2/4):
      H_phi(r) = (nu+alpha)(1-beta) jhat(r) + r jhat'(r)

The radius of starlikeness of order beta is the first positive root; the
case beta = 0 also gives the radius of univalence for these families.

Divided by S (or jhat), positive up to the first zero of F, each is a
condition u(r) = r F_L'(eta, r)/F_L(eta, r) - c = 0 on the log-derivative
of the regular Coulomb function: c = beta (L+1) for f, L + beta for g, and
nu + 1/2 - (nu+alpha)(1-beta) for phi at order L = nu - 1/2 and eta = 0,
where F_L(0, r) = sqrt(pi r/2) J_{L+1/2}(r).  One float kernel, Barnett's
continued fraction CF1 (Barnett, Feng, Steed & Goldfarb, Comput. Phys.
Commun. 8, 1974), gives u for every family and order.  CF1 writes r F'/F
as L + 1 + r eta/(L+1) plus a fraction; the kernel starts its Lentz
product at d + r eta/(L+1) instead, with d = L + 1 - c formed exactly by
each family ((1-beta)(L+1), 1-beta and (nu+alpha)(1-beta)), so u is never
the difference of r F'/F and c, two numbers of size L for g.

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

The search is one guarded Newton loop in s, and its derivative is free:
the Riccati equation at any point where u is known gives

    r u'(r) = P(r) - (u + c - 1/2)^2
            = (d - u)(2L + 1 - d + u) + r (2 eta - r),

factored so that the squares do not cancel.  It starts at the positive
root of the Taylor polynomial of u,

    d + r eta/(L+1) - Z2 r^2 = 0,    Z2 = (1 + eta^2/(L+1)^2) / (2L + 3),

taken in the form without cancellation for the sign of eta, and capped at
the lower bound (L+1)^2 / (hypot(eta, L+1) + |eta|) on j (2 sqrt(L + 3/2)
at eta = 0).  Since u(0+) = d > 0, u <= 0 there brackets the root in
(0, start); otherwise the start is the lower end and there is no bracket
yet.  Before a bracket each step, from the lower end, is a plain Newton
step, or where r u' >= 0 a step in s that doubles the last one, and it
halves until a Riccati comparison bound clears it: for K^2 >= -P over a
step, W stays above K tan(atan(W0/K) - K ds), finite while
ds < atan2(K, -W0)/K, so no step passes j; nor does one pass a ceiling
past the turning point.  After a bracket each step starts from whichever
of the last two iterates has the smaller |u| and goes to the root of the
cubic Hermite interpolant of s(u) through both, or is a plain Newton step
when the other has r u' >= 0; every iterate shrinks the bracket by the
sign of u, and bisection replaces a step from a point with r u' >= 0 and
a step that leaves the bracket or fails to halve the step before last.
Once a step falls below half the tolerance 1e-15 hi (1e-15 r before a
bracket), one evaluation half a tolerance past the iterate closes the
bracket.

Rounding.  The kernel rounds u to a few eps of the two terms its product
starts from, scale = d + r |eta|/(L+1); near the root the fraction is of
that size too.  Where |u| is below 3 eps scale the bracket closes only to
the band of r in which the sign of u is rounding, and where r u' is lost in
rounding too the search stops.  ``RadiusResult`` returns the bracket end
with the smaller |u| as the root, that |u| as ``residual``, the kernel
evaluations as ``iterations`` and a first-order relative forward error

    error_bound = (residual + e_u) / |r u'| + eps,    e_u = 10 eps scale,

where r u' is taken at the root in the factored form, less the share of it
that e_u could account for; it is infinite where that leaves nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import GateViolation, NonConvergence, NoRootInScanRange
from .specfun import _EPS

__all__ = [
    "Family",
    "RadiusQuery",
    "RadiusResult",
    "radius_f",
    "radius_g",
    "radius_phi",
]

_TINY = 1e-300


class Family(str, enum.Enum):
    """Normalization families of the regular solution."""

    F_POWER = "f"        # z * S^(1/(L+1))
    F_SHIFT = "g"        # z * S
    BESSEL_GEN = "phi"   # z * jhat^(1/(nu+alpha))


@dataclass(frozen=True)
class RadiusResult:
    """First positive root, its final bracket, the residual |u(root)|, the
    number of kernel evaluations and a relative forward-error estimate."""

    value: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int
    error_bound: float


@dataclass(frozen=True)
class RadiusQuery:
    """CLI-friendly bundle of radius inputs; see :meth:`solve`."""

    family: Family
    beta: float = 0.0
    L: Optional[float] = None
    eta: Optional[float] = None
    nu: Optional[float] = None
    alpha: Optional[float] = None

    def solve(self) -> RadiusResult:
        fam = Family(self.family)
        if fam is Family.BESSEL_GEN:
            if self.nu is None or self.alpha is None:
                raise GateViolation("family 'phi' needs nu and alpha")
            return radius_phi(self.nu, self.alpha, self.beta)
        if self.L is None or self.eta is None:
            raise GateViolation(f"family {fam.value!r} needs L and eta")
        op = radius_f if fam is Family.F_POWER else radius_g
        return op(self.L, self.eta, self.beta)


# ---------------------------------------------------------------------------
# reduced equations through the logarithmic derivative
# ---------------------------------------------------------------------------

def _reduced(L: float, eta: float, d: float, r: float) -> float:
    """u(r) = r F_L'(eta, r) / F_L(eta, r) - (L + 1 - d) for r > 0 by
    Barnett's continued fraction CF1 (Barnett, Feng, Steed & Goldfarb,
    Comput. Phys. Commun. 8, 1974), scaled by r and evaluated by the
    modified Lentz method:

        u = d + r eta/lam - a_lam / (b_lam - a_{lam+1} / (b_{lam+1} - ...))

    with lam = L + 1, a_m = r^2 (1 + eta^2/m^2) and
    b_m = (2m+1)(1 + r eta/(m(m+1))).  The offset d = L + 1 - c replaces
    lam in the leading term, so u is summed without first forming r F'/F
    and subtracting c; d = L + 1 gives r F'/F itself.  The eta terms are
    skipped at eta = 0, where F_L = sqrt(pi r/2) J_{L+1/2} and any
    L > -3/2 is allowed.
    """
    lam = L + 1.0
    nr2 = -r * r
    n = 1000 + 2 * int(r)
    # locals, and |delta - 1| <= eps as one chained comparison
    tiny, lo, hi = _TINY, 1.0 - _EPS, 1.0 + _EPS
    # CF1 converges once m passes the turning point, which lies below ~r
    if eta:
        e2, re = eta * eta, r * eta
        f = d + re / lam or tiny
        C, D = f, 0.0
        for k in range(n):
            m = lam + k
            a = nr2 * (1.0 + e2 / (m * m))
            b = (2.0 * m + 1.0) * (1.0 + re / (m * (m + 1.0)))
            D = 1.0 / (b + a * D or tiny)
            C = b + a / C or tiny
            delta = C * D
            f *= delta
            if lo <= delta <= hi:
                return f
    else:
        f = d or tiny
        C, D = f, 0.0
        for k in range(n):
            b = 2.0 * (lam + k) + 1.0
            D = 1.0 / (b + nr2 * D or tiny)
            C = b + nr2 / C or tiny
            delta = C * D
            f *= delta
            if lo <= delta <= hi:
                return f
    raise NonConvergence(
        f"CF1 for r F'/F did not converge (L={L!r}, eta={eta!r}, r={r!r})")


def _first_root(L: float, eta: float, d: float) -> RadiusResult:
    """First positive root of u(r) = r F_L'(eta, r)/F_L(eta, r) - c by the
    guarded Newton loop of the module docstring; d = L + 1 - c, formed
    exactly by the caller, since L + 1 - c in floats cancels as c nears
    L + 1."""
    evals = 0

    def u(r: float) -> float:
        nonlocal evals
        evals += 1
        return _reduced(L, eta, d, r)

    def P(r: float) -> float:
        return (L + 0.5) ** 2 + 2.0 * eta * r - r * r

    def rdu(r: float, ur: float) -> float:
        # r u' = P(r) - (u + L + 1/2 - d)^2, factored so it does not cancel
        return (d - ur) * (2.0 * L + 1.0 - d + ur) + r * (2.0 * eta - r)

    # start at the root of the Taylor polynomial d + r eta/lam - Z2 r^2 of
    # u, capped at a lower bound on the first zero of F:
    # (L+1)^2 / (hypot(eta, L+1) + |eta|) for L > -1, 2 sqrt(L + 3/2) at
    # eta = 0
    lam = L + 1.0
    if eta:
        e = eta / lam
        r = lam * lam / (math.hypot(eta, lam) + abs(eta))
    else:
        e = 0.0
        r = 2.0 * math.sqrt(L + 1.5)
    Z2 = (1.0 + e * e) / (2.0 * L + 3.0)
    s = math.sqrt(e * e + 4.0 * Z2 * d)
    r = min(r, (e + s) / (2.0 * Z2) if e > 0.0 else 2.0 * d / (s - e))
    # every root sought here lies before the first zero of F, which lies
    # within 2.4 Airy lengths past the outer turning point; that length is
    # at most (L/2)^(1/3) at large order and (2 eta)^(1/3) at large eta
    turn = max(eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0)), 0.0)
    ceiling = turn + 4.0 * max(L, eta, 1.0) ** (1.0 / 3.0) + 10.0
    # r u' moves by |2L + 1 - 2d| per unit of u, so the rounding of u makes
    # any r u' below du_u * noise, and a step or band width drawn from it,
    # noise
    du_u = abs(2.0 * L + 1.0 - 2.0 * d)
    ae = abs(eta) / lam
    ur = u(r)
    # u(0+) = d > 0, so u(start) <= 0 brackets the root in (0, start);
    # otherwise hi stays infinite until a step finds u <= 0
    lo, ulo, hi, uhi = ((r, ur, math.inf, -math.inf) if ur > 0.0
                        else (0.0, d, r, ur))
    q, uq, duq = r, ur, 0.0
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
        dur = rdu(r, ur)
        if bracketed and abs(uq) < abs(ur):
            # step from the better iterate
            r, ur, dur, q, uq, duq = q, uq, duq, r, ur, dur
        ds = math.inf if bracketed else step
        if dur < 0.0:
            ds = -ur / dur
            if bracketed and duq < 0.0 and uq != ur:
                # inverse cubic Hermite through (u, s, ds/du) at r and q
                t = ur / (ur - uq)
                ds = ((3.0 - 2.0 * t) * t * t * math.log(q / r)
                      - ur * (1.0 - t) * ((1.0 - t) / dur - t / duq))
        # before a bracket, halve the step until the Riccati bound clears it
        cap = math.log(ceiling / r)
        while True:
            x = r * math.exp(ds) if ds < cap else ceiling
            if bracketed:
                break
            # P is concave, so least at an end of the step
            K = math.sqrt(max(-min(P(r), P(x)), _TINY))
            if min(ds, cap) < 0.9 * math.atan2(K, d - L - 0.5 - ur) / K:
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
        elif bracketed and not (lo < x < hi and abs(x - r) <= 0.5 * dx_old):
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise NonConvergence(f"root search underflows at r={r!r}")
        dx_old, dx = dx, abs(x - r)
        q, uq, duq = r, ur, dur
        r, ur = x, u(x)
        if ur > 0.0:
            lo, ulo = r, ur
        else:
            hi, uhi = r, ur
    root, ur = (lo, ulo) if ulo < -uhi else (hi, uhi)
    # first-order forward error, void where r u' is lost in rounding
    err_u = abs(ur) + 10.0 * _EPS * (d + root * ae)
    dur = abs(rdu(root, 0.0)) - du_u * err_u
    return RadiusResult(value=root, bracket=(lo, hi), residual=abs(ur),
                        iterations=evals,
                        error_bound=err_u / dur + _EPS if dur > 0.0
                        else math.inf)


def _check_coulomb(L, eta, beta: float) -> None:
    if isinstance(L, complex) or isinstance(eta, complex):
        raise GateViolation("radii are defined for real L and eta")
    if not -1.0 < float(L):
        raise GateViolation(f"need L > -1, got {L}")
    if not 0.0 <= beta < 1.0:
        raise GateViolation(f"order beta must lie in [0, 1), got {beta}")


def radius_f(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of f(z) = z S(z)^(1/(L+1)).

    First positive root of (L+1)(1-beta) S + r S'; for beta = 0 this is the
    first positive zero of F' and also the radius of univalence.
    Preconditions: real L > -1, real eta, 0 <= beta < 1.
    """
    _check_coulomb(L, eta, beta)
    L = float(L)
    return _first_root(L, float(eta), (1.0 - beta) * (L + 1.0))


def radius_g(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of the shifted form g = z S(z).

    First positive root of (1-beta) S + r S'.
    """
    _check_coulomb(L, eta, beta)
    return _first_root(float(L), float(eta), 1.0 - beta)


def radius_phi(nu, alpha, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of
    phi(z) = z jhat(z)^(1/(nu+alpha)), jhat(z) = 0F1(nu+1; -z^2/4).

    First positive root of (nu+alpha)(1-beta) jhat + r jhat'.
    Preconditions: nu > -1, nu + alpha > 0, 0 <= beta < 1.
    """
    nu = float(nu)
    alpha = float(alpha)
    if nu <= -1.0:
        raise GateViolation(f"need nu > -1, got {nu}")
    if nu + alpha <= 0.0:
        raise GateViolation(f"need nu + alpha > 0, got nu+alpha = {nu + alpha}")
    if not 0.0 <= beta < 1.0:
        raise GateViolation(f"order beta must lie in [0, 1), got {beta}")
    # r jhat'/jhat = r J_nu'/J_nu - nu = r F'/F - nu - 1/2 at L = nu - 1/2
    return _first_root(nu - 0.5, 0.0, (nu + alpha) * (1.0 - beta))
