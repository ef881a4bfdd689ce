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
Commun. 8, 1974), gives r F'/F for every family and order.

Why the first sign change of u is the root.  u has a pole at the first zero
j of F.  With W = r F'/F - 1/2 and s = ln r, the Riccati equation of F gives
dW/ds = P(r) - W^2 with P(r) = (L + 1/2)^2 + 2 eta r - r^2.  Where dW/ds = 0,
d^2W/ds^2 = dP/ds = 2 r (eta - r), so W has local minima only at r < eta
and local maxima only at r > eta.  Near 0, W = L + 1/2 + eta r/(L+1) +
O(r^2) rises only when eta > 0, and then no minimum can come before its
first maximum.  On (0, j) u is therefore decreasing, or rising then
falling; since u(0+) = L + 1 - c > 0 it has exactly one root there, a
simple crossing, and u > 0 at a point before j means the root lies beyond
it.  No probe for double roots is needed.

The search is one walk.  It starts at half a lower bound on j, halving
while u <= 0, and otherwise steps outward in s with steps that double while
a Riccati comparison bound allows: for K^2 >= -P over a step, W stays above
K tan(atan(W0/K) - K ds), finite while ds < atan2(K, -W0)/K, so no step
passes j.  The first point with u <= 0 closes a bracket, which the Illinois
method refines to width 1e-14 (1 + r); ``RadiusResult.residual`` is
|u(root)| and ``iterations`` counts kernel evaluations.
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
    """First positive root, its final bracket and the residual |u(root)|."""

    value: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int


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

def _log_derivative(L: float, eta: float, r: float) -> float:
    """r F_L'(eta, r) / F_L(eta, r) for r > 0 by Barnett's continued
    fraction CF1 (Barnett, Feng, Steed & Goldfarb, Comput. Phys. Commun. 8,
    1974), scaled by r and evaluated by the modified Lentz method:

        r F'/F = lam + r eta/lam - a_lam / (b_lam - a_{lam+1} / (b_{lam+1} - ...))

    with lam = L + 1, a_m = r^2 (1 + eta^2/m^2) and
    b_m = (2m+1)(1 + r eta/(m(m+1))).  The eta terms are skipped at eta = 0,
    where F_L = sqrt(pi r/2) J_{L+1/2} and any L > -3/2 is allowed.
    """
    lam = L + 1.0
    f = (lam + r * eta / lam if eta else lam) or _TINY
    C, D = f, 0.0
    r2 = r * r
    # CF1 converges once m passes the turning point, which lies below ~r
    for k in range(1000 + 2 * int(r)):
        m = lam + k
        if eta:
            a = -r2 * (1.0 + eta * eta / (m * m))
            b = (2.0 * m + 1.0) * (1.0 + r * eta / (m * (m + 1.0)))
        else:
            a, b = -r2, 2.0 * m + 1.0
        D = 1.0 / (b + a * D or _TINY)
        C = b + a / C or _TINY
        delta = C * D
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return f
    raise NonConvergence(
        f"CF1 for r F'/F did not converge (L={L!r}, eta={eta!r}, r={r!r})")


def _first_root(L: float, eta: float, c: float) -> RadiusResult:
    """First positive root of u(r) = r F_L'(eta, r)/F_L(eta, r) - c by the
    guarded walk of the module docstring."""
    evals = 0

    def u(r: float) -> float:
        nonlocal evals
        evals += 1
        return _log_derivative(L, eta, r) - c

    def P(r: float) -> float:
        return (L + 0.5) ** 2 + 2.0 * eta * r - r * r

    # start at half a lower bound on the first zero of F:
    # sqrt(eta^2 + (L+1)^2) - |eta| for L > -1, 2 sqrt(L + 3/2) at eta = 0
    if eta:
        lo = 0.5 * (math.hypot(eta, L + 1.0) - abs(eta))
    else:
        lo = math.sqrt(L + 1.5)
    ulo = u(lo)
    hi, uhi = lo, ulo
    for _ in range(60):              # u(0+) = L + 1 - c > 0
        if ulo > 0.0:
            break
        hi, uhi = lo, ulo
        lo /= 2.0
        ulo = u(lo)
    else:
        raise NonConvergence(
            f"r F'/F - c is not positive near 0 (L={L!r}, eta={eta!r})")
    # every root sought here lies before the first zero of F, which lies
    # within 2.4 Airy lengths past the outer turning point; that length is
    # at most (L/2)^(1/3) at large order and (2 eta)^(1/3) at large eta
    turn = max(eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0)), 0.0)
    ceiling = turn + 4.0 * max(L, eta, 1.0) ** (1.0 / 3.0) + 10.0
    step = 0.5                       # in s = ln r
    while uhi > 0.0:
        if lo >= ceiling:
            raise NoRootInScanRange(
                f"no sign change of the reduced equation found on "
                f"(0, {ceiling}]")
        # halve the step until the Riccati bound clears it, double it after
        while True:
            nxt = min(lo * math.exp(step), ceiling)
            # P is concave, so least at an end of the step
            K = math.sqrt(max(-min(P(lo), P(nxt)), _TINY))
            if math.log(nxt / lo) < 0.9 * math.atan2(K, 0.5 - c - ulo) / K:
                break
            step *= 0.5
        if nxt <= lo:
            raise NonConvergence(f"guarded walk underflows at r={lo!r}")
        step *= 2.0
        hi, uhi = nxt, u(nxt)
        if uhi > 0.0:
            lo, ulo = hi, uhi
    # Illinois: a secant step, halving the weight of an end that survives
    # twice in a row, and kept half the final width inside the bracket so
    # that a step landing on the root also closes the bracket.  Where the
    # rounding of u leaves a run of exact zeros, bisection finds its left end
    tol = 1e-14 * (1.0 + hi)
    w_lo = w_hi = 1.0
    side = 0
    while hi - lo > tol:
        if uhi:
            x = lo - w_lo * ulo * (hi - lo) / (w_hi * uhi - w_lo * ulo)
        else:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        ux = u(x)
        if ux > 0.0:
            lo, ulo, w_lo = x, ux, 1.0
            if side > 0:
                w_hi *= 0.5
            side = 1
        else:
            hi, uhi, w_hi = x, ux, 1.0
            if side < 0:
                w_lo *= 0.5
            side = -1
    # a last secant step on the true values resolves roots far below 1
    root = min(max(lo - ulo * (hi - lo) / (uhi - ulo), lo), hi)
    residual = abs(u(root))
    return RadiusResult(value=root, bracket=(lo, hi), residual=residual,
                        iterations=evals)


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
    return _first_root(float(L), float(eta), beta * (float(L) + 1.0))


def radius_g(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of the shifted form g = z S(z).

    First positive root of (1-beta) S + r S'.
    """
    _check_coulomb(L, eta, beta)
    return _first_root(float(L), float(eta), float(L) + beta)


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
    c = nu + 0.5 - (nu + alpha) * (1.0 - beta)
    return _first_root(nu - 0.5, 0.0, c)
