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
Commun. 8, 1974), gives r F'/F for every family and order, and a guarded
scan finds the first sign change of u; ``RadiusResult.residual`` is
|u(root)|.  For beta = 0 and eta < 0 the scan window is seeded from the
Euler-Rayleigh sandwich (s = 4), which brackets the square of the root a
priori, making the scan a handful of evaluations even at large order.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .errors import (BoundsInvalid, GateViolation, NonConvergence,
                     NonMonotoneBracket, NoRootInScanRange, RegionWarning)
from .rayleigh import euler_rayleigh_bounds
from .specfun import _EPS, CoulombParams

__all__ = [
    "Family",
    "RadiusQuery",
    "RadiusResult",
    "smallest_positive_root",
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
# generic first-root scan
# ---------------------------------------------------------------------------

def _refine(fn: Callable[[float], float], lo, f_lo, hi, f_hi,
            width_tol: float):
    """Bisect a sign-change bracket down to width_tol, then take one secant
    step if it stays inside.  Returns (root, lo, hi, evals)."""
    if not (f_lo > 0 >= f_hi):
        raise NonMonotoneBracket(
            f"refinement called without a sign change: f({lo}) = {f_lo}, "
            f"f({hi}) = {f_hi}")
    evals = 0
    while hi - lo > width_tol:
        mid = (lo + hi) / 2
        if mid <= lo or mid >= hi:      # width at rounding floor
            break
        f_mid = fn(mid)
        evals += 1
        if f_mid > 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    root = (lo + hi) / 2
    denom = f_hi - f_lo
    if denom != 0:
        sec = lo - f_lo * (hi - lo) / denom
        if lo < sec < hi:
            root = sec
    return root, lo, hi, evals


def smallest_positive_root(fn: Callable[[float], float],
                           scan_ceiling: float,
                           *,
                           step: float = 0.05,
                           scan_start: Optional[float] = None,
                           grow_after: float = 10.0,
                           growth: float = 1.25,
                           step_cap: float = 0.6,
                           width_rel: float = 1e-14) -> RadiusResult:
    """First positive root of ``fn``, assumed positive just right of 0.

    Scans with the given step (growing geometrically past ``grow_after``),
    brackets the first sign change and bisects it to width
    ``width_rel * (1 + r)``.  A local dip that undershoots the recent scale
    without crossing zero is probed by bounded minimization so tangential
    (double) roots are found rather than skipped.  ``fn`` may return mpmath
    floats; comparisons and the returned floats handle both.

    Raises NoRootInScanRange when the scan passes ``scan_ceiling``.
    """
    if scan_ceiling <= 0:
        raise ValueError("scan_ceiling must be positive")
    h = step
    x0 = scan_start if scan_start is not None else h
    f0 = fn(x0)
    evals = 1
    # the contract is fn(0+) > 0; if the start already sits past the first
    # root, walk left until positive so the bracket is still the first root
    shrink = 0
    while f0 <= 0:
        x_hi, f_hi = x0, f0
        x0 = x0 / 2
        f0 = fn(x0)
        evals += 1
        shrink += 1
        if shrink > 60:
            raise ValueError("fn is not positive at 0+ as required")
    if shrink:
        width_tol = width_rel * (1.0 + float(x_hi))
        root, lo, hi, ev = _refine(fn, x0, f0, x_hi, f_hi, width_tol)
        res = abs(float(fn(float(root))))
        return RadiusResult(value=float(root), bracket=(float(lo), float(hi)),
                            residual=res, iterations=evals + ev + 1)
    xp, fp = x0, f0                 # previous point
    xpp, fpp = None, None           # point before that (for dip detection)
    fmax = abs(float(f0))
    while True:
        x = xp + h
        if x > scan_ceiling + h:
            raise NoRootInScanRange(
                f"no sign change of the reduced equation found on "
                f"(0, {scan_ceiling}]")
        f = fn(x)
        evals += 1
        if f <= 0:
            width_tol = width_rel * (1.0 + float(x))
            root, lo, hi, ev = _refine(fn, xp, fp, x, f, width_tol)
            res = abs(float(fn(float(root))))
            return RadiusResult(value=float(root),
                                bracket=(float(lo), float(hi)),
                                residual=res, iterations=evals + ev + 1)
        af = abs(float(f))
        if af > fmax:
            fmax = af
        # tangential-root probe: a sharp local minimum far below recent scale
        if (xpp is not None and fp < fpp and fp < f
                and float(fp) <= 0.25 * min(float(fpp), float(f))
                and float(fp) <= 0.05 * fmax):
            xa, xb = float(xpp), float(x)
            gr = (math.sqrt(5.0) - 1.0) / 2.0
            c1 = xb - gr * (xb - xa)
            c2 = xa + gr * (xb - xa)
            fc1, fc2 = fn(c1), fn(c2)
            evals += 2
            while xb - xa > 1e-10 * (1.0 + xb):
                if fc1 <= 0 or fc2 <= 0:
                    break
                if fc1 < fc2:
                    xb, c2, fc2 = c2, c1, fc1
                    c1 = xb - gr * (xb - xa)
                    fc1 = fn(c1)
                else:
                    xa, c1, fc1 = c1, c2, fc2
                    c2 = xa + gr * (xb - xa)
                    fc2 = fn(c2)
                evals += 1
            xm, fm = (c1, fc1) if fc1 < fc2 else (c2, fc2)
            if fm <= 0:
                width_tol = width_rel * (1.0 + float(xm))
                root, lo, hi, ev = _refine(fn, float(xpp), fpp, float(xm), fm,
                                           width_tol)
                res = abs(float(fn(float(root))))
                return RadiusResult(value=float(root),
                                    bracket=(float(lo), float(hi)),
                                    residual=res,
                                    iterations=evals + ev + 1)
            if float(fm) <= 1e-10 * fmax:
                # numerically tangential: report the dip bottom
                return RadiusResult(value=float(xm),
                                    bracket=(float(xa), float(xb)),
                                    residual=abs(float(fm)),
                                    iterations=evals)
            # genuine but harmless dip; fall through and keep scanning
        xpp, fpp = xp, fp
        xp, fp = x, f
        if x > grow_after:
            h = min(h * growth, step_cap)


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


def _reduced(L: float, eta: float, c: float):
    """u(r) = r F_L'(eta, r)/F_L(eta, r) - c guarded for the root scan, and
    a one-item list counting its kernel evaluations.

    u has a pole at the first zero of F and is positive again past it.  So a
    call past the furthest point reached walks there in steps that cannot
    pass the pole, and past the first point where u <= 0 returns that value.
    In s = ln r, Y = r F'/F - 1/2 obeys dY/ds = P(r) - Y^2 with
    P(r) = (L + 1/2)^2 + 2 eta r - r^2; for K^2 >= -P over a step, Y stays
    above K tan(atan(Y0/K) - K ds), finite while ds < atan2(K, -Y0)/K.  The
    walk starts at half a lower bound on the first zero of F:
    sqrt(eta^2 + (L+1)^2) - |eta| for L > -1, 2 sqrt(L + 3/2) at eta = 0.
    """
    if eta:
        x0 = 0.5 * (math.hypot(eta, L + 1.0) - abs(eta))
    else:
        x0 = math.sqrt(L + 1.5)
    evals = [0]

    def u_at(r: float) -> float:
        evals[0] += 1
        return _log_derivative(L, eta, r) - c

    def P(r: float) -> float:
        return (L + 0.5) ** 2 + 2.0 * eta * r - r * r

    reached = [x0, u_at(x0)]

    def u(r: float) -> float:
        x, ux = reached
        if r <= x:
            return u_at(r)
        while ux > 0.0 and x < r:
            # P is concave, so least at an end of the step
            K = math.sqrt(max(-min(P(x), P(r)), 1e-300))
            ds = math.atan2(K, 0.5 - c - ux) / K
            nxt = min(r, x * math.exp(min(0.9 * ds, 700.0)))
            if nxt <= x:
                raise NonConvergence(f"guarded scan step underflows at r={x!r}")
            x, ux = nxt, u_at(nxt)
        reached[:] = [x, ux]
        return ux

    return u, evals


def _scan_window(L: float, eta: float, beta: float):
    """(start, step, ceiling, grow) for the scan; Euler-Rayleigh seeded when
    the sandwich applies (beta = 0, eta < 0, L != 0).

    Besides a ceiling past the root, the scan needs each step to stay below
    the gap between the root and the first zero of F, where u has a pole: a
    step over both lands where u is positive again.  :func:`_reduced` keeps
    that invariant whatever the step chosen here."""
    if beta == 0.0 and eta < 0.0 and L != 0.0:
        try:
            b4 = euler_rayleigh_bounds(CoulombParams(L, eta), 4)
            # the sandwich is strict, so the root lies inside (lo, hi); a
            # hair of margin guards the sqrt roundings only
            lo = math.sqrt(b4.lower) * (1.0 - 1e-9)
            hi = math.sqrt(b4.upper) * (1.0 + 1e-9)
            step = max((hi - lo) / 4.0, 0.01)
            return lo, step, hi + 1.0, False
        except (BoundsInvalid, ValueError, GateViolation):
            pass
    # every root sought here lies before the first zero of F, which lies
    # within 2.4 Airy lengths past the outer turning point; that length is
    # at most (L/2)^(1/3) at large order and (2 eta)^(1/3) at large eta
    turn = max(eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0)), 0.0)
    return None, 0.05, turn + 4.0 * max(L, eta, 1.0) ** (1.0 / 3.0) + 10.0, True


def _first_root(L: float, eta: float, c: float, beta: float) -> RadiusResult:
    """First positive root of u(r) = r F_L'(eta, r)/F_L(eta, r) - c; flags
    roots within a few scan steps of the origin when beta is close to 1."""
    start, step, ceiling, grow = _scan_window(L, eta, beta)
    u, evals = _reduced(L, eta, c)
    res = smallest_positive_root(
        u, ceiling, step=step, scan_start=start,
        grow_after=(10.0 if grow else math.inf))
    res = replace(res, iterations=evals[0])
    if beta > 0.9 and res.value < 10.0 * step:
        warnings.warn(
            f"order beta = {beta} pushes the radius ({res.value:.3g}) below "
            "ten scan steps; treat the bracket with care", RegionWarning,
            stacklevel=3)
    return res


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
    return _first_root(float(L), float(eta), beta * (float(L) + 1.0), beta)


def radius_g(L, eta, beta: float = 0.0) -> RadiusResult:
    """Radius of starlikeness of order beta of the shifted form g = z S(z).

    First positive root of (1-beta) S + r S'.
    """
    _check_coulomb(L, eta, beta)
    return _first_root(float(L), float(eta), float(L) + beta, beta)


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
    return _first_root(nu - 0.5, 0.0, c, beta)
