"""Independent verification utilities.

Nothing here reuses the radius scan or the Rayleigh recurrences being
verified; these are the cross-checks:

* ``starlike_scan`` / ``spirallike_scan`` -- evaluate the starlikeness
  witness Re(z h'(z)/h(z)) (rotated by arg(L+1) for complex order) on a
  circle |z| = r and report the minimum.  A radius is confirmed by a
  positive minimum just below it and a sign change just above it.
* ``boundary_image`` -- points of the image curve h(r e^(it)) for plotting.
  Both write h = z B^(1/kappa), with B the Coulomb entire factor S, summed
  from the float series terms of ``specfun``.  They take the inputs of
  ``RadiusQuery``: the family with ``L=``/``eta=`` for f and g, or
  ``nu=``/``alpha=`` for phi.  They read (L, eta, kappa) and every input
  gate from the family map of the radii, which takes phi to L = nu - 1/2
  and eta = 0, where S is jhat.  The root search's continued fraction
  plays no part.
* ``zero_sum_oracle`` -- power sums over zeros located by direct numerical
  integration of the defining ODE  u'' = (2 eta/z + L(L+1)/z^2 - 1) u,
  plus an Euler-Maclaurin tail; this never touches the series recurrences,
  so agreement with ``rayleigh_Z``/``rayleigh_Ztilde`` is meaningful.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import List, NamedTuple, Optional, Union

import numpy as np
from numpy.polynomial import polynomial as npp
# Nothing here calls mpmath, and only ``_ode_zeros`` needs scipy, but this
# module, which the CLI loads, must keep importing both at load: the traced
# benchmark times ``cli.import_mpmath_ms`` and ``cli.import_scipy_ms`` from
# the modules a fresh ``python -m coulombstar`` imports, and stops with "no
# samples" when none imports one of them (CHANGES.md FOUND #29).  Drop
# these imports with that benchmark change.  A bare ``import scipy`` costs
# about 13 ms once numpy is loaded.
import mpmath  # noqa: F401
import scipy  # noqa: F401

from .errors import GateViolation, PoleOnCircle, ZeroEnumerationIncomplete
from .radii import Family, _family_map
from .specfun import (CoulombParams, eval_F_with_derivative, _EPS,
                      _check_finite, _terms, _turning_point)

__all__ = [
    "DiskScanReport",
    "starlike_scan",
    "spirallike_scan",
    "companion_order",
    "boundary_image",
    "zero_sum_oracle",
]


class DiskScanReport(NamedTuple):
    """Minimum of the (possibly rotated) starlikeness witness on a circle."""

    radius_scanned: float
    grid_size: int
    min_real_part: float
    argmin_angle: float
    witness_rotation: float = 0.0


def _factor_on_circle(r, n, L, eta):
    """The entire factor B of h = z B^(1/kappa) at z = r e^(2 pi i k/n).

    B is the Coulomb factor S at (L, eta); for phi the family map puts
    L = nu - 1/2 and eta = 0, where S is jhat.  Its terms b_k = a_k r^k at
    z = r, from the float series of ``specfun``, are the coefficients of B
    in w = z/r: they are the term sizes on |z| = r, so none that matters
    underflows.  Returns (z, B, z B', segment); segment is None for complex
    order and otherwise holds B on [r/64, r] and the a priori bound
    2 n eps sum |b_k| (x/r)^k on the rounding of Horner's rule for those
    values (Higham, Accuracy and Stability of Numerical Algorithms, 5.1),
    with n the number of terms.
    Gates: finite r > 0.
    Raises NonConvergence when the terms at z = r leave the float range.
    """
    _check_finite("r", r)
    if r <= 0:
        raise ValueError("r must be positive")
    b = np.asarray(_terms(L, eta, r, 1e-15)[0])
    w = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    return (r * w, npp.polyval(w, b), npp.polyval(w, b * np.arange(len(b))),
            None if isinstance(L, complex)
            else _horner(np.linspace(1.0 / 64.0, 1.0, 64), b))


def _horner(x: np.ndarray, b: np.ndarray):
    """Values of sum b_k x^k at x >= 0 and a bound on their rounding."""
    return (npp.polyval(x, b),
            2.0 * len(b) * _EPS * npp.polyval(x, np.abs(b)))


def _witness(r, n, L, eta, kappa) -> np.ndarray:
    """1 + (z B'/B)/kappa on the circle, whose real part is Re(z h'/h).

    Gates: the grid size n an integer >= 16 (ValueError).  Raises
    GateViolation where B on [r/64, r] is negative beyond its rounding
    bound (a zero of B lies inside), PoleOnCircle where it is within that
    bound of 0, so that its sign is unknown, and PoleOnCircle where B
    vanishes on the circle (to working precision).
    """
    if not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"grid_size must be an integer >= 16, got {n!r}")
    _, B, zdB, segment = _factor_on_circle(r, n, L, eta)
    if segment is not None:
        vals, bound = segment
        if np.any(vals < -bound):
            raise GateViolation(
                "the scan radius lies beyond the first positive zero of the "
                "normalized function; the witness ratio is undefined there")
        if np.any(vals <= bound):
            raise PoleOnCircle(
                f"the entire factor lies below its rounding bound on "
                f"[{r / 64.0}, {r}], so its sign there is unknown")
    if np.min(np.abs(B)) < 1e-12 * max(1.0, float(np.max(np.abs(B)))):
        raise PoleOnCircle(
            f"the entire factor vanishes on |z| = {r} to working precision")
    return 1.0 + (zdB / B) / kappa


def _scan_report(r: float, vals: np.ndarray,
                 rotation: float = 0.0) -> DiskScanReport:
    k = int(np.argmin(vals))
    return DiskScanReport(radius_scanned=float(r), grid_size=len(vals),
                          min_real_part=float(vals[k]),
                          argmin_angle=2.0 * math.pi * k / len(vals),
                          witness_rotation=rotation)


def starlike_scan(family: Union[Family, str], r: float, *,
                  L: Optional[float] = None, eta: Optional[float] = None,
                  nu: Optional[float] = None,
                  alpha: Optional[float] = None,
                  grid_size: int = 1024) -> DiskScanReport:
    """Minimum of Re(z h'/h) over |z| = r for the requested normalization.

    h is f, g, or phi per ``family``, with the inputs of ``RadiusQuery``:
    ``L`` and ``eta`` for f and g, ``nu`` and ``alpha`` for phi.  The scan
    is the verification witness for radii of starlikeness (of order beta:
    compare the minimum against beta).  Preconditions: r > 0, grid_size an
    integer >= 16, the gates of the radii (real inputs, so complex order
    goes to ``spirallike_scan``), r at most the first positive zero of the
    normalized function (checked on the real axis).  Raises PoleOnCircle
    when the denominator vanishes on the grid to working precision, or when
    its float sum on the real axis is within its rounding bound of 0, so
    that the check cannot be made.
    """
    w = _witness(r, grid_size, *_family_map(Family(family), L, eta, nu, alpha))
    return _scan_report(r, np.real(w))


def companion_order(L: complex) -> float:
    """The real order l > -1/2 with l(l+1) = Re[L(L+1)], used to transfer
    radius statements to complex order.

    Exists iff Re[L(L+1)] > -1/4, i.e. (Im L)^2 < Re(L)(Re(L)+1) + 1/4.
    Raises GateViolation otherwise, or when L is not finite.
    """
    _check_finite("L", L)
    q = (L * (L + 1.0)).real
    if q <= -0.25:
        raise GateViolation(
            f"Re[L(L+1)] = {q} <= -1/4: no real companion order exists")
    return (-1.0 + math.sqrt(1.0 + 4.0 * q)) / 2.0


def spirallike_scan(L: complex, eta: float, r: float, *,
                    grid_size: int = 1024) -> DiskScanReport:
    """Minimum of the rotated witness Re(e^(i theta) z f'/f) on |z| = r for
    complex order L, with theta = arg(L+1), the rotation under which f is
    spirallike up to the companion-order radius.

    Gates: Re L > -1 and |arg(L+1)| < pi/4, then those of ``starlike_scan``
    for f; an order with zero imaginary part is real, so r must then also
    lie below the first positive zero of f.
    """
    Lc = complex(L)
    if Lc.real <= -1.0:
        raise GateViolation(f"need Re L > -1, got {Lc}")
    th = cmath.phase(Lc + 1.0)
    if abs(th) >= math.pi / 4.0:
        raise GateViolation(f"|arg(L+1)| = {abs(th):.3f} >= pi/4")
    p = CoulombParams(Lc, eta)        # gates finiteness, demotes a real Lc
    w = _witness(r, grid_size, p.L, float(p.eta), p.L + 1.0)
    return _scan_report(r, np.real(np.exp(1j * th) * w), th)


def boundary_image(family: Union[Family, str], r: float, n_points: int, *,
                   L: Optional[float] = None, eta: Optional[float] = None,
                   nu: Optional[float] = None,
                   alpha: Optional[float] = None) -> List[complex]:
    """Image points h(r e^(it)) for t = 2 pi k/n_points, k = 0..n_points-1.

    The inputs are those of ``starlike_scan``: ``L`` and ``eta`` for f and
    g, ``nu`` and ``alpha`` for phi.  Fractional powers take the principal
    branch.  The curve is closed by construction (the last point neighbors
    the first).  Gates as for ``starlike_scan``, with n_points an integer
    >= 8.
    """
    if not isinstance(n_points, numbers.Integral) or n_points < 8:
        raise ValueError(f"n_points must be an integer >= 8, got {n_points!r}")
    L, eta, kappa = _family_map(Family(family), L, eta, nu, alpha)
    z, B, _, _ = _factor_on_circle(r, n_points, L, eta)
    if Family(family) is Family.F_SHIFT:
        vals = z * B
    else:
        vals = z * np.exp(np.log(B) / kappa)
    return [complex(v) for v in vals]


# ---------------------------------------------------------------------------
# ODE zero enumeration and power sums
# ---------------------------------------------------------------------------

def _spacing_guard(zeros: np.ndarray) -> None:
    d = np.diff(zeros)
    if np.any(d <= 0):
        raise ZeroEnumerationIncomplete("zero list is not increasing")
    for i in range(3, len(d)):
        window = d[max(0, i - 5):i]
        med = float(np.median(window))
        if d[i] > 1.75 * med:
            raise ZeroEnumerationIncomplete(
                f"spacing jump at zero #{i + 1}: {d[i]:.3f} vs recent median "
                f"{med:.3f}; a zero was probably skipped")


def _ode_zeros(params: CoulombParams, which: str, n_zeros: int) -> np.ndarray:
    """First n_zeros positive zeros of F (which='F') or F' (which='Fprime')
    by integrating the defining ODE outward from z0 = 0.5."""
    # imported here: scipy.integrate adds a few tenths of a second to
    # importing the package, and only this oracle needs it
    from scipy.integrate import solve_ivp

    L = params.real_L()
    eta = float(params.eta)
    z0 = 0.5
    fe = eval_F_with_derivative(params, z0)
    y0 = [float(fe.value), float(fe.derivative)]
    if y0[0 if which == "F" else 1] <= 0.0:
        raise GateViolation(
            f"{which} is not positive at z0 = {z0}; a zero below the "
            "integration start would be missed")

    def rhs(z, y):
        return [y[1], (2.0 * eta / z + L * (L + 1.0) / (z * z) - 1.0) * y[0]]

    idx = 0 if which == "F" else 1

    def event(z, y):
        return y[idx]

    event.direction = 0.0
    z_end = max(_turning_point(L, eta), z0) + math.pi * (n_zeros + 2) + 10.0
    for _ in range(3):
        sol = solve_ivp(rhs, (z0, z_end), y0, method="DOP853",
                        events=event, rtol=1e-10, atol=1e-12, max_step=1.0)
        if not sol.success:
            raise ZeroEnumerationIncomplete(
                f"ODE integration failed: {sol.message}")
        zs = sol.t_events[0]
        zs = zs[np.concatenate(([True], np.diff(zs) > 1e-8))]
        if len(zs) >= n_zeros:
            zeros = zs[:n_zeros]
            _spacing_guard(zeros)
            return zeros
        z_end *= 1.5
    raise ZeroEnumerationIncomplete(
        f"found only {len(zs)} of {n_zeros} requested zeros below z = "
        f"{z_end / 1.5:.1f}")


def zero_sum_oracle(params: CoulombParams, k: int = 2, which: str = "F",
                    n_zeros: int = 200) -> float:
    """Power sum sum_rho rho^(-k) over *all* nontrivial zeros of F or F',
    located by ODE integration (independent of every series recurrence).

    For eta != 0 the negative-axis zeros are the mirrored positive-axis
    zeros at -eta, so both sign conventions are enumerated; for even k the
    two half-sums add.  The infinite tail beyond the last enumerated zero
    is approximated by an Euler-Maclaurin estimate from the local spacing.

    Preconditions: real L > -1, eta <= 0, k even in {2, 4},
    8 <= n_zeros <= 500, which in {'F', 'Fprime'}.
    """
    if params.is_complex:
        raise GateViolation("the zero-sum oracle needs real L")
    if which not in ("F", "Fprime"):
        raise ValueError(f"which must be 'F' or 'Fprime', got {which!r}")
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4 (even sums only)")
    if not 8 <= n_zeros <= 500:
        raise ValueError("n_zeros must lie in [8, 500]")
    if float(params.eta) > 0:
        raise GateViolation("stated for eta <= 0 (flip eta yourself otherwise)")
    total = 0.0
    sides = [params]
    if float(params.eta) != 0.0:
        sides.append(CoulombParams(params.L, -float(params.eta)))
    for side in sides:
        zeros = _ode_zeros(side, which, n_zeros)
        s = float(np.sum(zeros ** (-float(k))))
        B = float(np.mean(np.diff(zeros)[-10:]))
        A = float(zeros[-1])
        total += s + (A + B / 2.0) ** (1 - k) / (B * (k - 1))
    if float(params.eta) == 0.0:
        total *= 2.0      # negative-axis zeros mirror the positive ones
    return total

