"""Independent verification utilities.

Nothing here reuses the radius scan or the Rayleigh recurrences being
verified; these are the cross-checks:

* ``starlike_scan`` / ``spirallike_scan`` -- evaluate the starlikeness
  witness Re(z h'(z)/h(z)) (rotated by arg(L+1) for complex order) on a
  circle |z| = r and report the minimum.  A radius is confirmed by a
  positive minimum just below it and a sign change just above it.
* ``boundary_image`` -- points of the image curve h(r e^(it)) for plotting.
  Both write h = z S^(1/kappa), with S the Coulomb entire factor, and
  read S and z S' at each point from the series' own evaluator,
  ``specfun._series_pair``: its float pass, or where that cancels its
  deeper fixed-point pass, with its error bound ``est``.  They take the
  inputs of ``RadiusQuery``: the family with ``L=``/``eta=`` for f and g,
  or ``nu=``/``alpha=`` for phi.  They read (L, eta, kappa) and every
  input gate from the family map of the radii, which takes phi to
  L = nu - 1/2 and eta = 0, where S is jhat.  The root search's continued
  fraction plays no part.
* ``zero_sum_oracle`` -- power sums over the zeros of F and F' from the
  traces of the Jacobi matrix J_L of F (Stampach and Stovicek, J. Math.
  Anal. Appl. 419, 2014), whose eigenvalues are the reciprocal zeros; it
  never touches the series recurrences, so agreement with
  ``rayleigh_Z``/``rayleigh_Ztilde`` is meaningful.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import List, NamedTuple, Optional, Union

# Nothing here calls mpmath or scipy, but this module, which the CLI loads,
# must keep importing both at load: the traced benchmark times
# ``cli.import_mpmath_ms`` and ``cli.import_scipy_ms`` from the modules a
# fresh ``python -m coulombstar`` imports, and stops with "no samples" when
# none imports one of them (CHANGES.md FOUND #29).  Drop these imports with
# that benchmark change.  A bare ``import scipy`` costs about 13 ms beyond
# the array package it loads.
import mpmath  # noqa: F401
import scipy  # noqa: F401

from .errors import GateViolation, PoleOnCircle
from .radii import Family, _family_map
from .specfun import CoulombParams, _check_finite, _series_pair

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


def _circle(r, n):
    """The n points z = r e^(2 pi i k/n), k = 0 .. n - 1.
    Gates: finite r > 0."""
    _check_finite("r", r)
    if r <= 0:
        raise ValueError("r must be positive")
    return [cmath.rect(r, 2.0 * math.pi * k / n) for k in range(n)]


def _witness(r, n, L, eta, kappa) -> List[complex]:
    """1 + (z S'/S)/kappa on the circle, whose real part is Re(z h'/h).

    S and z S' at each point, and est, the bound on the error of S, come
    from the series' own evaluator, ``_series_pair``; for phi the family
    map puts L = nu - 1/2 and eta = 0, where S is jhat.  Gates: the grid
    size n an integer >= 16 (ValueError).  At real L it first checks S at
    the 64 points x = r k/64 of [r/64, r], from r down, so that a series
    that leaves the float range at |z| = r raises NonConvergence first:
    GateViolation where S < -est there (a zero of S lies inside),
    PoleOnCircle where S <= est, so that its sign is unknown.  Then
    PoleOnCircle where |S| <= est on the circle.
    """
    if not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"grid_size must be an integer >= 16, got {n!r}")
    zs = _circle(r, n)
    if not isinstance(L, complex):
        segment = [_series_pair(L, eta, r * k / 64.0, 1e-15)
                   for k in range(64, 0, -1)]
        if any(S < -est for S, _, _, est, _ in segment):
            raise GateViolation(
                "the scan radius lies beyond the first positive zero of the "
                "normalized function; the witness ratio is undefined there")
        if any(S <= est for S, _, _, est, _ in segment):
            raise PoleOnCircle(
                f"the entire factor lies within its error bound of 0 on "
                f"[{r / 64.0}, {r}], so its sign there is unknown")
    circle = [_series_pair(L, eta, z, 1e-15) for z in zs]
    if any(abs(S) <= est for S, _, _, est, _ in circle):
        raise PoleOnCircle(
            f"the entire factor lies within its error bound of 0 on |z| = {r}")
    return [1.0 + (T / S) / kappa for S, T, _, _, _ in circle]


def _scan_report(r: float, vals: List[float],
                 rotation: float = 0.0) -> DiskScanReport:
    k = min(range(len(vals)), key=vals.__getitem__)
    return DiskScanReport(radius_scanned=float(r), grid_size=len(vals),
                          min_real_part=vals[k],
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
    normalized function (checked on [r/64, r]).  Raises PoleOnCircle where
    S lies within the series' own error bound of 0 on the grid or on
    [r/64, r], so that the ratio or the check cannot be made, and
    NonConvergence where the series cannot sum S.
    """
    w = _witness(r, grid_size, *_family_map(Family(family), L, eta, nu, alpha))
    return _scan_report(r, [v.real for v in w])


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
    rot = cmath.exp(1j * th)
    return _scan_report(r, [(rot * v).real for v in w], th)


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
    shift = Family(family) is Family.F_SHIFT
    pts = []
    for z in _circle(r, n_points):
        S = _series_pair(L, eta, z, 1e-15)[0]
        pts.append(z * S if shift else z * cmath.exp(cmath.log(S) / kappa))
    return pts


# ---------------------------------------------------------------------------
# Zero power sums from the traces of the Jacobi matrix
# ---------------------------------------------------------------------------

#: the truncation sizes N whose traces are extrapolated to N = inf
_TRACE_SIZES = (250, 500, 1000, 2000)


def _truncated_traces(L: float, eta: float, N: int, k_max: int) -> List[float]:
    """Tr J^k, k = 0 .. k_max, of the N x N truncation J of J_L.

    J_L is symmetric tridiagonal, with d_n = -eta/((m-1) m) on the diagonal
    and w_n = sqrt((m^2 + eta^2)/(4m^2 - 1))/m beside it, m = n + L + 2
    (module docstring).  (J^k)_ii = v_a . v_b with v_j = J^j e_i and
    a + b = k, so each row walks ceil(k_max/2) steps.  The entries are
    padded with zeros, so a walk never leaves the truncation.
    """
    h = (k_max + 1) // 2
    pad = [0.0] * h
    ms = [n + L + 2.0 for n in range(N)]
    d = pad + [-eta / ((m - 1.0) * m) for m in ms] + pad
    w = pad + [math.sqrt((m * m + eta * eta) / (4.0 * m * m - 1.0)) / m
               for m in ms[:-1]] + [0.0] + pad
    width = range(2 * h + 1)
    tr = [0.0] * (k_max + 1)
    for i in range(N):
        v = [0.0] * (2 * h + 1)
        v[h] = 1.0
        vs = [v]
        for _ in range(h):
            v = [d[i + p] * v[p] + (w[i + p - 1] * v[p - 1] if p else 0.0)
                 + (w[i + p] * v[p + 1] if p < 2 * h else 0.0) for p in width]
            vs.append(v)
        for k in range(1, k_max + 1):
            tr[k] += sum(x * y for x, y in zip(vs[k // 2], vs[(k + 1) // 2]))
    return tr


def _jacobi_traces(L: float, eta: float, k_max: int) -> List[float]:
    """p_k = Tr J_L^k = sum rho^(-k) over the zeros rho != 0 of F_L(eta, .),
    k = 0 .. k_max (p_0 is 0), where J_L's eigenvalues are the 1/rho.

    The trace of the N x N truncation misses a tail that is a series in
    1/M, M = N + L + 2, from the power M^(-e), e = max(k-1, 1).  Three of
    its terms cancel in the third divided difference, over the four sizes
    of ``_TRACE_SIZES``, of M^e Tr J_N^k in x = 1/M; dividing it by that of
    M^e leaves the limit.
    """
    rows = [_truncated_traces(L, eta, N, k_max) for N in _TRACE_SIZES]
    x = [1.0 / (N + L + 2.0) for N in _TRACE_SIZES]
    p = [0.0]
    for k in range(1, k_max + 1):
        e = max(k - 1, 1)
        wts = [xj ** -e / math.prod(xj - xi for xi in x if xi != xj)
               for xj in x]
        p.append(sum(wj * r[k] for wj, r in zip(wts, rows)) / sum(wts))
    return p


def _coeffs(p: List[float], K: int) -> List[float]:
    """Taylor coefficients 1, c_1 .. c_K of the function c with c(0) = 1
    and z c'/c = -sum_k p_k z^k (Newton's identities)."""
    c = [1.0]
    for j in range(1, K + 1):
        c.append(-sum(p[i] * c[j - i] for i in range(1, j + 1)) / j)
    return c


def _power_sums(c: List[float], K: int) -> List[float]:
    """The inverse of ``_coeffs``: p_0 = 0, p_1 .. p_K = -k [z^k] log c."""
    p = [0.0]
    for j in range(1, K + 1):
        p.append(-j * c[j] - sum(p[i] * c[j - i] for i in range(1, j)))
    return p


def zero_sum_oracle(params: CoulombParams, k: int = 2,
                    which: str = "F") -> float:
    """Power sum sum_rho rho^(-k) over the zeros rho != 0 of F or of F',
    from the traces of the Jacobi matrix J_L of F (``_jacobi_traces``),
    independent of every series recurrence.

    For F it is Tr J_L^k: the true sum, so it equals ``rayleigh_Z`` at
    -eta (whose odd k carry the recurrence's sign).  For F' it uses the
    Coulomb ladder h = S + z S'/(L+1) = S_L (1 + eta z/(L+1)^2)
    - c z^2 S_(L+1), c = ((L+1)^2 + eta^2)/((L+1)^3 (2L+3)), whose zeros
    are those of F' other than 0.  S_L and S_(L+1) = det(1 - z J_(L+1))
    come from their traces, J_(L+1) being J_L without its first row and
    column; the sum is -k [z^k] log h, as ``rayleigh_Ztilde`` has it.

    Gates: real L (GateViolation); which in {'F', 'Fprime'} and k an
    integer in [2, 6] (ValueError), the range over which it was measured
    within 4e-9 relative of the exact tables at -0.9 <= L <= 30,
    |eta| <= 3.
    """
    if params.is_complex:
        raise GateViolation("the zero-sum oracle needs real L")
    if which not in ("F", "Fprime"):
        raise ValueError(f"which must be 'F' or 'Fprime', got {which!r}")
    if not isinstance(k, numbers.Integral) or not 2 <= k <= 6:
        raise ValueError(f"k must be an integer in [2, 6], got {k!r}")
    L, eta = params.real_L(), float(params.eta)
    p = _jacobi_traces(L, eta, k)
    if which == "F":
        return p[k]
    s = _coeffs(p, k)
    t = [0.0, 0.0] + _coeffs(_jacobi_traces(L + 1.0, eta, k - 2), k - 2)
    a = eta / (L + 1.0) ** 2
    c = ((L + 1.0) ** 2 + eta * eta) / ((L + 1.0) ** 3 * (2.0 * L + 3.0))
    h = [sj + a * sj_1 - c * tj for sj, sj_1, tj in zip(s, [0.0] + s, t)]
    return _power_sums(h, k)[k]
