"""Executable acceptance criteria.

Each criterion is a self-contained check returning pass/fail plus a detail
string; ``run_all`` drives them and the CLI's ``verify-all`` renders the
table.  Two criteria (7a and 8) fail by design: the first-order correction
of the published large-order expansion does not satisfy its own defining
identity (7a states the published value, our exact solve disagrees), and
consequently the truncated expansion does not converge to the directly
computed radius at the stated rates (8).  Both are reported honestly; see
the README for the analysis.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .asympt import annihilation_residuals, empirical_order, epsilon_coeffs
from .errors import CoulombError, DegenerateFit
from .exact import EtaPolynomial, Sqrt2Rational, potential_polynomials
from .radii import RadiusQuery, radius_f, radius_g
from .rayleigh import (euler_rayleigh_bounds, rayleigh_Z, rayleigh_Ztilde,
                       zeta_coeffs, zeta_laurent_eval)
from .specfun import CoulombParams, eval_F, eval_bessel_j
from .verify import (companion_order, spirallike_scan, starlike_scan,
                     zero_sum_oracle)

__all__ = ["CriterionResult", "run_criterion", "run_all", "format_report",
           "CRITERION_IDS"]


class CriterionResult(NamedTuple):
    cid: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _c1() -> Tuple[bool, str]:
    target = 0.9407705639497375
    res = radius_f(-0.5, 0.0, 0.0)
    err = abs(res.value - target)
    return err <= 1e-10, f"radius = {res.value:.16f}, |err| = {err:.2e}"


def _c2() -> Tuple[bool, str]:
    target = 1.5707963267948968
    res = radius_g(0.0, 0.0, 0.0)
    err = abs(res.value - target)
    return err <= 1e-12, f"radius = {res.value:.16f}, |err| = {err:.2e}"


def _c3() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260814)
    mag = 10.0 * np.sqrt(rng.random(20))
    ang = 2.0 * math.pi * rng.random(20)
    zs = mag * np.exp(1j * ang)
    worst = 0.0
    for ell in (0.0, 1.0, 3.7):
        params = CoulombParams(ell - 0.5, 0.0)
        for z in zs:
            z = complex(z)
            F = eval_F(params, z)
            J = eval_bessel_j(ell, z).value
            rhs = np.sqrt(math.pi * z / 2.0 + 0j) * J
            err = abs(F - rhs) / (1.0 + abs(F))
            worst = max(worst, err)
    return worst <= 1e-12, f"worst scaled error {worst:.2e} over 60 points"


def _c4() -> Tuple[bool, str]:
    # the traces give the true zero sums, rayleigh_Z's at -eta (whose odd k
    # carry the recurrence's sign), and rayleigh_Ztilde's at eta
    pieces = []
    ok = True
    for (L, eta, k) in ((2.0, 0.0, 2), (2.0, -1.0, 2), (5.0, -1.0, 2),
                        (2.0, 1.0, 3), (0.5, 1.3, 5)):
        rec = float(rayleigh_Z(CoulombParams(L, -eta), k)[k])
        diff = abs(rec - zero_sum_oracle(CoulombParams(L, eta), k=k))
        ok = ok and diff <= 1e-9
        pieces.append(f"Z{k} at ({L:g},{eta:g}): |rec(-eta)-trace| = "
                      f"{diff:.2e}")
    params = CoulombParams(Fraction(1, 2), Fraction(0))
    exact = rayleigh_Ztilde(params, 2, exact=True)[2]
    ok = ok and exact == Fraction(7, 12)
    pieces.append(f"Zt2(1/2,0) = {exact} (want 7/12)")
    ora = zero_sum_oracle(CoulombParams(0.5, 0.0), k=2, which="Fprime")
    diff = abs(float(Fraction(7, 12)) - ora)
    ok = ok and diff <= 1e-9
    pieces.append(f"|7/12 - trace| = {diff:.2e}")
    for (L, eta, k) in ((2.0, -1.0, 3), (0.5, 1.3, 4)):
        params = CoulombParams(L, eta)
        rec = float(rayleigh_Ztilde(params, k)[k])
        diff = abs(rec - zero_sum_oracle(params, k=k, which="Fprime"))
        ok = ok and diff <= 1e-9
        pieces.append(f"Zt{k} at ({L:g},{eta:g}): |rec-trace| = {diff:.2e}")
    return ok, "; ".join(pieces)


def _c5() -> Tuple[bool, str]:
    grid = [(L, eta) for L in (1.0, 2.0, 5.0, 10.0)
            for eta in (-0.5, -1.0, -2.0)]
    contained = True
    monotone_pts = 0
    worst_gap = math.inf
    for (L, eta) in grid:
        r2 = radius_f(L, eta, 0.0).value ** 2
        widths = []
        for s in range(1, 5):
            b = euler_rayleigh_bounds(CoulombParams(L, eta), s)
            if not (b.lower < r2 < b.upper):
                contained = False
            worst_gap = min(worst_gap, r2 - b.lower, b.upper - r2)
            widths.append(b.width)
        if all(widths[i + 1] <= widths[i] for i in range(3)):
            monotone_pts += 1
    frac = monotone_pts / len(grid)
    detail = (f"containment {'holds' if contained else 'FAILS'} on all "
              f"{len(grid)} points x s=1..4 (worst margin {worst_gap:.3e}); "
              f"widths non-increasing on {frac:.0%} of points (reported)")
    return contained, detail


def _c6() -> Tuple[bool, str]:
    rows = zeta_coeffs(2, 2)
    want = [EtaPolynomial([Fraction(1, 2)]),
            EtaPolynomial([Fraction(-3, 4)]),
            EtaPolynomial([Fraction(9, 8), 0, Fraction(1, 2)])]
    exact_ok = rows == want
    val = zeta_laurent_eval(2, CoulombParams(100.0, 0.0), 3)
    err = abs(val - 1.0 / 203.0)
    num_ok = err <= 5e-9
    detail = (f"zeta_(0..2)^(2) exact: {exact_ok}; "
              f"Laurent Z2(100,0) err = {err:.2e}")
    return exact_ok and num_ok, detail


def _c7a() -> Tuple[bool, str]:
    stated = EtaPolynomial(
        [Sqrt2Rational(Fraction(-1, 2), Fraction(1, 4)),   # sqrt2/4 - 1/2
         Sqrt2Rational(0, 1)])                             # sqrt2 * eta
    got = epsilon_coeffs(1).eps[0]
    ok = got == stated
    return ok, (f"computed eps_1 = {got.to_str(descending=True)}; stated "
                f"eps_1 = {stated.to_str(descending=True)}")


def _c7b() -> Tuple[bool, str]:
    res = annihilation_residuals(2)
    ok = (not res[0]) and (not res[1])
    return ok, (f"L^0 residual = {res[0]}; L^-1 residual = {res[1]}")


def _c8() -> Tuple[bool, str]:
    Ls = (25.0, 50.0, 100.0, 200.0)
    pieces = []
    ok = True
    for N in (0, 1, 2):
        try:
            fit = empirical_order(Ls, -1.0, N)
            slope = fit.slope
            inside = abs(slope - (-(N + 1))) <= 0.5
            ok = ok and inside
            pieces.append(f"N={N}: slope {slope:+.3f} (want {-(N + 1)}+-0.5)")
        except DegenerateFit as exc:
            ok = False
            pieces.append(f"N={N}: degenerate fit ({exc})")
    return ok, "; ".join(pieces)


def _scan_pair(kind: str, args, beta: float) -> Tuple[bool, str]:
    if kind == "spiral":
        L, eta = args
        ell = companion_order(L)
        r = radius_f(ell, eta, 0.0).value
        below = spirallike_scan(L, eta, 0.99 * r).min_real_part
        above = spirallike_scan(L, eta, 1.01 * r).min_real_part
        tag = f"spiral L={L}"
    else:
        names = ("nu", "alpha") if kind == "phi" else ("L", "eta")
        kw = dict(zip(names, args))
        r = RadiusQuery(kind, beta, **kw).solve().value
        below = starlike_scan(kind, 0.99 * r, **kw).min_real_part
        above = starlike_scan(kind, 1.01 * r, **kw).min_real_part
        tag = " ".join([kind] + [f"{k}={v:g}" for k, v in kw.items()]
                       + ([f"beta={beta:g}"] if beta else []))
    ok = (below > beta) and (above < beta)
    return ok, (f"{tag}: min-beta at 0.99r = {below - beta:+.2e}, "
                f"at 1.01r = {above - beta:+.2e}")


def _c9() -> Tuple[bool, str]:
    points = [
        ("f", (-0.5, 0.0), 0.0),
        ("f", (5.0, -1.0), 0.0),
        ("g", (0.0, 0.0), 0.0),
        ("g", (1.0, -0.5), 0.0),
        ("phi", (0.3, 0.2), 0.5),
        ("spiral", (0.2 + 0.1j, 0.0), 0.0),
    ]
    ok = True
    pieces = []
    for kind, args, beta in points:
        good, msg = _scan_pair(kind, args, beta)
        ok = ok and good
        pieces.append(("ok " if good else "BAD ") + msg)
    return ok, " | ".join(pieces)


def _c10() -> Tuple[bool, str]:
    A = potential_polynomials(3, [Fraction(1)], 6)
    binom_ok = A == [Fraction(math.comb(3, k)) if k <= 3 else Fraction(0)
                     for k in range(7)]
    rng = np.random.default_rng(11)
    rand_ok = True
    for _ in range(20):
        a1 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        a2 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        got = potential_polynomials(2, [a1, a2], 2)[2]
        if got != 2 * a2 + a1 * a1:
            rand_ok = False
            break
    return binom_ok and rand_ok, (
        f"A_(3,k) = C(3,k): {binom_ok}; A_(2,2) = 2*a2 + a1^2 on 20 random "
        f"rational pairs: {rand_ok}")


#: criterion registry: id -> (description, callable, time limit or None)
_CRITERIA: Dict[str, Tuple[str, Callable[[], Tuple[bool, str]],
                           Optional[float]]] = {
    "1": ("radius_f(-1/2, 0, 0) matches 0.9407705639497375 to 1e-10",
          _c1, 1.0),
    "2": ("radius_g(0, 0, 0) matches pi/2 to 1e-12", _c2, 1.0),
    "3": ("Bessel reduction F = sqrt(pi z/2) J at half-integer offsets",
          _c3, None),
    "4": ("Rayleigh sums match trace zero sums (and exact 7/12)", _c4,
          30.0),
    "5": ("Euler-Rayleigh sandwich contains the squared radius", _c5, None),
    "6": ("Laurent coefficients exact and Z2(100, 0) to 5e-9", _c6, None),
    "7a": ("first-order correction equals the stated closed form",
           _c7a, None),
    "7b": ("re-substitution annihilates L^0 and L^-1 for N = 2", _c7b, None),
    "8": ("large-order expansion error scales like L^-(N+1)", _c8, 60.0),
    "9": ("disk scans bracket every radius (0.99r / 1.01r)", _c9, None),
    "10": ("potential polynomials: binomial row and composite identity",
           _c10, None),
}

CRITERION_IDS: List[str] = list(_CRITERIA)


def run_criterion(cid: str) -> CriterionResult:
    """Execute one acceptance criterion by id ('1' .. '10', '7a', '7b')."""
    if cid not in _CRITERIA:
        raise KeyError(f"unknown criterion {cid!r}; have {CRITERION_IDS}")
    desc, fn, limit = _CRITERIA[cid]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except CoulombError as exc:     # a criterion must never crash the table
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if passed and limit is not None and dt > limit:
        passed = False
        detail += f" [exceeded {limit:.0f}s budget: {dt:.1f}s]"
    return CriterionResult(cid=cid, description=desc, passed=passed,
                           detail=detail, seconds=dt)


def run_all(ids: Optional[Sequence[str]] = None) -> List[CriterionResult]:
    """Run the requested criteria (all by default), in table order."""
    todo = CRITERION_IDS if ids is None else list(ids)
    return [run_criterion(cid) for cid in todo]


def format_report(results: Sequence[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.cid:>3}  {r.description}  "
                     f"[{r.seconds:.2f}s]")
        lines.append(f"      {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
