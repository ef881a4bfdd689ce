"""Seeded input generators for the four workloads.

Each generator is a pure function of its seed: the same seed gives the same
inputs, and the program under test only ever sees the generated inputs.
Inputs are drawn stratum by stratum in a fixed interleaving, so every prefix
of a list (a run stops when its time is up) has nearly the same mix.

Within a stratum the eval and radius inputs sit on a fixed low-discrepancy
design that the seed moves by a small jitter.  Their cost varies steeply
with the inputs (the precision retry, the mpmath path above L = 20), so
plain random draws would make the timing percentiles depend on the seed
more than on the program.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

EVAL_Z_MAX = 35.0
RADIUS_LARGE_L = 20.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _design(rng: random.Random, m: int, dims: int, offset: int,
            jitter: float = 0.1) -> list:
    """m points of [0, 1)^dims: terms offset+1 .. offset+m of the R2
    low-discrepancy sequence (Roberts 2018), squeezed into
    [jitter/m, 1 - jitter/m] and each coordinate moved by a seeded jitter of
    at most ``jitter / m``."""
    phi = 2.0
    for _ in range(60):                  # phi^(dims+1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alphas = [phi ** -(d + 1) for d in range(dims)]
    pts = []
    shift = jitter / m
    for k in range(offset + 1, offset + m + 1):
        pts.append([shift + (1.0 - 2.0 * shift) * ((0.5 + a * k) % 1.0)
                    + shift * (2.0 * rng.random() - 1.0) for a in alphas])
    return pts


def turning_point(L: float, eta: float) -> float:
    """eta + sqrt(eta^2 + L(L+1)), the classical turning point of F_L."""
    return eta + math.sqrt(max(eta * eta + L * (L + 1.0), 0.0))


# ---------------------------------------------------------------------------
# eval: F, g and Bessel J at distinct points
# ---------------------------------------------------------------------------

#: order strata per side; every third point is a Bessel J value of order L.
#: Beyond the turning point |z| <= 35 only leaves orders below about 30.
EVAL_L_BINS = {"inner": ((-0.95, 0.0), (0.0, 5.0), (5.0, 20.0), (20.0, 60.0),
                         (60.0, 200.0)),
               "outer": ((-0.95, 0.0), (0.0, 5.0), (5.0, 12.0), (12.0, 20.0),
                         (20.0, 30.0))}
EVAL_FNS = ("F", "g", "besselJ")
EVAL_STRATA = 3 * 2 * 2 * 5


def eval_points(seed: int, n: int) -> list:
    """n points {fn, L, eta, z, side}: z real or complex (as [re, im]),
    |z| <= 35, on the inner (|z| < turning point) or outer side."""
    rng = _rng("eval", seed)
    m = -(-n // EVAL_STRATA)
    designs = [_design(rng, m, 4, j * m) for j in range(EVAL_STRATA)]
    pts = []
    for i in range(n):
        fn = EVAL_FNS[i % 3]
        is_complex = (i // 3) % 2 == 1
        side = "inner" if (i // 6) % 2 == 0 else "outer"
        lo, hi = EVAL_L_BINS[side][(i // 12) % 5]
        u_L, u_eta, u_rho, u_arg = designs[i % EVAL_STRATA][i // EVAL_STRATA]
        L = lo + u_L * (hi - lo)
        eta = 0.0 if fn == "besselJ" else -2.0 + 5.0 * u_eta
        tp = turning_point(L, eta)
        if side == "inner":
            if tp < 0.2:                 # no room below the turning point
                eta = max(eta, 0.0) + 0.3
                tp = turning_point(L, eta)
            rho = 0.05 + u_rho * (min(tp, EVAL_Z_MAX) - 0.05)
        else:
            rho = max(tp, 0.05) + u_rho * (EVAL_Z_MAX - max(tp, 0.05))
        if is_complex:
            arg = -1.4 + 2.8 * u_arg
            z = [rho * math.cos(arg), rho * math.sin(arg)]
        else:
            z = rho
        pts.append({"fn": fn, "L": L, "eta": eta, "z": z, "side": side})
    return pts


def as_z(z):
    return complex(z[0], z[1]) if isinstance(z, list) else z


# ---------------------------------------------------------------------------
# radius: first roots of the reduced equations
# ---------------------------------------------------------------------------

#: one period of the case mix: (family, large order, seeded).  Per period:
#: five cheap cases (L <= 20, or phi), two seeded g above L = 20 (the
#: cheapest mpmath-path cases), three more seeded f and unseeded g above
#: L = 20, and two unseeded f above L = 20 (the slowest: a full scan).  The
#: median then falls in the middle of the seeded-g group and the 90th
#: percentile inside the unseeded-f group, not between groups.
RADIUS_PATTERN = (
    ("f", True, True), ("f", False, True), ("f", True, False),
    ("phi", False, False), ("g", True, True), ("g", False, False),
    ("g", True, False), ("f", False, False), ("f", True, False),
    ("phi", True, False), ("g", True, True), ("f", True, True),
)


def radius_cases(seed: int, n: int) -> list:
    """n cases {family, p1, p2, beta, seeded, large}.  (p1, p2) is (L, eta)
    for f and g, (nu, alpha) for phi.  Seeded cases (beta = 0, eta < 0,
    L != 0) get the Euler-Rayleigh scan window; unseeded ones (beta > 0)
    scan from 0.  Each slot of ``RADIUS_PATTERN`` has its own design over
    order, eta (or alpha) and beta."""
    rng = _rng("radius", seed)
    period = len(RADIUS_PATTERN)
    m = -(-n // period)
    designs = [_design(rng, m, 3, j * m) for j in range(period)]
    cases = []
    for i in range(n):
        family, large, seeded = RADIUS_PATTERN[i % period]
        u_order, u_p2, u_beta = designs[i % period][i // period]
        lo, hi = (RADIUS_LARGE_L, 200.0) if large else (-0.95, RADIUS_LARGE_L)
        order = lo + u_order * (hi - lo)
        if family == "phi":
            p2 = max(-order, 0.0) + 0.05 + 1.95 * u_p2   # nu + alpha > 0
            beta = 0.9 * u_beta
        elif seeded:
            order = max(order, 0.05)                     # L != 0
            p2 = -2.0 + 1.95 * u_p2
            beta = 0.0
        else:
            p2 = -2.0 + 4.0 * u_p2
            beta = 0.05 + 0.85 * u_beta
        cases.append({"family": family, "p1": order, "p2": p2, "beta": beta,
                      "seeded": family != "phi" and seeded,
                      "large": order > RADIUS_LARGE_L})
    return cases


# ---------------------------------------------------------------------------
# exact: cold sessions of growing exact-table calls
# ---------------------------------------------------------------------------

#: each session starts cold at N = 2, 3, 4 or 6 and only grows the table
#: from there, so every call after the first extends the memo
EPS_PATHS = ((2, 4, 6), (3, 4, 6), (4, 6), (6,))
ZETA_K_MAX, ZETA_N_MAX = 16, 8


def _small_rational(rng: random.Random, lo: int, hi: int, den: int) -> str:
    """A rational in [lo, hi] with denominator at most ``den``, as text."""
    d = rng.randint(1, den)
    return str(Fraction(rng.randint(lo * d, hi * d), d))


def exact_sessions(seed: int, n: int) -> list:
    """n sessions, each a list of calls [name, *args] in call order.

    Every session builds the eps table to N = 6 along one of ``EPS_PATHS``
    (each block of four sessions takes all four, in seeded order; a timed
    run stops at the end of a block, so every run has the same mix), then
    runs the recurrence form and the re-substitution check at N = 6, one
    Laurent table zeta_coeffs(k, n) with seeded k <= 16 and n <= 8, and one
    exact Rayleigh table (Z and Ztilde by turns) at seeded rationals."""
    rng = _rng("exact", seed)
    sessions = []
    paths = []
    for s in range(n):
        if not paths:
            paths = list(EPS_PATHS)
            rng.shuffle(paths)
        calls = [["epsilon_coeffs", N] for N in paths.pop()]
        calls.append(["epsilon_coeffs_recurrence", 6])
        calls.append(["annihilation_residuals", 6])
        calls.append(["zeta_coeffs", rng.randint(2, ZETA_K_MAX),
                      rng.randint(0, ZETA_N_MAX)])
        L = _small_rational(rng, 0, 6, 7)
        if Fraction(L) == 0:
            L = "1/3"
        calls.append(["rayleigh_Ztilde" if s % 2 else "rayleigh_Z", L,
                      _small_rational(rng, -2, 2, 5), rng.randint(24, 40)])
        sessions.append(calls)
    return sessions


# ---------------------------------------------------------------------------
# cli: one fresh process per request
# ---------------------------------------------------------------------------

CLI_KINDS = ("radius", "eval", "rayleigh", "zeta", "asympt")


def cli_requests(seed: int, n: int) -> list:
    """n requests {kind, argv, params}; argv follows ``python -m
    coulombstar``.  Options take the ``--name=value`` form, because argparse
    reads a separate ``-1/2`` as an option."""
    rng = _rng("cli", seed)
    reqs = []
    for i in range(n):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        if kind == "radius":
            family = rng.choice(("f", "g", "phi"))
            beta = round(rng.uniform(0.0, 0.8), 6)
            if family == "phi":
                nu = round(rng.uniform(-0.9, 20.0), 6)
                alpha = round(rng.uniform(-min(nu, 0.0) + 0.05, 2.0), 6)
                argv = ["radius", "--family=phi", f"--nu={nu!r}",
                        f"--alpha={alpha!r}", f"--beta={beta!r}"]
                params = {"family": family, "p1": nu, "p2": alpha,
                          "beta": beta}
            else:
                L = round(rng.uniform(-0.9, 20.0), 6)
                eta = round(rng.uniform(-2.0, 2.0), 6)
                argv = ["radius", f"--family={family}", f"--L={L!r}",
                        f"--eta={eta!r}", f"--beta={beta!r}"]
                params = {"family": family, "p1": L, "p2": eta, "beta": beta}
        elif kind == "eval":
            fn = rng.choice(("F", "g", "f", "besselJ"))
            L = round(rng.uniform(-0.5, 10.0), 6)
            eta = 0.0 if fn == "besselJ" else round(rng.uniform(-1.0, 1.0), 6)
            # f takes a fractional power of S: stay where S > 0
            z = round(rng.uniform(0.1, 2.0 if fn == "f" else 8.0), 6)
            argv = ["eval", f"--family={fn}", f"--L={L!r}", f"--z-re={z!r}"]
            if fn != "besselJ":
                argv.append(f"--eta={eta!r}")
            params = {"fn": fn, "L": L, "eta": eta, "z": z}
        elif kind == "rayleigh":
            which = rng.choice(("Z", "Ztilde"))
            L = _small_rational(rng, 0, 5, 4)
            if Fraction(L) == 0:
                L = "1/2"
            eta = _small_rational(rng, -2, 2, 3)
            kmax = rng.randint(2, 12)
            argv = ["rayleigh", f"--which={which}", f"--kmax={kmax}",
                    f"--L={L}", f"--eta={eta}", "--exact"]
            params = {"which": which, "L": L, "eta": eta, "kmax": kmax}
        elif kind == "zeta":
            kmax, nmax = rng.randint(2, 6), rng.randint(0, 4)
            argv = ["rayleigh", "--which=zeta", f"--kmax={kmax}",
                    f"--nmax={nmax}"]
            params = {"kmax": kmax, "nmax": nmax}
        else:
            N = rng.randint(1, 3)
            L = round(rng.uniform(5.0, 200.0), 6)
            eta = round(rng.uniform(-2.0, 2.0), 6)
            argv = ["asympt", f"--N={N}", f"--eta={eta!r}", f"--L={L!r}"]
            params = {"N": N, "L": L, "eta": eta}
        reqs.append({"kind": kind, "argv": argv, "params": params})
    return reqs
