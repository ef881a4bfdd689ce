"""Command-line front end.

Every subcommand but ``verify-all`` and ``figure`` is a thin wrapper over
a library call and emits one :class:`OutputRecord` -- a single strict JSON
object per invocation (one line, stream-friendly) or, with ``--csv``, a
two-line CSV with a stable flattened column order.  Complex values are
flattened to ``<key>_re``/``<key>_im``; exact rationals are rendered as
``num/den`` strings, and non-finite floats as ``inf``, ``-inf`` or ``nan``.
``verify-all`` prints a text table; ``figure`` writes CSV samples, and a
record only when they go to a file: with ``--out -`` it refuses
``--json``, ``--csv`` and ``--output``, as ``verify-all`` does.

Exit codes: 0 ok, 2 parameter-gate violation (also argparse errors),
3 IO failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .acceptance import CRITERION_IDS, format_report, run_all
from .asympt import (empirical_order, epsilon_coeffs, radius_asymptotic)
from .errors import (BoundsInvalid, DegenerateFit, GammaOverflow,
                     GateViolation, NonConvergence, NoRootInScanRange,
                     PoleOnCircle, ZeroEnumerationIncomplete)
from .exact import format_sqrt2
from .radii import RadiusQuery
from .rayleigh import rayleigh_Z, rayleigh_Ztilde, zeta_coeffs
from .specfun import (CoulombParams, eval_F_with_derivative, eval_bessel_j,
                      eval_dini, eval_f_normalized, eval_g)
from .verify import boundary_image

__all__ = ["OutputRecord", "build_parser", "main"]

_GATE_ERRORS = (GateViolation, BoundsInvalid, ValueError)
_NUMERICAL_ERRORS = (NonConvergence, NoRootInScanRange, GammaOverflow,
                     PoleOnCircle, ZeroEnumerationIncomplete, DegenerateFit)


@dataclass
class OutputRecord:
    """What a subcommand produced: echoed inputs, outputs, diagnostics."""

    command: str
    inputs: Dict[str, object] = field(default_factory=dict)
    outputs: Dict[str, object] = field(default_factory=dict)
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def put(self, section: str, key: str, value) -> None:
        """Store a value, flattening complex numbers to _re/_im pairs."""
        d = getattr(self, section)
        if isinstance(value, complex):
            d[key + "_re"] = value.real
            d[key + "_im"] = value.imag
        else:
            d[key] = value

    def to_json(self) -> str:
        """Strict JSON: a non-finite float is the string the CSV prints,
        "inf", "-inf" or "nan"."""
        record = {"command": self.command}
        for section in ("inputs", "outputs", "diagnostics"):
            record[section] = {
                k: repr(v) if isinstance(v, float) and not math.isfinite(v)
                else v for k, v in getattr(self, section).items()}
        return json.dumps(record, allow_nan=False)

    def to_csv(self) -> str:
        row: Dict[str, object] = {"command": self.command}
        for section in ("inputs", "outputs", "diagnostics"):
            for k, v in getattr(self, section).items():
                row[f"{section}.{k}"] = v
        import io
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(list(row))
        w.writerow([v if isinstance(v, str) else repr(v) if
                    isinstance(v, float) else str(v) for v in row.values()])
        return buf.getvalue().rstrip("\n")


def _emit(rec: OutputRecord, args) -> None:
    text = rec.to_csv() if args.fmt == "csv" else rec.to_json()
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    z = complex(args.z_re, args.z_im) if args.z_im != 0.0 else args.z_re
    kw = {} if args.tol is None else {"tol": args.tol}
    rec = OutputRecord("eval")
    rec.put("inputs", "family", args.family)
    rec.put("inputs", "L", args.L)
    rec.put("inputs", "z_re", args.z_re)
    rec.put("inputs", "z_im", args.z_im)
    if args.tol is not None:
        rec.put("inputs", "tol", args.tol)
    # each input belongs to one family; one given to another is refused
    bessel = args.family in ("besselJ", "dini")
    name, value = ("eta", args.eta) if bessel else ("H", args.H)
    if value is not None:
        raise GateViolation(f"family {args.family!r} takes no --{name}, "
                            f"got --{name}={value!r}")
    if args.family == "besselJ":
        res = eval_bessel_j(args.L, z, **kw)
    elif args.family == "dini":
        if args.H is None:
            raise GateViolation("family 'dini' requires --H")
        rec.put("inputs", "H", args.H)
        res = eval_dini(args.L, args.H, z, **kw)
    else:
        eta = 0.0 if args.eta is None else args.eta
        rec.put("inputs", "eta", eta)
        params = CoulombParams(args.L, eta)
        fn = {"F": eval_F_with_derivative, "g": eval_g,
              "f": eval_f_normalized}[args.family]
        res = fn(params, z, **kw)
    rec.put("outputs", "value", res.value)
    rec.put("outputs", "derivative", res.derivative)
    rec.put("diagnostics", "terms_used", res.terms_used)
    rec.put("diagnostics", "est_error", res.est_error)
    rec.put("diagnostics", "retry_bits", res.retry_bits)
    rec.put("diagnostics", "method", res.method)
    _emit(rec, args)
    return 0


def _cmd_radius(args) -> int:
    q = RadiusQuery(family=args.family, beta=args.beta, L=args.L,
                    eta=args.eta, nu=args.nu, alpha=args.alpha)
    res = q.solve()
    rec = OutputRecord("radius")
    rec.put("inputs", "family", args.family)
    rec.put("inputs", "beta", args.beta)
    for name in ("L", "eta", "nu", "alpha"):
        v = getattr(args, name)
        if v is not None:
            rec.put("inputs", name, v)
    rec.put("outputs", "value", res.value)
    rec.put("outputs", "bracket_lo", res.bracket[0])
    rec.put("outputs", "bracket_hi", res.bracket[1])
    rec.put("outputs", "residual", res.residual)
    rec.put("diagnostics", "iterations", res.iterations)
    rec.put("diagnostics", "error_bound", res.error_bound)
    _emit(rec, args)
    return 0


def _cmd_rayleigh(args) -> int:
    rec = OutputRecord("rayleigh")
    rec.put("inputs", "which", args.which)
    rec.put("inputs", "kmax", args.kmax)
    if args.which == "zeta":
        rec.put("inputs", "nmax", args.nmax)
        zeta_coeffs(args.kmax, args.nmax)    # checks k >= 2, builds all rows
        for k in range(2, args.kmax + 1):
            for n, poly in enumerate(zeta_coeffs(k, args.nmax)):
                rec.put("outputs", f"zeta{k}_{n}", poly.to_str())
        _emit(rec, args)
        return 0
    if args.L is None:
        raise GateViolation(f"--which {args.which} requires --L")
    try:                          # '1/2', '0.5' and '-3' parse exactly
        L, eta = Fraction(args.L), Fraction(args.eta)
    except ZeroDivisionError as exc:
        raise GateViolation(f"--L and --eta must be finite rationals, got "
                            f"{args.L!r} and {args.eta!r}") from exc
    op = rayleigh_Z if args.which == "Z" else rayleigh_Ztilde
    prefix = "Z" if args.which == "Z" else "Zt"
    table = op(CoulombParams(L, eta), args.kmax, exact=args.exact)
    fmt = str if args.exact else float
    rec.put("inputs", "L", fmt(L))
    rec.put("inputs", "eta", fmt(eta))
    for k in range(2, args.kmax + 1):
        rec.put("outputs", f"{prefix}{k}", fmt(table[k]))
    rec.put("diagnostics", "exact", table.exact)
    _emit(rec, args)
    return 0


def _L_key(prefix: str, L: float) -> str:
    """The record key for one L: L in the shortest digits that read back
    as L, and an integral L without its ".0" (value_L100)."""
    return prefix + repr(L).removesuffix(".0")


def _cmd_asympt(args) -> int:
    Ls = args.L or []
    if len(set(Ls)) < len(Ls):          # one key, and one fit point, per L
        raise ValueError(f"the L values must be distinct, got {Ls}")
    rec = OutputRecord("asympt")
    rec.put("inputs", "N", args.N)
    table = epsilon_coeffs(args.N)
    rec.put("outputs", "c", format_sqrt2(table.c))
    for j, e in enumerate(table.eps, start=1):
        rec.put("outputs", f"eps{j}", e.to_str(descending=True))
    if args.validate:
        Ls = Ls or [25.0, 50.0, 100.0, 200.0]
        rec.put("inputs", "eta", args.eta)
        rec.put("inputs", "L", list(Ls))
        fit = empirical_order(Ls, args.eta, args.N)
        rec.put("outputs", "slope", fit.slope)
        rec.put("outputs", "fit_residual", fit.fit_residual)
        for L, err in zip(Ls, fit.errors):
            rec.put("diagnostics", _L_key("scaled_err_L", L), err)
    elif Ls:
        rec.put("inputs", "eta", args.eta)
        rec.put("inputs", "L", list(Ls))
        if len(Ls) == 1:
            rec.put("outputs", "value", radius_asymptotic(Ls[0], args.eta,
                                                          args.N))
        else:
            for L in Ls:
                rec.put("outputs", _L_key("value_L", L),
                        radius_asymptotic(L, args.eta, args.N))
    _emit(rec, args)
    return 0


def _cmd_figure(args) -> int:
    if args.out == "-" and (args.fmt or args.output):
        raise ValueError("figure --out - writes its samples to stdout and "
                         "no record, so it takes no --json, --csv or "
                         "--output")
    family, L = ("f", -0.5) if args.figure == 1 else ("g", 0.0)
    r = RadiusQuery(family, L=L, eta=0.0).solve().value
    pts = boundary_image(family, r, args.points, L=L, eta=0.0)
    rows = [(2.0 * math.pi * k / args.points, p.real, p.imag)
            for k, p in enumerate(pts)]
    if args.out == "-":
        fh = sys.stdout
        close = False
    else:
        fh = open(args.out, "w", encoding="utf-8", newline="")
        close = True
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "re", "im"])
        for t, re_, im_ in rows:
            w.writerow([repr(t), repr(re_), repr(im_)])
    finally:
        if close:
            fh.close()
    if close:
        rec = OutputRecord("figure")
        rec.put("inputs", "figure", args.figure)
        rec.put("inputs", "points", args.points)
        rec.put("outputs", "path", args.out)
        rec.put("outputs", "radius", r)
        rec.put("outputs", "rows", len(rows))
        _emit(rec, args)
    return 0


def _cmd_verify_all(args) -> int:
    ids: Optional[List[str]] = args.only
    if ids:
        bad = [i for i in ids if i not in CRITERION_IDS]
        if bad:
            raise ValueError(f"unknown criterion id(s) {bad}; "
                             f"choose from {CRITERION_IDS}")
    results = run_all(ids)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 4


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_mutually_exclusive_group()
    grp.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit a single JSON object (default)")
    grp.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="emit flattened CSV (header + one row)")
    common.add_argument("--output", metavar="PATH",
                        help="write the record here instead of stdout")

    p = argparse.ArgumentParser(
        prog="coulombstar",
        description="Coulomb wave functions, radii of starlikeness, "
                    "Rayleigh-sum tables, and the large-order expansion.")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", parents=[common],
                        help="evaluate F, g, f, Bessel J, or a Dini function")
    pe.add_argument("--family", required=True,
                    choices=["F", "g", "f", "besselJ", "dini"])
    pe.add_argument("--L", type=float, required=True,
                    help="order (the Bessel/Dini order for those families)")
    pe.add_argument("--eta", type=float, default=None,
                    help="Coulomb parameter (families F, g and f; default 0)")
    pe.add_argument("--z-re", type=float, required=True)
    pe.add_argument("--z-im", type=float, default=0.0)
    pe.add_argument("--tol", type=float, default=None)
    pe.add_argument("--H", type=float, default=None,
                    help="Dini boundary coefficient (family dini only)")
    pe.set_defaults(func=_cmd_eval)

    pr = sub.add_parser("radius", parents=[common],
                        help="radius of starlikeness of order beta")
    pr.add_argument("--family", required=True, choices=["f", "g", "phi"])
    pr.add_argument("--L", type=float)
    pr.add_argument("--eta", type=float)
    pr.add_argument("--nu", type=float)
    pr.add_argument("--alpha", type=float)
    pr.add_argument("--beta", type=float, default=0.0)
    pr.set_defaults(func=_cmd_radius)

    py = sub.add_parser("rayleigh", parents=[common],
                        help="zero power-sum tables and Laurent coefficients")
    py.add_argument("--which", required=True, choices=["Z", "Ztilde", "zeta"])
    py.add_argument("--kmax", type=int, required=True)
    py.add_argument("--L", help="order; fractions like 1/2 are exact")
    py.add_argument("--eta", default="0")
    py.add_argument("--nmax", type=int, default=2,
                    help="Laurent depth for --which zeta")
    py.add_argument("--exact", action="store_true",
                    help="emit exact rationals as num/den strings")
    py.set_defaults(func=_cmd_rayleigh)

    pa = sub.add_parser("asympt", parents=[common],
                        help="large-order expansion of the radius")
    pa.add_argument("--N", type=int, required=True,
                    help="number of correction terms")
    pa.add_argument("--eta", type=float, default=0.0)
    pa.add_argument("--L", type=float, nargs="*", default=None,
                    help="evaluate the truncated expansion at these orders")
    pa.add_argument("--validate", action="store_true",
                    help="fit the scaled-error slope against direct radii")
    pa.set_defaults(func=_cmd_asympt)

    pf = sub.add_parser("figure", parents=[common],
                        help="boundary-curve samples behind the two figures")
    pf.add_argument("--figure", type=int, required=True, choices=[1, 2])
    pf.add_argument("--points", type=int, default=512)
    pf.add_argument("--out", required=True, metavar="PATH",
                    help="CSV destination ('-' for stdout)")
    pf.set_defaults(func=_cmd_figure)

    # verify-all prints a text table, so it takes no --json/--csv/--output
    pv = sub.add_parser("verify-all",
                        help="run the acceptance criteria table")
    pv.add_argument("--only", nargs="+", metavar="ID",
                    help=f"subset of criteria, from {CRITERION_IDS}")
    pv.set_defaults(func=_cmd_verify_all)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _GATE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
