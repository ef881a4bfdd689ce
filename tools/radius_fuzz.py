"""Kernel calls of the radius search over a seeded random set of inputs.

Draws n radius inputs, a third each of f, g and phi, over wide ranges:

* f and g: L = -1 + 10^U(-4, 5), so L from -0.9999 to 1e5; eta = 0 one
  time in five, else +-10^U(-3, log10 5000); beta = 0 one time in four,
  U(0, 1) one time in two, else 1 - 10^U(-9, -1);
* phi: nu = -1 + 10^U(-3, log10(1e4 + 1)), so nu up to 1e4; nu + alpha =
  10^U(-3, 3); beta as for f and g.

Prints one JSON line: the number of inputs, how many raised, and the mean
and max kernel calls (``RadiusResult.iterations``) of those that did not.
``--out FILE`` writes every input with its value, error bound and calls,
or the class of the library error it raised.  ``--against FILE``
compares with such a file from another checkout, at the same seed and n:
the inputs that raise in only one of the two, the calls ratio, and the
inputs whose values differ by more than the sum of the two error bounds.
Run from the repository root:

    PYTHONPATH=src python tools/radius_fuzz.py --n 6000 --out new.json
"""

import argparse
import json
import math
import random

from coulombstar.errors import CoulombError
from coulombstar.radii import radius_f, radius_g, radius_phi


def _beta(rng: random.Random) -> float:
    k = rng.random()
    if k < 0.25:
        return 0.0
    if k < 0.75:
        return rng.random()
    return 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)


def cases(seed: int, n: int) -> list:
    """n inputs (family, p1, p2, beta) in turn f, g, phi."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        family = "fgp"[i % 3]
        if family == "p":
            nu = -1.0 + 10.0 ** rng.uniform(-3.0, math.log10(1e4 + 1.0))
            alpha = 10.0 ** rng.uniform(-3.0, 3.0) - nu
            out.append(("phi", nu, alpha, _beta(rng)))
            continue
        L = -1.0 + 10.0 ** rng.uniform(-4.0, 5.0)
        eta = 0.0
        if rng.random() >= 0.2:
            eta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                -3.0, math.log10(5000.0))
        out.append((family, L, eta, _beta(rng)))
    return out


def run(seed: int, n: int) -> list:
    ops = {"f": radius_f, "g": radius_g, "phi": radius_phi}
    rows = []
    for family, p1, p2, beta in cases(seed, n):
        row = {"case": [family, p1, p2, beta]}
        try:
            res = ops[family](p1, p2, beta)
        except CoulombError as exc:
            row["error"] = type(exc).__name__
        else:
            row.update(value=res.value, error_bound=res.error_bound,
                       calls=res.iterations)
        rows.append(row)
    return rows


def summary(rows: list) -> dict:
    calls = [r["calls"] for r in rows if "calls" in r]
    return {"n": len(rows), "raised": len(rows) - len(calls),
            "calls_mean": sum(calls) / len(calls), "calls_max": max(calls)}


def compare(rows: list, old: list) -> dict:
    """Raise sets, calls ratio and value disagreements against ``old``."""
    if [r["case"] for r in rows] != [r["case"] for r in old]:
        raise SystemExit("the two files hold different inputs")
    both = [(r, o) for r, o in zip(rows, old)
            if "calls" in r and "calls" in o]
    apart = [r["case"] for r, o in both
             if abs(r["value"] - o["value"])
             > (r["error_bound"] + o["error_bound"]) * abs(o["value"])]
    return {
        "raise_only_here": [r["case"] for r, o in zip(rows, old)
                            if "error" in r and "error" not in o],
        "raise_only_there": [r["case"] for r, o in zip(rows, old)
                             if "error" in o and "error" not in r],
        "calls_ratio": (sum(r["calls"] for r, _ in both)
                        / sum(o["calls"] for _, o in both)),
        "more_calls_by_3": sum(r["calls"] >= o["calls"] + 3 for r, o in both),
        "values_apart": apart,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=6000)
    ap.add_argument("--out", help="write every input and its result here")
    ap.add_argument("--against", help="compare with a file from --out")
    args = ap.parse_args()
    rows = run(args.seed, args.n)
    report = summary(rows)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh)
    if args.against:
        with open(args.against) as fh:
            report.update(compare(rows, json.load(fh)))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
