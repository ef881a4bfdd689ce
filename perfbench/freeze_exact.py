"""Regenerate ``exact_ref.json``, the stored strings of the exact tables.

The large-order (eps) and Laurent (zeta) tables have no independent closed
form, so the benchmark compares them with strings frozen here.  Before
writing, the tables are cross-checked: the series solve and the recurrence
form of the eps table must agree, re-substitution must leave exact zeros,
and the anchors the test suite pins must match.  Run from the repository
root:

    PYTHONPATH=src python3 perfbench/freeze_exact.py
"""

import json
import os
import sys

from coulombstar import (annihilation_residuals, epsilon_coeffs,
                         epsilon_coeffs_recurrence, format_sqrt2, zeta_coeffs)
from workloads import ZETA_K_MAX, ZETA_N_MAX

N_MAX = 6
ANCHORS = {("eps", "1"): "eta + 5*sqrt2/4 - 1/4",
           ("zeta", "2", 0): "1/2", ("zeta", "2", 2): "9/8 + 1/2*eta^2",
           ("zeta", "4", 1): "-11/16"}


def build() -> dict:
    table = epsilon_coeffs(N_MAX)
    rec = epsilon_coeffs_recurrence(N_MAX)
    eps = {str(j): e.to_str(descending=True)
           for j, e in enumerate(table.eps, start=1)}
    if eps != {str(j): e.to_str(descending=True)
               for j, e in enumerate(rec.eps, start=1)}:
        raise SystemExit("series solve and recurrence disagree")
    residuals = [p.to_str() for p in annihilation_residuals(N_MAX)]
    if any(p for p in annihilation_residuals(N_MAX)):
        raise SystemExit("re-substitution leaves a nonzero residual")
    ref = {
        "c": format_sqrt2(table.c),
        "eps": eps,
        "eps_coeffs": {str(j): [[str(c.a), str(c.b)] for c in e.coeffs]
                       for j, e in enumerate(table.eps, start=1)},
        "zero_residual": residuals[0],
        "zeta": {str(k): [p.to_str() for p in zeta_coeffs(k, ZETA_N_MAX)]
                 for k in range(2, ZETA_K_MAX + 1)},
    }
    for key, want in ANCHORS.items():
        got = ref[key[0]][key[1]] if len(key) == 2 \
            else ref[key[0]][key[1]][key[2]]
        if got != want:
            raise SystemExit(f"anchor {key}: {got!r} != {want!r}")
    return ref


if __name__ == "__main__":
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "exact_ref.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
