"""Benchmark of coulombstar, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {cli,eval,radius,exact} --seed N \
        --seconds S --trace {0,1}

Every workload is a closed loop with one client that waits for each reply;
one process drives it and starts at most one child at a time.

* ``cli``: a fresh ``python -m coulombstar`` process per request, so import
  is part of every operation;
* ``eval``: in-process F, g and Bessel J values at distinct points;
* ``radius``: in-process radii of starlikeness of f, g and phi;
* ``exact``: cold sessions of exact-table calls, each in a child forked from
  a worker that has imported coulombstar and called nothing.

Inputs come from ``--seed`` (``workloads.py``); every output is checked
against an independent reference computed before timing starts
(``reference.py``).  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see ``BENCHMARK.json``).
Human-readable lines go first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Result records with the
environment stamp and the trace spans are written under
``.perfbench_out/``.

Every failure is counted as measured: ``fail_frac`` and the count per
cause are printed and kept in the result record.  The result line's
``failed`` counts the failures that none of the recorded defects
(``KNOWN_DEFECTS``) explains, including wrong eval values in a group with a
larger share of them than defect A had there at the parent commit
(``DEFECT_A_CAPS``); any such failure also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import metrics
import reference
import workloads

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1"}
WORKLOADS = ("cli", "eval", "radius", "exact")

SETUP_SAMPLES = 3
#: distinct inputs generated per run (a run cycles through them)
N_ITEMS = {"cli": 60, "eval": 1200, "radius": 48, "exact": 40}
#: operations a run completes even past its time (exact: sessions, two
#: blocks of ``workloads.EPS_PATHS``), so that the tail percentile
#: (``tail_p``) has ten samples beyond it
MIN_OPS = {"cli": 25, "eval": 10000, "radius": 100, "exact": 8}
#: operations of the short traced runs that measure the layers a traced
#: workload does not exercise itself (exact: sessions)
MINI_OPS = {"cli": 5, "eval": 240, "radius": 12, "exact": 4}

#: calibration kernels an interpreter times just before a set-up import
SETUP_PROBE_BURST = 10

EVAL_RTOL = 1e-8
RADIUS_RTOL = 1e-10


def tail_p(kind: str) -> float:
    """The tail percentile a workload reports: the highest with ten samples
    beyond it at the workload's minimum sample count, so that a faster
    program (more samples) is still compared at the same percentile."""
    n = MIN_OPS[kind]
    if kind == "exact":     # whole blocks of sessions: the same call count
        n = sum(map(len, workloads.exact_sessions(0, n)))   # for any seed
    return metrics.tail_percentile(range(n))[0]


#: failures recorded at the parent commit, by cause.  An operation failing
#: in one of these ways counts in ``fail_frac`` and under its cause, but not
#: in the result line's ``failed``, and keeps ``correct`` true.
KNOWN_DEFECTS = {
    "A": "eval: F, g or Bessel J value off by more than 1e-8 relative "
         "(the series keeps its float pass or truncates against the peak "
         "partial sum; Bessel J has no precision retry)",
    "B": "radius: NoRootInScanRange on an unseeded case whose root lies "
         "beyond the fixed scan ceiling of 100",
    "C": "radius: phi above nu = 20 returns a root off by more than 1e-10 "
         "relative, or raises NoRootInScanRange (the float Horner sum of "
         "the jhat series loses all its digits)",
    "D": "eval: Bessel J raises OverflowError for order above 170 "
         "(math.gamma(nu + 1) overflows)",
}


#: defect A's scope: the eval groups (function, side of the turning point,
#: complex z) with wrong values at the parent commit, each with the largest
#: share of its distinct points found wrong over seeds 1-6 (1200 points,
#: 100 per group) plus 0.05 for the seed jitter.  Every other group had none.
DEFECT_A_CAPS = {
    ("F", "outer", False): 0.49, ("F", "outer", True): 0.11,
    ("g", "outer", False): 0.74, ("g", "outer", True): 0.27,
    ("g", "inner", True): 0.06,
    ("besselJ", "outer", False): 0.50, ("besselJ", "outer", True): 0.15,
}


def eval_group(item: dict) -> tuple:
    return item["fn"], item["side"], isinstance(item["z"], list)


def known_defect(workload: str, item: dict, fail: str, detail: str = "",
                 ref=None):
    """The KNOWN_DEFECTS key explaining a failure, or None; ``ref`` is the
    reference value of the operation.  A run-level check
    (:func:`over_a_caps`) withdraws A where a group exceeds its cap."""
    if workload == "eval":
        if fail == "wrong" and eval_group(item) in DEFECT_A_CAPS:
            return "A"
        if fail == "raised" and item["fn"] == "besselJ" \
                and detail == "OverflowError" and item["L"] > 170.0:
            return "D"
    if workload == "radius":
        if fail == "raised" and detail == "NoRootInScanRange" \
                and item["family"] != "phi" and not item["seeded"] \
                and ref is not None and ref > 100.0:
            return "B"
        if item["family"] == "phi" and item["p1"] > 20.0 and (
                fail == "wrong" or detail == "NoRootInScanRange"):
            return "C"
    return None


def over_a_caps(ops) -> dict:
    """{eval group: share of its distinct points that were wrong} for the
    groups whose share exceeds their ``DEFECT_A_CAPS`` entry."""
    seen, wrong = defaultdict(set), defaultdict(set)
    for op in ops:
        group = eval_group(op["item"])
        seen[group].add(op["key"])
        if op["fail"] == "wrong":
            wrong[group].add(op["key"])
    shares = {g: len(keys) / len(seen[g]) for g, keys in wrong.items()}
    return {g: share for g, share in shares.items()
            if g in DEFECT_A_CAPS and share > DEFECT_A_CAPS[g]}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def stamp() -> dict:
    """What produced a result: code identity, versions and machine."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    versions = subprocess.run(
        [sys.executable, "-c", "import json, mpmath, numpy, scipy; print("
         "json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'mpmath': mpmath.__version__}))"],
        capture_output=True, text=True, env=child_env(), timeout=120)
    return {"git_sha": sha or "unknown (not a git checkout)",
            "src_sha256": h.hexdigest(), "python": platform.python_version(),
            **json.loads(versions.stdout), "nproc": os.cpu_count(),
            "child_env": BLAS_ENV}


def fresh_import_s():
    """(seconds to import coulombstar in a fresh interpreter, kernel times
    in seconds).  The interpreter times the calibration kernel just before
    the import; the kernel's source is inlined, so that nothing but
    ``time`` and ``math`` is loaded ahead of coulombstar."""
    code = "\n".join([
        "import math, time",
        inspect.getsource(metrics.calibration_kernel),
        "ks = []",
        f"for _ in range({SETUP_PROBE_BURST}):",
        "    t = time.perf_counter(); calibration_kernel()",
        "    ks.append(time.perf_counter() - t)",
        "t = time.perf_counter()",
        "import coulombstar",
        "print(time.perf_counter() - t, *ks)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import coulombstar failed:\n{proc.stderr}")
    first, *kernels = (float(x) for x in proc.stdout.split())
    return first, kernels


def child_wall_s(argv) -> float:
    t0 = clock()
    subprocess.run(argv, capture_output=True, env=child_env(), timeout=120,
                   check=True)
    return clock() - t0


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

def eval_refs(items):
    return [reference.value_ref(p["fn"], p["L"], p["eta"],
                                workloads.as_z(p["z"])) for p in items]


def radius_refs(items):
    return [float(reference.radius_ref(c["family"], c["p1"], c["p2"],
                                       c["beta"])) for c in items]


def rayleigh_strings(which, L, eta, kmax):
    """Exact Z (``which`` "Z") or Ztilde table entries 2..kmax as strings."""
    table = (reference.rayleigh_Z_ref if which == "Z"
             else reference.rayleigh_Ztilde_ref)(Fraction(L), Fraction(eta),
                                                 kmax)
    return [str(table[k]) for k in range(2, kmax + 1)]


def _exact_expected(call, ref):
    name, *args = call
    if name in ("epsilon_coeffs", "epsilon_coeffs_recurrence"):
        return {"c": ref["c"],
                "eps": [ref["eps"][str(j)] for j in range(1, args[0] + 1)]}
    if name == "annihilation_residuals":
        return [ref["zero_residual"]] * (args[0] + 1)
    if name == "zeta_coeffs":
        return ref["zeta"][str(args[0])][:args[1] + 1]
    return rayleigh_strings(name.split("_")[1], *args)


def exact_refs(sessions):
    ref = reference.load_exact_ref()
    return {f"{s}:{j}": _exact_expected(call, ref)
            for s, calls in enumerate(sessions) for j, call in enumerate(calls)}


def cli_ref(req, exact_ref):
    """Expected outputs: a float to compare by tolerance, or a dict of
    exact strings."""
    p = req["params"]
    kind = req["kind"]
    if kind == "radius":
        return float(reference.radius_ref(p["family"], p["p1"], p["p2"],
                                          p["beta"]))
    if kind == "eval":
        return reference.value_ref(p["fn"], p["L"], p["eta"], p["z"])
    if kind == "rayleigh":
        prefix = "Z" if p["which"] == "Z" else "Zt"
        strings = rayleigh_strings(p["which"], p["L"], p["eta"], p["kmax"])
        return {f"{prefix}{k}": v for k, v in enumerate(strings, start=2)}
    if kind == "zeta":
        return {f"zeta{k}_{n}": exact_ref["zeta"][str(k)][n]
                for k in range(2, p["kmax"] + 1)
                for n in range(p["nmax"] + 1)}
    out = {"c": exact_ref["c"]}
    out.update({f"eps{j}": exact_ref["eps"][str(j)]
                for j in range(1, p["N"] + 1)})
    out["value"] = reference.asympt_value_ref(exact_ref, p["L"], p["eta"],
                                              p["N"])
    return out


def cli_ok(req, outputs, expected) -> bool:
    kind = req["kind"]
    if kind in ("radius", "eval"):
        if "value_re" in outputs:
            got = complex(outputs["value_re"], outputs["value_im"])
        else:
            got = outputs.get("value")
        return reference.close(got, expected, RADIUS_RTOL if kind == "radius"
                               else EVAL_RTOL)
    for key, want in expected.items():
        got = outputs.get(key)
        if isinstance(want, float):
            if not reference.close(got, want, RADIUS_RTOL):
                return False
        elif got != want:
            return False
    return True


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------

class Run:
    """Op records of one measured loop plus what the layers need."""

    def __init__(self, kind):
        self.kind = kind
        self.ops = []   # dicts: key, item, start, lat, fail, detail, defect
        self.spans = []
        self.loop_s = 0.0      # wall time of the loop, speed probes excluded
        self.probe_s = []      # calibration kernel times (metrics.SpeedProbe)
        self.rss_kb = 0
        self.extra = {}

    @property
    def failed(self):
        return sum(1 for op in self.ops if op["fail"])

    @property
    def unexpected(self):
        return [op for op in self.ops if op["fail"] and not op["defect"]]


def _record(run, key, item, start, lat, fail, detail="", ref=None):
    defect = known_defect(run.kind, item, fail, detail, ref) if fail else None
    run.ops.append({"key": key, "item": item, "start": start, "lat": lat,
                    "fail": fail, "detail": detail, "defect": defect})


def run_worker(kind, seed, *, seconds=0.0, max_ops=None, trace=False):
    """eval, radius or exact through perfbench/worker.py."""
    n = N_ITEMS[kind]
    if kind == "eval":
        items = workloads.eval_points(seed, n)
        refs = dict(enumerate(eval_refs(items)))
    elif kind == "radius":
        items = workloads.radius_cases(seed, n)
        refs = dict(enumerate(radius_refs(items)))
    else:
        items = workloads.exact_sessions(seed, n)
        refs = exact_refs(items)
    job = {"kind": kind, "items": items, "seconds": seconds,
           "min_ops": MIN_OPS[kind], "max_ops": max_ops, "trace": trace,
           "block": len(workloads.EPS_PATHS)}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=child_env(),
                          timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} worker failed:\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout)
    run = Run(kind)
    verdict = {}
    for key, out in res["outputs"].items():
        if isinstance(out, dict) and "raised" in out:
            verdict[key] = out["raised"]
        elif kind == "exact":
            verdict[key] = out == refs[key]
        else:
            verdict[key] = reference.close(workloads.as_z(out["v"]),
                                           refs[int(key)],
                                           EVAL_RTOL if kind == "eval"
                                           else RADIUS_RTOL)
    for key, start, lat, status in res["ops"]:
        item = items[int(key)] if kind != "exact" \
            else items[int(key.split(":")[0])]
        v = verdict[key]
        detail = v if isinstance(v, str) else ""
        fail = metrics.classify(status, v is True)
        _record(run, key, item, start, lat, fail, detail,
                refs[key] if kind == "exact" else refs[int(key)])
    if kind == "eval":
        over = over_a_caps(run.ops)
        for op in run.ops:
            if op["defect"] == "A" and eval_group(op["item"]) in over:
                op["defect"] = None
                op["detail"] = "wrong share above defect A's cap"
    run.spans = res["spans"]
    run.probe_s = res["probe_s"]
    run.loop_s = res["loop_s"] - sum(d for _, d in run.probe_s)
    run.rss_kb = res["rss_kb"]
    run.extra = {"outputs": res["outputs"],
                 "bounds_s": res.get("bounds_s", {})}
    return run


def run_cli(seed, *, seconds=0.0, max_ops=None, trace=False):
    """One fresh ``python -m coulombstar`` per request."""
    reqs = workloads.cli_requests(seed, N_ITEMS["cli"])
    exact_ref = reference.load_exact_ref()
    expected = [cli_ref(r, exact_ref) for r in reqs]
    run = Run("cli")
    env = child_env()
    prefix = [sys.executable] + (["-X", "importtime"] if trace else [])
    imports = []
    deadline = clock() + seconds
    loop_start = clock()
    i = 0
    while (i < max_ops) if max_ops is not None \
            else (i < MIN_OPS["cli"] or clock() < deadline):
        k = i % len(reqs)
        req = reqs[k]
        op_start = clock()
        proc = subprocess.run(prefix + ["-m", "coulombstar"] + req["argv"],
                              capture_output=True, text=True, env=env,
                              timeout=150)
        t1 = clock()
        fail, rec = metrics.parse_cli_output(proc.returncode, proc.stdout)
        status = fail or "ok"
        ok = rec is not None and cli_ok(req, rec["outputs"], expected[k])
        _record(run, str(k), req, op_start, t1 - op_start,
                metrics.classify(status, ok),
                f"exit {proc.returncode}" if fail == "exit" else "")
        if trace:
            root = len(run.spans)
            run.spans.append([root, -1, i, "bench.op", op_start, clock()])
            run.spans.append([root + 1, root, i, f"cli.{req['kind']}",
                              op_start, t1])
            spans, cum = metrics.importtime_spans(
                proc.stderr, op_start, root + 2, root + 1, i)
            run.spans += spans
            imports.append((req["kind"], cum))
        i += 1
    run.loop_s = clock() - loop_start
    run.rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.extra = {"imports": imports}
    return run


def run_kind(kind, seed, **kw):
    return run_cli(seed, **kw) if kind == "cli" else run_worker(kind, seed,
                                                               **kw)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def scaled_times(run):
    """(each operation's latency, the loop's wall time), divided by the
    machine-speed factor: per operation from the kernels timed around it,
    and by the run's median factor for the loop's time between operations.
    cli requests run in their own processes, where no kernel is timed, so
    their times stay raw."""
    raw = [op["lat"] for op in run.ops]
    if not run.probe_s:
        return raw, run.loop_s
    speed = metrics.local_speed_factors(
        [(op["start"], op["start"] + op["lat"]) for op in run.ops],
        run.probe_s)
    lats = [lat / f for lat, f in zip(raw, speed)]
    between = max(run.loop_s - sum(raw), 0.0)
    return lats, sum(lats) + between / metrics.speed_factor(run.probe_s)


def end_to_end(run, setup):
    """End-to-end metrics, with times scaled to the reference machine speed
    (``metrics.KERNEL_NOMINAL_S``) by calibration kernels timed in the same
    process: each in-process operation by those within half a second of
    it, each set-up import by those its interpreter timed just before.
    ``setup`` holds (seconds, kernel times) per import.  The notes keep the
    raw values."""
    raw = [op["lat"] for op in run.ops]
    lats, loop_s = scaled_times(run)
    n = len(lats)
    p = tail_p(run.kind)
    beyond = n - metrics.rank(p, n)
    rate = n / run.loop_s
    norm_rate = n / loop_s
    setup_raw = metrics.median([t for t, _ in setup])
    setup_s = metrics.median([t * metrics.KERNEL_NOMINAL_S / metrics.median(k)
                              for t, k in setup])
    m = {
        "latency_p50_ms": (1e3 * metrics.percentile(lats, 50), "ms",
                           f"n={n}; raw {1e3 * metrics.percentile(raw, 50):.6g}"),
        "latency_tail_ms": (1e3 * metrics.percentile(lats, p), "ms",
                            f"p{p:g}, n={n}, {beyond} beyond; raw "
                            f"{1e3 * metrics.percentile(raw, p):.6g}"),
        "ops_per_s": (norm_rate, "1/s", f"n={n}; raw {rate:.6g}"),
        "setup_s": (setup_s, "s",
                    f"n={len(setup)} imports; raw {setup_raw:.6g}"),
        "peak_rss_mb": (run.rss_kb / 1024.0, "MB", "max over processes"),
    }
    info = {"fail_frac": (run.failed / n, "fraction",
                          f"n={n}, failed={run.failed}, "
                          f"unexplained={len(run.unexpected)}"),
            "speed_factor": (metrics.speed_factor(run.probe_s)
                             if run.probe_s else 1.0, "x",
                             f"median of {len(run.probe_s)} kernels")}
    return m, info


def _median_of(vals, scale=1.0):
    vals = [v for v in vals if v is not None]
    return scale * metrics.median(vals) if vals else None


def _frac(ops, pred):
    return sum(1 for op in ops if pred(op)) / len(ops)


def layers_cli(run):
    m = {}
    m["cli.interp_ms"] = 1e3 * metrics.median(
        [child_wall_s([sys.executable, "-c", "pass"])
         for _ in range(SETUP_SAMPLES)])
    imports = run.extra["imports"]
    for mod, name in (("coulombstar", "cli.import_ms"),
                      ("scipy", "cli.import_scipy_ms"),
                      ("numpy", "cli.import_numpy_ms"),
                      ("mpmath", "cli.import_mpmath_ms")):
        m[name] = _median_of([cum.get(mod) for _, cum in imports], 1e3)
    for kind in workloads.CLI_KINDS:
        m[f"cli.{kind}_ms"] = _median_of(
            [op["lat"] for op in run.ops if op["item"]["kind"] == kind], 1e3)
    return m


def layers_eval(run):
    ops, outs = run.ops, run.extra["outputs"]
    z = lambda op: op["item"]["z"]      # noqa: E731
    m = {
        "specfun.eval_real_us": _median_of(
            [op["lat"] for op in ops if not isinstance(z(op), list)], 1e6),
        "specfun.eval_complex_us": _median_of(
            [op["lat"] for op in ops if isinstance(z(op), list)], 1e6),
        "specfun.inner_us": _median_of(
            [op["lat"] for op in ops if op["item"]["side"] == "inner"], 1e6),
        "specfun.outer_us": _median_of(
            [op["lat"] for op in ops if op["item"]["side"] == "outer"], 1e6),
    }
    terms = [outs[op["key"]]["terms"] for op in ops
             if "terms" in outs[op["key"]]]
    m["specfun.terms_mean"] = sum(terms) / len(terms)
    m["specfun.wrong_frac"] = _frac(ops, lambda op: op["fail"] == "wrong")
    m["specfun.raised_frac"] = _frac(ops, lambda op: op["fail"] == "raised")
    return m


def layers_radius(run):
    ops, outs = run.ops, run.extra["outputs"]
    sel = lambda pred: _median_of(                       # noqa: E731
        [op["lat"] for op in ops if pred(op["item"])], 1e3)
    its = [outs[op["key"]]["it"] for op in ops if "it" in outs[op["key"]]]
    bounds = list(run.extra["bounds_s"].values())
    return {
        "radii.smallL_ms": sel(lambda c: not c["large"]),
        "radii.largeL_ms": sel(lambda c: c["large"]),
        "radii.seeded_ms": sel(lambda c: c["seeded"]),
        "radii.unseeded_ms": sel(lambda c: not c["seeded"]),
        "radii.iterations_mean": sum(its) / len(its),
        "radii.no_root_frac": _frac(
            ops, lambda op: op["detail"] == "NoRootInScanRange"),
        "radii.wrong_frac": _frac(ops, lambda op: op["fail"] == "wrong"),
        "rayleigh.bounds_us": _median_of(bounds, 1e6),
    }


def layers_exact(run):
    calls = []                    # (call, index in session, grows, latency)
    for op in run.ops:
        j = int(op["key"].split(":")[1])
        session = op["item"]
        eps_before = [c[1] for c in session[:j] if c[0] == "epsilon_coeffs"]
        # an extension asks for a larger eps table than any earlier call
        grows = session[j][0] == "epsilon_coeffs" and bool(eps_before) \
            and session[j][1] > max(eps_before)
        calls.append((session[j], j, grows, op["lat"]))
    sel = lambda pred, scale=1.0: _median_of(             # noqa: E731
        [lat for call, j, grows, lat in calls if pred(call, j, grows)], scale)
    m = {"rayleigh.zeta_s": sel(lambda c, j, g: c[0] == "zeta_coeffs"),
         "rayleigh.exact_table_ms": sel(
             lambda c, j, g: c[0] in ("rayleigh_Z", "rayleigh_Ztilde"), 1e3)}
    for N in (2, 4, 6):
        m[f"asympt.eps_N{N}_s"] = sel(
            lambda c, j, g, N=N: c[0] == "epsilon_coeffs" and j == 0
            and c[1] == N)
    m["asympt.eps_extend_s"] = sel(lambda c, j, g: g)
    m["asympt.recurrence_s"] = sel(
        lambda c, j, g: c[0] == "epsilon_coeffs_recurrence")
    m["asympt.annihilation_s"] = sel(
        lambda c, j, g: c[0] == "annihilation_residuals")
    return m


def _benchmark_units(section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


LAYER_FNS = {"cli": layers_cli, "eval": layers_eval, "radius": layers_radius,
             "exact": layers_exact}
#: the workload whose spans give each layer's self time
LAYER_SOURCE = {"cli": "cli", "specfun": "eval", "radii": "radius",
                "rayleigh": "exact", "asympt": "exact"}


def per_layer(workload, seed, seconds):
    """Traced run: the workload untraced and then traced over the same
    operations (the difference is the tracing overhead), plus short traced
    runs of the other workloads for the layers this one does not reach."""
    plain = run_kind(workload, seed, seconds=seconds / 2)
    traced = run_kind(workload, seed, max_ops=len(plain.ops), trace=True)
    runs = {workload: traced}
    for kind in WORKLOADS:
        if kind != workload:
            n = MINI_OPS[kind]
            if kind == "exact":         # max_ops counts calls
                n = sum(map(len, workloads.exact_sessions(seed, n)))
            runs[kind] = run_kind(kind, seed, max_ops=n, trace=True)
    m = {}
    for kind, run in runs.items():
        m.update(LAYER_FNS[kind](run))
    for layer, kind in LAYER_SOURCE.items():
        m[f"{layer}.self_ms"] = metrics.layer_self_ms(
            runs[kind].spans).get(layer)
    m["bench.self_ms"] = metrics.layer_self_ms(traced.spans)["bench"]
    plain_s, traced_s = scaled_times(plain)[1], scaled_times(traced)[1]
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return m, runs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def result_line(run, shown) -> dict:
    """The last line of stdout.  ``failed`` counts the failures no recorded
    defect explains; the known ones are in ``fail_frac`` and the causes."""
    unexpected = len(run.unexpected)
    return {"correct": unexpected == 0, "attempted": len(run.ops),
            "failed": unexpected,
            "metrics": {k: {"value": v, "unit": unit}
                        for k, (v, unit, _) in shown.items()}}


def _emit_result(workload, seed, trace, body, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
    if spans is not None:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "coulombstar", "__init__.py")):
        print("error: run from the repository root (src/coulombstar missing)",
              file=sys.stderr)
        return 2
    bad = reference.check_frozen_oracles()
    if bad:
        print("error: the reference generator does not reproduce the frozen "
              "oracles:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 3
    env = stamp()
    print(f"# stamp {json.dumps(env, sort_keys=True)}")
    units = _benchmark_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values, runs = per_layer(args.workload, args.seed, args.seconds)
        main_run = runs[args.workload]
        shown = {k: (v, units.get(k), "") for k, v in values.items()}
        info = {}
        spans = {kind: r.spans for kind, r in runs.items()}
    else:
        setup = [fresh_import_s() for _ in range(SETUP_SAMPLES)]
        main_run = run_kind(args.workload, args.seed, seconds=args.seconds)
        shown, info = end_to_end(main_run, setup)
        spans = None
    if set(shown) != set(units) or any(
            unit != units[k] for k, (_, unit, _) in shown.items()):
        print(f"error: metrics {sorted(shown)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 4
    missing = [k for k, (v, _, _) in shown.items() if v is None]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 4
    for name, (v, unit, note) in {**shown, **info}.items():
        print(f"{name:28s} {v:14.6g} {unit:9s} {note}")
    by_defect = {}
    for op in main_run.ops:
        if op["fail"]:
            tag = op["defect"] or f"unexpected {op['fail']} {op['detail']}"
            by_defect[tag] = by_defect.get(tag, 0) + 1
    for tag, count in sorted(by_defect.items()):
        print(f"# failed {count}: {KNOWN_DEFECTS.get(tag, tag)}")
    result = result_line(main_run, shown)
    _emit_result(args.workload, args.seed, args.trace,
                 {"stamp": env, "result": result,
                  "notes": {k: note for k, (_, _, note) in
                            {**shown, **info}.items()},
                  "failures_by_cause": by_defect}, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
