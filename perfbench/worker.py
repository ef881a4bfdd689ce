"""In-process worker for the eval, radius and exact workloads.

``run.py`` starts it as ``python perfbench/worker.py`` with ``PYTHONPATH=src``
and single-threaded BLAS settings, writes one JSON job to its stdin and
reads one JSON result from its stdout.  The worker imports coulombstar,
then calls the package's public functions in a closed loop until the job's
time is up (or for exactly ``max_ops`` operations, when the job replays a
traced run).  Outputs are returned as plain JSON values for
``run.py`` to check; nothing is checked here.

A span is ``[id, parent, op, name, start, end]`` with ``perf_counter``
times (the same clock in forked children on Linux); ``parent`` is -1 for a
root span.  Spans stay in memory and go back with the result.
"""

import json
import os
import resource
import sys
import time
from array import array
from fractions import Fraction

from metrics import SpeedProbe

clock = time.perf_counter
STATUSES = ("ok", "raised", "changed")


class Spans:
    """Span recorder; a disabled one records nothing."""

    def __init__(self, on: bool):
        self.on = on
        self.rows = []

    def add(self, parent: int, op: int, name: str, start: float,
            end: float) -> int:
        if not self.on:
            return -1
        self.rows.append([len(self.rows), parent, op, name, start, end])
        return len(self.rows) - 1


def _plain(x):
    """A float, or [re, im] for a complex number with nonzero imaginary part."""
    if isinstance(x, complex):
        return [x.real, x.imag] if x.imag != 0.0 else x.real
    return float(x)


def _loop(job, call, layer_of, probe):
    """Run ``call(item)`` over the job's items in order, cycling, until the
    time is up, with the speed probe between operations.  Returns the op
    records [key, start, latency_s, status], the first output per item,
    spans, the wall time of the whole loop and the peak RSS in KiB when the
    loop ended.  Starts and latencies go to flat arrays while the loop runs,
    so that the records add little to the peak."""
    items, spans = job["items"], Spans(job["trace"])
    deadline = clock() + job["seconds"]
    max_ops, min_ops = job.get("max_ops"), job.get("min_ops", 1)
    starts, lats, codes = array("d"), array("d"), bytearray()
    outputs = {}
    loop_start = clock()
    i = 0
    while (i < max_ops) if max_ops is not None \
            else (i < min_ops or clock() < deadline):
        k = i % len(items)
        probe.maybe()
        op_start = clock()
        t0 = clock()
        try:
            out = call(items[k])
            status = "ok"
        except Exception as exc:        # recorded as a failure, never fatal
            out = {"raised": type(exc).__name__, "msg": str(exc)[:200]}
            status = "raised"
        t1 = clock()
        key = str(k)
        if key not in outputs:
            outputs[key] = out
        elif outputs[key] != out:
            status = "changed"
        starts.append(t0)
        lats.append(t1 - t0)
        codes.append(STATUSES.index(status))
        root = spans.add(-1, i, "bench.op", op_start, clock())
        spans.add(root, i, layer_of(items[k]), t0, t1)
        i += 1
    loop_s = clock() - loop_start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = [[str(j % len(items)), starts[j], lats[j], STATUSES[codes[j]]]
           for j in range(i)]
    return ops, outputs, spans, loop_s, rss


def run_eval(cs, job, probe):
    def call(p):
        z = complex(*p["z"]) if isinstance(p["z"], list) else p["z"]
        if p["fn"] == "besselJ":
            res = cs.eval_bessel_j(p["L"], z)
        else:
            fn = cs.eval_F_with_derivative if p["fn"] == "F" else cs.eval_g
            res = fn(cs.CoulombParams(p["L"], p["eta"]), z)
        return {"v": _plain(res.value), "terms": res.terms_used}

    ops, outputs, spans, loop_s, rss = _loop(
        job, call, lambda p: "specfun." + {"F": "eval_F_with_derivative",
                                           "g": "eval_g",
                                           "besselJ": "eval_bessel_j"}[p["fn"]],
        probe)
    return {"ops": ops, "outputs": outputs, "spans": spans.rows,
            "loop_s": loop_s, "rss_kb": rss}


def run_radius(cs, job, probe):
    ops_fn = {"f": cs.radius_f, "g": cs.radius_g, "phi": cs.radius_phi}

    def call(c):
        res = ops_fn[c["family"]](c["p1"], c["p2"], c["beta"])
        return {"v": res.value, "it": res.iterations}

    ops, outputs, spans, loop_s, rss = _loop(
        job, call, lambda c: "radii.radius_" + c["family"], probe)
    bounds = {}
    if job["trace"]:
        # traced runs only, outside the timed loop: the Euler-Rayleigh
        # sandwich that seeds the scan, timed on its own
        for k, c in enumerate(job["items"][:len(ops)]):
            if c["seeded"]:
                t0 = clock()
                cs.euler_rayleigh_bounds(cs.CoulombParams(c["p1"], c["p2"]),
                                         4)
                t1 = clock()
                spans.add(-1, k, "rayleigh.euler_rayleigh_bounds", t0, t1)
                bounds[str(k)] = t1 - t0
    return {"ops": ops, "outputs": outputs, "spans": spans.rows,
            "loop_s": loop_s, "rss_kb": rss, "bounds_s": bounds}


# ---------------------------------------------------------------------------
# exact: one forked child per session
# ---------------------------------------------------------------------------

def _exact_call(cs, name, args):
    if name in ("epsilon_coeffs", "epsilon_coeffs_recurrence"):
        t = getattr(cs, name)(*args)
        return {"c": cs.format_sqrt2(t.c),
                "eps": [e.to_str(descending=True) for e in t.eps]}
    if name == "annihilation_residuals":
        return [p.to_str() for p in cs.annihilation_residuals(*args)]
    if name == "zeta_coeffs":
        return [p.to_str() for p in cs.zeta_coeffs(*args)]
    L, eta, kmax = args
    table = getattr(cs, name)(cs.CoulombParams(Fraction(L), Fraction(eta)),
                              kmax, exact=True)
    return [str(table[k]) for k in range(2, kmax + 1)]


EXACT_LAYER = {"epsilon_coeffs": "asympt", "epsilon_coeffs_recurrence":
               "asympt", "annihilation_residuals": "asympt",
               "zeta_coeffs": "rayleigh", "rayleigh_Z": "rayleigh",
               "rayleigh_Ztilde": "rayleigh"}


def _session(cs, calls):
    """Run one session's calls in order, with the speed probe before each;
    returns ([name, start, end, status, out] per call, probe samples)."""
    rows, probe = [], SpeedProbe(every=0.0)
    for name, *args in calls:
        probe.burst(2)
        t0 = clock()
        try:
            out, status = _exact_call(cs, name, args), "ok"
        except Exception as exc:        # recorded as a failure, never fatal
            out = {"raised": type(exc).__name__, "msg": str(exc)[:200]}
            status = "raised"
        rows.append([name, t0, clock(), status, out])
    return rows, probe.samples


def _forked_session(cs, calls):
    """Run a session in a child forked from this process (which has
    imported coulombstar and called nothing), so every memo starts empty.
    Returns (rows, probe samples, child peak RSS in KiB)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                        # child
        code = 0
        try:
            os.close(r)
            data = json.dumps(_session(cs, calls)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"session child exited with status {status}")
    rows, samples = json.loads(data)
    return rows, samples, usage.ru_maxrss


def run_exact(cs, job, probe):
    sessions, spans = job["items"], Spans(job["trace"])
    deadline = clock() + job["seconds"]
    max_ops, min_ops = job.get("max_ops"), job.get("min_ops", 1)
    ops, outputs, rss = [], {}, 0
    loop_start = clock()
    k = 0
    # max_ops counts calls, min_ops sessions; sessions always run whole,
    # and a timed run stops only after a whole block of sessions
    block = job["block"]
    while (len(ops) < max_ops) if max_ops is not None \
            else (k < min_ops or clock() < deadline or k % block):
        s = k % len(sessions)
        t0 = clock()
        rows, samples, child_rss = _forked_session(cs, sessions[s])
        probe.samples += samples
        root = spans.add(-1, k, "bench.session", t0, clock())
        rss = max(rss, child_rss)
        for j, (name, c0, c1, status, out) in enumerate(rows):
            key = f"{s}:{j}"
            if key not in outputs:
                outputs[key] = out
            elif outputs[key] != out:
                status = "changed"
            ops.append([key, c0, c1 - c0, status])
            spans.add(root, k, f"{EXACT_LAYER[name]}.{name}", c0, c1)
        k += 1
    return {"ops": ops, "outputs": outputs, "spans": spans.rows,
            "loop_s": clock() - loop_start, "rss_kb": max(
                rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)}


def main() -> int:
    job = json.load(sys.stdin)
    import coulombstar as cs
    run = {"eval": run_eval, "radius": run_radius, "exact": run_exact}
    probe = SpeedProbe()
    result = run[job["kind"]](cs, job, probe)
    result["probe_s"] = probe.samples
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
