"""Statistics, machine-speed calibration, failure classification and span
arithmetic for the benchmark."""

from __future__ import annotations

import bisect
import json
import math
import time
from collections import defaultdict

#: percentiles a tail may be reported at, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

FAIL_KINDS = ("raised", "exit", "bad_output", "wrong", "changed")


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[rank(p, len(xs)) - 1]


def tail_percentile(samples):
    """(p, value, beyond): the highest percentile of ``TAIL_LADDER`` with at
    least ``TAIL_MIN_BEYOND`` samples above its rank, or None when there
    are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    for p in reversed(TAIL_LADDER):
        k = rank(p, n)
        if n - k >= TAIL_MIN_BEYOND:
            return p, xs[k - 1], n - k
    return None


def median(xs):
    xs = sorted(xs)
    if not xs:
        raise ValueError("no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

#: seconds one calibration kernel takes at the reference speed (the median
#: on the 2-core host the benchmark was tuned on)
KERNEL_NOMINAL_S = 1.0e-3


def calibration_kernel() -> float:
    """Fixed interpreter-bound work, independent of the program measured:
    float arithmetic, calls, and list and dict traffic."""
    acc, seen = 0.0, {}
    for i in range(1, 3200):
        x = (i * 0.5) / (i + 1.0) - math.sqrt(i)
        seen[i & 63] = x
        acc += abs(x) + len(seen)
    return acc


class SpeedProbe:
    """Times the calibration kernel between operations, at most once every
    ``every`` seconds (always, with ``every=0``).

    The shared host this benchmark runs on drifts in speed by 10-20 % over
    seconds; the kernel, run interleaved with the work, measures that drift
    so end-to-end times can be reported at the reference speed.  Samples
    are [end time, duration] pairs on the ``perf_counter`` clock."""

    def __init__(self, every: float = 0.05):
        self.every = every
        self.samples = []
        self.last = -math.inf

    def burst(self, k: int) -> None:
        for _ in range(k):
            t0 = time.perf_counter()
            calibration_kernel()
            self.last = time.perf_counter()
            self.samples.append([self.last, self.last - t0])

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.burst(1)


def speed_factor(samples) -> float:
    """How much slower than the reference speed the machine ran: the median
    kernel time over ``KERNEL_NOMINAL_S``."""
    return median([d for _, d in samples]) / KERNEL_NOMINAL_S


def local_speed_factors(spans, samples, window: float = 0.5,
                        least: int = 5):
    """The speed factor over each (start, end) of ``spans``: from the kernel
    samples timed from ``window`` seconds before its start to ``window``
    after its end, or the ``least`` nearest to its middle when fewer lie
    that close."""
    samples = sorted(samples)
    ts = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(ts, start - window)
        hi = bisect.bisect_right(ts, end + window)
        if hi - lo < least:
            mid = bisect.bisect_left(ts, (start + end) / 2)
            lo = max(0, min(mid - least // 2, len(ts) - least))
            hi = min(len(ts), lo + least)
        out.append(median([d for _, d in samples[lo:hi]]) / KERNEL_NOMINAL_S)
    return out


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------

def parse_cli_output(returncode: int, stdout: str):
    """(fail kind or None, record): a nonzero exit, or stdout that is not one
    JSON object with an ``outputs`` mapping, is a failure."""
    if returncode != 0:
        return "exit", None
    try:
        rec = json.loads(stdout)
    except ValueError:
        return "bad_output", None
    if not isinstance(rec, dict) or not isinstance(rec.get("outputs"), dict):
        return "bad_output", None
    return None, rec


def classify(status: str, ok) -> str | None:
    """Failure kind of one operation from its run status ("ok", "raised",
    "changed", or a cli kind from :func:`parse_cli_output`) and whether its
    output matched the reference; None when it succeeded."""
    if status in FAIL_KINDS:
        return status
    if status != "ok":
        raise ValueError(f"unknown status {status!r}")
    return None if ok else "wrong"


# ---------------------------------------------------------------------------
# spans: [id, parent, op, name, start, end]
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part of it its child spans cover}."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid], start, end)
            for sid, _, _, _, start, end in spans}


def layer_self_ms(spans):
    """{layer: mean self time in ms per span}; the layer is the span name up
    to its first dot."""
    own = self_times(spans)
    acc = defaultdict(list)
    for sid, _, _, name, _, _ in spans:
        acc[name.split(".", 1)[0]].append(own[sid])
    return {layer: 1e3 * sum(v) / len(v) for layer, v in acc.items()}


def importtime_spans(stderr: str, start: float, first_id: int, parent: int,
                     op: int, keep=("coulombstar", "scipy", "numpy",
                                    "mpmath")):
    """Spans for the modules in ``keep`` from ``python -X importtime``
    output, placed on a synthetic timeline from ``start``.

    importtime prints each module after its children with its own and
    cumulative microseconds; the nesting comes from the indentation.  Only
    durations are known, so the modules are laid end to end in import
    order: their durations and nesting are exact, their start times are
    not.  Returns (spans, {module: cumulative seconds})."""
    stack = []                       # (depth, name, self_s, cum_s, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue                 # the header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        kids = []
        while stack and stack[-1][0] > depth:
            kids.insert(0, stack.pop())
        stack.append((depth, name, self_us * 1e-6, cum_us * 1e-6, kids))
    spans, cumulative = [], {}

    def place(node, t, parent_id):
        _, name, _, cum, kids = node
        sid = parent_id
        if name in keep and name not in cumulative:
            cumulative[name] = cum
            sid = first_id + len(spans)
            spans.append([sid, parent_id, op, f"import.{name}", t, t + cum])
        for kid in kids:
            place(kid, t, sid)
            t += kid[3]

    t = start
    for node in stack:
        place(node, t, parent)
        t += node[3]
    return spans, cumulative
