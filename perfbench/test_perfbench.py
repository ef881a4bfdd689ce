"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import metrics
import reference
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gen, n", [
    (workloads.eval_points, 120), (workloads.radius_cases, 48),
    (workloads.exact_sessions, 8), (workloads.cli_requests, 30)])
def test_generators_are_deterministic(gen, n):
    assert gen(7, n) == gen(7, n)
    assert gen(7, n) != gen(8, n)
    assert json.loads(json.dumps(gen(7, n))) == gen(7, n)


def test_eval_points_cover_both_sides_and_ranges():
    pts = workloads.eval_points(3, 1200)
    for p in pts:
        z = abs(workloads.as_z(p["z"]))
        assert -1.0 < p["L"] <= 200.0 and -2.0 <= p["eta"] <= 3.0
        assert 0.0 < z <= workloads.EVAL_Z_MAX
        tp = workloads.turning_point(p["L"], p["eta"])
        assert (z <= tp) == (p["side"] == "inner")
    assert {(p["fn"], p["side"], isinstance(p["z"], list)) for p in pts} \
        == {(fn, side, cplx) for fn in workloads.EVAL_FNS
            for side in ("inner", "outer") for cplx in (False, True)}
    assert len({(p["L"], p["eta"], str(p["z"])) for p in pts}) == len(pts)


def test_radius_cases_mix():
    cases = workloads.radius_cases(5, 48)
    large = [c for c in cases if c["large"]]
    assert 0.4 < len(large) / len(cases) < 0.7
    for c in cases:
        assert -1.0 < c["p1"] <= 200.0 and 0.0 <= c["beta"] < 0.9
        if c["seeded"]:
            assert c["beta"] == 0.0 and c["p2"] < 0.0 and c["p1"] != 0.0
        elif c["family"] != "phi":
            assert c["beta"] > 0.0
        else:
            assert c["p1"] + c["p2"] > 0.0
    assert {c["seeded"] for c in cases} == {True, False}


def test_exact_sessions_start_cold_at_each_order_and_grow():
    sessions = workloads.exact_sessions(9, 8)
    for block in (sessions[:4], sessions[4:]):
        assert sorted(s[0][1] for s in block) == [2, 3, 4, 6]
    zeta = set()
    for s in sessions:
        eps = [args[0] for name, *args in s if name == "epsilon_coeffs"]
        assert eps == sorted(set(eps)) and eps[-1] == 6
        (k, n), = [args for name, *args in s if name == "zeta_coeffs"]
        assert 2 <= k <= workloads.ZETA_K_MAX
        assert 0 <= n <= workloads.ZETA_N_MAX
        zeta.add((k, n))
    assert len(zeta) > 1


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (19, None), (20, (50.0, 10, 10)), (39, (50.0, 20, 19)),
    (40, (75.0, 30, 10)), (100, (90.0, 90, 10)), (1000, (99.0, 990, 10)),
    (999, (90.0, 900, 99)), (10000, (99.9, 9990, 10)),
    (200000, (99.9, 199800, 200))])
def test_tail_is_highest_percentile_with_ten_beyond(n, want):
    samples = list(range(n, 0, -1))          # order must not matter
    assert metrics.tail_percentile(samples) == want


def test_workload_tails_have_ten_beyond_at_the_minimum_count():
    assert {k: run.tail_p(k) for k in run.WORKLOADS} == {
        "cli": 50.0, "eval": 99.9, "radius": 90.0, "exact": 75.0}
    # the exact tail counts calls: the same in whole blocks for every seed
    calls = [sum(map(len, workloads.exact_sessions(seed, run.MIN_OPS[
        "exact"]))) for seed in (0, 1, 2)]
    assert calls[0] == calls[1] == calls[2]


def test_percentile_and_median():
    assert metrics.percentile([3, 1, 2], 50) == 2
    assert metrics.percentile([4, 1, 3, 2], 50) == 2
    assert metrics.median([4, 1, 3, 2]) == 2.5


def test_local_speed_factors_use_nearby_kernels():
    nominal = metrics.KERNEL_NOMINAL_S
    samples = [[t, nominal * (2.0 if t >= 10.0 else 1.0)]
               for t in (0.0, 0.2, 0.4, 0.6, 0.8, 10.0, 10.2, 10.4, 10.6)]
    assert metrics.local_speed_factors([(0.3, 0.3), (10.3, 10.4)],
                                       samples) == [1.0, 2.0]
    # a long span takes the kernels before and after it
    assert metrics.local_speed_factors([(0.7, 10.1)], samples) == [1.5]
    # too few within the window: the five nearest decide
    assert metrics.local_speed_factors([(5.0, 5.0)], samples[:7]) == [1.0]
    assert metrics.speed_factor(samples) == 1.0


def test_self_time_subtracts_covered_children():
    spans = [[0, -1, 0, "bench.op", 0.0, 10.0],
             [1, 0, 0, "cli.eval", 1.0, 9.0],
             [2, 1, 0, "import.a", 1.0, 4.0],
             [3, 1, 0, "import.b", 3.0, 6.0],    # overlaps a
             [4, 1, 0, "import.c", 8.0, 12.0]]   # sticks out of its parent
    own = metrics.self_times(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 4.0}
    assert metrics.layer_self_ms(spans)["import"] == pytest.approx(1e3 * 10 / 3)


def test_importtime_spans_nest_and_measure():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |         35 |   scipy",
        "import time:         7 |          7 |   mpmath",
        "import time:         3 |         45 | coulombstar",
        "some other stderr line"])
    spans, cum = metrics.importtime_spans(stderr, 100.0, 5, 4, 0)
    assert cum == pytest.approx({"coulombstar": 45e-6, "scipy": 35e-6,
                                 "numpy": 30e-6, "mpmath": 7e-6})
    by_name = {s[3]: s for s in spans}
    assert by_name["import.coulombstar"][1] == 4
    assert by_name["import.scipy"][1] == by_name["import.coulombstar"][0]
    assert by_name["import.numpy"][1] == by_name["import.scipy"][0]
    assert by_name["import.mpmath"][4] == pytest.approx(100.0 + 35e-6)


# ---------------------------------------------------------------------------
# failure classification
# ---------------------------------------------------------------------------

def test_cli_output_failures():
    assert metrics.parse_cli_output(4, '{"outputs": {}}') == ("exit", None)
    assert metrics.parse_cli_output(0, "value: 1.0") == ("bad_output", None)
    assert metrics.parse_cli_output(0, "[1, 2]") == ("bad_output", None)
    assert metrics.parse_cli_output(0, '{"outputs": 3}') == ("bad_output", None)
    fail, rec = metrics.parse_cli_output(0, '{"outputs": {"value": 1.5}}')
    assert fail is None and rec["outputs"]["value"] == 1.5


def test_classify_each_kind():
    assert metrics.classify("raised", False) == "raised"
    assert metrics.classify("exit", False) == "exit"
    assert metrics.classify("bad_output", False) == "bad_output"
    assert metrics.classify("changed", True) == "changed"
    out_of_tol = reference.close(1.0 + 1e-7, 1.0, 1e-8)
    assert metrics.classify("ok", out_of_tol) == "wrong"
    assert metrics.classify("ok", reference.close(1.0 + 1e-9, 1.0, 1e-8)) \
        is None
    with pytest.raises(ValueError):
        metrics.classify("weird", True)


def test_close_handles_nonfinite_and_underflow():
    assert not reference.close(float("nan"), 1.0, 1e-8)
    assert not reference.close(None, 1.0, 1e-8)
    assert not reference.close({"raised": "X"}, 1.0, 1e-8)
    assert reference.close(0.0, 1e-320, 1e-8)
    assert not reference.close(1e-300, 1e-320, 1e-8)
    assert reference.close(complex(1, 1e-12), complex(1, 0), 1e-8)


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "coulombstar", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


@pytest.mark.skipif(not os.path.isdir(SRC), reason="needs the package source")
def test_real_cli_nonzero_exit_is_a_failure():
    proc = _cli("radius", "--family", "f", "--L", "-2", "--eta", "0")
    assert proc.returncode == 2
    assert metrics.parse_cli_output(proc.returncode, proc.stdout)[0] == "exit"


@pytest.mark.skipif(not os.path.isdir(SRC), reason="needs the package source")
def test_worker_reports_a_raise():
    # L = -2 is outside the domain L > -1, which the package rejects
    job = {"kind": "radius", "trace": False, "seconds": 0.0, "max_ops": 1,
           "items": [{"family": "f", "p1": -2.0, "p2": 0.0, "beta": 0.0,
                      "seeded": False, "large": False}]}
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench",
                                                        "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=env, timeout=120)
    res = json.loads(proc.stdout)
    assert res["ops"][0][3] == "raised"
    assert res["outputs"]["0"]["raised"] == "GateViolation"


def test_known_defects_are_narrow():
    ev = {"fn": "besselJ", "L": 25.0, "side": "outer", "z": 30.0}
    assert run.known_defect("eval", ev, "wrong") == "A"
    # no wrong values at the parent commit below the turning point (but for
    # complex g), so a wrong value there is not A
    for fn, z in (("besselJ", 3.0), ("F", 3.0), ("F", [3.0, 1.0]),
                  ("g", 3.0)):
        inner = {"fn": fn, "L": 25.0, "side": "inner", "z": z}
        assert run.known_defect("eval", inner, "wrong") is None
    ev = {"fn": "besselJ", "L": 180.0, "side": "inner", "z": 30.0}
    assert run.known_defect("eval", ev, "raised", "OverflowError") == "D"
    assert run.known_defect("eval", dict(ev, fn="F"), "raised",
                            "OverflowError") is None
    assert run.known_defect("eval", dict(ev, L=150.0), "raised",
                            "OverflowError") is None
    unseeded = {"family": "f", "seeded": False}
    assert run.known_defect("radius", unseeded, "raised",
                            "NoRootInScanRange", 109.6) == "B"
    assert run.known_defect("radius", unseeded, "raised",
                            "NoRootInScanRange", 99.0) is None
    assert run.known_defect("radius", dict(unseeded, seeded=True), "raised",
                            "NoRootInScanRange", 109.6) is None
    assert run.known_defect("radius", unseeded, "wrong") is None
    phi = {"family": "phi", "seeded": False, "p1": 60.0}
    assert run.known_defect("radius", phi, "wrong") == "C"
    assert run.known_defect("radius", phi, "raised",
                            "NoRootInScanRange") == "C"
    assert run.known_defect("radius", dict(phi, p1=5.0), "wrong") is None
    for fail in metrics.FAIL_KINDS:
        assert run.known_defect("exact", [], fail) is None
        assert run.known_defect("cli", {"kind": "eval"}, fail) is None


def _eval_ops(group, n, n_wrong, repeat=2):
    fn, side, cplx = group
    item = {"fn": fn, "L": 1.0, "side": side, "z": [1.0, 1.0] if cplx else 1.0}
    return [{"key": f"{fn}{side}{cplx}{k}", "item": item,
             "fail": "wrong" if k < n_wrong else None}
            for k in range(n) for _ in range(repeat)]


def test_defect_a_is_capped_by_its_share_per_group():
    group = ("F", "outer", False)
    cap = run.DEFECT_A_CAPS[group]
    at_cap = int(100 * cap)
    assert run.over_a_caps(_eval_ops(group, 100, at_cap)) == {}
    assert run.over_a_caps(_eval_ops(group, 100, at_cap + 1)) == {
        group: pytest.approx((at_cap + 1) / 100)}
    # shares count distinct points, not repeats of one point
    ops = _eval_ops(group, 100, at_cap) + _eval_ops(group, 1, 1, repeat=50)
    assert run.over_a_caps(ops) == {}


def test_result_line_counts_only_unexplained_failures():
    r = run.Run("eval")
    item = {"fn": "F", "side": "outer", "z": 3.0, "L": 2.0}
    run._record(r, "0", item, 0.0, 1e-3, None)
    run._record(r, "1", item, 0.0, 1e-3, "wrong")                   # A
    line = run.result_line(r, {})
    assert (r.failed, line["failed"], line["correct"]) == (1, 0, True)
    run._record(r, "2", dict(item, side="inner"), 0.0, 1e-3, "wrong")
    line = run.result_line(r, {})
    assert (r.failed, line["attempted"], line["failed"], line["correct"]) \
        == (2, 3, 1, False)


def test_exact_layer_metrics_split_cold_and_extension_calls():
    r = run.Run("exact")
    for s, session in enumerate(workloads.exact_sessions(4, 4)):
        for j, call in enumerate(session):
            lat = call[1] if call[0] == "epsilon_coeffs" else 0.5
            r.ops.append({"key": f"{s}:{j}", "item": session, "lat": lat})
    m = run.layers_exact(r)
    assert (m["asympt.eps_N2_s"], m["asympt.eps_N4_s"],
            m["asympt.eps_N6_s"]) == (2, 4, 6)
    assert m["asympt.eps_extend_s"] == 6       # 4, 6, 4, 6 and 6
    assert m["rayleigh.exact_table_ms"] == 500.0


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_reference_reproduces_frozen_oracles():
    assert reference.check_frozen_oracles() == []


def _frozen_constants(path):
    tree = ast.parse(open(path, encoding="utf-8").read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("path, table", [
    ("tests/test_specfun.py", reference.SPECFUN_ORACLES),
    ("tests/test_radii.py", reference.RADII_ORACLES)])
def test_oracle_copies_match_the_test_suite(path, table):
    full = os.path.join(ROOT, path)
    if not os.path.isfile(full):
        pytest.skip("test suite not present")
    frozen = _frozen_constants(full)
    for name, value in table.items():
        assert frozen[name] == value, name


def test_exact_recurrences_match_known_tables():
    Zt = reference.rayleigh_Ztilde_ref(Fraction(1, 2), Fraction(0), 6)
    assert Zt == {2: Fraction(7, 12), 3: 0, 4: Fraction(3, 32), 5: 0,
                  6: Fraction(269, 13824)}
    Zt = reference.rayleigh_Ztilde_ref(Fraction(2), Fraction(-1), 6)
    assert Zt[6] == Fraction(4417013, 2005126893)
    assert reference.rayleigh_Z_ref(Fraction(5), Fraction(-1), 2)[2] \
        == Fraction(37, 468)


def test_stored_exact_strings_keep_the_pinned_anchors():
    ref = reference.load_exact_ref()
    assert ref["c"] == "sqrt2"
    assert ref["eps"]["1"] == "eta + 5*sqrt2/4 - 1/4"
    assert ref["zeta"]["2"][:3] == ["1/2", "-3/4", "9/8 + 1/2*eta^2"]
    assert ref["zeta"]["4"][1] == "-11/16"


def test_asympt_reference_value():
    ref = reference.load_exact_ref()
    L, eta = 50.0, -0.5
    want = L * (2 ** 0.5 + (eta + 5 * 2 ** 0.5 / 4 - 0.25) / L)
    assert reference.asympt_value_ref(ref, L, eta, 1) == pytest.approx(
        want, rel=1e-15)


def test_radius_reference_against_bessel_zero():
    # f at eta = 0, L = nu - 1/2, beta = 0: first zero of d/dr[sqrt(r) J_nu]
    import mpmath as mp
    nu = mp.mpf("3.5")
    root = reference.radius_ref("f", 3.0, 0.0, 0.0)
    with mp.workdps(30):
        d = mp.diff(lambda r: mp.sqrt(r) * mp.besselj(nu, r), root)
    assert abs(d) < 1e-20
