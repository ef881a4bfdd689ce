"""Command-line interface: formats, wrappers, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import coulombstar
from coulombstar.cli import main
from coulombstar import cli, radii
from coulombstar.errors import CoulombError
from coulombstar.radii import radius_f, radius_phi
from coulombstar.specfun import (CoulombParams, eval_F_with_derivative,
                                 eval_g)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1          # a single JSON object per invocation
    return json.loads(lines[0])


def test_radius_json_matches_library(capsys):
    rec = run_json(capsys, "radius", "--family", "f", "--L", "-0.5",
                   "--eta", "0", "--beta", "0")
    assert rec["command"] == "radius"
    assert rec["inputs"]["family"] == "f"
    assert rec["outputs"]["value"] == pytest.approx(0.9407705639497375,
                                                    abs=1e-10)
    assert rec["outputs"]["bracket_lo"] <= rec["outputs"]["value"] <= \
        rec["outputs"]["bracket_hi"]
    res = radius_f(-0.5, 0.0)
    assert rec["diagnostics"]["error_bound"] == res.error_bound
    assert rec["diagnostics"]["iterations"] == res.iterations


def test_radius_phi_value(capsys):
    rec = run_json(capsys, "radius", "--family", "phi", "--nu", "1",
                   "--alpha", "0")
    assert rec["outputs"]["value"] == pytest.approx(1.8411837813, abs=1e-9)


def test_radius_phi_at_order_minus_half(capsys):
    # nu = -1/2 is order L = -1 of the kernel: a root, not a traceback
    rec = run_json(capsys, "radius", "--family", "phi", "--nu", "-0.5",
                   "--alpha", "1")
    assert rec["outputs"]["value"] == radius_phi(-0.5, 1.0).value


def test_radius_non_finite_input_exits_2(capsys, monkeypatch):
    # alpha = inf used to hang the root search; the gate must stop it first
    def no_search(*_):
        raise AssertionError("the root search ran")

    monkeypatch.setattr(radii, "_first_root", no_search)
    code, out, err = run(capsys, "radius", "--family", "phi", "--nu", "1",
                         "--alpha", "inf")
    assert code == 2 and out == "" and "finite" in err


def test_any_library_error_exits_4_as_a_numerical_failure(capsys,
                                                         monkeypatch):
    # the CLI reads the taxonomy of errors.py, not a list of its own: a
    # CoulombError outside the gate classes exits 4, not with a traceback
    class NewFailure(CoulombError):
        pass

    def fail(_):
        raise NewFailure("made up")

    monkeypatch.setattr(cli, "_cmd_radius", fail)
    code, out, err = run(capsys, "radius", "--family", "f", "--L", "1")
    assert code == 4 and out == ""
    assert "numerical failure: NewFailure: made up" in err


def test_radius_refuses_an_input_of_the_other_family(capsys):
    # refused, not echoed beside a radius that ignores it
    code, out, err = run(capsys, "radius", "--family", "f", "--L", "1",
                         "--eta", "0", "--nu", "3")
    assert code == 2 and out == "" and "takes no nu" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "g", "--L", "1", "--eta", "nan", "--z-re", "1"),
    ("eval", "--family", "g", "--L", "1", "--eta", "0", "--z-re", "nan"),
    ("eval", "--family", "F", "--L", "1", "--eta", "inf", "--z-re", "1"),
    ("eval", "--family", "besselJ", "--L", "1", "--z-re", "inf"),
    ("eval", "--family", "f", "--L", "nan", "--eta", "0", "--z-re", "1"),
    ("asympt", "--N", "2", "--eta", "nan", "--L", "50"),
    ("asympt", "--N", "2", "--eta", "0", "--L", "inf"),
])
def test_non_finite_input_exits_2(capsys, argv):
    # these ran the series to its 10000-term cap and exited 4, failed on a
    # NaN-to-int conversion, or printed NaN or Infinity, which is not JSON
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "finite" in err


def test_eval_bit_identical_to_library(capsys):
    rec = run_json(capsys, "eval", "--family", "g", "--L", "1",
                   "--eta", "-1", "--z-re", "1")
    res = eval_g(CoulombParams(1.0, -1.0), 1.0)
    assert rec["outputs"]["value"] == res.value            # bit-for-bit
    assert rec["outputs"]["derivative"] == res.derivative
    assert rec["diagnostics"]["terms_used"] == res.terms_used
    assert rec["diagnostics"]["retry_bits"] == res.retry_bits == 0
    assert rec["diagnostics"]["method"] == res.method == "series"


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv, outputs", [
    (("--family", "besselJ", "--L", "-0.5", "--z-re", "0"),
     {"value": "inf", "derivative": "-inf"}),
    (("--family", "F", "--L", "-0.5", "--eta", "0", "--z-re", "0"),
     {"value": 0.0, "derivative": "inf"}),
])
def test_eval_limits_at_zero_are_strict_json(capsys, argv, outputs):
    # the one-sided limits at z = 0 print as the strings the CSV prints,
    # not as bare Infinity, which a strict parser refuses
    code, out, err = run(capsys, "eval", *argv)
    assert code == 0, err
    rec = json.loads(out, parse_constant=_refuse_constant)
    assert rec["outputs"] == outputs


def test_eval_reports_the_fixed_point_retry(capsys):
    # a complex outer point: real ones past the turning point take Steed's
    # method
    rec = run_json(capsys, "eval", "--family", "F", "--L", "3",
                   "--eta", "1.5", "--z-re=-32.862", "--z-im=-3.018")
    res = eval_F_with_derivative(CoulombParams(3.0, 1.5), -32.862 - 3.018j)
    assert (rec["outputs"]["value_re"], rec["outputs"]["value_im"]) \
        == (res.value.real, res.value.imag)
    assert rec["diagnostics"]["retry_bits"] == res.retry_bits > 0
    assert rec["diagnostics"]["method"] == res.method == "fixed"


def test_eval_reports_steeds_method(capsys):
    rec = run_json(capsys, "eval", "--family", "F", "--L", "0",
                   "--eta", "0", "--z-re", "400")
    assert rec["outputs"]["value"] == pytest.approx(math.sin(400.0),
                                                    abs=1e-10)
    assert rec["diagnostics"]["method"] == "steed"
    assert rec["diagnostics"]["retry_bits"] == 0


def test_eval_spec_examples(capsys):
    rec = run_json(capsys, "eval", "--family", "F", "--L", "0", "--eta", "0",
                   "--z-re", "1.5707963267948966")
    assert rec["outputs"]["value"] == pytest.approx(1.0, abs=1e-12)
    rec2 = run_json(capsys, "eval", "--family", "besselJ", "--L", "0.5",
                    "--z-re", "3.1415926535")
    assert rec2["outputs"]["value"] == pytest.approx(0.0, abs=1e-9)


def test_eval_complex_flattening(capsys):
    rec = run_json(capsys, "eval", "--family", "F", "--L", "0.5",
                   "--eta", "-0.3", "--z-re", "1.0", "--z-im", "0.5")
    assert "value_re" in rec["outputs"] and "value_im" in rec["outputs"]
    assert "value" not in rec["outputs"]


def test_eval_dini_requires_H(capsys):
    code, _, err = run(capsys, "eval", "--family", "dini", "--L", "0",
                       "--z-re", "1")
    assert code == 2 and "H" in err
    rec = run_json(capsys, "eval", "--family", "dini", "--L", "0",
                   "--z-re", "0.9407705639497375", "--H", "0.5")
    assert rec["outputs"]["value"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family, extra", [
    ("besselJ", ("--eta", "3")),
    ("besselJ", ("--eta", "0")),
    ("dini", ("--H", "0.5", "--eta", "3")),
    ("F", ("--H", "3")),
    ("g", ("--eta", "1", "--H", "3")),
    ("f", ("--H", "0")),
])
def test_eval_refuses_an_input_of_another_family(capsys, family, extra):
    # refused, not dropped beside a value that ignores it
    code, out, err = run(capsys, "eval", "--family", family, "--L", "1",
                         "--z-re", "2", *extra)
    name = "eta" if family in ("besselJ", "dini") else "H"
    assert code == 2 and out == "" and f"takes no --{name}" in err


@pytest.mark.parametrize("family", ["F", "g", "f"])
def test_eval_echoes_the_default_eta(capsys, family):
    rec = run_json(capsys, "eval", "--family", family, "--L", "1",
                   "--z-re", "0.5")
    assert rec["inputs"]["eta"] == 0.0
    assert "H" not in rec["inputs"]


def test_csv_output_shape(capsys):
    code, out, _ = run(capsys, "radius", "--family", "g", "--L", "0",
                       "--eta", "0", "--csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    d = dict(zip(header, row))
    assert d["command"] == "radius"
    assert float(d["outputs.value"]) == pytest.approx(math.pi / 2,
                                                      abs=1e-12)
    assert header.index("inputs.family") < header.index("outputs.value") \
        < header.index("diagnostics.iterations")


def test_rayleigh_exact_strings(capsys):
    rec = run_json(capsys, "rayleigh", "--which", "Z", "--L", "1",
                   "--eta", "0", "--kmax", "2", "--exact")
    assert rec["outputs"]["Z2"] == "1/5"
    rec2 = run_json(capsys, "rayleigh", "--which", "Ztilde", "--L", "0.5",
                    "--eta", "0", "--kmax", "2", "--exact")
    assert rec2["outputs"]["Zt2"] == "7/12"
    rec3 = run_json(capsys, "rayleigh", "--which", "Ztilde", "--L", "1/2",
                    "--eta", "0", "--kmax", "2", "--exact")
    assert rec3["outputs"] == rec2["outputs"]    # 1/2 and 0.5 parse alike


def test_rayleigh_float_mode(capsys):
    rec = run_json(capsys, "rayleigh", "--which", "Z", "--L", "1",
                   "--eta", "0", "--kmax", "2")
    assert rec["outputs"]["Z2"] == pytest.approx(0.2, rel=1e-12)
    # without --exact a dyadic L stays on the float path, and to k = 50 it
    # agrees with the exact table without a warning
    args = ("rayleigh", "--which", "Ztilde", "--L", "1/2", "--eta", "0",
            "--kmax", "50")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec2 = run_json(capsys, *args)
    exact = run_json(capsys, *args, "--exact")["outputs"]
    assert rec2["diagnostics"]["exact"] is False
    assert isinstance(rec2["outputs"]["Zt50"], float)
    assert rec2["outputs"]["Zt2"] == pytest.approx(7 / 12, rel=1e-12)
    for key, value in rec2["outputs"].items():
        want = float(Fraction(exact[key]))
        assert abs(value - want) <= 1e-13 * abs(want), key


def test_rayleigh_zeta_strings(capsys):
    rec = run_json(capsys, "rayleigh", "--which", "zeta", "--kmax", "4",
                   "--nmax", "2")
    assert rec["outputs"]["zeta2_2"] == "9/8 + 1/2*eta^2"
    assert rec["outputs"]["zeta2_0"] == "1/2"
    assert rec["outputs"]["zeta4_1"] == "-11/16"


def test_rayleigh_table_without_L_is_refused(capsys):
    code, out, err = run(capsys, "rayleigh", "--which", "Z", "--kmax", "4")
    assert code == 2 and out == "" and "--L" in err


@pytest.mark.parametrize("which", ["zeta", "Z", "Ztilde"])
def test_rayleigh_kmax_below_two_is_refused(capsys, which):
    code, out, err = run(capsys, "rayleigh", "--which", which, "--L", "1",
                         "--eta", "0", "--kmax", "1")
    assert code == 2 and out == "" and "k" in err


def test_asympt_polynomials_and_value(capsys):
    rec = run_json(capsys, "asympt", "--N", "1")
    assert rec["outputs"]["c"] == "sqrt2"
    assert rec["outputs"]["eps1"] == "eta + 5*sqrt2/4 - 1/4"
    rec2 = run_json(capsys, "asympt", "--N", "1", "--eta", "-1",
                    "--L", "100")
    expect = math.sqrt(2) * 100 - 1 + 5 * math.sqrt(2) / 4 - 0.25
    assert rec2["outputs"]["value"] == pytest.approx(expect, rel=1e-14)


def test_asympt_validate_reports_divergence(capsys):
    rec = run_json(capsys, "asympt", "--N", "0", "--eta", "-1",
                   "--L", "25", "50", "--validate")
    assert rec["outputs"]["slope"] > -0.5        # documented plateau
    assert all(v > 0.1 for k, v in rec["diagnostics"].items()
               if k.startswith("scaled_err"))


def test_asympt_keys_each_L_apart(capsys):
    # L that print alike at 6 digits keep their own keys, each reading
    # back as its L; integral L keep the short label
    rec = run_json(capsys, "asympt", "--N", "1", "--eta", "0",
                   "--L", "100", "100.0000001", "30")
    assert rec["inputs"]["L"] == [100.0, 100.0000001, 30.0]
    out = rec["outputs"]
    keys = [k for k in out if k.startswith("value_L")]
    assert keys == ["value_L100", "value_L100.0000001", "value_L30"]
    assert [float(k[len("value_L"):]) for k in keys] == rec["inputs"]["L"]
    assert out["value_L100"] < out["value_L100.0000001"]
    rec = run_json(capsys, "asympt", "--N", "0", "--eta", "-1",
                   "--L", "25", "25.0000001", "--validate")
    assert [k for k in rec["diagnostics"] if k.startswith("scaled_err")] \
        == ["scaled_err_L25", "scaled_err_L25.0000001"]


def test_asympt_validate_refuses_a_single_distinct_L(capsys):
    code, out, err = run(capsys, "asympt", "--N", "2", "--eta", "0",
                         "--L", "50", "50", "--validate")
    assert code == 2 and out == "" and "distinct" in err


@pytest.mark.parametrize("extra", [(), ("--validate",)])
def test_asympt_refuses_a_repeated_L(capsys, extra):
    # each L has one output key and is one point of the fit
    code, out, err = run(capsys, "asympt", "--N", "1", "--eta", "0",
                         "--L", "100", "100", "30", *extra)
    assert code == 2 and out == "" and "distinct" in err


def test_figure_csv(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, stdout, _ = run(capsys, "figure", "--figure", "2", "--points",
                          "64", "--out", str(out))
    assert code == 0
    rec = json.loads(stdout)
    assert rec["outputs"]["rows"] == 64
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "re", "im"]
    assert len(rows) == 65
    t0 = [float(x) for x in rows[1]]
    assert t0[0] == 0.0
    assert t0[1] == pytest.approx(1.0, abs=1e-12)     # sin(pi/2)
    assert t0[2] == pytest.approx(0.0, abs=1e-15)
    # closed, conjugate-symmetric curve
    first = complex(*[float(x) for x in rows[1][1:]])
    last = complex(*[float(x) for x in rows[-1][1:]])
    second = complex(*[float(x) for x in rows[2][1:]])
    assert abs(last - first) < 2 * abs(second - first)


def test_figure_stdout(capsys):
    code, out, _ = run(capsys, "figure", "--figure", "1", "--points", "8",
                       "--out", "-")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "re", "im"]
    assert float(rows[1][1]) == pytest.approx(0.58814635401704562,
                                              abs=1e-12)


@pytest.mark.parametrize("opts", [
    ["--output", "fig.json"], ["--json"], ["--csv"],
    ["--output", "fig.json", "--csv"]])
def test_figure_to_stdout_refuses_the_record_options(opts, tmp_path, capsys,
                                                     monkeypatch):
    # the samples fill stdout and no record is written, so the record
    # options would be ignored; with a file --out the record stays
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "figure", "--figure", "1", "--points", "8",
                         "--out", "-", *opts)
    assert code == 2 and out == "" and "--out -" in err
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "figure", "--figure", "1", "--points", "8",
                       "--out", "fig.csv", *opts)
    assert code == 0
    text = (tmp_path / "fig.json").read_text() if "--output" in opts else out
    if "--csv" in opts:
        assert next(csv.DictReader(io.StringIO(text)))["outputs.rows"] == "8"
    else:
        assert json.loads(text)["outputs"]["rows"] == 8


@pytest.mark.parametrize("argv", [
    ["--family", "besselJ", "--L", "1", "--z-re", "5", "--tol", "1"],
    ["--family", "dini", "--L", "1", "--H", "0.5", "--z-re", "5",
     "--tol", "-1"],
])
def test_bessel_type_eval_refuses_a_tol_outside_the_range(argv, capsys):
    # besselJ exited 0 with J_1(5) = -0.32337; dini ran 10000 terms, exit 4
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2 and out == "" and "tol" in err


def test_output_file_option(tmp_path, capsys):
    path = tmp_path / "rec.json"
    code, out, _ = run(capsys, "radius", "--family", "g", "--L", "0",
                       "--eta", "0", "--output", str(path))
    assert code == 0 and out == ""
    rec = json.loads(path.read_text())
    assert rec["outputs"]["value"] == pytest.approx(math.pi / 2)


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "radius", "--family", "f", "--L", "-2",
                       "--eta", "0")
    assert code == 2 and "L" in err
    code, _, err = run(capsys, "figure", "--figure", "1", "--points", "64",
                       "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert code == 3
    # sin(720 i) = i sinh 720 overflows (at real z = 720 Steed's method
    # returns sin 720)
    code, _, err = run(capsys, "eval", "--family", "F", "--L", "0",
                       "--eta", "0", "--z-re", "0", "--z-im", "720")
    assert code == 4 and "NonConvergence" in err


def test_bessel_prefactor_overflow_exits_4(capsys):
    # (z/2)^(nu - 1) / Gamma(nu + 1) overflows at nu = -0.3, z = 1e-300;
    # it used to escape as a bare OverflowError traceback with exit 1
    code, out, err = run(capsys, "eval", "--family", "besselJ", "--L",
                         "-0.3", "--z-re", "1e-300")
    assert code == 4 and out == "" and "GammaOverflow" in err


@pytest.mark.parametrize("argv", [
    ("--family", "F", "--L", "1e306", "--z-re", "1"),
    ("--family", "F", "--L", "1e305", "--eta", "1", "--z-re", "1"),
    ("--family", "besselJ", "--L", "1e306", "--z-re", "1"),
])
def test_a_prefactor_past_the_float_range_exits_4(capsys, argv):
    # log Gamma(2L + 2) and lgamma(nu + 1) leave the float range near
    # 1.3e305 and 2.5e305; F printed NaN, or 0.0 with est_error NaN, and
    # exited 0, and Bessel J escaped as a bare OverflowError with exit 1
    code, out, err = run(capsys, "eval", *argv)
    assert code == 4 and out == "" and "GammaOverflow" in err


def test_verify_all_subset(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", "1", "2", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)
    assert "3/3 criteria passed" in out
    code2, _, err2 = run(capsys, "verify-all", "--only", "nope")
    assert code2 == 2 and "unknown criterion" in err2


@pytest.mark.parametrize("extra", [("--csv",), ("--json",),
                                   ("--output", "report.txt")])
def test_verify_all_refuses_record_options(capsys, tmp_path, monkeypatch,
                                           extra):
    # verify-all prints a text table: the record options would do nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--only", "1", "2", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_all_honest_failures_exit_nonzero(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", "7a", "7b")
    assert code == 4                      # 7a is a documented failure
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines[0].startswith("FAIL") and "7a" in lines[0]
    assert lines[1].startswith("PASS") and "7b" in lines[1]


def _fresh_python(*args):
    """A fresh interpreter on the package this process imports."""
    src = str(Path(coulombstar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point():
    # the child imports the same package as this process, installed or not
    proc = _fresh_python("-m", "coulombstar", "rayleigh", "--which", "Z",
                         "--L", "1", "--eta", "0", "--kmax", "2", "--exact")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["Z2"] == "1/5"


HEAVY = ("numpy", "scipy", "scipy.special", "mpmath")


def test_library_import_needs_only_the_standard_library():
    # verify and acceptance, which use numpy, scipy and mpmath, load on
    # first use (PEP 562); every name still resolves.  The records are
    # named tuples, so the import adds neither dataclasses nor the inspect
    # it loads (counted from before the import: a site may preload them)
    proc = _fresh_python("-c", "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import coulombstar",
        f"assert not [m for m in {HEAVY!r} if m in sys.modules], sys.modules",
        "added = {'dataclasses', 'inspect'} & (set(sys.modules) - before)",
        "assert not added, added",
        "try:",
        "    coulombstar.no_such_name",
        "except AttributeError as e:",
        "    assert 'no_such_name' in str(e)",
        "else:",
        "    raise SystemExit('no AttributeError')",
        "rep = coulombstar.starlike_scan('g', 1.0, L=0.5, eta=0.0)",
        "assert rep.min_real_part > 0",
        "assert 'numpy' in sys.modules",
        "assert coulombstar.verify.starlike_scan is coulombstar.starlike_scan",
        "assert coulombstar.acceptance.run_all is coulombstar.run_all",
        "names = coulombstar.__all__",
        "assert {'zero_sum_oracle', 'run_all', 'eval_g'} <= set(names)",
        "assert set(names) <= set(dir(coulombstar))",
        "ns = {}",
        "exec('from coulombstar import *', ns)",
        "assert set(ns) - {'__builtins__'} == set(names)",
        "print('ok')"]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_dir_and_star_import_load_the_oracles_in_a_fresh_interpreter():
    for code in ("import coulombstar; dir(coulombstar)",
                 "from coulombstar import *"):
        proc = _fresh_python("-c", code + "; import sys; print("
                             "all(m in sys.modules for m in ('numpy', "
                             "'coulombstar.verify', 'coulombstar.acceptance'"
                             ")))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"], code


def test_cli_process_still_imports_numpy_scipy_and_mpmath():
    # the traced benchmark times cli.import_{numpy,scipy,mpmath}_ms from
    # the modules a fresh `python -m coulombstar` imports, and stops when
    # one is missing (CHANGES.md FOUND #29); verify, which the CLI loads,
    # keeps all three until that benchmark reads them otherwise
    proc = _fresh_python("-X", "importtime", "-m", "coulombstar", "radius",
                         "--family", "f", "--L", "1", "--eta", "0")
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"numpy", "scipy", "mpmath"} <= imported


def test_public_names_are_pinned():
    # the package re-exports each module's __all__, its one list of names
    assert set(coulombstar.__all__) == {
        "__version__", "CRITERION_IDS",
        # errors
        "CoulombError", "GateViolation", "NonConvergence", "GammaOverflow",
        "BoundsInvalid", "NoRootInScanRange", "PoleOnCircle", "DegenerateFit",
        "RingMismatch", "RegionWarning",
        # exact arithmetic
        "Sqrt2Rational", "EtaPolynomial", "format_sqrt2",
        "potential_polynomials",
        # special functions
        "CoulombParams", "SeriesEval", "eval_F", "eval_F_with_derivative",
        "eval_g", "eval_f_normalized", "eval_bessel_j", "eval_dini",
        # Rayleigh sums
        "RayleighTable", "EulerRayleighBounds", "rayleigh_Z",
        "rayleigh_Ztilde", "euler_rayleigh_bounds", "zeta_coeffs",
        "zeta_laurent_eval",
        # radii
        "Family", "RadiusQuery", "RadiusResult", "radius_f", "radius_g",
        "radius_phi",
        # asymptotics
        "EpsilonTable", "OrderFit", "epsilon_coeffs",
        "epsilon_coeffs_recurrence", "annihilation_residuals",
        "radius_asymptotic", "empirical_order",
        # verification
        "DiskScanReport", "starlike_scan", "spirallike_scan",
        "companion_order", "boundary_image", "zero_sum_oracle",
        # acceptance
        "CriterionResult", "run_criterion", "run_all", "format_report",
    }
    assert len(coulombstar.__all__) == len(set(coulombstar.__all__))
    assert all(hasattr(coulombstar, name) for name in coulombstar.__all__)


def test_eval_at_huge_order_exits_0(capsys):
    rec = run_json(capsys, "eval", "--family", "g", "--L", "1e200",
                   "--z-re", "1")
    assert rec["outputs"]["value"] == 1.0


@pytest.mark.parametrize("argv, code, words", [
    (("--L", "1/0"), 2, "finite rationals"),
    (("--L", "1", "--eta", "1/0"), 2, "finite rationals"),
    (("--L", "1", "--eta", "1e400"), 2, "float range"),
])
def test_rayleigh_extreme_inputs_exit_with_a_library_code(capsys, argv, code,
                                                          words):
    got, out, err = run(capsys, "rayleigh", "--which", "Z", "--kmax", "3",
                        *argv)
    assert got == code and out == "" and words in err


def test_rayleigh_exact_takes_an_eta_past_the_float_range(capsys):
    rec = run_json(capsys, "rayleigh", "--which", "Z", "--kmax", "3", "--L",
                   "1", "--eta", "1e400", "--exact")
    assert rec["inputs"]["eta"] == str(10**400)


@pytest.mark.parametrize("L", ["1e300", "1e308"])
def test_radius_at_huge_order_exits_4(capsys, L):
    code, out, err = run(capsys, "radius", "--family", "g", "--L", L,
                         "--eta", "0")
    assert code == 4 and out == "" and "NonConvergence" in err
