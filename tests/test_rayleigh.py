"""Zero power-sum recurrences, sandwich bounds, Laurent coefficients."""

import hashlib
import math
import warnings
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombstar import rayleigh
from coulombstar.errors import GateViolation, RegionWarning
from coulombstar.exact import EtaPolynomial
from coulombstar.rayleigh import (euler_rayleigh_bounds, rayleigh_Z,
                                  rayleigh_Ztilde, zeta_coeffs,
                                  zeta_laurent_eval)
from coulombstar.radii import radius_f
from coulombstar.specfun import CoulombParams
from oracles import coulomb_series_coeffs, p_coeff


def test_Z_first_sum_closed_form():
    # Z^(2) = (1 + eta^2/(L+1)^2)/(2L+3)
    assert rayleigh_Z(CoulombParams(Fr(1), Fr(0)), 2, exact=True)[2] == \
        Fr(1, 5)
    assert rayleigh_Z(CoulombParams(Fr(2), Fr(0)), 2, exact=True)[2] == \
        Fr(1, 7)
    assert rayleigh_Z(CoulombParams(Fr(2), Fr(-1)), 2, exact=True)[2] == \
        Fr(10, 63)
    assert rayleigh_Z(CoulombParams(Fr(5), Fr(-1)), 2, exact=True)[2] == \
        Fr(37, 468)


@given(st.fractions(min_value=Fr(-1, 2), max_value=6, max_denominator=8),
       st.fractions(min_value=-3, max_value=3, max_denominator=8))
@settings(max_examples=40)
def test_Z2_matches_formula(L, eta):
    got = rayleigh_Z(CoulombParams(L, eta), 2, exact=True)[2]
    assert got == (1 + eta * eta / (L + 1) ** 2) / (2 * L + 3)


def _newton_power_sums(params, k_max):
    """sum rho^-k over the zeros of the entire factor, from Newton's
    identities on its exact series a_0 = 1, a_1, ...; the factor has genus 1,
    so p[1] carries an exponential part and only k >= 2 are zero sums."""
    a = coulomb_series_coeffs(params.L, params.eta, k_max)
    p = [None]
    for k in range(1, k_max + 1):
        p.append(-k * a[k] - sum(p[i] * a[k - i] for i in range(1, k)))
    return p


NEWTON_POINTS = [(Fr(2), Fr(-1)), (Fr(1, 2), Fr(3, 2)), (Fr(5), Fr(-1, 3))]


def test_even_zero_sums_match_newton_identities():
    for L, eta in NEWTON_POINTS:
        params = CoulombParams(L, eta)
        p = _newton_power_sums(params, 8)
        Z = rayleigh_Z(params, 8, exact=True)
        assert [Z[k] for k in (2, 4, 6, 8)] == [p[k] for k in (2, 4, 6, 8)]


@pytest.mark.xfail(strict=True, reason=(
    "rayleigh_Z returns sum (-rho)^-k, the negated zero sum for odd k; "
    "kept because the odd zeta rows and the benchmark reference share it"))
def test_odd_zero_sums_match_newton_identities():
    for L, eta in NEWTON_POINTS:
        params = CoulombParams(L, eta)
        p = _newton_power_sums(params, 5)
        Z = rayleigh_Z(params, 5, exact=True)
        assert (Z[3], Z[5]) == (p[3], p[5])


def test_Ztilde_tables_exact():
    t = rayleigh_Ztilde(CoulombParams(Fr(1, 2), Fr(0)), 6, exact=True)
    assert {k: t[k] for k in range(2, 7)} == {
        2: Fr(7, 12), 3: Fr(0), 4: Fr(3, 32), 5: Fr(0), 6: Fr(269, 13824)}
    t2 = rayleigh_Ztilde(CoulombParams(Fr(2), Fr(-1)), 6, exact=True)
    assert {k: t2[k] for k in range(2, 7)} == {
        2: Fr(157, 567), 3: Fr(232, 5103), 4: Fr(6154, 321489),
        5: Fr(33941, 5786802), 6: Fr(4417013, 2005126893)}


def _plain_Z(L, eta, k_max):
    """The Z recurrence of the rayleigh docstring, one Fraction operation
    at a time."""
    Z = {2: (1 + eta * eta / ((L + 1) * (L + 1))) / (2 * L + 3)}
    for k in range(2, k_max):
        acc = 2 * eta / (L + 1) * Z[k]
        for l in range(1, k - 1):
            acc += Z[l + 1] * Z[k - l]
        Z[k + 1] = acc / (2 * L + k + 2)
    return Z


def _plain_Ztilde(L, eta, k_max):
    """The Ztilde recurrence and its a_n, likewise."""
    d = L * (L + 1)
    a = [2 * eta / d]
    a.append(-(2 + 2 * eta * a[0]) / d)
    while len(a) < k_max:
        a.append(-(2 * eta * a[-1] - a[-2]) / d)
    p = (L + 2) * eta / ((L + 1) * (L + 1))
    Zt = {2: (1 - L * a[1] - p * a[0] + p * p) / (2 * L + 3)}
    Zt[3] = (-L * a[2] - p * a[1] + (a[0] - 2 * p) * Zt[2]) / (2 * L + 4)
    for n in range(k_max - 3):
        acc = -L * a[n + 3] - p * a[n + 2] - 2 * p * Zt[n + 3]
        for m in range(n + 2):
            acc += a[m] * Zt[3 + n - m]
        for m in range(n + 1):
            acc += Zt[m + 2] * Zt[n - m + 2]
        Zt[n + 4] = acc / (2 * L + n + 5)
    return Zt


@pytest.mark.parametrize("L, eta", [(Fr(1, 3), Fr(-2, 5)),
                                    (Fr(17, 7), Fr(3, 2)),
                                    (Fr(-5, 6), Fr(7, 4)), (Fr(40, 9), Fr(0))])
def test_exact_tables_match_plain_fraction_recurrences(L, eta):
    params = CoulombParams(L, eta)
    assert rayleigh_Z(params, 40, exact=True).values == _plain_Z(L, eta, 40)
    assert rayleigh_Ztilde(params, 40, exact=True).values == \
        _plain_Ztilde(L, eta, 40)


def test_float_mode_agrees_with_exact():
    pe = CoulombParams(Fr(2), Fr(-1))
    pf = CoulombParams(2.0, -1.0)
    te = rayleigh_Ztilde(pe, 6, exact=True)
    tf = rayleigh_Ztilde(pf, 6, exact=False)
    for k in range(2, 7):
        assert tf[k] == pytest.approx(float(te[k]), rel=1e-12)
    ze = rayleigh_Z(pe, 8, exact=True)
    zf = rayleigh_Z(pf, 8, exact=False)
    for k in range(2, 9):
        assert zf[k] == pytest.approx(float(ze[k]), rel=1e-12)


@pytest.mark.parametrize("L, eta", [(0.001, -3.41), (0.1, 0.3), (0.5, 0.0),
                                    (0.01, 5.0), (2.7, -1.3)])
def test_float_Ztilde_agrees_with_exact_to_k40(L, eta):
    # small L(L+1) against |eta| and large k: the float table keeps its
    # digits, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tf = rayleigh_Ztilde(CoulombParams(L, eta), 40, exact=False)
    te = rayleigh_Ztilde(CoulombParams(Fr(L), Fr(eta)), 40, exact=True)
    assert all(abs(tf[k] - float(te[k])) <= 1e-13 * abs(float(te[k]))
               for k in range(2, 41))


def test_Ztilde_at_L_zero_closed_forms():
    # at (L, eta) = (0, 0), F' = cos z with zeros +-(n + 1/2) pi
    t = rayleigh_Ztilde(CoulombParams(Fr(0), Fr(0)), 6, exact=True)
    assert t.values == {2: 1, 3: 0, 4: Fr(1, 3), 5: 0, 6: Fr(2, 15)}


def test_euler_rayleigh_bounds_at_L_zero():
    r2 = radius_f(0, -1).value ** 2
    for s in range(1, 5):
        b = euler_rayleigh_bounds(CoulombParams(0, -1), s)
        assert b.lower < r2 < b.upper


def test_one_k_max_cap_for_both_arithmetics():
    # a dyadic float takes the exact path, and still reaches k = 64
    t = rayleigh_Z(CoulombParams(2.0, 0.0), 41)
    assert t.exact and t[41] == _plain_Z(Fr(2), Fr(0), 41)[41]
    for exact in (True, False):
        for op in (rayleigh_Z, rayleigh_Ztilde):
            params = CoulombParams(Fr(1, 3), Fr(-2, 5))
            assert len(op(params, 64, exact=exact).values) == 63
            with pytest.raises(ValueError):
                op(params, 65, exact=exact)


def test_euler_rayleigh_bounds_frozen():
    # squared radius at (5, -1) is 36.7456...; every level must contain it
    vals = {
        1: (9.417551704863053, 89.41243398026283),
        2: (29.01803267050989, 47.94285601008623),
        3: (34.30467249639783, 40.99319305214931),
        4: (35.86682180290008, 38.621986367789226),
    }
    widths = []
    for s, (lo, hi) in vals.items():
        b = euler_rayleigh_bounds(CoulombParams(5.0, -1.0), s)
        assert b.lower == pytest.approx(lo, rel=1e-12)
        assert b.upper == pytest.approx(hi, rel=1e-12)
        assert b.lower < 36.7456 < b.upper
        widths.append(b.width)
    assert widths == sorted(widths, reverse=True)


def test_euler_rayleigh_limit_example():
    # (L=1/2, eta->0-, s=1): lower bound (Ztilde^(2))^(-1) = 12/7, so the
    # first positive zero of F' exceeds sqrt(12/7) ~ 1.309 (it is pi/2)
    t = rayleigh_Ztilde(CoulombParams(Fr(1, 2), Fr(0)), 2, exact=True)
    lower = 1 / t[2]
    assert lower == Fr(12, 7)
    assert math.sqrt(float(lower)) < math.pi / 2
    b = euler_rayleigh_bounds(CoulombParams(0.5, -1e-9), 1)
    assert b.lower == pytest.approx(12.0 / 7.0, rel=1e-6)
    assert b.lower < (math.pi / 2) ** 2 < b.upper


def test_euler_rayleigh_bounds_small_L_large_eta():
    # L(L+1) small against |eta|: the sandwich is still valid
    L, eta = 0.001, -3.41
    b = euler_rayleigh_bounds(CoulombParams(L, eta), 4)
    r2 = radius_f(L, eta, 0.0).value ** 2
    assert b.lower < r2 < b.upper
    assert b.lower == pytest.approx(0.04359042, abs=1e-8)
    assert b.upper == pytest.approx(0.04359055, abs=1e-8)
    with pytest.raises(ValueError):
        euler_rayleigh_bounds(CoulombParams(L, eta), 20)


def test_rayleigh_gates():
    with pytest.raises(GateViolation):
        rayleigh_Z(CoulombParams(0.2 + 0.1j, 0.0), 2)
    with pytest.raises(GateViolation):
        euler_rayleigh_bounds(CoulombParams(1.0, 0.0), 1)  # needs eta < 0
    with pytest.raises(ValueError):
        euler_rayleigh_bounds(CoulombParams(1.0, -1.0), 0)


def test_exact_flag_refuses_unrepresentable():
    # one gate decides the exact mode for both tables
    p = CoulombParams(0.1234567890123, -1.0)
    for call in (lambda: rayleigh_Z(p, 2, exact=True),
                 lambda: rayleigh_Ztilde(p, 2, exact=True)):
        with pytest.raises(ValueError, match="exact mode needs rational"):
            call()


def test_zeta_base_row():
    rows = zeta_coeffs(2, 2)
    assert rows == [EtaPolynomial([Fr(1, 2)]), EtaPolynomial([Fr(-3, 4)]),
                    EtaPolynomial([Fr(9, 8), 0, Fr(1, 2)])]
    assert rows[2].to_str() == "9/8 + 1/2*eta^2"


def test_zeta_higher_rows():
    assert zeta_coeffs(4, 1) == [EtaPolynomial([Fr(1, 8)]),
                                 EtaPolynomial([Fr(-11, 16)])]
    assert zeta_coeffs(3, 0) == [EtaPolynomial([0, Fr(1, 2)])]


@given(st.integers(1, 6))
def test_zeta_even_leading_terms(k):
    # zeta_0^(2k) = C(2k, k) / (4^k (2k-1))
    lead = zeta_coeffs(2 * k, 0)[0]
    assert lead == EtaPolynomial([Fr(math.comb(2 * k, k),
                                     4 ** k * (2 * k - 1))])


def test_zeta_odd_rows_are_odd_in_eta():
    # odd-superscript sums vanish at eta = 0 (zeros come in +/- pairs)
    for k in (1, 2):
        for poly in zeta_coeffs(2 * k + 1, 4):
            assert all(poly.coeff(2 * i) == 0
                       for i in range(poly.degree // 2 + 1))


# sha256 of "\n".join(p.to_str() for p in zeta_coeffs(k, 10)), built cold
ZETA_10_SHA256 = {
    2: "71f4ba423c702b9537bc87032b5021e721a0148934bbaadc28542b2c997f9a5d",
    3: "438d4e0235b45db0f770adbeb50b06ff8ef89c42a329b5e0b7db25204762a591",
    4: "1ffe4ee0bf31dafaa28713630a926578382ffa7c82508e9de4e9b66fa941cf58",
    5: "e1b337c4ca7bc89db3c6eff3c42441b5c7ea3c8bd34c6426023554b008338aeb",
    6: "110475d37977f6ea361fec3084a6b29a7d2a7c8419279419c3730d8f2191e838",
    7: "daef9dd1a68ea597475d108b5e598c948c413516ff35cddba18c610f51adacb7",
    8: "64be56def8f4703ff8ff77a15696d49f3192e90b85fcbd5b58c2a161e9623752",
    9: "ccce863fb9432e23d80d2a968f78cc782c9b0333fa06a9ac7b2344f26aa829fb",
    10: "d7e68a56f5ceebe7d04cdd549e7ce9a06d10ea63d85ac380a332fcd7acea67a4",
    11: "fe12e7807dda49d33676dfa269a2c15cd2e912942788f62f4390181e4a12525a",
    12: "ff68c467944f660cd53e1ed010cd52324a8336de17f1c7b29af7e4d617cd497b",
    13: "6fffd92379a5b6f37974c528f6a8d718463f1560ca7d76d698de15f746b4e71b",
    14: "d51a34fea6599f567b5d8e9db8f8f5e974d22ec1bba0eb78d99122d3ce4141fc",
    15: "9a5c9f94f120c897546ec0043218a9f34a26c20bf40b00c1a91e327abfc392b7",
    16: "af0c6b202810514a5925d376a2f2749ba930469d9ccfc77627eb2ca3f8ede0cf",
}


def test_zeta_rows_snapshot(cold_memos):
    # one cold build to (16, 10) holds every lower row to n = 10 as well
    zeta_coeffs(16, 10)
    got = {k: hashlib.sha256("\n".join(
        p.to_str() for p in zeta_coeffs(k, 10)).encode()).hexdigest()
        for k in range(2, 17)}
    assert got == ZETA_10_SHA256
    # the rows are rational: their coefficients show as ints or Fractions
    assert all(type(c) in (int, Fr) for k in range(2, 17)
               for p in zeta_coeffs(k, 8) for c in p.coeffs)


def test_zeta_memo_growth_path_is_irrelevant(cold_memos):
    # rows lengthened in place equal rows built cold; the second path is the
    # rectangle an eps solve grown 4 -> 6 used to build, then one low row
    # asked for longer, and the third the staircase it builds now
    cold = {k: zeta_coeffs(k, 8) for k in range(16, 1, -1)}
    stairs = tuple((k, N + 1 - (k + 1) // 2) for N in (4, 6)
                   for k in range(2, 2 * N + 3))
    for path in (((4, 1), (9, 4), (16, 8)), ((10, 4), (14, 6), (3, 8)),
                 stairs + ((3, 8),)):
        rayleigh._ZETA.clear()
        for k, n in path:
            zeta_coeffs(k, n)
        held = {k: list(row) for k, (row, *_) in rayleigh._ZETA.items()}
        assert len(held) == max(k for k, _ in path) - 1
        assert all(len(held[k]) == 1 + max(n for j, n in path if j >= k)
                   for k in held)
        assert all(row == cold[k][:len(row)] for k, row in held.items())
        assert {k: zeta_coeffs(k, 8) for k in range(2, 17)} == cold


def _convolution_rows(j_max, n_max):
    """zeta_n^(j) for j = 2 .. j_max and n = 0 .. n_max by the convolution
    form, written apart from the library's division form.

    With p_n = p_n^(j), the series of L/(2L + j + 1) in 1/L, row 2 is
    zeta_n = p_n + eta^2 sum_m (-1)^m (m+1) p_{n-2-m}.  For j >= 3, S'_q
    and S''_q sum [u^q] Zeta_a Zeta_(j-a) over even and odd a, each
    unordered pair doubled, and with c_l = sum_{m<=l} (-1)^m p_{l-m},
    w_l = 2 eta c_l and s = 0 (odd j) or 2 (even j),

        zeta_n = sum_q p_{n-q} S'_q + sum_q p_{n-s-q} S''_q
                 + sum_q w_{n-s-q} zeta_q^(j-1).
    """
    dot = EtaPolynomial.dot
    eta2 = EtaPolynomial([0, 0, 1])
    rows = {2: [dot([(1, p_coeff(2, n))] + [
        ((-1) ** m * (m + 1) * p_coeff(2, n - 2 - m), eta2)
        for m in range(n - 1)]) for n in range(n_max + 1)]}
    for j in range(3, j_max + 1):
        def part(q, parity):
            pairs = [(2 * rows[a][m], rows[j - a][q - m])
                     for a in range(2 + parity, (j + 1) // 2, 2)
                     for m in range(q + 1)]
            if j % 4 == 2 * parity:
                mid = rows[j // 2]
                pairs += [(mid[m], mid[q - m]) for m in range(q + 1)]
            return dot(pairs)

        S = [[part(q, parity) for q in range(n_max + 1)] for parity in (0, 1)]
        p = [p_coeff(j, n) for n in range(n_max + 1)]
        c = [sum((-1) ** m * p[l - m] for m in range(l + 1))
             for l in range(n_max + 1)]
        w = [EtaPolynomial([0, 2 * x]) for x in c]
        s = 0 if j % 2 else 2
        rows[j] = [dot([(p[n - q], S[0][q]) for q in range(n + 1)]
                       + [(p[n - s - q], S[1][q]) for q in range(n - s + 1)]
                       + [(w[n - s - q], rows[j - 1][q])
                          for q in range(n - s + 1)])
                   for n in range(n_max + 1)]
    return rows


def test_zeta_rows_equal_the_convolution_form(cold_memos):
    want = _convolution_rows(20, 12)
    assert {k: zeta_coeffs(k, 12) for k in range(2, 21)} == want


def test_memo_grown_in_steps_holds_the_cold_rows_and_partial_sums(
        cold_memos):
    zeta_coeffs(16, 8)
    cold = {k: (list(row), list(V)) for k, (row, V) in rayleigh._ZETA.items()}
    # V_k holds the alternating partial sums of row k as far as row k + 1
    # reads them: through order 8 for even k, 6 for odd k, none for k = 16
    for k, (row, V) in cold.items():
        assert len(V) == (0 if k == 16 else 9 - 2 * (k % 2))
        assert all(V[n] == row[n] - (V[n - 1] if n else 0)
                   for n in range(len(V)))
    rayleigh._ZETA.clear()
    for N in (2, 4, 6):                  # the staircases of an eps solve
        for k in range(2, 2 * N + 3):
            zeta_coeffs(k, N + 1 - (k + 1) // 2)
    zeta_coeffs(16, 8)
    assert {k: (list(row), list(V))
            for k, (row, V) in rayleigh._ZETA.items()} == cold


def test_laurent_eval_matches_recurrence():
    # at large L the Laurent sum reproduces the exact recurrence value
    p = CoulombParams(50.0, -0.3)
    direct = float(rayleigh_Z(p, 3)[3])
    series = zeta_laurent_eval(3, p, 6)
    assert series == pytest.approx(direct, rel=1e-9)
    p2 = CoulombParams(100.0, 0.0)
    assert zeta_laurent_eval(2, p2, 3) == pytest.approx(1.0 / 203.0,
                                                        abs=5e-9)


def test_laurent_gates_and_region_warning():
    with pytest.raises(GateViolation):
        zeta_laurent_eval(2, CoulombParams(-0.5, 0.0), 2)
    with pytest.warns(RegionWarning):
        zeta_laurent_eval(2, CoulombParams(2.0, 0.0), 2)  # L <= k+1


def test_table_repr_and_lookup():
    t = rayleigh_Z(CoulombParams(Fr(1), Fr(0)), 4, exact=True)
    assert t[2] == Fr(1, 5)
    with pytest.raises(KeyError):
        t[9]
