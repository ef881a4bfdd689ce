"""Reference implementations the tests compare the package against, each
written apart from the package code it checks.

    >>> p_coeff(2, 0), p_coeff(2, 1), p_coeff(2, 2)
    (Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8))
    >>> p_coeff(3, 2)
    Fraction(2, 1)
"""

import math
from fractions import Fraction

import mpmath as mp

from coulombstar.errors import NonConvergence
from coulombstar.specfun import _GUARD_BITS, _MAX_TERMS, _dyadic, _safe_index


def coulomb_series_coeffs(L, eta, n_max):
    """a_0 .. a_{n_max} of the entire factor S of F, in the arithmetic of L
    and eta (exact for Fractions): a_0 = 1, a_1 = eta/(L + 1) and
    n (n + 2L + 1) a_n = 2 eta a_{n-1} - a_{n-2}.  At eta = 0, a_1 = 0 for
    every L, L = -1 included, where S(z) = cos z."""
    one = 0 * L + 1
    a = [one, eta / (L + 1) if eta else 0 * one]
    for n in range(2, n_max + 1):
        a.append((2 * eta * a[n - 1] - a[n - 2]) / (n * (n + 2 * L + 1)))
    return a[:n_max + 1]


def terms_reference(L, eta, z, tol):
    """``specfun._terms`` as first written, reading t_{n-1} and t_{n-2}
    back from the term list and forming tol * scale at every term: the
    float terms t_n = a_n z^n and the peak modulus of the running sum,
    stopping after three terms in a row at most tol * scale from
    ``_safe_index`` on; NonConvergence when the sum overflows or at
    ``_MAX_TERMS``."""
    one = 1.0 + 0j if isinstance(L, complex) or isinstance(z, complex) else 1.0
    two_eta_z, z_sq, two_L = 2 * eta * z, z * z, 2 * L
    ts = [one, eta * z / (L + 1) if eta else 0.0 * z]
    S = one + ts[1]
    scale = max(1.0, abs(S))
    n_safe = _safe_index(L.real, eta, abs(z))
    streak = 0
    for n in range(2, _MAX_TERMS + 1):
        t = (two_eta_z * ts[-1] - z_sq * ts[-2]) / (n * (n + two_L + 1))
        ts.append(t)
        S += t
        a = abs(S)
        if a > scale:
            if a == math.inf:
                raise NonConvergence("reference float sum overflowed")
            scale = a
        if abs(t) <= tol * scale and n >= n_safe:
            streak += 1
            if streak >= 3:
                return ts, scale
        else:
            streak = 0
    raise NonConvergence("reference series hit the term cap")


def sum_pair_fixed_reference(L, eta, z, n_terms, dps):
    """``specfun._sum_pair_fixed`` as first written: each term divided by
    the complex C_n through its norm, (N_n conj(C_n)) // (|C_n|^2 2^k),
    and sum n t_n accumulated term by term.  Returns (S, z S', p);
    NonConvergence when a sum leaves the float range."""
    p = math.ceil(dps * math.log2(10.0)) + _GUARD_BITS
    Lc, zc = complex(L), complex(z)
    k, (lr, li, e, xr, xi) = _dyadic(Lc.real, Lc.imag, eta, zc.real, zc.imag)
    ar, ai = 2 * e * xr, 2 * e * xi
    br, bi = xr * xr - xi * xi, 2 * xr * xi
    one = 1 << p
    tr, ti, qr, qi = one, 0, 0, 0
    Sr, Si, Tr, Ti = one, 0, 0, 0
    for n in range(1, n_terms):
        nr = ar * tr - ai * ti - br * qr + bi * qi
        ni = ar * ti + ai * tr - br * qi - bi * qr
        cr = (n * (n + 1) << k) + 2 * n * lr
        ci = 2 * n * li
        d = (cr * cr + ci * ci) << k
        qr, qi = tr, ti
        tr, ti = (nr * cr + ni * ci) // d, (ni * cr - nr * ci) // d
        Sr += tr
        Si += ti
        Tr += n * tr
        Ti += n * ti
    try:
        S, T = complex(Sr / one, Si / one), complex(Tr / one, Ti / one)
    except OverflowError:
        raise NonConvergence("reference fixed-point sum left the float "
                             "range") from None
    if not (isinstance(L, complex) or isinstance(z, complex)):
        S, T = S.real, T.real
    return S, T, p


def p_coeff(alpha, n):
    """p_n = ((-1)^n / 2) ((alpha + 1)/2)^n, the n-th coefficient of
    L/(2L + alpha + 1) in 1/L, for the convolution form of the zeta rows."""
    return Fraction((-1) ** n, 2) * ((Fraction(alpha) + 1) / 2) ** n


def dini_rayleigh_oracle(nu, H):
    """The sum of lambda^(-2) over the positive zeros lambda of
    r J'_nu(r) + H J_nu(r), (nu + 2 + H) / (4 (nu + 1) (nu + H)), for
    rational nu > -1 and nu + H > 0."""
    nu, H = Fraction(nu), Fraction(H)
    return (nu + 2 + H) / (4 * (nu + 1) * (nu + H))


def _u_backward(L, eta, d, r):
    """u = d + r eta/lam + CF1 tail by backward recurrence at the working
    precision, doubling the depth until two depths agree."""
    L, eta, d, r = (mp.mpf(x) for x in (L, eta, d, r))
    lam = L + 1
    lead = d + r * eta / lam

    def tail(n):
        t = mp.mpf(0)
        for k in range(n, -1, -1):
            m = lam + k
            t = -r * r * (1 + eta * eta / (m * m)) / (
                (2 * m + 1) * (1 + r * eta / (m * (m + 1))) + t)
        return t

    n, old = 64, tail(64)
    while True:
        n *= 2
        new = tail(n)
        if abs(new - old) <= mp.mpf(10) ** (5 - mp.mp.dps) * abs(lead):
            return lead + new
        old = new


def radius_oracle(L, eta, d, r0):
    """The root of u = r F_L'/F_L - (L + 1 - d) next to the float root r0,
    to 40 digits: Newton in r on ``_u_backward`` at 60 digits, with
    r u' = (d - u)(2L + 1 - d + u) + r (2 eta - r) from the Riccati
    equation.  L, eta and d are taken at their exact values, so pass d in
    mpmath where it is not a float.  It measures the error of a root the
    float search found, not which root it chose.

    >>> float(radius_oracle(0, 0, 1, 1.5707963267948966))  # g: pi/2
    1.5707963267948966
    """
    with mp.workdps(60):
        L, eta, d, r = (mp.mpf(x) for x in (L, eta, d, r0))
        for _ in range(20):
            u = _u_backward(L, eta, d, r)
            dr = -u * r / ((d - u) * (2 * L + 1 - d + u) + r * (2 * eta - r))
            r += dr
            if abs(dr) <= mp.mpf(10) ** -42 * r:
                return +r
    raise ArithmeticError(f"no Newton convergence from r0={r0!r}")
