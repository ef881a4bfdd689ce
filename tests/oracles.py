"""Reference implementations the tests compare the package against, each
written apart from the package code it checks.

    >>> p_coeff(2, 0), p_coeff(2, 1), p_coeff(2, 2)
    (Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8))
    >>> p_coeff(3, 2)
    Fraction(2, 1)
"""

from fractions import Fraction

import mpmath as mp


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
