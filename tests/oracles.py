"""Reference implementations the tests compare the package against, each
written apart from the package code it checks.

    >>> p_coeff(2, 0), p_coeff(2, 1), p_coeff(2, 2)
    (Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8))
    >>> p_coeff(3, 2)
    Fraction(2, 1)
"""

from fractions import Fraction


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
