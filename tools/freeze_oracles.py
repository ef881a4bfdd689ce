"""Generate the frozen reference values used by the test suite.

Everything here is computed with mpmath at 50+ digits, independently of the
package under test (direct series summation with exact rational coefficients,
mpmath's own coulombf/besselj, and findroot on coarse brackets).  Run:

    python tools/freeze_oracles.py

and paste the printed block into the tests when regenerating.
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 60


def series_coeffs(L, eta, n_max):
    """a_0..a_n of F's power series: a_0=1, a_1=eta/(L+1),
    n(n+2L+1) a_n = 2 eta a_{n-1} - a_{n-2}."""
    if not isinstance(L, Fraction):
        L = Fraction(float(L))
    if not isinstance(eta, Fraction):
        eta = Fraction(float(eta))
    a = [Fraction(1), Fraction(eta) / (Fraction(L) + 1)]
    for n in range(2, n_max + 1):
        a.append((2 * Fraction(eta) * a[-1] - a[-2]) / (n * (n + 2 * Fraction(L) + 1)))
    return a


def S_Sp(L, eta, z, n_max=400):
    """S(z) = sum a_n z^n and S'(z), exact coefficients -> mpf."""
    a = series_coeffs(L, eta, n_max)
    s = mp.mpf(0) if mp.im(z) == 0 else mp.mpc(0)
    sp = s
    zp = mp.mpf(1)
    for n, an in enumerate(a):
        c = mp.mpf(an.numerator) / an.denominator
        s += c * zp
        if n >= 1:
            sp += n * c * zp / z
        zp *= z
    return s, sp


def g_eval(L, eta, z):
    s, sp = S_Sp(L, eta, z)
    return z * s, s + z * sp  # g, g'


def reduced_fprime(L, eta, beta=0):
    """H(r) = (L+1)(1-beta) S + r S' ; at beta = 0 its zeros are the
    positive zeros of F'."""
    def H(r):
        s, sp = S_Sp(L, eta, r, n_max=max(200, int(3 * abs(r)) + 80))
        return (L + 1) * (1 - beta) * s + r * sp
    return H


def first_root(fn, lo, hi, step):
    x = lo
    f0 = fn(x)
    while x < hi:
        x2 = x + step
        f1 = fn(x2)
        if mp.sign(f0) != mp.sign(f1):
            return mp.findroot(fn, (x, x2), solver="bisect", tol=mp.mpf(10) ** (-50))
        x, f0 = x2, f1
    raise RuntimeError("no sign change")


def show(tag, val, digits=32):
    print(f"{tag} = {mp.nstr(val, digits)}")


print("# --- series / function values (50+ digits) ---")
g, gp = g_eval(1, -1, mp.mpf(1))
show("g(L=1,eta=-1; z=1)      ", g)
show("g'(L=1,eta=-1; z=1)     ", gp)

show("F(L=0,eta=-1; z=1)      ", mp.coulombf(0, -1, 1))
show("F(L=1,eta=-1; z=1)      ", mp.coulombf(1, -1, 1))
show("F(L=0.5,eta=-0.3; z=2.5)", mp.coulombf(mp.mpf("0.5"), mp.mpf("-0.3"), mp.mpf("2.5")))
show("F(L=3.2,eta=0; z=5)     ", mp.coulombf(mp.mpf("3.2"), 0, 5))
show("J_1(1)                  ", mp.besselj(1, 1))
show("J_1'(1)                 ", mp.besselj(1, 1, derivative=1))
show("J_0.3(2.7)              ", mp.besselj(mp.mpf("0.3"), mp.mpf("2.7")))

print()
print("# --- radii: smallest positive roots of the reduced equations ---")
# f-family, beta=0:   (L+1) S + r S' = 0
r = first_root(reduced_fprime(mp.mpf(-0.5), 0), mp.mpf("0.05"), 3, mp.mpf("0.05"))
show("radius_f(-1/2, 0, 0)    ", r)
r_g0 = first_root(lambda x: (lambda s, sp: s + x * sp)(*S_Sp(0, 0, x)), mp.mpf("0.05"), 4, mp.mpf("0.05"))
show("radius_g(0, 0, 0)       ", r_g0)  # should be pi/2
show("pi/2                    ", mp.pi / 2)
show("radius_phi(1, 0, 0)     ", mp.besseljzero(1, 1, derivative=1))

# g-family at L=1: (1-beta) S + r S' = 0 with beta=0
r = first_root(lambda x: (lambda s, sp: s + x * sp)(*S_Sp(1, 0, x)), mp.mpf("0.05"), 6, mp.mpf("0.05"))
show("radius_g(1, 0, 0)       ", r)

# phi, nu=0.3 alpha=0.2 beta=0.5: (nu+alpha)(1-beta) jhat + r jhat' = 0
def jhat_pair(nu, z):
    t = mp.mpf(1)
    s = mp.mpf(1)
    sp = mp.mpf(0)
    m = 0
    while True:
        t = t * (-z * z / 4) / ((m + 1) * (nu + m + 1))
        m += 1
        s += t
        sp += 2 * m * t / z
        if abs(t) < mp.mpf(10) ** (-58) and m > 12:
            return s, sp

def phi_reduced(nu, alpha, beta):
    def H(r):
        s, sp = jhat_pair(nu, r)
        return (nu + alpha) * (1 - beta) * s + r * sp
    return H

r = first_root(phi_reduced(mp.mpf("0.3"), mp.mpf("0.2"), mp.mpf("0.5")), mp.mpf("0.05"), 4, mp.mpf("0.05"))
show("radius_phi(.3,.2,.5)    ", r)

for (L, eta) in [(1, -0.5), (2, -1), (5, -1)]:
    r = first_root(reduced_fprime(mp.mpf(L), mp.mpf(eta)), mp.mpf("0.2"), 4 * L + 14, mp.mpf("0.1"))
    show(f"radius_f({L}, {eta}, 0)".ljust(24), r)

print()
print("# --- large-L radii (f family, eta=-1, beta=0) ---")
mp.mp.dps = 90
for L in (25, 50, 100, 200):
    H = reduced_fprime(mp.mpf(L), mp.mpf(-1))
    r = first_root(H, mp.mpf(L) * mp.mpf("0.85"), mp.mpf(L) * mp.mpf("1.35"), mp.mpf("0.11"))
    show(f"radius_f({L}, -1, 0)".ljust(24), r, 24)
mp.mp.dps = 60

print()
print("# --- radii past the old scan ceiling of 100, and strong attraction ---")
mp.mp.dps = 90
r = first_root(reduced_fprime(mp.mpf(100), mp.mpf(5)), mp.mpf(85), mp.mpf(135), mp.mpf("0.11"))
show("radius_f(100, 5, 0)     ", r, 24)
r = first_root(reduced_fprime(mp.mpf(20), mp.mpf(-20)), mp.mpf("0.2"), 94, mp.mpf("0.1"))
show("radius_f(20, -20, 0)    ", r)
# the first zero of F sits near 0.0026, so scan with steps far below it
r = first_root(reduced_fprime(mp.mpf("-0.95"), mp.mpf(-20), mp.mpf("0.3")),
               mp.mpf("1e-6"), mp.mpf("1e-3"), mp.mpf("1e-6"))
show("radius_f(-.95,-20,.3)   ", r)
mp.mp.dps = 60

print()
print("# --- phi at large nu (first zero of J_nu') and at nu in (-1, -1/2] ---")
for nu in (30, 100, 200):
    show(f"radius_phi({nu}, 0, 0)".ljust(24), mp.besseljzero(nu, 1, derivative=1), 24)


def phi_bessel(nu, alpha, beta):
    """(nu+alpha)(1-beta) J_nu + r J_nu' - nu J_nu, which is jhat's reduced
    equation times the positive factor (r/2)^nu / Gamma(nu+1)."""
    return lambda r: ((nu + alpha) * (1 - beta) - nu) * mp.besselj(nu, r) \
        + r * mp.besselj(nu, r, derivative=1)


r = first_root(phi_bessel(mp.mpf("-0.75"), mp.mpf("1.5"), mp.mpf("0.2")), mp.mpf("0.05"), 3, mp.mpf("0.05"))
show("radius_phi(-.75,1.5,.2) ", r)

print()
print("# --- beta near 1, and a root far from the start of the walk ---")
# g at L = 0, eta = 0 is r cot r = L + beta
r = first_root(lambda x: x * mp.cot(x) - mp.mpf("0.99"), mp.mpf("0.05"), 1, mp.mpf("0.05"))
show("radius_g(0, 0, .99)     ", r)


def coulomb_reduced(L, eta, c):
    """r F'/F - c from mpmath's coulombf, differentiated numerically."""
    F = lambda x: mp.coulombf(L, eta, x)
    return lambda r: r * mp.diff(F, r) / F(r) - c


L = mp.mpf(150)
r = first_root(coulomb_reduced(L, mp.mpf(1), mp.mpf("0.3") * (L + 1)), L * mp.mpf("0.85"), L * mp.mpf("1.35"), mp.mpf("0.5"))
show("radius_f(150, 1, .3)    ", r, 24)

print()
print("# --- complex-L spirallike companion (L = 0.2+0.1i, eta = 0) ---")
reL2 = mp.re((mp.mpf("0.2") + mp.mpf("0.1") * 1j) * (mp.mpf("1.2") + mp.mpf("0.1") * 1j))
l = (-1 + mp.sqrt(1 + 4 * reL2)) / 2
show("companion l             ", l)
r = first_root(reduced_fprime(l, mp.mpf(0)), mp.mpf("0.05"), 4, mp.mpf("0.05"))
show("radius_f(l, 0, 0)       ", r)

print()
print("# --- figure curve anchors ---")
rf = mp.mpf("0.94077056394973735")
show("[sqrt(r)J0(r)]^2 at rf  ", (mp.sqrt(rf) * mp.besselj(0, rf)) ** 2)

print()
print("# --- Rayleigh / zero-sum exact targets ---")
print("Z2(2,0)    =", Fraction(1, 7))
print("Z2(2,-1)   = (1/7)(1+1/9)  =", Fraction(1, 7) * (1 + Fraction(1, 9)))
print("Z2(5,-1)   = (1/13)(1+1/36)=", Fraction(1, 13) * (1 + Fraction(1, 36)))
print("Zt2(1/2,0) =", Fraction(7, 12))


def ztilde_table(L, eta, kmax):
    L, eta = Fraction(L), Fraction(eta)
    pt = (L + 2) * eta / (L + 1) ** 2
    a = [2 * eta / (L * (L + 1))]
    a.append(-(2 + 2 * eta * a[0]) / (L * (L + 1)))
    for n in range(2, kmax + 4):
        a.append(-(2 * eta * a[n - 1] - a[n - 2]) / (L * (L + 1)))
    Z = {2: (1 - L * a[1] - pt * a[0] + pt * pt) / (2 * L + 3)}
    Z[3] = (-L * a[2] - pt * a[1] + a[0] * Z[2] - 2 * pt * Z[2]) / (2 * L + 4)
    for n in range(0, kmax - 3):
        acc = -L * a[n + 3] - pt * a[n + 2]
        acc += sum(a[m] * Z[3 + n - m] for m in range(0, n + 2))
        acc += sum(Z[m + 2] * Z[n - m + 2] for m in range(0, n + 1))
        acc -= 2 * pt * Z[n + 3]
        Z[n + 4] = acc / (2 * L + n + 5)
    return Z

zt = ztilde_table(Fraction(1, 2), 0, 6)
print("Ztilde(1/2,0) k=2..6:", {k: str(v) for k, v in zt.items()})
zt = ztilde_table(2, -1, 6)
print("Ztilde(2,-1)  k=2..6:", {k: str(v) for k, v in zt.items()})
zt = ztilde_table(5, -1, 10)
print("Ztilde(5,-1)  bounds s=1..4:")
for s in (1, 2, 3, 4):
    lo = float(zt[2 * s]) ** (-1 / s)
    hi = float(zt[2 * s] / zt[2 * s + 2])
    print(f"  s={s}: lower={lo!r} upper={hi!r}")
