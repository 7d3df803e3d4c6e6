"""Independent mpmath references for the left sides of the main identity,
the Q integral, the Barnes integral, the spectral power integral and the
sech-weighted spectral product integral.

`main_identity_lhs(T, S, t)` integrates the paper's integrand

    F(2it, -2it; 1/2; Y(z)) F(it, -it; 1/2; -x(z)) / (1 - z)

against the endpoint weight 1/sqrt((z-T)(S-z)) over (T, S).  Both 2F1
factors come from mpmath.hyp2f1, not from the package's trigonometric
closed forms, so the reference shares no code with the engine under test.
The integral is taken in theta, with z = T + (S-T)(1 + cos theta)/2, which
absorbs the weight exactly; left in z, the endpoint singularity leaves
mpmath.quad wrong at about 1e-7.

`q_integral_lhs(T, S, r)` integrates the rational kernel in the same theta,
with q = (1 + cos theta)/2.  As S -> 1 the kernel peaks sharply at q = 1
(theta = 0), so the theta range is split at 0.01 and 0.1; in one piece
mpmath.quad is off by 3.7e-6 relative at (0.5, 0.999), r = 0.5.

`barnes_lhs(a, b, c)` integrates the Barnes gamma ratio with mpmath.gamma
at each factor, where the engine sums log_gamma real parts (and, at a = 0,
uses a closed form for the singular ratio, which this reference does not
cover).  The integrand decays like a power of s times exp(-pi s), and the
s range is split at 2, 5 and 10.

`spectral_power_lhs(A, tau)` integrates 4 pi |Gamma(1/2+tau+is)|^2 times
mpmath.hyp2f1(is, -is; 1/2; -A), where the engine uses the closed form
cos(2s asinh(sqrt(A))) (cosh(2s asin(sqrt(-A))) for A < 0).  The integrand
decays like exp(-(pi - 2 asin(sqrt(max(-A, 0)))) s), so the s range stops at
40, where at A = -1/2 what is left is below 1e-26 relative.  mpmath's
default term budget raises NoConvergence at large s; maxterms is raised.

`spectral_product_lhs(A, r, B)` integrates the sech-weighted product
4 pi^2/cosh(pi s) F(1/2+-is;1/2;-r) F(+-is;1/2;-A) F(+-is;1/2;-B), all three
factors from mpmath.hyp2f1, where the engine writes each as a cos or cosh
closed form.  At (A, B) = kernel_shifts(z) it is also the spectral kernel's
left side, taken in s = 2t.  The integrand decays like
exp(-(pi - 2 asin(sqrt(max(-A, 0)))) s), and the s range stops at 40 as above.

`strip_integral(A, r, B, c)` is the sech-weighted integral over (0, inf) that
the strip trapezoid rule takes, (2 pi / c) times the spectral product's closed
form, at 30 digits, at the exact 1 + A of the double A.

`barnes_integral(a, b, c)` and `power_integral(A, tau)` are the integrals over
(0, inf) that the Barnes and spectral power checks take on the strip trapezoid rule,
2 pi times each closed form, at 30 digits.  `barnes_log_modulus(a, b, c, s)` and
`power_log_modulus(A, tau, s)` give log |g(s)| of those integrands at real s from
mpmath.fp.loggamma, and `strip_abs_integral(g, y)` integrates |g(u + iy)| over the real
line with mpmath.fp.quad, g from `barnes_integrand(a, b, c)` or `power_integrand(A, tau)`
(mpmath.fp.gamma and rgamma, at a = 0 the closed form 4 cosh(pi s) of the singular ratio;
the F factor as cos(2s asinh(sqrt(A))) cosh(2s asin(sqrt(max(-A, 0))))).  On the 14 grid
points fp.quad at maxdegree 3 agrees with 20-digit mpmath.quad to 3.3e-10 relative at
y = 15/16 of the strip, where |g| peaks in a layer as narrow as the gap to the pole, and to
1.1e-7 at y = 0 and 1/2 of it; at y = 0 and A > 0, where |cos| has kinks, to 1.3e-3.

`kernel_shifts(T, S, z)` evaluates the kernel shifts A(z), B(z) as first
written, with the differences of square roots, at 40 digits, where the
cancellation near z = T and z = S costs nothing.
"""

import mpmath

DPS = 20   # working digits; arithmetic on the results belongs inside workdps(DPS)


def main_identity_lhs(T: float, S: float, t: complex) -> mpmath.mpc:
    with mpmath.workdps(DPS):
        T, S, t = mpmath.mpf(T), mpmath.mpf(S), mpmath.mpc(t)
        s_t, s_s = mpmath.sqrt(T), mpmath.sqrt(S)

        def integrand(theta):
            z = T + (S - T) * (1 + mpmath.cos(theta)) / 2
            s_z = mpmath.sqrt(z)
            y = (1 + s_z) * (s_z - s_t) / (2 * (1 - s_t) * s_z)
            x = (S - z) * (1 - z) / ((1 - s_s) ** 2 * z)
            return (mpmath.hyp2f1(2j * t, -2j * t, 0.5, y)
                    * mpmath.hyp2f1(1j * t, -1j * t, 0.5, -x) / (1 - z))

        return mpmath.quad(integrand, [0, mpmath.pi])


def main_closed_form(T: float, S: float) -> mpmath.mpf:
    """pi / sqrt((1-T)(1-S)) at the oracle's precision."""
    with mpmath.workdps(DPS):
        return mpmath.pi / mpmath.sqrt((1 - mpmath.mpf(T)) * (1 - mpmath.mpf(S)))


def q_integral_lhs(T: float, S: float, r: float) -> mpmath.mpf:
    """(1+r) times the integral over q in (0, 1) of 2 sqrt(z) i2(r, z) / (1 + sqrt(z))
    against 1/sqrt(q(1-q)), where sqrt(z) = sqrt(T) + q (sqrt(S) - sqrt(T)) and
    i2 = (m + R sqrt(z) + k z) / (E + F z + G z^2) is the kernel's rational factor."""
    with mpmath.workdps(DPS):
        T, S, r = mpmath.mpf(T), mpmath.mpf(S), mpmath.mpf(r)
        s_t, s_s = mpmath.sqrt(T), mpmath.sqrt(S)
        big_r = 2 * r * (1 - s_t) * (1 - s_s)
        m = s_t + s_s - 2 * s_s * s_t
        k = s_t + s_s - 2
        e = m ** 2 + 2 * big_r * s_s * s_t
        f = 2 * k * m + 2 * big_r * (1 + s_s * s_t - 2 * s_t - 2 * s_s) + big_r ** 2
        g = k ** 2 + 2 * big_r

        def integrand(theta):
            s_z = s_t + (s_s - s_t) * (1 + mpmath.cos(theta)) / 2
            z = s_z ** 2
            i2 = (m + big_r * s_z + k * z) / (e + f * z + g * z ** 2)
            return 2 * s_z * i2 / (1 + s_z)

        return (1 + r) * mpmath.quad(integrand, [0, 0.01, 0.1, mpmath.pi])


def q_closed_form(T: float, S: float) -> mpmath.mpf:
    """pi / (sqrt((1-T)(1-S)) sqrt((1-sqrt T)(1-sqrt S))) at the oracle's precision."""
    with mpmath.workdps(DPS):
        T, S = mpmath.mpf(T), mpmath.mpf(S)
        return mpmath.pi / mpmath.sqrt((1 - T) * (1 - S) * (1 - mpmath.sqrt(T))
                                       * (1 - mpmath.sqrt(S)))


def barnes_lhs(a: float, b: float, c: float) -> mpmath.mpf:
    """(1/2pi) times the integral over s in (0, inf) of
    Gamma(a+-is) Gamma(b+-is) Gamma(c+-is) / Gamma(+-2is), for a, b, c > 0,
    where Gamma(x+-is) = Gamma(x+is) Gamma(x-is) = |Gamma(x+is)|^2."""
    with mpmath.workdps(DPS):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)

        def integrand(s):
            num = abs(mpmath.gamma(mpmath.mpc(a, s)) * mpmath.gamma(mpmath.mpc(b, s))
                      * mpmath.gamma(mpmath.mpc(c, s))) ** 2
            return num / abs(mpmath.gamma(mpmath.mpc(0, 2 * s))) ** 2

        return mpmath.quad(integrand, [0, 2, 5, 10, mpmath.inf]) / (2 * mpmath.pi)


def spectral_power_lhs(A: float, tau: float) -> mpmath.mpf:
    """(1/2pi) times the integral over s in (0, 40) of
    4 pi |Gamma(1/2+tau+is)|^2 Re F(is, -is; 1/2; -A), for A > -1, tau >= 0."""
    with mpmath.workdps(DPS):
        A, tau = mpmath.mpf(A), mpmath.mpf(tau)

        def integrand(s):
            f = mpmath.hyp2f1(1j * s, -1j * s, 0.5, -A, maxterms=10 ** 6)
            return 4 * mpmath.pi * abs(mpmath.gamma(mpmath.mpc(0.5 + tau, s))) ** 2 * f.real

        return mpmath.quad(integrand, [0, 2, 5, 10, 20, 40]) / (2 * mpmath.pi)


def spectral_product_lhs(A: float, r: float, B: float) -> mpmath.mpf:
    """(1/2pi) times the integral over s in (0, 40) of (4pi^2/cosh(pi s))
    Re F(1/2+is, 1/2-is; 1/2; -r) Re F(is, -is; 1/2; -A) Re F(is, -is; 1/2; -B),
    for A > -1, r > 0, B >= 0."""
    with mpmath.workdps(DPS):
        A, r, B = mpmath.mpf(A), mpmath.mpf(r), mpmath.mpf(B)

        def integrand(s):
            f_r = mpmath.hyp2f1(0.5 + 1j * s, 0.5 - 1j * s, 0.5, -r, maxterms=10 ** 6)
            f_a = mpmath.hyp2f1(1j * s, -1j * s, 0.5, -A, maxterms=10 ** 6)
            f_b = mpmath.hyp2f1(1j * s, -1j * s, 0.5, -B, maxterms=10 ** 6)
            return 4 * mpmath.pi ** 2 / mpmath.cosh(mpmath.pi * s) * f_r.real * f_a.real * f_b.real

        return mpmath.quad(integrand, [0, 2, 5, 10, 20, 40]) / (2 * mpmath.pi)


def strip_integral(A: float, r: float, B: float, c: float) -> mpmath.mpf:
    """int_0^inf (4pi^2/cosh(pi c s)) F(1/2+-ics;1/2;-r) F(+-ics;1/2;-A) F(+-ics;1/2;-B) ds
    = (2 pi / c) pi sqrt(1+A) sqrt(1+B) (1+A+r+B) / ((1+A+B-r)^2 + 4r(1+A)(1+B));
    compare with it inside workdps(30)."""
    with mpmath.workdps(30):
        one_a, one_b, r = 1 + mpmath.mpf(A), 1 + mpmath.mpf(B), mpmath.mpf(r)
        return (2 * mpmath.pi ** 2 / c * mpmath.sqrt(one_a * one_b) * (one_a + r + one_b - 1)
                / ((one_a + one_b - 1 - r) ** 2 + 4 * r * one_a * one_b))


def kernel_shifts(T: float, S: float, z: float) -> tuple:
    """(A(z), B(z)) = (-(1+sqrt z)(sqrt z - sqrt T) / (2(1-sqrt T) sqrt z),
    (1+sqrt z)(sqrt S - sqrt z) / (2(1-sqrt S) sqrt z)) at 40 digits."""
    with mpmath.workdps(40):
        T, S, z = mpmath.mpf(T), mpmath.mpf(S), mpmath.mpf(z)
        s_t, s_s, s_z = mpmath.sqrt(T), mpmath.sqrt(S), mpmath.sqrt(z)
        return (-(1 + s_z) * (s_z - s_t) / (2 * (1 - s_t) * s_z),
                (1 + s_z) * (s_s - s_z) / (2 * (1 - s_s) * s_z))


def barnes_integral(a: float, b: float, c: float) -> mpmath.mpf:
    """2 pi Gamma(a+b) Gamma(a+c) Gamma(b+c): the Barnes integral over (0, inf); compare
    with it inside workdps(30)."""
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        return 2 * mpmath.pi * mpmath.gamma(a + b) * mpmath.gamma(a + c) * mpmath.gamma(b + c)


def power_integral(A: float, tau: float) -> mpmath.mpf:
    """2 pi sqrt(pi) Gamma(1+tau) Gamma(1/2+tau) (1+A)^(-1/2-tau): the spectral power
    integral over (0, inf), at the exact 1 + A of the double A; compare inside workdps(30)."""
    with mpmath.workdps(30):
        A, tau = mpmath.mpf(A), mpmath.mpf(tau)
        return (2 * mpmath.pi * mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 + tau)
                * mpmath.gamma(0.5 + tau) * (1 + A) ** (-0.5 - tau))


def _power_angles(A: float) -> tuple:   # (asinh(sqrt(A)), 0) or (0, asin(sqrt(-A))), 30 digits
    with mpmath.workdps(30):
        A = mpmath.mpf(A)
        return (float(mpmath.asinh(mpmath.sqrt(max(A, 0)))),
                float(mpmath.asin(mpmath.sqrt(max(-A, 0)))))


def barnes_integrand(a: float, b: float, c: float):
    """s -> Gamma(a+-is) Gamma(b+-is) Gamma(c+-is) / Gamma(+-2is) at complex s, in floats;
    at a = 0 the ratio Gamma(+-is) / Gamma(+-2is) is 4 cosh(pi s)."""
    fp = mpmath.fp

    def g(s: complex) -> complex:
        ratio = (4 * fp.cosh(fp.pi * s) if a == 0.0
                 else fp.rgamma(2j * s) * fp.rgamma(-2j * s) * fp.gamma(a + 1j * s)
                 * fp.gamma(a - 1j * s))
        return ratio * (fp.gamma(b + 1j * s) * fp.gamma(b - 1j * s) * fp.gamma(c + 1j * s)
                        * fp.gamma(c - 1j * s))
    return g


def power_integrand(A: float, tau: float):
    """s -> 4 pi Gamma(1/2+tau+is) Gamma(1/2+tau-is) F(is,-is;1/2;-A) at complex s, in floats."""
    fp, (la, ga) = mpmath.fp, _power_angles(A)

    def g(s: complex) -> complex:
        return (4 * fp.pi * fp.gamma(0.5 + tau + 1j * s) * fp.gamma(0.5 + tau - 1j * s)
                * fp.cos(2 * s * la) * fp.cosh(2 * s * ga))
    return g


def strip_abs_integral(g, y: float) -> float:
    """The integral of |g(u + iy)| over the real line, for g even on the real axis and real
    there, so |g(-u + iy)| = |g(u + iy)|."""
    return 2 * mpmath.fp.quad(lambda u: abs(g(complex(u, y))), [0, 0.1, 1, 3, 8, 20, 60],
                              maxdegree=3)


def _log_cosh(x: float) -> float:
    x = abs(x)
    return x + mpmath.fp.log1p(mpmath.fp.exp(-2 * x)) - mpmath.fp.log(2)


def barnes_log_modulus(a: float, b: float, c: float, s: float) -> float:
    """log |g(s)| of the Barnes integrand at real s > 0 (at s = 0 too when a = 0)."""
    fp = mpmath.fp
    ratio = (fp.log(4) + _log_cosh(fp.pi * s) if a == 0.0   # 2 s sinh(2 pi s) / pi below
             else 2 * fp.pi * s + fp.log(s / fp.pi) + fp.log1p(-fp.exp(-4 * fp.pi * s))
             + 2 * fp.loggamma(a + 1j * s).real)
    return ratio + 2 * (fp.loggamma(b + 1j * s).real + fp.loggamma(c + 1j * s).real)


def power_log_modulus(A: float, tau: float, s: float) -> float:
    """log |g(s)| of the spectral power integrand at real s, -inf where it is 0."""
    fp, (la, ga) = mpmath.fp, _power_angles(A)
    cos = abs(fp.cos(2 * s * la))
    return (fp.log(4 * fp.pi) + 2 * fp.loggamma(0.5 + tau + 1j * s).real + _log_cosh(2 * s * ga)
            + (fp.log(cos) if cos else -fp.inf))
