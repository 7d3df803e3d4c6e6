"""Scalar special-function kernels.

Complex log-gamma; the closed forms of the two gamma-weighted integrals, and the strip bounds
and envelopes that fix their trapezoid rules; and the closed trigonometric forms of the family
F(it,-it;1/2;x).  The checks built on them, the quadratic transformation and the product
formula among them, live in identity_suite.

All powers and logarithms are taken on the principal branch, with the
argument of a nonzero complex number in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "log_gamma",
    "log_gamma_modulus",
    "gamma_envelope",
    "barnes_closed_form",
    "power_closed_form",
    "barnes_rule",
    "power_rule",
    "f_it",
    "f_2it_unit_interval",
]

# Lanczos approximation, g = 7 with 9 coefficients, written out in log_gamma's
# sum.  Standard double precision set; relative error of the reconstructed
# gamma < 1e-14 on the half-plane Re z >= 0.5.
_LANCZOS_0 = complex(0.99999999999980993, 0.0)   # the sum's first term
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = complex(math.log(math.pi), 0.0)
_LOG_HALF_I = complex(-math.log(2.0), 0.5 * math.pi)   # log(i/2)
_2I_PI, _I_PI = 2j * math.pi, 1j * math.pi
_SQRT_PI = math.sqrt(math.pi)
_LOG_2, _LOG_2PI = math.log(2.0), math.log(2.0 * math.pi)
_K1 = math.exp(2.0 * math.pi - 1.0) / (4.0 * math.pi)   # the largest (1-u) e^(2 pi u)/2, u < 1


def log_gamma(z: complex) -> complex:
    """Principal-branch log of the gamma function.

    Uses the Lanczos sum for Re z >= 1/2 and the reflection formula below
    that line, with log(sin(pi z)) evaluated on the branch that keeps the
    result analytic across the left half-plane.  exp(log_gamma(z))
    reproduces gamma(z) for every admissible z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(
            f"log_gamma: z = {z.real:g} is a pole of gamma (non-positive integer)")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        return _LOG_PI - _log_sin_pi(z) - log_gamma(1.0 - z)
    zm = z - 1.0
    # one expression, the terms added left to right as a loop over them would
    s = (_LANCZOS_0 + 676.5203681218851 / (zm + 1.0) + -1259.1392167224028 / (zm + 2.0)
         + 771.32342877765313 / (zm + 3.0) + -176.61502916214059 / (zm + 4.0)
         + 12.507343278686905 / (zm + 5.0) + -0.13857109526572012 / (zm + 6.0)
         + 9.9843695780195716e-6 / (zm + 7.0) + 1.5056327351493116e-7 / (zm + 8.0))
    t = zm + 7.5   # zm + g + 1/2
    return _HALF_LOG_TWO_PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(s)


def _log_sin_pi(z: complex) -> complex:
    # Valid for Im z >= 0:  sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}),
    # and |e^{2 i pi z}| <= 1 keeps 1 - e^{2 i pi z} in the right half-plane,
    # so the principal log of that factor never wraps.
    w = cmath.exp(_2I_PI * z)
    return _LOG_HALF_I - _I_PI * z + cmath.log(1.0 - w)


def log_gamma_modulus(x: float):
    """s -> log |Gamma(x + is)|^2 at real s, for x > 0.  At x = 1/2, 1, ..., 3, x = 1/2 + m or
    x = m for a whole number m, it is formed from |Gamma(1/2 + m + is)|^2 = pi sech(pi s)
    prod_{k<m} ((k + 1/2)^2 + s^2) and |Gamma(m + is)|^2 = pi s csch(pi s) prod_{0<k<m} (k^2 + s^2),
    within 4 eps of max(1, |log|) (tests), where log_gamma costs a Lanczos sum and is within
    32 eps; elsewhere it is 2 Re log_gamma(x + is)."""
    m = 2.0 * x
    if m != math.floor(m) or not 0.0 < m <= 6.0:
        return lambda s: 2.0 * log_gamma(complex(x, s)).real
    half, log, log1p, exp, expm1 = m % 2.0, math.log, math.log1p, math.exp, math.expm1
    squares = [(k + 0.5 * half) ** 2 for k in range(1 - int(half), int(x))]

    def modulus(s: float) -> float:
        u = math.pi * abs(s)
        if half:   # log(pi sech(pi s)) = log(2 pi) - u - log1p(e^-2u)
            v = _LOG_2PI - u - log1p(exp(-2.0 * u))
        else:   # log(pi s csch(pi s)), 0 at s = 0
            v = log(u / -expm1(-2.0 * u)) - u + _LOG_2 if u else 0.0
        for q in squares:
            v += log(q + s * s)
        return v
    return modulus


def gamma_envelope(xs: tuple, degree: int, growth: float) -> tuple[float, float]:
    """(K, rate) with s^degree exp(growth s) prod_x |Gamma(x + is)|^2 <= K exp(-rate s) for
    s >= 0, every x > 0 and growth < pi len(xs).

    Let q be the least multiple of 1/2 at or above x.  |Gamma(x + is)| <= (Gamma(x) / Gamma(q))
    |Gamma(q + is)|, since each factor of 1/|Gamma(x + is)|^2 = Gamma(x)^-2
    prod_n (1 + s^2 / (x + n)^2) falls as x grows.  |Gamma(q + is)|^2 is pi sech(pi s)
    prod_{k<m} ((k + 1/2)^2 + s^2) at q = 1/2 + m, and pi s csch(pi s) prod_{0<k<q} (k^2 + s^2)
    at an integer q, so it is at most 2 pi exp(-pi s) (s + c)^(2q - 1) for any c at or above
    1/(2 pi) and q - 1, as s csch(pi s) <= 2 exp(-pi s) (s + 1/(2 pi)).  The polynomial, of
    degree n, costs a tenth of the rate if n > 0: (s + c)^n exp(-eps s) <= (n/eps)^n exp(eps c - n).
    Raises OverflowError past the float range.
    """
    qs = [math.ceil(2.0 * x) / 2.0 for x in xs]
    n, c = degree + round(math.fsum(qs) * 2.0) - len(qs), max(0.5 / math.pi, max(qs) - 1.0)
    rate = math.pi * len(xs) - growth
    eps = 0.1 * rate if n else 0.0
    log_k = math.fsum([2.0 * (_HALF_LOG_TWO_PI + math.lgamma(x) - math.lgamma(q))
                       for x, q in zip(xs, qs)])
    return math.exp(log_k + (n * math.log(n / eps) + eps * c - n if n else 0.0)), rate - eps


def barnes_closed_form(a: float, b: float, c: float) -> float:
    """Gamma(a+b) Gamma(a+c) Gamma(b+c): for a >= 0 and b, c > 0 the integral over s > 0 of
    Gamma(a+-is) Gamma(b+-is) Gamma(c+-is) / Gamma(+-2is) / (2 pi) (Barnes), Gamma(x+-is) denoting
    Gamma(x+is) Gamma(x-is); 1/Gamma(+-2is) = 2s sinh(2 pi s)/pi, and at a = 0 the ratio
    Gamma(+-is)/Gamma(+-2is) = 4 cosh(pi s)."""
    return math.gamma(a + b) * math.gamma(a + c) * math.gamma(b + c)


def power_closed_form(a_shift: float, tau: float) -> float:
    """sqrt(pi) Gamma(1+tau) Gamma(1/2+tau) (1+A)^(-1/2-tau): for A > -1 and 1/2 + tau > 0 the
    integral over s > 0 of 4 pi |Gamma(1/2+tau+is)|^2 F(+-is;1/2;-A) / (2 pi), which is the
    integral over the real line of |Gamma(1/2+tau+iu)|^2 cosh(2u ga) at A <= 0,
    ga = shift_angles(A)[1]."""
    return (_SQRT_PI * math.gamma(1.0 + tau) * math.gamma(0.5 + tau)
            * (1.0 + a_shift) ** (-0.5 - tau))


def barnes_rule(a: float, b: float, c: float) -> tuple:
    """(strip, bound, envelope, rate) of the Barnes integrand g = R(s) prod_x Gamma(x+-is) as
    strip_trapezoid_rule takes them: xs = (a, b, c) with R(s) = 2s sinh(2 pi s)/pi, or (b, c)
    with R(s) = 4 cosh(pi s) at a = 0; g is even and analytic in |Im s| < min(xs).

    At s = u + iy, 0 <= y <= d, the pairs' modulus is prod |Gamma(x-y+iu)| |Gamma(x+y+iu)|, so
    Cauchy-Schwarz bounds its integral against a weight w by the root of the two integrals of
    prod |Gamma(x-+y+iu)|^2 w.  At a = 0, |R| <= 4 cosh(pi u), whose integrals are 4 pi times
    barnes_closed_form(0, b-+y, c-+y).  At a > 0, |R| <= (1+d) R(u) + E cosh(pi u) with
    E = (2/pi)(d K1 + (d + 1/pi) min(1, 2 pi d)), from |R|^2 = (4/pi^2)(u^2 + y^2)
    (sinh^2(2 pi u) + sin^2(2 pi y)), sinh(2 pi |u|) <= |u| sinh(2 pi |u|) + K1 on |u| < 1, and
    |u| <= cosh(pi u)/pi; R(u)'s integrals are 4 pi times barnes_closed_form(a-+y, b-+y, c-+y),
    the cosh's at most pi Gamma(hi-+y)^2 barnes_closed_form(0, lo-+y, mid-+y), (lo, mid, hi)
    the sorted xs.  The bound is log-convex in y (log Gamma is convex), so it peaks at y = 0 or
    y = d.  The envelope is gamma_envelope's, with 2s sinh(2 pi s)/pi <= (s/pi) e^(2 pi s) and
    4 cosh(pi s) <= 4 e^(pi s).
    """
    if a < 0.0 or b <= 0.0 or c <= 0.0:
        raise DomainError(
            f"Barnes integral requires a >= 0 and b, c > 0, got ({a:g}, {b:g}, {c:g})")
    xs, (lo, mid, hi) = (b, c) if a == 0.0 else (a, b, c), sorted((a, b, c))

    def kernels(v: float) -> tuple:   # the weights' integrals at the shift v (a = 0 stays 0)
        main = 4.0 * math.pi * barnes_closed_form(a and a + v, b + v, c + v)
        return (main, math.pi * math.gamma(hi + v) ** 2 * barnes_closed_form(0.0, lo + v, mid + v)
                ) if a else (main,)

    def bound(d: float) -> float:
        e = (d * _K1 + (d + 1.0 / math.pi) * min(1.0, 2.0 * math.pi * d)) * 2.0 / math.pi
        return max(math.fsum([k * math.sqrt(m * p) for k, m, p in
                              zip((1.0 + d, e), kernels(-y), kernels(y))]) for y in (0.0, d))

    k, rate = gamma_envelope(xs, 1 if a else 0, (2.0 if a else 1.0) * math.pi)
    return min(xs), bound, k / math.pi if a else 4.0 * k, rate


def power_rule(a_shift: float, tau: float) -> tuple:
    """(strip, bound, envelope, rate) of g = 4 pi |Gamma(1/2+tau+is)|^2 F(+-is;1/2;-A), even and
    analytic in |Im s| < 1/2 + tau, as strip_trapezoid_rule takes them.  At s = u + iy,
    0 <= y <= d, |F| <= cosh(2y la) cosh(2u ga), (la, ga) = shift_angles(A), and the integral of
    |Gamma(1/2+tau-+y+iu)|^2 cosh(2u ga) is power_closed_form(min(A, 0), tau -+ y); by
    Cauchy-Schwarz the integral of |g| is at most 4 pi cosh(2y la) times the root of the two,
    log-convex in y, so it peaks at y = 0 or y = d.  The envelope is gamma_envelope's, with
    |F| <= e^(2 ga s)."""
    if a_shift <= -1.0:
        raise DomainError(f"shift must satisfy A > -1, got {a_shift:g}")
    if tau < 0.0:
        raise DomainError(f"tau must be non-negative, got {tau:g}")
    z0, a_neg, (la, ga) = 0.5 + tau, min(a_shift, 0.0), shift_angles(a_shift)

    def bound(d: float) -> float:
        return 4.0 * math.pi * max(power_closed_form(a_neg, tau), math.cosh(2.0 * d * la)
                                   * math.sqrt(power_closed_form(a_neg, tau - d)
                                               * power_closed_form(a_neg, tau + d)))

    k, rate = gamma_envelope((z0,), 0, 2.0 * ga)
    return z0, bound, 4.0 * math.pi * k, rate


def f_it(t: complex, x: float) -> complex:
    """F(it,-it;1/2;-x) for x > -1 via its closed form.

    Equals cos(2 t log(sqrt(x+1) + sqrt(x))), i.e. the mean of
    (sqrt(x+1)+sqrt(x))^(2it) and its reciprocal power.  That logarithm is
    la + i ga from shift_angles: real for x >= 0, on the imaginary axis for
    x in (-1, 0), so a real t gives a real value.
    """
    x = float(x)
    if x <= -1.0:
        raise DomainError(f"f_it requires x > -1, got {x:g}")
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return cmath.cos(2.0 * t * log_base(x))


@lru_cache(maxsize=64)   # a grid's few x, once per run (cli.run empties it); -0.0 is 0.0's
def log_base(x: float) -> complex:   # f_it's t-free part, log(sqrt(x+1) + sqrt(x))
    return complex(*shift_angles(x))


def shift_angles(x: float) -> tuple[float, float]:
    """(la, ga) with F(+-iu;1/2;-x) = cos(u la) cosh(u ga) for x > -1: (asinh(sqrt(x)), 0) for
    x >= 0, both signed zeros giving (0.0, 0.0), and (0, asin(sqrt(-x))) below, formed as
    atan2(sqrt(-x), sqrt(1+x)), which keeps its last bits as x -> -1 where asin loses them."""
    if x < 0.0:
        return 0.0, math.atan2(math.sqrt(-x), math.sqrt(1.0 + x))
    return math.asinh(math.sqrt(abs(x))), 0.0


def f_2it_unit_interval(t: complex, y: float) -> complex:
    """F(2it,-2it;1/2;Y) for 0 < Y < 1.

    Closed form f_it(2t, -Y) = cos(4 i t asin(sqrt(Y))); for real t this is
    cosh(4 t asin(sqrt(Y))), growing monotonically in |t|.
    """
    y = float(y)
    if not 0.0 < y < 1.0:
        raise DomainError(f"f_2it_unit_interval requires 0 < Y < 1, got {y:g}")
    return f_it(2.0 * complex(t), -y)

