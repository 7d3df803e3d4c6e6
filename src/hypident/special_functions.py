"""Scalar special-function kernels.

Complex log-gamma and the closed trigonometric forms of the family
F(it,-it;1/2;x).  The checks built on them, the quadratic transformation
and the product formula among them, live in identity_suite.

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

