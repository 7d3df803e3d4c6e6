"""Independent mpmath reference for the main identity's left side.

`main_identity_lhs(T, S, t)` integrates the paper's integrand

    F(2it, -2it; 1/2; Y(z)) F(it, -it; 1/2; -x(z)) / (1 - z)

against the endpoint weight 1/sqrt((z-T)(S-z)) over (T, S).  Both 2F1
factors come from mpmath.hyp2f1, not from the package's trigonometric
closed forms, so the reference shares no code with the engine under test.
The integral is taken in theta, with z = T + (S-T)(1 + cos theta)/2, which
absorbs the weight exactly; left in z, the endpoint singularity leaves
mpmath.quad wrong at about 1e-7.
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
