"""Named, parameterized identity checks: all eleven of the suite.

Every check computes one side of an identity, by quadrature over closed-form
integrands or by a second closed form, and compares it against the closed
form of the other side, returning a CheckRecord.  The family under test:

* the main identity: the weighted integral over (T, S) of a product of two
  hypergeometric closed forms is independent of the spectral parameter t
  and equals pi / sqrt((1-T)(1-S));
* the quadratic transformation and the product formula of those closed forms;
* Barnes-type gamma integrals and three sech-weighted spectral integrals
  with shift parameters (A, tau, r, B);
* the rational-kernel route to the same result: the spectral kernel
  factorization, the q-substituted Q(r) integral, and the partial-fraction
  obstruction integer that must vanish.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import DegenerateConfigurationError, DomainError, FrozenValue
from .quadrature import (DEFAULT_POLICY, EvaluationPolicy, IntegralEstimate, NodeIntegrand,
                         integrate_chebyshev_weighted, nested_trapezoid, strip_trapezoid_rule)
from .records import UNCONVERGED, CheckRecord, build_record, skipped_record
from .special_functions import (barnes_closed_form, barnes_rule, f_2it_unit_interval, f_it,
                                log_base, log_gamma_modulus, power_closed_form, power_rule,
                                shift_angles)

__all__ = [
    "ParameterPair",
    "QuadraticFamily",
    "kernel_shifts",
    "kernel_factors",
    "quadratic_family",
    "check_main_identity",
    "check_quadratic_transform",
    "check_product_formula",
    "check_barnes_triple",
    "check_spectral_power",
    "check_spectral_resolvent",
    "check_spectral_product",
    "check_spectral_kernel",
    "check_q_integral",
    "check_obstruction_integer",
    "check_weighted_residual",
]

PI = math.pi
TWO_PI = 2.0 * math.pi
_LN_4PI = math.log(4.0 * PI)
_LN_4PI2 = math.log(4.0 * PI * PI)
_LN_2 = math.log(2.0)
DEFECT_REL_TOL = 1e-3   # q_integral's kernel_defect needs three digits, not nine
PHASE_ROUNDING = 2.0 ** -51   # a phase t * angle's rounding, per (1 + |t|) (1 + |angle|)


class ParameterPair(FrozenValue):
    """The fixed pair (T, S) with 0 < T < S < 1."""

    __slots__ = ("T", "S")

    def __init__(self, T: float, S: float):
        if not (0.0 < T < S < 1.0):
            raise DomainError(f"parameter pair must satisfy 0 < T < S < 1, got ({T:g}, {S:g})")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)

    @property
    def sqrt_T(self) -> float:
        return math.sqrt(self.T)

    @property
    def sqrt_S(self) -> float:
        return math.sqrt(self.S)

    def main_closed_form(self) -> float:
        """pi / (sqrt(1-T) sqrt(1-S)), the t-independent value of the main integral."""
        return PI / math.sqrt((1.0 - self.T) * (1.0 - self.S))

    def q_closed_form(self) -> float:
        """Closed form of the Q integral:
        pi / (sqrt(1-T) sqrt(1-S) sqrt(1-sqrt(T)) sqrt(1-sqrt(S)))."""
        return PI / (math.sqrt((1.0 - self.T) * (1.0 - self.S))
                     * math.sqrt((1.0 - self.sqrt_T) * (1.0 - self.sqrt_S)))


def _ln_cosh(u: float) -> float:
    u = abs(u)
    return u + math.log1p(math.exp(-2.0 * u)) - _LN_2


# ---------------------------------------------------------------------------
# kernels on [T, S]

def _y(z: float, pair: ParameterPair) -> float:   # the main integrand's Y and -A
    sz, st = math.sqrt(z), pair.sqrt_T   # sqrt(z) - sqrt(T) from z - T: no cancellation at T
    return (1.0 + sz) * ((z - pair.T) / (sz + st)) / (2.0 * (1.0 - st) * sz)


def kernel_shifts(z: float, pair: ParameterPair) -> tuple[float, float]:
    """Shift arguments (A(z), B(z)) feeding the spectral product identity:

        A(z) = -(1+sqrt(z))(sqrt(z)-sqrt(T)) / (2(1-sqrt(T)) sqrt(z))
        B(z) =  (1+sqrt(z))(sqrt(S)-sqrt(z)) / (2(1-sqrt(S)) sqrt(z))

    For T <= z <= S these satisfy A > -1 and B >= 0.  B is formed from S - z
    and 1 - S, A (the main integrand's -Y, _y) from z - T, so each keeps a few
    ulps relative as z -> T, z -> S or S -> 1.
    """
    if not pair.T <= z <= pair.S:
        raise DomainError(f"z = {z:g} outside [{pair.T:g}, {pair.S:g}]")
    sz, ss = math.sqrt(z), pair.sqrt_S
    a = -_y(z, pair)
    b = (1.0 + sz) * (pair.S - z) * (1.0 + ss) / (2.0 * (1.0 - pair.S) * (ss + sz) * sz)
    return a, b


def _poly_coeffs(r: float, pair: ParameterPair) -> tuple[float, ...]:
    # R, the kernel numerator's constant and z coefficients m, k, and the
    # quadratic-in-z coefficients E, F, G of its denominator
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r:g}")
    st, ss = pair.sqrt_T, pair.sqrt_S
    rr = 2.0 * r * (1.0 - st) * (1.0 - ss)
    m = st + ss - 2.0 * ss * st
    k = st + ss - 2.0
    e = m * m + 2.0 * rr * ss * st
    f = 2.0 * k * m + 2.0 * rr * (1.0 + ss * st - 2.0 * st - 2.0 * ss) + rr * rr
    g = k * k + 2.0 * rr
    if not all(map(math.isfinite, (rr, e, f, g))):
        raise OverflowError(f"the kernel coefficients at r = {r:g} are not finite")
    return rr, m, k, e, f, g


def kernel_factors(z: float, r: float, pair: ParameterPair) -> tuple[float, float]:
    """Geometric prefactor and rational factor of the spectral kernel.

    The first factor is
        pi (1-sqrt(z)) sqrt(sqrt(z)+sqrt(T)) sqrt(sqrt(z)+sqrt(S))
           sqrt(1-sqrt(T)) sqrt(1-sqrt(S)),
    the second a rational function of z whose denominator E + F z + G z^2
    is strictly positive on [T, S] for every r > 0.
    """
    if not pair.T <= z <= pair.S:
        raise DomainError(f"z = {z:g} outside [{pair.T:g}, {pair.S:g}]")
    st, ss = pair.sqrt_T, pair.sqrt_S
    sz = math.sqrt(z)
    i1 = (PI * (1.0 - sz) * math.sqrt(sz + st) * math.sqrt(sz + ss)
          * math.sqrt(1.0 - st) * math.sqrt(1.0 - ss))
    rr, m, k, e, f, g = _poly_coeffs(r, pair)
    i2 = (m + rr * sz + z * k) / (e + f * z + g * z * z)
    return i1, i2


def _main_kernel(pair: ParameterPair):
    """at(t) -> a NodeIntegrand of F(+-2it;1/2;Y) F(+-it;1/2;-x) / (1 - z) on [T, S], its
    endpoint weight the engine's.  Y(S), which may round past 1, is clamped to 1, and x(T),
    which overflows for T below about 1e-307, to the largest float.  The t-free geometry
    (asin(sqrt(Y)), asinh(sqrt(x)), 1 - z) of each level's nodes, from shift_angles, is
    memoized per node tuple for the kernel's life, a pair's checks in one run, so each
    further t, real (math) or complex (cmath), costs one cosh * cos / d per node."""
    s_hi, inv_ss, x_max = pair.S, 1.0 / (1.0 - pair.sqrt_S) ** 2, math.nextafter(math.inf, 0.0)
    geometry = {}

    def nodes_geometry(zs: tuple) -> tuple:
        g = geometry[zs] = tuple([(shift_angles(-min(_y(z, pair), 1.0))[1], shift_angles(
            min((s_hi - z) * (1.0 - z) * inv_ss / z, x_max))[0], 1.0 - z) for z in zs])
        return g

    def at(t: complex) -> NodeIntegrand:
        t = complex(t)
        if t.imag != 0.0:
            cosh, cos, c4, c2 = cmath.cosh, cmath.cos, 4.0 * t, 2.0 * t
        else:
            cosh, cos, c4, c2 = math.cosh, math.cos, 4.0 * t.real, 2.0 * t.real

        def level(zs: tuple) -> list:
            return [cosh(c4 * asin_y) * cos(c2 * asinh_x) / d
                    for asin_y, asinh_x, d in geometry.get(zs) or nodes_geometry(zs)]
        return NodeIntegrand(level)

    return at


# ---------------------------------------------------------------------------
# main identity

RE_T_CAP = 2.0   # bound on |Re t| in check_main_identity


def check_main_identity(pair: ParameterPair, t: complex,
                        policy: EvaluationPolicy = DEFAULT_POLICY,
                        tolerance: float = 1e-7) -> CheckRecord:
    """Integrate the main integrand over (T, S) and compare with
    pi / sqrt((1-T)(1-S)).

    The integrand grows like exp(4 |Re t| asin(sqrt(Y))) while the answer
    stays O(1), so |Re t| is capped at RE_T_CAP (beyond it the point is
    degenerate) and the record carries a digits-lost metric
    log10(max |integrand| / closed form) making the cancellation visible.
    """
    t = complex(t)
    if abs(t.real) > RE_T_CAP:
        raise DegenerateConfigurationError(
            f"|Re t| = {abs(t.real):g} exceeds the cancellation cap {RE_T_CAP:g}")
    integrand = wr_inner_memo(pair)[0](t).level   # the pair's node geometry, shared
    peak = [0.0]

    def level(zs: tuple) -> list:
        vals = integrand(zs)
        peak[0] = max(peak[0], *map(abs, vals))   # a running max: a nan is never kept
        return vals

    est = integrate_chebyshev_weighted(NodeIntegrand(level), pair.T, pair.S, policy)
    rhs = pair.main_closed_form()
    digits_lost = math.log10(peak[0] / rhs) if peak[0] > 0.0 else 0.0
    return build_record(
        "main_identity", {"T": pair.T, "S": pair.S, "t": t}, est.value, rhs, tolerance, est,
        metadata={"digits_lost": digits_lost, "quadrature_error": est.error_estimate})


# ---------------------------------------------------------------------------
# quadratic transformation and product formula of the closed forms

def _phase_budget(tolerance: float, t: complex, big: complex, reach: float) -> float:
    """First-order bound, in the verdict's terms, on how rounding moves closed forms summing
    cosines of phases t * angle, the angles on a ray from 0 (big the largest, reach the sum of
    1 + |angle| over nonzero ones): a phase may be PHASE_ROUNDING (1 + |t|) (1 + |angle|) off,
    moving its cosine by that relative to max(1, |cos|) (within sqrt 2 for a complex phase)."""
    bound = PHASE_ROUNDING * (1.0 + abs(t)) * reach
    if tolerance < bound < math.inf:   # a t not finite, its bound inf or nan, is f_it's to reject
        math.cosh((phase := t * big).imag)   # a cosine past the float range overflows first
        raise DegenerateConfigurationError(f"rounding phases up to {abs(phase):.3g} may move "
                                           f"the closed forms by {bound:.3g}, past the tolerance")
    return bound


def check_quadratic_transform(t: complex, w: float,
                              tolerance: float = DEFAULT_POLICY.abs_tol) -> CheckRecord:
    """Verify F(it,-it;1/2;4w(1-w)) = F(2it,-2it;1/2;w) for w <= 1/2.

    Both sides are evaluated through independent closed forms (single and
    doubled spectral parameter).  The transformation does not hold for
    w > 1/2, which is rejected as a domain error; the w = 1/2 endpoint is
    the continuous limit of both closed forms.
    """
    w = float(w)
    if w > 0.5:
        raise DomainError(f"quadratic transformation is not valid for w > 1/2, got w = {w:g}")
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if w != 0.0:   # both sides' phase is t * 4 log_base(-w) exactly; at w = 0 both are 1
        _phase_budget(tolerance, t, (big := 4.0 * log_base(-w)), 2.0 * (1.0 + abs(big)))
    if w < 0.25:   # f_it at 4w(1-w) itself, not at the right side's angle 2 asin(sqrt(w))
        lhs = f_it(t, -4.0 * w * (1.0 - w))
    else:   # cos(2it asin(sqrt(4w(1-w)))) as pi/2 - asin(1-2w): exact to w = 1/2, 4w(1-w) = 1
        lhs = cmath.cos(2j * t * (0.5 * math.pi - math.asin(1.0 - 2.0 * w)))
    rhs = f_2it_unit_interval(t, w) if w > 0.0 else f_it(2.0 * t, -w)
    return build_record("quadratic_transform", {"t": t, "w": w}, lhs, rhs, tolerance)


def check_product_formula(t: complex, x: float, y: float,
                          tolerance: float = DEFAULT_POLICY.abs_tol) -> CheckRecord:
    """Verify the product formula for f_it at positive arguments x, y:

        2 f_it(t,x) f_it(t,y) = f_it(t, X+) + f_it(t, X-),
        X_eps = (sqrt(x) sqrt(y+1) + eps sqrt(y) sqrt(x+1))^2.

    The companion identity X_eps + 1 = (sqrt(x+1) sqrt(y+1) + eps sqrt(x)
    sqrt(y))^2 is asserted as an internal consistency condition and folded
    into the record status.
    """
    x, y = float(x), float(y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"product formula requires x > 0 and y > 0, got ({x:g}, {y:g})")
    t = complex(t)   # f_it rejects a non-finite t, which the phase budget lets pass
    x_plus, x_minus, companion, phases = product_geometry(x, y)
    _phase_budget(tolerance, t, *phases)
    lhs = 2.0 * f_it(t, x) * f_it(t, y)
    rhs = f_it(t, x_plus) + f_it(t, x_minus)
    return build_record("product_formula", {"t": t, "x": x, "y": y}, lhs, rhs, tolerance,
                        consistent=companion <= 1e-12,
                        metadata={"companion_residual": companion})


@lru_cache(maxsize=64)   # a grid's few (x, y), once per run; cli.run empties it
def product_geometry(x: float, y: float) -> tuple:   # (X+, X-, companion residual, phases)
    sx, sy = math.sqrt(x), math.sqrt(y)
    sx1, sy1 = math.sqrt(x + 1.0), math.sqrt(y + 1.0)
    x_plus = (sx * sy1 + sy * sx1) ** 2
    x_minus = ((x - y) / (sx * sy1 + sy * sx1)) ** 2   # sx sy1 - sy sx1, without cancelling
    angles = [2.0 * log_base(v) for v in (x_plus, x, x, y, y, x_minus)]   # 2 f(x) f(y): x twice
    phases = angles[0], math.fsum(1.0 + abs(a) for a in angles if a)   # as _phase_budget takes
    return x_plus, x_minus, max(
        abs((x_plus + 1.0) - (sx1 * sy1 + sx * sy) ** 2) / (x_plus + 1.0),
        abs((x_minus + 1.0) - (sx1 * sy1 - sx * sy) ** 2) / (x_minus + 1.0)), phases


# ---------------------------------------------------------------------------
# Barnes-type and sech-weighted spectral integrals

def _gamma_strip_integral(level, rule: tuple, policy: EvaluationPolicy) -> IntegralEstimate:
    """An even level integrand's integral over (0, inf) on rule, its estimate the rule's bound
    plus round-off, 16 eps h sum |g_k| (1 + 2 pi kh) (2^-48 = 16 eps): 4 times strip_memo's
    term, for log_gamma's error, which grows with |log Gamma| (within 32 eps of it, tests)."""
    h, error, vals = strip_trapezoid_rule(NodeIntegrand(level), *rule, policy)
    value, err = h * math.fsum(vals), error + h * 2.0 ** -48 * math.fsum(
        [abs(v) * (1.0 + TWO_PI * k * h) for k, v in enumerate(vals)])
    return IntegralEstimate(value, err, len(vals), err <= policy.target(value))


def check_barnes_triple(a: float, b: float, c: float,
                        policy: EvaluationPolicy = DEFAULT_POLICY,
                        tolerance: float = 1e-8) -> CheckRecord:
    """Barnes-type integral
        (1/2pi) int_0^inf Gamma(a+-is) Gamma(b+-is) Gamma(c+-is) / Gamma(+-2is) ds
      = Gamma(a+b) Gamma(a+c) Gamma(b+c)   for a >= 0, b, c > 0,

    where Gamma(x+-is) denotes Gamma(x+is) Gamma(x-is).  1/Gamma(+-2is) is 2s sinh(2 pi s)/pi,
    0 at s = 0, and, at a = 0, Gamma(+-is)/Gamma(+-2is) is 4 cosh(pi s), both as logarithms,
    which cannot overflow; the even integrand runs on a strip trapezoid rule (barnes_rule).
    """
    moduli = [(log_gamma_modulus(x), float((a, b, c).count(x)))   # once per distinct shift
              for x in dict.fromkeys((a, b, c)) if x]

    def log_ratio(s: float) -> float:   # sinh(u) = -e^u expm1(-2u)/2; exp(-inf) = 0.0
        if a == 0.0:
            return 2.0 * _LN_2 + _ln_cosh(PI * s)
        x = -s / PI * math.expm1(-2.0 * TWO_PI * s)   # 0 at s = 0, and where s^2 underflows
        return TWO_PI * s + math.log(x) if x else -math.inf

    def level(ss: tuple) -> list:
        return [math.exp(log_ratio(s) + math.fsum([w * f(s) for f, w in moduli])) for s in ss]

    est = _gamma_strip_integral(level, barnes_rule(a, b, c), policy)   # raises DomainError
    return build_record("barnes", {"a": a, "b": b, "c": c}, est.value / TWO_PI,
                        barnes_closed_form(a, b, c), tolerance, est)


def check_spectral_power(a_shift: float, tau: float,
                         policy: EvaluationPolicy = DEFAULT_POLICY,
                         tolerance: float = 1e-8) -> CheckRecord:
    """Sech-class spectral integral with a gamma shift tau >= 0:

        (1/2pi) int_0^inf 4 pi |Gamma(1/2+tau+is)|^2 F(+-is;1/2;-A) ds
      = sqrt(pi) Gamma(1+tau) Gamma(1/2+tau) (1+A)^(-1/2-tau),  A > -1.

    The gamma prefactor is the closed form of Gamma(+-is) Gamma(1/2+-is) Gamma(1/2+tau+-is) /
    Gamma(+-2is).  The even integrand runs on the a-priori strip trapezoid rule (power_rule).
    """
    rule = power_rule(a_shift, tau)   # raises DomainError unless A > -1 and tau >= 0
    log_sq, (la, ga) = log_gamma_modulus(0.5 + tau), shift_angles(a_shift)

    def level(ss: tuple) -> list:   # F(+-is;1/2;-A) = cos(2s la) cosh(2s ga)
        return [math.exp(_LN_4PI + log_sq(s) + _ln_cosh(2.0 * s * ga)) * math.cos(2.0 * s * la)
                for s in ss]

    est = _gamma_strip_integral(level, rule, policy)
    return build_record("spectral_power", {"A": a_shift, "tau": tau}, est.value / TWO_PI,
                        power_closed_form(a_shift, tau), tolerance, est)


def _spectral_integrand(a_shift: float, b_shift: float, c: float):
    """(W, strip, bound, envelope, rate), as strip_trapezoid_rule takes them, W the r-free
    factor of the sech-weighted integrand W(s) F(1/2+-ics;1/2;-r):

        W(s) = (4pi^2/cosh(pi c s)) F(+-ics;1/2;-A) F(+-ics;1/2;-B)

    is even, its strip 1/(2c); bound(d) is from |sech(pi c(x+iy))| <= sech(pi c x)/cos(pi c y),
    |cos(2c(x+iy)l)| <= cosh(2cyl), |cosh(u+iv)| <= cosh u and int sech(pi c x)
    cosh(2c ga x) dx = sec(ga)/c, (la, ga) = shift_angles(A), cos(ga) = sqrt(1 + min(A, 0));
    and |W| <= 8pi^2 exp(-c(pi - 2ga)s).  c = 1 gives the resolvent (B = 0) and product
    integrands in s; c = 2 the spectral kernel's (at the kernel shifts) and the weighted
    residual's weight (A = B = 0) in t = s/2.
    """
    pc, c2 = PI * c, 2.0 * c
    la, ga = shift_angles(a_shift)
    lb = shift_angles(b_shift)[0]
    # hot: _ln_cosh is written out inline, operation for operation; a zero angle adds
    # ln cosh(0) = 0.0 or multiplies by cos(0.0) = 1.0, so one closure is exact for every A
    exp, log1p, cos, ln_4pi2, ln_2 = math.exp, math.log1p, math.cos, _LN_4PI2, _LN_2

    def level(ss: tuple) -> list:
        return [exp(ln_4pi2 - (v + log1p(exp(-2.0 * v)) - ln_2)
                    + (va + log1p(exp(-2.0 * va)) - ln_2)) * cos(u * la) * cos(u * lb)
                for s in ss for u in (c2 * s,) for v, va in ((abs(pc * s), abs(u * ga)),)]

    def bound(d: float) -> float:   # 4pi^2 sec(ga)/c, times the strip's factors
        y = c2 * d
        return (4.0 * PI * PI / (c * math.sqrt(1.0 + min(a_shift, 0.0))) * math.cosh(y * la)
                * math.cosh(y * lb) / math.cos(pc * d))

    return NodeIntegrand(level), 0.5 / c, bound, 8.0 * PI * PI, c * (PI - 2.0 * ga)


def _product_closed_form(one_a: float, r: float, one_b: float) -> tuple[float, float]:
    """(P, D): the spectral product's closed form pi sqrt(1+A) sqrt(1+B) (1+A+r+B) / D
    from 1+A and 1+B, D = (1+A+B-r)^2 + 4r(1+A)(1+B) = (1+A+r+B)^2 + 4rAB a sum of
    non-negative terms; at B = 0, the resolvent's pi sqrt(1+A) / (1+r+A)."""
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r:g}")
    b_shift = one_b - 1.0
    gap = one_a - r + b_shift
    denom = gap * gap + 4.0 * r * one_a * one_b   # inf, not OverflowError, past the float range
    return PI * math.sqrt(one_a) * math.sqrt(one_b) * (one_a + r + b_shift) / denom, denom


def _above_tolerance(rhs: float, tolerance: float, what: str = "the closed form") -> float:
    """rhs; at or below the tolerance any lhs near it would pass, so it is degenerate."""
    if abs(rhs) <= tolerance:
        raise DegenerateConfigurationError(f"{what} {rhs:.3g} is at or below the "
                                           f"tolerance {tolerance:g}, so a pass would be vacuous")
    return rhs


def _shift_integral(a_shift: float, r: float, b_shift: float,
                    policy: EvaluationPolicy, tolerance: float) -> tuple:
    """(lhs, rhs, denominator, est) of the resolvent (B = 0) and product checks, the
    closed form guarded before quadrature: the product's B = 0 rows are the resolvent's."""
    if a_shift <= -1.0 or b_shift < 0.0:
        raise DomainError(f"shifts must satisfy A > -1 and B >= 0, got {a_shift:g}, {b_shift:g}")
    rhs, denom = _product_closed_form(1.0 + a_shift, r, 1.0 + b_shift)
    _above_tolerance(rhs, tolerance)
    est = strip_memo(a_shift, b_shift, 1.0, policy)(r)
    return est.value / TWO_PI, rhs, denom, est


@lru_cache(maxsize=8)   # cli.run clears it at start and end; cli.deal runs a key's tasks together
def strip_memo(a_shift: float, b_shift: float, c: float, policy: EvaluationPolicy):
    """at(r) -> the sech-weighted integral over (0, infinity) at r from W's strip rule, W =
    _spectral_integrand(A, B, c): at r > 0 the integrand is W cos(2cs asinh(sqrt(r))) / sqrt(1+r),
    a factor at most cosh(asinh(sqrt(r))) / sqrt(1+r) = 1 on the strip |Im s| <= 1/(2c): W's
    bound serves all r.  The estimate adds round-off, 4 eps h/sqrt(1+r) sum |W_k| (1 + 2 pi c kh):
    W_k's exponent sums terms as large as pi c kh and 2c kh ga < pi c kh, each rounded."""
    h, error, vals = strip_trapezoid_rule(*_spectral_integrand(a_shift, b_shift, c), policy)
    noise = 2.0 ** -50 * math.fsum([abs(v) * (1.0 + TWO_PI * c * k * h)
                                    for k, v in enumerate(vals)])   # 2^-50 = 4 eps

    def at(r: float) -> IntegralEstimate:   # a cosine per node; `nodes` counts the rule cold
        step, scale = 2.0 * c * h * shift_angles(r)[0], h / math.sqrt(1.0 + r)
        value = scale * math.fsum([v * math.cos(k * step) for k, v in enumerate(vals)])
        err = error + scale * noise
        return IntegralEstimate(value, err, len(vals), err <= policy.target(value))
    return at


def check_spectral_resolvent(a_shift: float, r: float,
                             policy: EvaluationPolicy = DEFAULT_POLICY,
                             tolerance: float = 1e-8) -> CheckRecord:
    """Sech-weighted spectral integral with the half-shifted factor:

        (1/2pi) int_0^inf (4pi^2/cosh(pi s)) F(1/2+-is;1/2;-r) F(+-is;1/2;-A) ds
      = pi sqrt(1+A) / (1+r+A),   A > -1, r > 0.
    """
    lhs, rhs, _, est = _shift_integral(a_shift, r, 0.0, policy, tolerance)
    return build_record("spectral_resolvent", {"A": a_shift, "r": r}, lhs, rhs, tolerance, est)


def check_spectral_product(a_shift: float, r: float, b_shift: float,
                           policy: EvaluationPolicy = DEFAULT_POLICY,
                           tolerance: float = 1e-8) -> CheckRecord:
    """Two-shift generalization of the resolvent integral:

        (1/2pi) int (4pi^2/cosh(pi s)) F(1/2+-is;1/2;-r)
                    F(+-is;1/2;-A) F(+-is;1/2;-B) ds
      = pi sqrt(1+A) sqrt(1+B) (1+A+r+B) / ((1+A+r+B)^2 + 4rAB)

    for A > -1, r > 0, B >= 0, the denominator asserted positive; B = 0 rows are the resolvent's.
    """
    lhs, rhs, denom, est = _shift_integral(a_shift, r, b_shift, policy, tolerance)
    return build_record("spectral_product", {"A": a_shift, "r": r, "B": b_shift},
                        lhs, rhs, tolerance, est, consistent=denom > 0.0,
                        metadata={"denominator": denom})


# ---------------------------------------------------------------------------
# spectral kernel factorization

def check_spectral_kernel(z: float, r: float, pair: ParameterPair,
                          policy: EvaluationPolicy = DEFAULT_POLICY,
                          tolerance: float = 1e-7) -> CheckRecord:
    """Spectral integral of the two-factor product against the doubled
    sech weight, compared with the kernel factorization:

        (1/pi) int_0^inf (4pi^2/cosh(2 pi t)) F(1/2+-2it;1/2;-r)
                         B_t(z) dt  =  i1(z) i2(r, z)

    where B_t(z), the product of the main integrand's two closed-form factors, is
    F(+-2it;1/2;-A) F(+-2it;1/2;-B) at (A, B) = kernel_shifts(z, pair), T <= z <= S,
    since asinh(sqrt(x(z))) = 2 asinh(sqrt(B(z))): the spectral product's integrand in
    t = s/2.  So i1 i2 = kernel_factors(z, r, pair) is its closed form, taken from
    1+A = (1-sqrt(z))(sqrt(z)+sqrt(T)) / (2(1-sqrt(T)) sqrt(z)) and 1+B likewise with S,
    each 1-sqrt(x) as (1-x)/(1+sqrt(x)): nothing cancels as z -> S or S -> 1.
    """
    a_shift, b_shift = kernel_shifts(z, pair)
    sz, st, ss = math.sqrt(z), pair.sqrt_T, pair.sqrt_S
    half_gap = 0.5 * (1.0 - z) / ((1.0 + sz) * sz)   # (1 - sqrt(z)) / (2 sqrt(z))
    one_a = half_gap * (sz + st) * (1.0 + st) / (1.0 - pair.T)
    one_b = half_gap * (sz + ss) * (1.0 + ss) / (1.0 - pair.S)
    rhs = _above_tolerance(_product_closed_form(one_a, r, one_b)[0], tolerance)
    est = strip_memo(a_shift, b_shift, 2.0, policy)(r)
    return build_record("spectral_kernel", {"T": pair.T, "S": pair.S, "z": z, "r": r},
                        est.value / PI, rhs, tolerance, est)


# ---------------------------------------------------------------------------
# Q integral and the partial-fraction obstruction

def _q_integrand(pair: ParameterPair, r: float):
    st, ss = pair.sqrt_T, pair.sqrt_S
    rr, m, k, e, f, g = _poly_coeffs(r, pair)
    span = ss - st

    def level(qs: tuple) -> list:   # 2 sqrt(z) i2(r, z) / (1 + sqrt(z)), sqrt(z) = sqrt(T) + q span
        return [2.0 * sz * ((m + rr * sz + z * k) / (e + f * z + g * z * z)) / (1.0 + sz)
                for sz in [st + q * span for q in qs] for z in (sz * sz,)]

    return NodeIntegrand(level)


def check_q_integral(r: float, pair: ParameterPair,
                     policy: EvaluationPolicy = DEFAULT_POLICY,
                     tolerance: float = 1e-7) -> CheckRecord:
    """Q(r): the q-substituted integral of the rational kernel over (0, 1)
    with the sqrt(q(1-q)) endpoint weight, times (1+r), against the
    closed form pi / (sqrt(1-T) sqrt(1-S) sqrt(1-sqrt(T)) sqrt(1-sqrt(S))).

    The identity holds for every r > 0.  The record also carries the
    integrated magnitude of the O(1/r) kernel defect
    (1+r) i2(r,z) - 1/(2(1-sqrt(T))(1-sqrt(S)) sqrt(z)), the quantity whose
    decay rate the large-r analysis rests on, as `kernel_defect`, with the
    engine's last level difference `kernel_defect_error` (not a bound: the
    kink slows the levels).  The defect goes through the same engine as Q, to
    relative accuracy DEFECT_REL_TOL, on Q's levels and level values (memoized
    per node tuple); it does not decide the record's status, and `nodes`
    counts both integrals as if each were computed cold.
    """
    h_level, seen = _q_integrand(pair, r).level, {}   # raises DomainError for r <= 0
    h = NodeIntegrand(lambda qs: seen.get(qs) or seen.setdefault(qs, h_level(qs)))
    est = integrate_chebyshev_weighted(h, 0.0, 1.0, policy)
    lhs, rhs = (1.0 + r) * est.value, pair.q_closed_form()
    st, span = pair.sqrt_T, pair.sqrt_S - pair.sqrt_T
    base = 1.0 / ((1.0 - st) * (1.0 - pair.sqrt_S))

    def defect(qs: tuple) -> list:
        # 2 sqrt(z) |(1+r) i2 - base / (2 sqrt(z))| / (1 + sqrt(z))
        return [abs((1.0 + r) * v - base / (1.0 + st + q * span)) for q, v in zip(qs, h.level(qs))]

    # |defect| has an interior kink, so the levels converge only
    # algebraically; three digits are more than the rate comparison needs
    defect_est = integrate_chebyshev_weighted(
        NodeIntegrand(defect), 0.0, 1.0, policy.replace(rel_tol=DEFECT_REL_TOL))

    return build_record("q_integral", {"T": pair.T, "S": pair.S, "r": r}, lhs, rhs, tolerance,
                        est.replace(nodes_used=est.nodes_used + defect_est.nodes_used),
                        metadata={"kernel_defect": defect_est.value.real,
                                  "kernel_defect_error": defect_est.error_estimate})


PF_TOLERANCE = 1e-9         # largest partial-fraction residual quadratic_family accepts
INTEGER_TOLERANCE = 1e-6    # how far n_r may sit from an integer in the obstruction check
LARGE_R = 10.0              # from this r on, n_r must be an integer
STRICT_R = 50.0             # from this r on, n_r must be 0


class QuadraticFamily(FrozenValue):
    """All r-dependent algebra of the rational kernel at one r.

    E + F z + G z^2 = E (1 - alpha1 z)(1 - alpha2 z); sqrt_alpha1/2 are the
    fixed (principal) square-root choices used consistently in the
    partial-fraction coefficients a..e and the four closed-form integral
    terms D1..D4.  pf_residual is the worst relative mismatch between the
    rational kernel and its partial-fraction expansion at five interior
    sample points.  r, R, E, F, G and pf_residual are floats, the rest complex.
    """

    __slots__ = ("r", "R", "E", "F", "G", "alpha1", "alpha2", "sqrt_alpha1", "sqrt_alpha2",
                 "a", "b", "c", "d", "e", "D1", "D2", "D3", "D4", "pf_residual")

    def __init__(self, r, R, E, F, G, alpha1, alpha2, sqrt_alpha1, sqrt_alpha2,
                 a, b, c, d, e, D1, D2, D3, D4, pf_residual):
        fields = locals()   # the parameters by name; a run builds at most 48 families
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])


def quadratic_family(r: float, pair: ParameterPair) -> QuadraticFamily:
    """Solve the kernel quadratic, build the partial-fraction coefficients
    and the four closed-form integral terms.

    Roots 1/alpha1, 1/alpha2 are ordered by (real, imaginary) part, making
    the construction deterministic; sqrt(alpha_i) is the principal branch.
    A double root, a root at z = 0 or z = 1, or a partial-fraction
    residual above PF_TOLERANCE raises DegenerateConfigurationError.
    """
    st, ss = pair.sqrt_T, pair.sqrt_S
    rr, m, k, e_c, f_c, g_c = _poly_coeffs(r, pair)

    disc = f_c * f_c - 4.0 * e_c * g_c
    scale = max(f_c * f_c, abs(4.0 * e_c * g_c))
    if abs(disc) <= 1e-12 * scale:
        raise DegenerateConfigurationError(
            f"kernel quadratic has a (near-)double root at r = {r:g} "
            f"(relative discriminant {abs(disc) / scale:.2e})")
    sum_efg = e_c + f_c + g_c
    if e_c <= 0.0 or abs(sum_efg) <= 1e-12 * (abs(e_c) + abs(f_c) + abs(g_c)):
        raise DegenerateConfigurationError(
            f"kernel quadratic has a root at z = 0 or z = 1 at r = {r:g}")

    # roots of E + F z + G z^2 via the stable Vieta split
    sq = cmath.sqrt(complex(disc))
    if (f_c.conjugate() * sq).real >= 0.0:
        qq = -0.5 * (f_c + sq)
    else:
        qq = -0.5 * (f_c - sq)
    z_roots = sorted([qq / g_c, e_c / qq], key=lambda w: (w.real, w.imag))
    alpha1, alpha2 = 1.0 / z_roots[0], 1.0 / z_roots[1]
    sqa1, sqa2 = cmath.sqrt(alpha1), cmath.sqrt(alpha2)
    y1, y2 = 1.0 / sqa1, 1.0 / sqa2

    def one_plus_shifts(y: complex) -> complex:
        # 1 + A + r + B continued to complex sqrt(z) = y
        a_s = (1.0 + y) * (st - y) / (2.0 * (1.0 - st) * y)
        b_s = (1.0 + y) * (ss - y) / (2.0 * (1.0 - ss) * y)
        return 1.0 + a_s + r + b_s

    pref = (1.0 - st) * (1.0 - ss)
    a_co = -(m - rr + k) / sum_efg
    b_co = pref * one_plus_shifts(y1) / ((alpha1 - alpha2) * (1.0 + y1) * e_c)
    c_co = pref * one_plus_shifts(-y1) / ((alpha1 - alpha2) * (1.0 - y1) * e_c)
    d_co = pref * one_plus_shifts(y2) / ((alpha2 - alpha1) * (1.0 + y2) * e_c)
    e_co = pref * one_plus_shifts(-y2) / ((alpha2 - alpha1) * (1.0 - y2) * e_c)

    # worst relative mismatch of kernel vs expansion at 5 interior points
    worst = 0.0
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        y = st + frac * (ss - st)
        z = y * y
        ref = y * (m + rr * y + k * z) / ((1.0 + y) * (e_c + f_c * z + g_c * z * z))
        got = (a_co / (1.0 + y) + b_co / (1.0 - sqa1 * y) + c_co / (1.0 + sqa1 * y)
               + d_co / (1.0 - sqa2 * y) + e_co / (1.0 + sqa2 * y))
        worst = max(worst, abs(got - ref) / abs(ref))
    if worst > PF_TOLERANCE:
        raise DegenerateConfigurationError(
            f"partial-fraction expansion lost accuracy at r = {r:g} "
            f"(relative residual {worst:.2e}); roots too close")

    def closed_term(coeff: complex, u: complex) -> complex:
        # 2 (1+r) * coeff * pi/(1 - u sqrt(T)) * ((1-u sqrt(S))/(1-u sqrt(T)))^(-1/2)
        base = (1.0 - u * ss) / (1.0 - u * st)
        return 2.0 * (1.0 + r) * coeff * PI / (1.0 - u * st) * base ** -0.5

    d1 = closed_term(b_co, sqa1)
    d2 = closed_term(c_co, -sqa1)
    d3 = closed_term(d_co, sqa2)
    d4 = closed_term(e_co, -sqa2)

    return QuadraticFamily(r=r, R=rr, E=e_c, F=f_c, G=g_c, alpha1=alpha1, alpha2=alpha2,
                           sqrt_alpha1=sqa1, sqrt_alpha2=sqa2, a=a_co, b=b_co, c=c_co, d=d_co,
                           e=e_co, D1=d1, D2=d2, D3=d3, D4=d4, pf_residual=worst)


def check_obstruction_integer(r: float, pair: ParameterPair,
                              policy: EvaluationPolicy = DEFAULT_POLICY,
                              tolerance: float = 1e-8) -> CheckRecord:
    """Partial-fraction route: Q(r) minus its closed form must equal the
    sum D1+D2+D3+D4 of the four closed-form terms, each of which squares
    to the same value

        -4 pi^2 (1-sqrt(T))(1-sqrt(S)) r (1+r)^2 / ((alpha1-alpha2)^2 E^2),

    so the difference is an integer multiple n_r in [-4, 4] of a known
    transcendental factor.  The record asserts the sum identity and the
    equality of the |D_i| always, integrality of n_r (within
    INTEGER_TOLERANCE) for r >= LARGE_R, and n_r = 0 for r >= STRICT_R.
    """
    fam = quadratic_family(r, pair)
    tight = policy.replace(abs_tol=min(policy.abs_tol, 1e-12),
                           rel_tol=min(policy.rel_tol, 1e-12))
    est = integrate_chebyshev_weighted(_q_integrand(pair, r), 0.0, 1.0, tight)
    q_val, closed = (1.0 + r) * est.value, pair.q_closed_form()
    residual = q_val - closed

    d_terms = (fam.D1, fam.D2, fam.D3, fam.D4)
    d_sum = fam.D1 + fam.D2 + fam.D3 + fam.D4
    d_abs = [abs(d) for d in d_terms]
    spread = (max(d_abs) - min(d_abs)) / max(d_abs)
    sq_closed = (-4.0 * PI * PI * (1.0 - pair.sqrt_T) * (1.0 - pair.sqrt_S)
                 * r * (1.0 + r) ** 2
                 / ((fam.alpha1 - fam.alpha2) ** 2 * fam.E ** 2))
    sq_resid = max(abs(d * d - sq_closed) for d in d_terms) / abs(sq_closed)

    factor = (2j * PI * math.sqrt((1.0 - pair.sqrt_T) * (1.0 - pair.sqrt_S))
              * math.sqrt(r) * (1.0 + r)
              / cmath.sqrt(complex(fam.F * fam.F - 4.0 * fam.E * fam.G)))
    n_r = residual / factor
    n_int = max(-4, min(4, round(n_r.real)))
    n_dist = abs(n_r - n_int)

    ok = spread <= 1e-9 and sq_resid <= 1e-8
    if r >= LARGE_R:
        ok = ok and n_dist <= INTEGER_TOLERANCE
    if r >= STRICT_R:
        ok = ok and n_int == 0 and abs(n_r) <= INTEGER_TOLERANCE

    return build_record(
        "obstruction", {"T": pair.T, "S": pair.S, "r": r}, d_sum, residual, tolerance, est,
        consistent=ok, metadata={"n_r": n_r, "n_int": n_int, "n_dist": n_dist,
                                 "d_abs_spread": spread, "d_square_residual": sq_resid,
                                 "q_value": q_val, "q_closed_form": closed,
                                 "pf_residual": fam.pf_residual})


# ---------------------------------------------------------------------------
# weighted residual of the main identity

# the weighted residual's own policies, whatever the grid's: outer over t, inner over z
WR_OUTER_POLICY = EvaluationPolicy(abs_tol=1e-8, rel_tol=1e-8, max_nodes=20000)
WR_INNER_POLICY = EvaluationPolicy(abs_tol=2e-10, rel_tol=1e-9, max_nodes=60000)
WR_TAIL = 1e-3 * WR_OUTER_POLICY.abs_tol   # bound on the truncated tail, per unit of C
# where |w(t)| <= 8 pi^2 exp(-2 pi t) / sqrt(1+r) leaves it for every r: about 4.434
WR_T_MAX = math.log(2.0 * TWO_PI / WR_TAIL) / TWO_PI


@lru_cache(maxsize=1)   # tasks arrive pair by pair; cli.run clears it at its start and end
def wr_inner_memo(pair: ParameterPair) -> tuple:
    """The pair's main kernel, whose node geometry its main_identity and weighted_residual
    records share, and a dict t -> (inner integral M(t), sech weight W(t)) that its
    weighted_residual records share: neither, nor M's policy, depends on r."""
    return _main_kernel(pair), {}


class _InnerUnconverged(Exception):   # raised through the outer rule by a failed M(t)
    pass


def check_weighted_residual(r: float, pair: ParameterPair,
                            tolerance: float = 1e-6) -> CheckRecord:
    """Smoke-level consistency check: the doubled-sech-weighted spectral
    average of (main integral M(t)) minus (its closed form C) over t in
    (0, inf) must vanish.

    The weight w(t) and w(t) (M(t) - C) are even in t and analytic for |Im t| < 1/4, so
    quadrature.nested_trapezoid takes both on (0, WR_T_MAX) as one integrand, w + i w (M - C),
    whose parts are summed apart; one stop test bounds the pair's level difference, so the
    weight fixes the step even where the residual is round-off.  M(t) is an inner Chebyshev
    integral, its tolerance relaxed by cosh(2 pi t), as the weight crushes its noise at large t.
    The nodes do not depend on r, so each M(t) is integrated once per pair (wr_inner_memo);
    `nodes` still counts every outer and inner evaluation the value rests on, as if computed
    cold.  C times the tail bound (|M - C| <= C) joins the error.  `unit_residual` is the unit
    integral's distance from pi^2/(1+r).  A level's inner integrals run in ascending t, and the
    first that fails to converge stops the record: unconverged, without a value, its `reason`
    naming that t.  A scale C pi/(1+r) at or below the tolerance makes a point degenerate.
    """
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r:g}")
    rhs_const = pair.main_closed_form()
    _above_tolerance(rhs_const * PI / (1.0 + r), tolerance,
                     "the weighted residual's scale C pi/(1+r) =")
    main_at, inner_at = wr_inner_memo(pair)
    sech_w = _spectral_integrand(0.0, 0.0, 2.0)[0]
    lr, inv_sqrt_1pr = shift_angles(r)[0], 1.0 / math.sqrt(1.0 + r)
    spent = [0, 0]   # outer nodes, inner evaluations

    def packed(ts: tuple) -> list:   # w(t) + i w(t) (M(t) - C) over a level of the outer rule
        fresh = [t for t in ts if t not in inner_at]
        weights = dict(zip(fresh, sech_w.level(tuple(fresh))))
        for t in sorted(ts):   # so the first inner integral that fails has the smallest t
            memo = inner_at.get(t)
            if memo is None:
                tol = min(WR_INNER_POLICY.abs_tol * math.cosh(min(TWO_PI * t, 700.0)), 1e6)
                memo = inner_at[t] = (integrate_chebyshev_weighted(main_at(t), pair.T, pair.S,
                                      EvaluationPolicy(tol, WR_INNER_POLICY.rel_tol,
                                                       WR_INNER_POLICY.max_nodes)), weights[t])
            est = memo[0]
            spent[0] += 1
            spent[1] += est.nodes_used
            if not est.converged:   # memoized, so the pair's other r values stop here too
                raise _InnerUnconverged(f"the inner integral M(t) at t = {t:.6g} did not converge "
                                        f"in {est.nodes_used} evaluations, so the outer rule "
                                        f"stopped at its node {spent[0]}")
        out = []
        for t in ts:   # in the level's order, T16's ends first
            est, sech_t = inner_at[t]
            w = sech_t * math.cos(4.0 * t * lr) * inv_sqrt_1pr
            out.append(complex(w, w * (est.value.real - rhs_const)))
        return out

    params = {"T": pair.T, "S": pair.S, "r": r}
    try:
        est = nested_trapezoid(NodeIntegrand(packed), (0.0, WR_T_MAX),
                               lambda n: tuple([(k + 0.5) * (WR_T_MAX / n) for k in range(n)]),
                               WR_T_MAX, WR_TAIL * rhs_const, WR_OUTER_POLICY)
    except _InnerUnconverged as exc:
        return skipped_record("weighted_residual", params, str(exc), tolerance,
                              {"inner_unconverged": 1, "nodes": sum(spent)}, UNCONVERGED)
    return build_record("weighted_residual", params, est.value.imag / PI, 0.0, tolerance,
                        est.replace(nodes_used=sum(spent)),
                        metadata={"inner_unconverged": 0,
                                  "unit_residual": abs(est.value.real / PI - PI / (1.0 + r))})
