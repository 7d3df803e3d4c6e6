"""Quadrature engines, and the EvaluationPolicy they take.

Two rules cover every integral in the suite:

* nested trapezoid levels: the Chebyshev (theta-trapezoid) levels for finite intervals whose
  integrand carries an implicit 1/sqrt((z-lo)(hi-z)) weight, and even integrands on (0, t_max),
* a trapezoid rule on (0, infinity) for integrands even and analytic in a
  strip about the real line, its step and length fixed by a bound derived
  before any evaluation: every half-line integral, the gamma-weighted ones included.

A third, a truncated, adaptively refined Gauss-Kronrod panel rule for semi-infinite
integrands with a known exponential decay rate (integrate_decaying_halfline, on
gauss_kronrod_panel), serves no check; hybench/kernels.py still times both by name.

Every node sum is math.fsum's correctly rounded one, so results depend on
neither summation order nor interpreter.  Only chebyshev_rule and the Gauss-Kronrod
panels keep to interior nodes: both trapezoid rules call their integrand at the ends
of their interval (at lo and hi on the Chebyshev levels, at s = 0 on a half-line).

An integrand is a callable z -> value, or a NodeIntegrand, which evaluates a
whole level of a trapezoid rule in one call; the two give the same values,
so the choice costs time, never bits.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache, partial, reduce
from operator import add, attrgetter, mul

from .errors import DomainError, FrozenValue, NodeBudgetError, Value

__all__ = [
    "EvaluationPolicy",
    "DEFAULT_POLICY",
    "IntegralEstimate",
    "NodeIntegrand",
    "chebyshev_rule",
    "nested_trapezoid",
    "integrate_chebyshev_weighted",
    "gauss_kronrod_panel",
    "integrate_decaying_halfline",
    "strip_trapezoid_rule",
]

COARSE_GUARD = 1e-3   # |T32 - T16|, a cut tail, a strip bound: this far inside the target
TAIL_MARGIN = 2.0     # added to the half-line truncation point s_max, in units of s
STRIP_SCAN = 16       # strip half-widths tried for the a-priori trapezoid step: k/16 of the strip


class EvaluationPolicy(FrozenValue):
    """Accuracy targets and a node cap for numerical evaluation.

    abs_tol / rel_tol are the convergence targets; an estimate is accepted
    once its error indicator drops below max(abs_tol, rel_tol * |value|).
    max_nodes caps the total number of integrand evaluations in one quadrature call; a rule
    whose fixed first pass needs more evaluates nothing, raising NodeBudgetError.  Immutable
    and hashable: run memos take it as a key.
    """

    __slots__ = ("abs_tol", "rel_tol", "max_nodes")

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-9, max_nodes: int = 60000):
        if not (abs_tol > 0.0 and rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if max_nodes < 8:
            raise ValueError("max_nodes must be at least 8")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "max_nodes", max_nodes)

    def target(self, scale: complex) -> float:
        """Accuracy target for a quantity of the given magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_POLICY = EvaluationPolicy()


class IntegralEstimate(Value):
    """Value, absolute error estimate, evaluation count, convergence flag."""

    __slots__ = ("value", "error_estimate", "nodes_used", "converged")

    def __init__(self, value: complex, error_estimate: float, nodes_used: int, converged: bool):
        self.value, self.error_estimate = value, error_estimate
        self.nodes_used, self.converged = nodes_used, converged


class NodeIntegrand:
    """An integrand written a rule level at a time: level(nodes) -> a list of its values at a
    tuple of nodes.  Called with one z it returns level((z,))[0], so a wrapper that maps it
    node by node sees the values the engines take from level."""

    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level

    def __call__(self, z):
        return self.level((z,))[0]


def _values(f, nodes: tuple) -> list:   # f at nodes: one level call, or a call per node
    return f.level(nodes) if isinstance(f, NodeIntegrand) else list(map(f, nodes))


def _fsum(values: list | tuple) -> complex:
    """Correctly rounded sum of int, float or complex values, complex ones by
    their real and imaginary parts.  +inf with -inf raises OverflowError."""
    try:
        try:
            return complex(math.fsum(values))
        except TypeError:   # complex values
            return complex(math.fsum(map(attrgetter("real"), values)),
                           math.fsum(map(attrgetter("imag"), values)))
    except ValueError as exc:   # fsum's "-inf + inf"
        raise OverflowError(exc) from None


@lru_cache(maxsize=64)   # checks revisit the same few levels hundreds of times
def _chebyshev_nodes(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if n < 1 or not lo < hi:
        raise DomainError(f"Chebyshev rule needs n >= 1 and lo < hi, got {n}, ({lo:g}, {hi:g})")
    width = hi - lo
    step = math.pi / n
    return tuple(lo + width * (0.5 + 0.5 * math.cos((k + 0.5) * step))
                 for k in range(n))


def chebyshev_rule(f, lo: float, hi: float, n: int) -> complex:
    """n-point Gauss-Chebyshev approximation of
    integral_lo^hi f(z) / sqrt((z-lo)(hi-z)) dz.

    The substitution z = lo + (hi-lo)(1+cos(theta))/2 absorbs the weight
    exactly and reduces the integral to an equally weighted midpoint rule
    in theta over (0, pi); all nodes are strictly interior.  Raises
    DomainError unless n >= 1 and lo < hi.
    """
    vals = _values(f, _chebyshev_nodes(lo, hi, n))   # raises before dividing by n
    return (math.pi / n) * _fsum(vals)


def nested_trapezoid(f, ends: tuple, midpoints, width: float, tail: float,
                     policy: EvaluationPolicy = DEFAULT_POLICY) -> IntegralEstimate:
    """Nested trapezoid levels Tn on an interval of the given width, with end nodes `ends` and
    the n panel midpoints midpoints(n): no node is evaluated twice.

    T16 takes f at the ends and at midpoints(1), (2), (4) and (8) in one call; then T2n =
    (Tn + Mn)/2, Mn = (width/n) sum f(midpoints(n)) (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385, sec. 2), so a stop at Tn costs n + 1 evaluations.  It stops once the error
    estimate |Tn - T(n/2)| + tail (`tail` bounds what lies beyond the ends) is at most
    max(abs_tol, rel_tol |Tn|), or COARSE_GUARD times that at T32, where two coarse levels
    could agree by accident.  A max_nodes below T16's 17 raises NodeBudgetError, evaluating
    nothing; running out later yields a flagged, unconverged estimate, not an exception.
    """
    if policy.max_nodes < 17:
        raise NodeBudgetError(f"the nested trapezoid rule needs 17 nodes, more than "
                              f"max_nodes = {policy.max_nodes}")
    vals = _values(f, ends + midpoints(1) + midpoints(2) + midpoints(4) + midpoints(8))
    prev = (width / 16) * _fsum([0.5 * vals[0], 0.5 * vals[1], *vals[2:]])
    n, used, diff = 16, 17, math.inf
    while used + n <= policy.max_nodes:
        cur = 0.5 * (prev + (width / n) * _fsum(_values(f, midpoints(n))))
        used += n
        n *= 2
        diff = abs(cur - prev) + tail
        if diff <= policy.target(cur) * (COARSE_GUARD if n == 32 else 1.0):
            return IntegralEstimate(cur, diff, used, True)
        prev = cur
    return IntegralEstimate(prev, diff, used, False)


def integrate_chebyshev_weighted(f, lo: float, hi: float,
                                 policy: EvaluationPolicy = DEFAULT_POLICY) -> IntegralEstimate:
    """chebyshev_rule's integral by nested_trapezoid in theta on (0, pi), its ends lo and hi, no
    tail; f must NOT include the weight 1/sqrt((z-lo)(hi-z)) and must be finite at lo and hi."""
    return nested_trapezoid(f, (lo, hi), partial(_chebyshev_nodes, lo, hi), math.pi, 0.0, policy)


# Gauss-Kronrod 7-15 pair on [-1, 1]; Kronrod nodes are strictly interior.
_K15_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
)
_K15_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
)
# Embedded 7-point Gauss rule lives on the odd Kronrod nodes 1, 3, ..., 13.
_G7_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def gauss_kronrod_panel(g, a: float, b: float) -> tuple[complex, float]:
    """15-point Kronrod value and |K15 - G7| error indicator on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = [g(mid + half * x) for x in _K15_NODES]
    try:   # _fsum on real values, without its list copies
        k15 = half * complex(math.fsum(map(mul, _K15_WEIGHTS, vals)))
        g7 = half * complex(math.fsum(map(mul, _G7_WEIGHTS, vals[1::2])))
    except (TypeError, ValueError):   # complex values, or fsum's "-inf + inf"
        k15 = half * _fsum(list(map(mul, _K15_WEIGHTS, vals)))
        g7 = half * _fsum(list(map(mul, _G7_WEIGHTS, vals[1::2])))
    return k15, abs(k15 - g7)


def integrate_decaying_halfline(g, decay_rate: float,
                                policy: EvaluationPolicy = DEFAULT_POLICY,
                                ) -> IntegralEstimate:
    """Integrate g over (0, infinity) assuming |g(s)| <= C exp(-decay_rate s).

    The envelope constant C is estimated from 8 logarithmically spaced
    samples; the integral is truncated at
    s_max = log(C/abs_tol)/decay_rate + TAIL_MARGIN and the analytic tail bound
    is folded into the error estimate.  The finite part is handled by
    adaptive bisection of Gauss-Kronrod panels, always splitting the panel
    with the largest error indicator.  Sampled magnitudes that fail to
    shrink raise a domain error naming the offending envelope.  A max_nodes
    below the first pass's 128 nodes raises NodeBudgetError, evaluating nothing.
    """
    if decay_rate <= 0.0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate:g}")
    if policy.max_nodes < 128:   # the 8 samples and 8 panels of the first pass
        raise NodeBudgetError(f"the half-line rule needs 128 nodes, more than "
                              f"max_nodes = {policy.max_nodes}")

    horizon = max(math.log(1.0 / policy.abs_tol), 1.0) / decay_rate
    samples = [horizon * 0.5 ** j for j in range(8)]  # horizon .. horizon/128
    mags = [abs(complex(g(s))) for s in samples]
    used = len(samples)

    # At the claimed rate the magnitude at s = horizon sits many orders of
    # magnitude below any interior peak (polynomial dressing of the envelope
    # cannot compensate exp(-decay*horizon)); percent-level magnitude out
    # there means the stated rate is wrong.
    peak = max(mags)
    tail_mag = mags[0]   # the largest sampled s
    if tail_mag > 0.02 * peak and tail_mag > policy.abs_tol:
        raise DomainError(
            "integrand does not decay at the stated rate "
            f"{decay_rate:g}: sampled envelope peaks at {peak:.3e} but |g| "
            f"is still {tail_mag:.3e} at s = {samples[0]:.3g}")

    envelope = max(m * math.exp(min(decay_rate * s, 700.0))
                   for m, s in zip(mags, samples))
    if envelope == 0.0:
        return IntegralEstimate(complex(0.0), 0.0, used, True)

    s_max = max(TAIL_MARGIN, math.log(envelope / policy.abs_tol) / decay_rate + TAIL_MARGIN)
    tail = envelope * math.exp(-decay_rate * s_max) / decay_rate

    heap = []  # entries: (-err, left, right, value); summed in panel order, then heapified
    for i in range(8):
        a, b = s_max * i / 8, s_max * (i + 1) / 8
        val, err = gauss_kronrod_panel(g, a, b)
        heap.append((-err, a, b, val))
        used += 15
    running = reduce(add, (p[3] for p in heap), 0.0)
    err_total = reduce(add, (-p[0] for p in heap), 0.0)
    heapq.heapify(heap)

    while err_total + tail > policy.target(running) and used + 30 <= policy.max_nodes:
        neg_err, a, b, val = heapq.heappop(heap)
        if -neg_err <= 0.0:
            heapq.heappush(heap, (neg_err, a, b, val))
            break
        mid = 0.5 * (a + b)
        lval, lerr = gauss_kronrod_panel(g, a, mid)
        rval, rerr = gauss_kronrod_panel(g, mid, b)
        used += 30
        running += (lval + rval) - val
        err_total += (lerr + rerr) - (-neg_err)
        heapq.heappush(heap, (-lerr, a, mid, lval))
        heapq.heappush(heap, (-rerr, mid, b, rval))

    value = _fsum([p[3] for p in heap])
    err_total = math.fsum(-p[0] for p in heap) + tail
    return IntegralEstimate(value, err_total, used, err_total <= policy.target(value))


def strip_trapezoid_rule(g, strip: float, bound, envelope: float, rate: float,
                         policy: EvaluationPolicy = DEFAULT_POLICY) -> tuple[float, float, list]:
    """(h, error, [g(0)/2, g(h), ..., g(nh)]): the trapezoid rule on (0, infinity) for g even
    and analytic in |Im s| < strip, with bound(d) >= the integral over the real line of
    |g(x + iy)| for every |y| <= d < strip, and |g(s)| <= envelope exp(-rate s).

    The rule errs by at most bound(d) / (exp(2 pi d / h) - 1), half the real-line trapezoid
    bound (Trefethen & Weideman, SIAM Rev. 56 (2014) 385, Thm 5.1), plus envelope
    exp(-rate n h) / rate for the cut tail.  h (the largest over d = k/STRIP_SCAN of the
    strip) and n aim each part at half of COARSE_GUARD * abs_tol before g is called, and the
    two parts at the chosen h and n are the error.  A rule of more than max_nodes nodes
    evaluates nothing: it raises NodeBudgetError naming the count.
    """
    if not (strip > 0.0 and rate > 0.0):
        raise DomainError(f"strip and rate must be positive, got {strip:g}, {rate:g}")
    aim = 0.5 * COARSE_GUARD * policy.abs_tol
    h, d = max((math.tau * d / math.log1p(bound(d) / aim), d)
               for d in (strip * k / STRIP_SCAN for k in range(1, STRIP_SCAN)))
    n = max(1, math.ceil(math.log(envelope / (rate * aim)) / (rate * h)))
    if n + 1 > policy.max_nodes:
        raise NodeBudgetError(f"the a-priori trapezoid rule needs {n + 1} nodes, more than "
                              f"max_nodes = {policy.max_nodes}")
    error = bound(d) / math.expm1(math.tau * d / h) + envelope * math.exp(-rate * n * h) / rate
    vals = _values(g, tuple([k * h for k in range(n + 1)]))
    vals[0] *= 0.5
    return h, error, vals
