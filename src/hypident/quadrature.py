"""Quadrature engines, and the EvaluationPolicy they take.

Three rules cover every integral in the suite:

* a Gauss-Chebyshev rule for finite intervals whose integrand carries an
  implicit 1/sqrt((z-lo)(hi-z)) endpoint weight,
* a truncated, adaptively refined panel rule for semi-infinite integrands
  with a known exponential decay rate, and
* a nested trapezoid rule for integrands even in t, on (0, t_max).

Every node sum is math.fsum's correctly rounded one, so results depend on
neither summation order nor interpreter; only the trapezoid rule calls
its integrand at the interval's ends, where an even one is smooth.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache, reduce
from operator import add, attrgetter, mul

from .errors import DomainError, FrozenValue, Value

__all__ = [
    "EvaluationPolicy",
    "DEFAULT_POLICY",
    "IntegralEstimate",
    "chebyshev_rule",
    "integrate_chebyshev_weighted",
    "gauss_kronrod_panel",
    "integrate_decaying_halfline",
    "integrate_even_trapezoid",
]

COARSE_GUARD = 1e-3   # n = 32 needs |M32 - M16|, and a truncated tail, this far inside the target
TAIL_MARGIN = 2.0     # added to the half-line truncation point s_max, in units of s


class EvaluationPolicy(FrozenValue):
    """Accuracy targets and a node cap for numerical evaluation.

    abs_tol / rel_tol are the convergence targets; an estimate is accepted
    once its error indicator drops below max(abs_tol, rel_tol * |value|).
    max_nodes caps the total number of integrand evaluations in one
    quadrature call.  Immutable and hashable: run memos take it as a key.
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
    vals = list(map(f, _chebyshev_nodes(lo, hi, n)))
    return (math.pi / n) * _fsum(vals)


def integrate_chebyshev_weighted(f, lo: float, hi: float,
                                 policy: EvaluationPolicy = DEFAULT_POLICY,
                                 ) -> IntegralEstimate:
    """Adaptive node-doubling wrapper around chebyshev_rule.

    The weight 1/sqrt((z-lo)(hi-z)) must NOT be included in f.  Node count
    doubles from 16 until two successive estimates differ by at most
    max(abs_tol, rel_tol * |estimate|), or COARSE_GUARD times that at n = 32,
    where two coarse levels could agree by accident; that difference is the
    error estimate.  Running out of the max_nodes budget yields a flagged,
    unconverged estimate rather than an exception.
    """
    n = 16
    prev = chebyshev_rule(f, lo, hi, n)
    used = n
    diff = math.inf
    while used + 2 * n <= policy.max_nodes:
        n *= 2
        cur = chebyshev_rule(f, lo, hi, n)
        used += n
        diff = abs(cur - prev)
        if diff <= policy.target(cur) * (COARSE_GUARD if n == 32 else 1.0):
            return IntegralEstimate(cur, diff, used, True)
        prev = cur
    return IntegralEstimate(prev, diff, used, False)


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
    shrink raise a domain error naming the offending envelope.
    """
    if decay_rate <= 0.0:
        raise DomainError(f"decay_rate must be positive, got {decay_rate:g}")

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


def integrate_even_trapezoid(f, t_max: float, tail: float,
                             policy: EvaluationPolicy = DEFAULT_POLICY) -> list[IntegralEstimate]:
    """Nested trapezoid rule on (0, t_max) for integrands even in t: f(t) holds
    several integrands' values at t, and each gets an estimate.

    The step halves from t_max/16, T(h/2) = T(h)/2 + (h/2) sum f(new nodes), so
    no node is evaluated twice.  An error estimate is the last level difference
    plus `tail`, a bound on the integral beyond t_max; all must meet their
    targets within max_nodes, else all come back flagged unconverged.
    """
    n, h = 16, t_max / 16
    first = [f(k * h) for k in range(n + 1)]
    sums = [h * (0.5 * (a + b) + _fsum(col)) for a, b, col in
            zip(first[0], first[n], zip(*first[1:n]))]
    used, errs = n + 1, [math.inf] * len(sums)
    while used + n <= policy.max_nodes:
        h *= 0.5
        new = [f((2 * k + 1) * h) for k in range(n)]
        used += n
        n *= 2
        cur = [0.5 * s + h * _fsum(col) for s, col in zip(sums, zip(*new))]
        errs = [abs(c - s) + tail for c, s in zip(cur, sums)]
        sums = cur
        if all(e <= policy.target(c) for e, c in zip(errs, cur)):
            return [IntegralEstimate(c, e, used, True) for c, e in zip(cur, errs)]
    return [IntegralEstimate(s, e, used, False) for s, e in zip(sums, errs)]
