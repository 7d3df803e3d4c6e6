"""Tests for the three quadrature engines."""

import cmath
import math
import random
from fractions import Fraction
from functools import partial
from operator import mul

import mpmath
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypident as hy
from hypident import DomainError, NodeBudgetError, identity_suite, quadrature

POLICY = hy.DEFAULT_POLICY


class TestChebyshevWeighted:
    def test_arcsine_integral(self):
        # f == 1: the weight alone integrates to pi on any interval
        est = hy.integrate_chebyshev_weighted(lambda z: 1.0, 0.0, 1.0, POLICY)
        assert est.converged
        assert abs(est.value - math.pi) < 1e-12

    def test_shifted_interval_weight(self):
        est = hy.integrate_chebyshev_weighted(lambda z: 1.0, 0.3, 0.45, POLICY)
        assert abs(est.value - math.pi) < 1e-12

    def test_reciprocal_pole_outside(self):
        # f(z) = 1/(1-z) over (T, S): closed form pi / sqrt((1-T)(1-S))
        t_v, s_v = 0.25, 0.5
        est = hy.integrate_chebyshev_weighted(lambda z: 1.0 / (1.0 - z), t_v, s_v, POLICY)
        expected = math.pi / math.sqrt((1.0 - t_v) * (1.0 - s_v))
        assert abs(est.value - expected) <= 1e-11 * expected
        assert abs(expected - math.pi / math.sqrt(3.0 / 8.0)) < 1e-15

    def test_linear_denominator_closed_form(self):
        # f(q) = 1/(1 + sqrt(T) + q (sqrt(S)-sqrt(T))) over (0,1) equals
        # pi sqrt(1-sqrt(T)) sqrt(1-sqrt(S)) / (sqrt(1-T) sqrt(1-S))
        for (t_v, s_v) in ((0.25, 0.5), (0.1, 0.9), (0.4, 0.45)):
            st_, ss = math.sqrt(t_v), math.sqrt(s_v)
            est = hy.integrate_chebyshev_weighted(
                lambda q: 1.0 / (1.0 + st_ + q * (ss - st_)), 0.0, 1.0, POLICY)
            expected = (math.pi * math.sqrt(1.0 - st_) * math.sqrt(1.0 - ss)
                        / (math.sqrt(1.0 - t_v) * math.sqrt(1.0 - s_v)))
            assert abs(est.value - expected) <= 1e-12 * expected

    def test_doubling_convergence_geometric(self):
        # successive rule differences shrink at least 2x per doubling until
        # they hit the roundoff floor
        cases = [
            (lambda z: 1.0, 0.0, 1.0),
            (lambda z: 1.0 / (1.0 - z), 0.25, 0.5),
            (lambda z: 1.0 / (1.5 + z), 0.0, 1.0),
            (lambda z: 1.0 / (1.0 - z), 0.01, 0.99),  # visibly slow variant
        ]
        for f, lo, hi in cases:
            estimates = [hy.chebyshev_rule(f, lo, hi, 2 ** k) for k in range(4, 11)]
            scale = abs(estimates[-1])
            diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
            for d_prev, d_next in zip(diffs, diffs[1:]):
                assert d_next <= max(0.5 * d_prev, 5e-15 * scale)

    def test_linearity_of_rule_machine_precision(self):
        f1 = lambda z: math.cos(3.0 * z)
        f2 = lambda z: 1.0 / (2.0 - z)
        a, b = 2.75, -1.25
        combo = hy.chebyshev_rule(lambda z: a * f1(z) + b * f2(z), 0.0, 1.0, 256)
        parts = a * hy.chebyshev_rule(f1, 0.0, 1.0, 256) + b * hy.chebyshev_rule(f2, 0.0, 1.0, 256)
        assert abs(combo - parts) <= 1e-14 * max(1.0, abs(parts))

    def test_engine_linearity_within_error_budget(self):
        f1 = lambda z: math.exp(z)
        f2 = lambda z: z * z
        a, b = 1.5, -0.5
        e1 = hy.integrate_chebyshev_weighted(f1, 0.0, 1.0, POLICY)
        e2 = hy.integrate_chebyshev_weighted(f2, 0.0, 1.0, POLICY)
        ec = hy.integrate_chebyshev_weighted(lambda z: a * f1(z) + b * f2(z), 0.0, 1.0, POLICY)
        budget = abs(a) * e1.error_estimate + abs(b) * e2.error_estimate + ec.error_estimate
        assert abs(ec.value - (a * e1.value + b * e2.value)) <= budget + 1e-13

    def test_unconverged_flag_instead_of_raise(self):
        policy = hy.EvaluationPolicy(abs_tol=1e-14, rel_tol=1e-14, max_nodes=40)
        est = hy.integrate_chebyshev_weighted(lambda z: 1.0 / (1.0 - z), 0.01, 0.99, policy)
        assert not est.converged

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            hy.integrate_chebyshev_weighted(lambda z: 1.0, 1.0, 0.0, POLICY)

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 0), (0.0, 1.0, -4), (1.0, 0.0, 16),
                                           (0.5, 0.5, 16), (math.nan, 1.0, 16)])
    def test_rule_rejects_bad_level_or_bounds(self, lo, hi, n):
        calls = []
        with pytest.raises(DomainError):
            hy.chebyshev_rule(calls.append, lo, hi, n)
        assert calls == []

    def test_rule_nodes_are_the_cosine_midpoints(self):
        lo, hi, n = 0.1, 0.9, 48
        want = [lo + (hi - lo) * (0.5 + 0.5 * math.cos((k + 0.5) * (math.pi / n)))
                for k in range(n)]
        for _ in range(2):   # built once, then served again
            nodes = []
            hy.chebyshev_rule(lambda z: nodes.append(z) or 0.0, lo, hi, n)
            assert nodes == want


def _t32_integrand(frac, lo=0.1, hi=0.9):
    # f = 1 + eps T_32(x) with pi eps = frac * target, T_32(cos theta) =
    # cos(32 theta): T16's nodes theta = k pi/16 see 1, so T16 = pi (1 + eps),
    # and M16's midpoints see -1, so T32 = (T16 + M16)/2 = pi; M32's nodes
    # see 0, so T64 = pi too
    eps = frac * POLICY.target(math.pi) / math.pi
    return lambda z: 1.0 + eps * math.cos(32.0 * math.acos(2.0 * (z - lo) / (hi - lo) - 1.0))


class TestChebyshevStopRule:
    def test_coarse_agreement_inside_target_is_not_enough(self):
        # |T32 - T16| = target / 2: the plain rule would stop at T32
        est = hy.integrate_chebyshev_weighted(_t32_integrand(0.5), 0.1, 0.9, POLICY)
        assert est.converged and est.nodes_used == 64 + 1
        assert est.value == math.pi and est.error_estimate == 0.0

    def test_coarse_agreement_inside_the_guard_stops_at_32(self):
        est = hy.integrate_chebyshev_weighted(_t32_integrand(0.5e-3), 0.1, 0.9, POLICY)
        assert est.converged and est.nodes_used == 32 + 1
        assert est.value == math.pi
        assert 0.0 < est.error_estimate <= quadrature.COARSE_GUARD * POLICY.target(math.pi)

    @pytest.mark.parametrize("frac, converged", [(0.5, False), (0.5e-3, True)])
    def test_budget_of_two_levels(self, frac, converged):
        # T16 and T32 take 33 evaluations; T64 would take 65
        policy = hy.EvaluationPolicy(max_nodes=64)
        est = hy.integrate_chebyshev_weighted(_t32_integrand(frac), 0.1, 0.9, policy)
        assert (est.converged, est.nodes_used) == (converged, 33)
        assert est.value == math.pi
        assert est.error_estimate == pytest.approx(frac * POLICY.target(math.pi), rel=1e-3)


class TestDecayingHalfline:
    def test_pure_exponential(self):
        est = hy.integrate_decaying_halfline(lambda s: math.exp(-s), 1.0, POLICY)
        assert est.converged
        assert abs(est.value - 1.0) <= max(est.error_estimate, 1e-9)

    def test_sech_weight_value(self):
        # int_0^inf 4 pi^2 / cosh(pi s) ds = 2 pi^2 (arctan of sinh)
        g = lambda s: 4.0 * math.pi ** 2 / math.cosh(math.pi * s)
        est = hy.integrate_decaying_halfline(g, 0.9 * math.pi, POLICY)
        expected = 2.0 * math.pi ** 2
        assert abs(est.value - expected) <= 1e-10 * expected

    def test_oscillatory_laplace(self):
        # int_0^inf cos(2s) exp(-pi s) ds = pi / (pi^2 + 4)
        g = lambda s: math.cos(2.0 * s) * math.exp(-math.pi * s)
        est = hy.integrate_decaying_halfline(g, math.pi, POLICY)
        expected = math.pi / (math.pi ** 2 + 4.0)
        assert abs(est.value - expected) <= 1e-11

    def test_non_decay_detected(self):
        with pytest.raises(DomainError) as exc:
            hy.integrate_decaying_halfline(lambda s: math.exp(0.5 * s), 1.0, POLICY)
        assert "decay" in str(exc.value)

    def test_constant_integrand_detected(self):
        with pytest.raises(DomainError):
            hy.integrate_decaying_halfline(lambda s: 1.0, 2.0, POLICY)

    def test_zero_function(self):
        est = hy.integrate_decaying_halfline(lambda s: 0.0, 1.0, POLICY)
        assert est.value == 0.0 and est.converged

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            hy.integrate_decaying_halfline(lambda s: math.exp(-s), 0.0, POLICY)

    def test_unconverged_budget(self):
        policy = hy.EvaluationPolicy(abs_tol=1e-13, rel_tol=1e-13, max_nodes=150)
        est = hy.integrate_decaying_halfline(
            lambda s: math.cos(40.0 * s) * math.exp(-s), 1.0, policy)
        assert not est.converged

    def test_first_pass_over_budget_evaluates_nothing(self):
        # 8 envelope samples and 8 panels of 15 nodes: a max_nodes of 127 raises before
        # the first call
        counted, calls = _counted(lambda s: math.exp(-s))
        with pytest.raises(NodeBudgetError, match="needs 128 nodes, more than max_nodes = 127$"):
            hy.integrate_decaying_halfline(counted, 1.0, POLICY.replace(max_nodes=127))
        assert calls == []
        est = hy.integrate_decaying_halfline(counted, 1.0, POLICY.replace(max_nodes=128))
        assert est.nodes_used == len(calls) == 128

    def test_panel_linearity(self):
        g1 = lambda s: math.exp(-s)
        g2 = lambda s: math.cos(s) * math.exp(-0.5 * s)
        a, b = 0.7, -1.9
        v_combo, _ = hy.gauss_kronrod_panel(lambda s: a * g1(s) + b * g2(s), 0.0, 3.0)
        v1, _ = hy.gauss_kronrod_panel(g1, 0.0, 3.0)
        v2, _ = hy.gauss_kronrod_panel(g2, 0.0, 3.0)
        assert abs(v_combo - (a * v1 + b * v2)) <= 1e-14 * max(1.0, abs(v_combo))


def _sech_cos(l):
    # cos(2ls) sech(pi s), its strip 1/2, bound(d) = cosh(2dl)/cos(pi d) (int sech(pi x) dx = 1)
    # and envelope 2 exp(-pi s); int_0^inf is sech(l)/2
    return (lambda s: math.cos(2.0 * l * s) / math.cosh(math.pi * s), 0.5,
            lambda d: math.cosh(2.0 * d * l) / math.cos(math.pi * d), 2.0, math.pi)


def _strip_estimate(g, strip, bound, envelope, rate, policy=POLICY):
    # the rule's sum h (g(0)/2 + g(h) + ... + g(nh)) with its a-priori error
    h, error, vals = quadrature.strip_trapezoid_rule(g, strip, bound, envelope, rate, policy)
    value = h * math.fsum(vals)
    return hy.IntegralEstimate(value, error, len(vals), error <= policy.target(value))


class TestStripTrapezoid:
    @pytest.mark.parametrize("l", [0.0, 0.5, 3.0, 20.0])
    def test_cos_sech(self, l):
        est = _strip_estimate(*_sech_cos(l), POLICY)
        assert est.converged
        assert est.error_estimate <= quadrature.COARSE_GUARD * POLICY.abs_tol
        assert abs(est.value - 0.5 / math.cosh(l)) <= est.error_estimate

    def test_nodes_fixed_before_the_first_call(self):
        # the nodes are k h, k = 0..n, whatever g returns: a g that returns
        # zeros sees the same nodes, and each call counts once in nodes_used
        g, *bounds = _sech_cos(3.0)
        seen = {}
        for name, f in (("cos_sech", g), ("zero", lambda s: 0.0)):
            counted, calls = _counted(f)
            est = _strip_estimate(counted, *bounds, POLICY)
            assert len(calls) == est.nodes_used
            seen[name] = calls, est.nodes_used, est.error_estimate
        assert seen["cos_sech"] == seen["zero"]
        calls = seen["zero"][0]
        h = calls[1]
        assert calls == [k * h for k in range(len(calls))]

    def test_over_budget_evaluates_nothing(self):
        g, *bounds = _sech_cos(20.0)
        counted, calls = _counted(g)
        needed = _strip_estimate(g, *bounds, POLICY).nodes_used
        policy = hy.EvaluationPolicy(max_nodes=needed - 1)
        with pytest.raises(NodeBudgetError, match=f"needs {needed} nodes, more than "
                                                  f"max_nodes = {needed - 1}$"):
            _strip_estimate(counted, *bounds, policy)
        assert calls == []
        assert _strip_estimate(
            g, *bounds, policy.replace(max_nodes=needed)).nodes_used == needed

    def test_rejects_an_empty_strip_or_rate(self):
        g, strip, bound, envelope, rate = _sech_cos(1.0)
        for args in ((0.0, rate), (strip, 0.0)):
            with pytest.raises(DomainError):
                _strip_estimate(g, args[0], bound, envelope, args[1])

    def test_sech_weighted_integrands_within_the_bound(self):
        # the resolvent, product and kernel integrands, a rule each, through strip_memo
        # against 30 digits (oracle.strip_integral).  Their values lose about
        # eps * pi c s to the exponent, and out to s ~ 1/rate that round-off passes the
        # a-priori bound below 1 + A ~ 1e-2, so the estimate adds it; there it also keeps
        # the estimate above the target, so only 1 + A >= 1e-2 must converge.  max_nodes
        # is raised for 1 + A ~ 1e-5
        rng = random.Random(26)
        policy = POLICY.replace(max_nodes=400000)
        for _ in range(300):
            c = rng.choice((1.0, 2.0))
            a_shift = (-1.0 + 10.0 ** rng.uniform(-5.0, 0.0) if rng.random() < 0.4
                       else rng.uniform(-1.0, 5.0))
            r = 10.0 ** rng.uniform(-1.0, 2.0)
            b_shift = rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 1.7)))
            identity_suite.strip_memo.cache_clear()
            est = identity_suite.strip_memo(a_shift, b_shift, c, policy)(r)
            truth = oracle.strip_integral(a_shift, r, b_shift, c)
            assert est.converged or a_shift < -0.99
            with mpmath.workdps(30):
                assert abs(est.value.real - truth) <= est.error_estimate, (a_shift, r, b_shift, c)
        identity_suite.strip_memo.cache_clear()


    @pytest.mark.parametrize("a_shift, r, b_shift, c", [
        (0.0, 1.0, 0.0, 1.0), (-0.9, 0.5, 0.0, 1.0), (3.0, 10.0, 1.5, 1.0),
        (-0.5, 100.0, 40.0, 2.0), (0.25, 0.1, 0.0, 2.0)])
    def test_bound_covers_the_integrand_off_the_axis(self, a_shift, r, b_shift, c):
        # int |g(x + iy)| dx at y = d, by a fine trapezoid in complex arithmetic,
        # stays within bound(d) out to 15/16 of the strip, where 1/cos(pi c d) counts
        lr, lb = math.asinh(math.sqrt(r)), math.asinh(math.sqrt(b_shift))
        ga = math.asin(math.sqrt(-a_shift)) if a_shift < 0.0 else 0.0
        la = math.asinh(math.sqrt(a_shift)) if a_shift > 0.0 else 0.0

        def g(s):
            u = 2.0 * c * s
            return (4.0 * math.pi ** 2 / cmath.cosh(math.pi * c * s) * cmath.cos(u * lr)
                    / math.sqrt(1.0 + r) * cmath.cosh(u * ga) * cmath.cos(u * la)
                    * cmath.cos(u * lb))

        _, strip, bound, _, rate = identity_suite._spectral_integrand(a_shift, b_shift, c)
        reach, step = 40.0 / rate, 0.005 / c
        xs = [k * step for k in range(-int(reach / step), int(reach / step) + 1)]
        for frac in (0.5, 0.75, 15.0 / 16.0):
            d = frac * strip
            assert step * math.fsum(abs(g(complex(x, d))) for x in xs) <= bound(d), frac


def _t_midpoints(lo, hi):
    # panel midpoints lo + (k + 1/2) (hi - lo) / n: on (0, t_max), the weighted residual's
    # outer rule's t nodes
    return lambda n: tuple([lo + (k + 0.5) * ((hi - lo) / n) for k in range(n)])


def _even_trapezoid(f, t_max, tail, policy=POLICY):
    return quadrature.nested_trapezoid(f, (0.0, t_max), _t_midpoints(0.0, t_max), t_max, tail,
                                       policy)


class TestEvenTrapezoid:
    """nested_trapezoid on the t map, (0, t_max) and a tail beyond it, as the weighted
    residual runs it."""

    def test_sech(self):
        # int_0^inf sech(pi t) dt = 1/2; sech(pi t) <= 2 exp(-pi t)
        t_max = 10.0
        est = _even_trapezoid(lambda t: 1.0 / math.cosh(math.pi * t), t_max,
                              2.0 * math.exp(-math.pi * t_max) / math.pi)
        assert est.converged
        assert abs(est.value - 0.5) <= POLICY.target(0.5)

    def test_gaussian(self):
        est = _even_trapezoid(lambda t: math.exp(-t * t), 7.0, math.exp(-49.0))
        expected = 0.5 * math.sqrt(math.pi)
        assert est.converged
        assert abs(est.value - expected) <= POLICY.target(expected)

    @pytest.mark.parametrize("r", [0.5, 1.0, 100.0, 1e4])
    def test_residual_weight(self, r):
        # the weighted residual's weight alone integrates to pi^2/(1+r); its
        # bound 8 pi^2 exp(-2 pi t) / sqrt(1+r) leaves the tail beyond t = 6
        w = identity_suite._spectral_integrand(0.0, 0.0, 2.0)[0]
        lr = math.asinh(math.sqrt(r))

        def weight(t):
            return w(t) * math.cos(4.0 * t * lr) / math.sqrt(1.0 + r)

        policy = identity_suite.WR_OUTER_POLICY
        tail = 4.0 * math.pi * math.exp(-12.0 * math.pi) / math.sqrt(1.0 + r)
        est = _even_trapezoid(weight, 6.0, tail, policy)
        expected = math.pi ** 2 / (1.0 + r)
        assert est.converged
        assert abs(est.value - expected) <= policy.target(expected)

    def test_each_node_evaluated_once(self):
        # two integrands packed as one complex value, their parts summed apart
        seen = []

        def f(t):
            seen.append(t)
            return complex(math.cos(3.0 * t) / math.cosh(math.pi * t), 1.0 / math.cosh(t))

        est = _even_trapezoid(f, 40.0, 1e-16)
        assert est.converged
        assert est.nodes_used == len(seen) == len(set(seen))
        assert min(seen) == 0.0 and max(seen) == 40.0
        assert abs(est.value.real - 0.5 / math.cosh(1.5)) <= est.error_estimate
        assert abs(est.value.imag - math.pi / 2.0) <= est.error_estimate + 1e-12

    def test_unconverged_budget(self):
        policy = hy.EvaluationPolicy(max_nodes=40)
        est = _even_trapezoid(lambda t: 1.0 / math.cosh(math.pi * t), 10.0, 0.0, policy)
        assert not est.converged
        assert est.nodes_used == 33 <= policy.max_nodes
        assert abs(est.value - 0.5) <= 1e-2

    def test_coarse_guard_at_t32(self):
        # sin(32 pi t / L) vanishes at every node of T16 and T32, so the sine term adds
        # nothing to either; eps (t/L)^2 makes them differ by eps L / 2048, here a quarter of
        # the target but 250 times the guarded one.  The integral is L (1 - 1/(32 pi) + eps/3)
        big_l, eps = 4.0, 5.12e-4
        policy = hy.EvaluationPolicy(abs_tol=1e-6, rel_tol=1e-6)

        def f(t):
            x = t / big_l
            return 1.0 + x * math.sin(32.0 * math.pi * x) + eps * x * x

        truth = big_l * (1.0 - 1.0 / (32.0 * math.pi) + eps / 3.0)
        est = _even_trapezoid(f, big_l, 0.0, policy)
        assert est.converged and est.nodes_used > 33
        assert abs(est.value - truth) <= est.error_estimate
        t32 = _even_trapezoid(f, big_l, 0.0, policy.replace(max_nodes=48))
        assert quadrature.COARSE_GUARD * policy.target(t32.value) < t32.error_estimate
        assert t32.error_estimate <= policy.target(t32.value)
        assert abs(t32.value - truth) > 1e-2   # what an unguarded T32 would have returned


class TestDeterminism:
    def test_bit_reproducible(self):
        f = lambda z: math.sin(7.0 * z) / (1.1 - z)
        a = hy.integrate_chebyshev_weighted(f, 0.0, 1.0, POLICY)
        b = hy.integrate_chebyshev_weighted(f, 0.0, 1.0, POLICY)
        assert a.value == b.value and a.error_estimate == b.error_estimate
        g = lambda s: math.cos(3.0 * s) * math.exp(-s)
        c = hy.integrate_decaying_halfline(g, 1.0, POLICY)
        d = hy.integrate_decaying_halfline(g, 1.0, POLICY)
        assert c.value == d.value and c.nodes_used == d.nodes_used


def _exact_sum(values):
    """The correctly rounded sum, part by part, from exact rational arithmetic."""
    return complex(float(sum(Fraction(v.real) for v in values)),
                   float(sum(Fraction(v.imag) for v in values)))


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()     # tells -0.0 from 0.0


def _reference_panel(g, a, b):
    # gauss_kronrod_panel as first written, every sum through _fsum
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    vals = [g(mid + half * x) for x in quadrature._K15_NODES]
    k15 = half * quadrature._fsum(list(map(mul, quadrature._K15_WEIGHTS, vals)))
    g7 = half * quadrature._fsum(list(map(mul, quadrature._G7_WEIGHTS, vals[1::2])))
    return k15, abs(k15 - g7)


def _panel_outcome(panel, g, a, b):
    try:
        val, err = panel(g, a, b)
    except OverflowError as exc:
        return "OverflowError", str(exc)
    return type(val), _bits(val), err.hex()


def _value_lists(n, rng):
    mags = [rng.choice((1e-300, 1e-9, 1.0, 3.7e5, 1e16)) * rng.uniform(-1.0, 1.0)
            for _ in range(n)]
    floats = [(-0.0 if k % 7 == 3 else v) for k, v in enumerate(mags)]
    complexes = [complex(v, rng.choice((-0.0, 0.0, -v, 2.5 * v))) for v in mags]
    mixed = [c if k % 3 else f for k, (f, c) in enumerate(zip(floats, complexes))]
    ints = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
    zeros = [rng.choice((0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)))
             for _ in range(n)]
    return {"float": floats, "complex": complexes, "mixed": mixed,
            "int": ints, "signed_zero": zeros}


_SIZES = list(range(33)) + [100, 255, 256, 257, 512, 1024, 2048, 4096]


def _integrands():
    # float, complex, int, mixed and signed-zero returns, each call counted
    return {
        "float": lambda z: math.sin(7.0 * z) / (1.1 - z),
        "complex": lambda z: cmath.exp(complex(-z, 3.0 * z)) / (2.0 - z),
        "int": lambda z: int(1000.0 * z) - 300,
        "mixed": lambda z: complex(z, -z * z) if z > 0.4 else -z,
        "signed_zero": lambda z: -0.0 if z < 0.5 else complex(0.0, -0.0),
    }



NODE_MAPS = {   # name -> (lo, hi) -> the engine's ends, midpoints and width
    "theta": lambda lo, hi: ((lo, hi), partial(quadrature._chebyshev_nodes, lo, hi), math.pi),
    "t": lambda lo, hi: ((lo, hi), _t_midpoints(lo, hi), hi - lo),
}


def _node_map_cases(cases):   # each case on both maps; the theta ones keep their plain ids
    return [pytest.param(name, *case, id="-".join(map(str, case)) + ("-t" if name == "t" else ""))
            for name in NODE_MAPS for case in cases]


class TestNestedLevels:
    # no level's estimate is thrown away: T2n = (Tn + Mn)/2 reuses every value of Tn, on the
    # Chebyshev engine's theta map and on the weighted residual's t map alike
    NEVER = hy.EvaluationPolicy(abs_tol=1e-300, rel_tol=1e-300)   # runs to the budget

    @staticmethod
    def engine(name, f, lo, hi, policy):
        if name == "theta":
            return hy.integrate_chebyshev_weighted(f, lo, hi, policy)
        return quadrature.nested_trapezoid(f, *NODE_MAPS[name](lo, hi), 0.0, policy)

    @pytest.mark.parametrize("node_map, lo, hi",
                             _node_map_cases([(0.0, 1.0), (0.1, 0.9), (0.25, 0.5)]))
    def test_no_node_is_evaluated_twice(self, node_map, lo, hi):
        kink = 0.3 * lo + 0.7 * hi   # the levels converge only algebraically
        counted, calls = _counted(lambda z: abs(z - kink))
        est = self.engine(node_map, counted, lo, hi, self.NEVER)
        assert not est.converged and est.nodes_used == 32768 + 1
        assert len(set(calls)) == len(calls) == est.nodes_used
        assert calls[:2] == [lo, hi] and all(lo < z < hi for z in calls[2:])

    @pytest.mark.parametrize("node_map, name",
                             _node_map_cases([("pole",), ("complex",), ("oscillating",),
                                              ("quadratic",)]))
    def test_level_is_the_theta_trapezoid_summed_directly(self, node_map, name):
        # stopped by its budget at Tn, the engine returns Tn; summed over its
        # n + 1 values at once, in theta_k = k pi / n or t_k = lo + k (hi - lo) / n
        # with the ends halved, the trapezoid rule agrees within 1 ulp
        f = {"pole": lambda z: 1.0 / (1.05 - z),
             "complex": lambda z: complex(math.cos(5.0 * z), z) / (1.05 - z),
             "oscillating": lambda z: math.cos(40.0 * z) * math.exp(z),
             "quadratic": lambda z: 0.3 - z * z}[name]
        checked = 0
        for lo, hi in ((0.0, 1.0), (0.1, 0.9), (0.25, 0.5)):
            width = NODE_MAPS[node_map](lo, hi)[2]
            for n in (16, 32, 64, 256, 4096):
                counted, calls = _counted(f)
                est = self.engine(node_map, counted, lo, hi, self.NEVER.replace(max_nodes=n + 1))
                if est.converged:   # two levels agreed exactly before Tn
                    continue
                assert len(calls) == est.nodes_used == n + 1
                vals = list(map(f, calls))
                direct = (width / n) * _exact_sum([0.5 * vals[0], 0.5 * vals[1], *vals[2:]])
                for part in ("real", "imag"):
                    got, want = getattr(est.value, part), getattr(direct, part)
                    assert abs(got - want) <= math.ulp(want), (lo, hi, n, part)
                checked += 1
        assert checked >= 6   # T16 and T32 at least, on every interval

    @pytest.mark.parametrize("node_map", NODE_MAPS)
    def test_first_pass_over_budget_evaluates_nothing(self, node_map):
        # T16 takes 17 nodes: a max_nodes of 16 raises before the first call
        counted, calls = _counted(lambda z: 1.0 / (1.05 - z))
        with pytest.raises(NodeBudgetError, match="needs 17 nodes, more than max_nodes = 16$"):
            self.engine(node_map, counted, 0.1, 0.9, POLICY.replace(max_nodes=16))
        assert calls == []
        est = self.engine(node_map, counted, 0.1, 0.9, POLICY.replace(max_nodes=17))
        assert not est.converged and est.nodes_used == len(calls) == 17


def _counted(f):
    calls = []

    def wrapped(z):
        calls.append(z)
        return f(z)
    return wrapped, calls


class TestNodeSums:
    def test_value_kinds(self):
        # int, float, complex, mixed and signed-zero values all give the
        # correctly rounded complex sum
        rng = random.Random(20171)
        for n in _SIZES:
            for kind, vals in _value_lists(n, rng).items():
                got = quadrature._fsum(vals)
                assert type(got) is complex
                assert got == _exact_sum(vals), (n, kind)

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(st.floats(-1e300, 1e300) | st.integers(-10 ** 6, 10 ** 6)
                         | st.complex_numbers(max_magnitude=1e300, allow_infinity=False),
                         max_size=200),
           rnd=st.randoms(use_true_random=False))
    def test_order_independent(self, vals, rnd):
        got = quadrature._fsum(vals)
        assert got == _exact_sum(vals)
        rnd.shuffle(vals)
        assert _bits(quadrature._fsum(vals)) == _bits(got)

    def test_cancellation(self):
        # left to right in floats the 1.0 is lost and the sum reads 0.0
        assert _bits(quadrature._fsum([1e16, 1.0, -1e16])) == _bits(1.0)
        assert _bits(quadrature._fsum([1e16j, 1j, -1e16j])) == _bits(1j)

    def test_opposite_infinities_overflow(self):
        # math.fsum raises ValueError here; the sum has left the float range
        for vals in ([math.inf, 1.0, -math.inf],
                     [complex(0.0, math.inf), complex(1.0, -math.inf)]):
            with pytest.raises(OverflowError):
                quadrature._fsum(vals)
        assert quadrature._fsum([math.inf, 1.0]) == math.inf
        with pytest.raises(OverflowError):
            hy.chebyshev_rule(lambda z: math.inf if z < 0.5 else -math.inf, 0.0, 1.0, 16)

    def test_chebyshev_rule(self):
        for name, f in _integrands().items():
            for n in _SIZES[1:]:
                counted, calls = _counted(f)
                got = hy.chebyshev_rule(counted, 0.1, 0.9, n)
                assert calls == list(quadrature._chebyshev_nodes(0.1, 0.9, n)), (name, n)
                assert type(got) is complex
                assert got == (math.pi / n) * _exact_sum(list(map(f, calls))), (name, n)

    def test_gauss_kronrod_panel(self):
        for name, f in _integrands().items():
            for a, b in ((0.0, 1.0), (0.1, 0.35), (-2.0, 3.5), (0.5, 0.5 + 2.0 ** -30)):
                counted, calls = _counted(f)
                val, err = hy.gauss_kronrod_panel(counted, a, b)
                half, mid = 0.5 * (b - a), 0.5 * (a + b)
                assert calls == [mid + half * x for x in quadrature._K15_NODES]
                vals = list(map(f, calls))
                k15 = half * _exact_sum(list(map(mul, quadrature._K15_WEIGHTS, vals)))
                g7 = half * _exact_sum(list(map(mul, quadrature._G7_WEIGHTS, vals[1::2])))
                assert type(val) is complex and val == k15, (name, a, b)
                assert err == abs(k15 - g7)

    def test_gauss_kronrod_panel_bit_identical_to_reference(self):
        # the panel sums real values without _fsum's list copies; real,
        # complex, int, mixed and signed-zero values, infinities and an
        # inf - inf sum must come out as the _fsum form does
        cases = dict(_integrands(), inf=lambda z: math.inf if z > 0.3 else z,
                     opposite=lambda z: math.inf if z > 0.5 else -math.inf,
                     complex_inf=lambda z: complex(math.inf, z))
        for name, f in cases.items():
            for a, b in ((0.0, 1.0), (0.1, 0.35), (-2.0, 3.5)):
                got, want = (_panel_outcome(panel, f, a, b) for panel in
                             (hy.gauss_kronrod_panel, _reference_panel))
                assert got == want, (name, a, b)

    def test_adaptive_engines_count_every_call(self):
        # T16 takes the ends and the midpoints of levels 1, 2, 4 and 8; each
        # further level the midpoints of the one before
        counted, calls = _counted(lambda z: complex(math.cos(5.0 * z), z) / (1.05 - z))
        est = hy.integrate_chebyshev_weighted(counted, 0.0, 1.0, POLICY)
        levels = [1, 2, 4, 8, 16]
        while 2 + sum(levels) < est.nodes_used:
            levels.append(2 * levels[-1])
        assert calls == [0.0, 1.0] + [z for n in levels
                                      for z in quadrature._chebyshev_nodes(0.0, 1.0, n)]
        assert len(calls) == est.nodes_used == 1 + 2 * levels[-1] > 33
        counted, calls = _counted(lambda s: math.cos(3.0 * s) * math.exp(-s))
        est = hy.integrate_decaying_halfline(counted, 1.0, POLICY)
        assert est.converged and len(calls) == est.nodes_used > 8 + 8 * 15
