"""Tests for the identity checks: main integral, Barnes and sech-weighted
spectral integrals, kernel factorization, Q integral, obstruction; each
check's teeth against a moved closed form, and the layers below the checks."""

import ast
import cmath
import inspect
import io
import json
import math
import random
import re
import subprocess
import sys

import mpmath
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypident as hy
from hypident import (DegenerateConfigurationError, DomainError, cli, identity_suite,
                      quadrature, records, special_functions)
from hypident.identity_suite import _main_kernel, _poly_coeffs

PAIR = hy.ParameterPair(0.25, 0.5)
WIDE = hy.ParameterPair(0.1, 0.9)
T_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 0.5j, 1.0j, 0.3 + 0.4j)


class TestMainIdentity:
    def test_elementary_t_zero(self):
        rec = hy.check_main_identity(PAIR, 0.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi / math.sqrt(3.0 / 8.0)) < 1e-14
        assert rec.rel_err <= 1e-11

    def test_t_independence(self):
        values = [hy.check_main_identity(PAIR, t).lhs for t in T_GRID]
        scale = abs(values[0])
        spread = max(abs(a - b) for a in values for b in values)
        assert spread / scale <= 1e-7

    def test_purely_imaginary_t(self):
        rec = hy.check_main_identity(PAIR, 0.5j)
        assert rec.status == hy.PASS

    def test_wide_pair_large_t_cancellation_visible(self):
        rec = hy.check_main_identity(WIDE, 2.0)
        assert rec.status == hy.PASS
        assert rec.metadata["digits_lost"] > 2.0

    def test_cancellation_cap(self):
        # beyond the cap the point is degenerate, so the CLI skips it with this reason
        with pytest.raises(DegenerateConfigurationError) as exc:
            hy.check_main_identity(PAIR, 3.0)
        assert str(exc.value) == "|Re t| = 3 exceeds the cancellation cap 2"
        with pytest.raises(DegenerateConfigurationError, match=r"^\|Re t\| = 2\.5 exceeds"):
            hy.check_main_identity(PAIR, complex(-2.5, 0.5))

    def test_thin_interval_still_passes(self):
        pair = hy.ParameterPair(0.3, 0.3 + 1e-4)
        rec = hy.check_main_identity(pair, 1.0, tolerance=1e-6)
        assert rec.status == hy.PASS

    def test_degenerate_limit_value(self):
        # as S - T -> 0+ the integral tends to pi/(1-T); with a width of
        # 2e-7 the first-order gap pi (S-T) / (2 (1-T)^2) stays under 1e-6
        t_v = 0.3
        pair = hy.ParameterPair(t_v, t_v + 2e-7)
        rec = hy.check_main_identity(pair, 1.0)
        assert abs(rec.lhs - math.pi / (1.0 - t_v)) <= 1e-6

    def test_unconverged_flagged(self):
        policy = hy.EvaluationPolicy(abs_tol=1e-14, rel_tol=1e-14, max_nodes=40)
        rec = hy.check_main_identity(WIDE, 2.0, policy)
        assert rec.status == hy.UNCONVERGED


class TestBarnesTriple:
    def test_a_zero_half_half(self):
        rec = hy.check_barnes_triple(0.0, 0.5, 0.5)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi) < 1e-14

    def test_all_half(self):
        rec = hy.check_barnes_triple(0.5, 0.5, 0.5)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - 1.0) < 1e-14

    def test_one_one_half(self):
        rec = hy.check_barnes_triple(1.0, 1.0, 0.5)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi / 4.0) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_barnes_triple(-0.1, 0.5, 0.5)
        with pytest.raises(DomainError):
            hy.check_barnes_triple(0.5, 0.0, 0.5)


class TestSpectralPower:
    def test_base_case(self):
        rec = hy.check_spectral_power(0.0, 0.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi) < 1e-14

    def test_shift_three(self):
        rec = hy.check_spectral_power(3.0, 0.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi / 2.0) < 1e-14

    def test_negative_shift_with_tau(self):
        rec = hy.check_spectral_power(-0.5, 1.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi * math.sqrt(2.0)) < 1e-12

    def test_one_expression_matches_two_branch_formula(self):
        # exp(base + ln cosh(2s ga)) cos(2s la) adds ln cosh(0) = 0.0 at A >= 0 and
        # multiplies by cos(0.0) = 1.0 below, so the engine sees the same values
        for a_shift in (-0.9, -0.5, -0.0, 0.0, 0.25, 3.0):
            for tau in (0.0, 0.8, 2.0):
                g, decay = _reference_power_integrand(a_shift, tau)
                ref = quadrature.integrate_decaying_halfline(g, decay, hy.DEFAULT_POLICY)
                rec = hy.check_spectral_power(a_shift, tau)
                lhs = complex(ref.value / (2.0 * math.pi))
                assert (rec.lhs.real.hex(), rec.lhs.imag.hex()) == (
                    lhs.real.hex(), lhs.imag.hex()), (a_shift, tau)
                assert rec.metadata["nodes"] == ref.nodes_used

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_spectral_power(-1.0, 0.0)
        with pytest.raises(DomainError):
            hy.check_spectral_power(0.5, -0.1)


class TestSpectralResolvent:
    def test_zero_shift(self):
        for r in (0.5, 2.0):
            rec = hy.check_spectral_resolvent(0.0, r)
            assert rec.status == hy.PASS
            assert abs(rec.rhs - math.pi / (1.0 + r)) < 1e-14

    def test_example_values(self):
        rec = hy.check_spectral_resolvent(3.0, 1.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - 2.0 * math.pi / 5.0) < 1e-14

    def test_small_r_consistency_with_power(self):
        # r -> 0 removes the half-shifted factor
        a_shift = 0.7
        res = hy.check_spectral_resolvent(a_shift, 1e-6)
        pow_ = hy.check_spectral_power(a_shift, 0.0)
        assert abs(res.lhs - pow_.lhs) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_spectral_resolvent(0.5, 0.0)

    def test_closed_form_below_tolerance_is_degenerate(self):
        # at r = 1e160 the closed form is about 3.5e-160, so any lhs inside
        # the absolute 1e-8 would pass; the lhs came out 4.7e-82
        with pytest.raises(DegenerateConfigurationError, match="vacuous"):
            hy.check_spectral_resolvent(0.25, 1e160)
        doc = cli.run(cli.GridConfig.from_dict(
            {"r_values": [1e160], "suites": ["spectral_resolvent"]}))
        assert len(doc.records) == len(cli.SHIFT_A_GRID)
        assert all(rec.status == hy.SKIPPED and "vacuous" in rec.metadata["reason"]
                   for rec in doc.records)
        assert cli.exit_code(doc) == 3


class TestSpectralProduct:
    def test_b_zero_bitwise_match(self):
        for a_shift in (-0.5, 0.25, 3.0):
            for r in (0.5, 1.0, 10.0):
                identity_suite.strip_memo.cache_clear()   # both computed cold
                prod = hy.check_spectral_product(a_shift, r, 0.0)
                identity_suite.strip_memo.cache_clear()
                res = hy.check_spectral_resolvent(a_shift, r)
                assert prod.lhs == res.lhs
                assert prod.rhs == res.rhs
                assert prod.metadata["nodes"] == res.metadata["nodes"]
                assert prod.status == res.status

    def test_zero_a_example(self):
        rec = hy.check_spectral_product(0.0, 1.0, 1.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - math.pi * math.sqrt(2.0) / 3.0) < 1e-14

    def test_all_ones(self):
        rec = hy.check_spectral_product(1.0, 1.0, 1.0)
        assert rec.status == hy.PASS
        assert abs(rec.rhs - 2.0 * math.pi / 5.0) < 1e-14

    def test_denominator_positive_recorded(self):
        rec = hy.check_spectral_product(-0.5, 0.5, 2.0)
        assert rec.status == hy.PASS
        assert rec.metadata["denominator"] > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_spectral_product(0.5, 1.0, -0.2)

    @pytest.mark.parametrize("b_shift", [0.0, 2.0])
    def test_closed_form_below_tolerance_is_degenerate(self, b_shift, monkeypatch):
        # at r = 1e12 the closed form is about 3.5e-12: an lhs off by 4e-5
        # relative passed the absolute 1e-8; the guard runs before quadrature
        def no_quadrature(*args):
            raise AssertionError("integrated a degenerate point")

        monkeypatch.setattr(identity_suite, "strip_trapezoid_rule", no_quadrature)
        with pytest.raises(DegenerateConfigurationError, match="vacuous"):
            hy.check_spectral_product(0.25, 1e12, b_shift)

    def test_large_r_grid_skipped_as_vacuous(self):
        doc = cli.run(cli.GridConfig.from_dict(
            {"r_values": [1e12], "suites": ["spectral_product", "spectral_kernel"]}))
        assert doc.summary["skipped"] == doc.summary["total"] == 21
        assert all("vacuous" in rec.metadata["reason"] for rec in doc.records)
        assert cli.exit_code(doc) == 3


def _counted(f, count):
    """f with count(n) called for every n nodes it is evaluated at, as the CI step counts:
    a NodeIntegrand stays one, so the engine still takes it a level at a time."""
    if isinstance(f, quadrature.NodeIntegrand):
        return quadrature.NodeIntegrand(lambda nodes: count(len(nodes)) or f.level(nodes))
    return lambda x: count(1) or f(x)


ENGINES = ("integrate_chebyshev_weighted", "integrate_decaying_halfline",
           "strip_trapezoid_rule", "nested_trapezoid")


def _wrap_engines(monkeypatch, wrap):   # identity_suite's engine `name` -> wrap(name, engine)
    for name in ENGINES:
        monkeypatch.setattr(identity_suite, name, wrap(name, getattr(identity_suite, name)))


def _halfline_calls(monkeypatch) -> list:
    """Count the integrand calls made through identity_suite's strip trapezoid
    rule, the sech-weighted suites' half-line engine, as the CI step does; the
    list holds the running count."""
    calls = [0]
    engine = identity_suite.strip_trapezoid_rule

    def count(n):
        calls[0] += n

    def counting(f, *args, **kwargs):
        return engine(_counted(f, count), *args, **kwargs)

    monkeypatch.setattr(identity_suite, "strip_trapezoid_rule", counting)
    return calls


def _report(doc) -> str:
    records.render_json(doc, out := io.StringIO())
    return "".join(line for line in out.getvalue().splitlines(True)
                   if "wall_time_seconds" not in line)


class TestShiftMemo:
    def test_product_b_zero_rows_same_bytes_with_or_without_resolvent(self, monkeypatch):
        # the product's B = 0 rows reuse the resolvent's estimate within a run,
        # whichever suite runs first, and read as if computed cold
        calls = _halfline_calls(monkeypatch)
        rows, paid = {}, {}
        for suites in (["spectral_product"], ["spectral_resolvent", "spectral_product"],
                       ["spectral_product", "spectral_resolvent"]):
            calls[0] = 0
            doc = cli.run(cli.GridConfig.from_dict({"suites": suites}))
            paid[tuple(suites)] = calls[0]
            rows[tuple(suites)] = list(map(records.json_writer(), (
                rec for rec in doc.records
                if rec.id.startswith("spectral_product/") and rec.id.endswith("/B=0"))))
        assert len(set(map(tuple, rows.values()))) == 1
        assert len(rows[("spectral_product",)]) == 3 * len(cli.DEFAULT_R_VALUES)
        # the resolvent's integrals are the product's B = 0 rows, paid once
        assert len(set(paid.values())) == 1 and paid[("spectral_product",)] > 0

    def test_memo_hit_equals_cold_record(self):
        identity_suite.strip_memo.cache_clear()
        cold = hy.check_spectral_product(-0.5, 10.0, 0.0)
        warm = hy.check_spectral_resolvent(-0.5, 10.0)
        identity_suite.strip_memo.cache_clear()
        assert hy.check_spectral_resolvent(-0.5, 10.0) == warm
        assert (warm.lhs, warm.metadata["nodes"]) == (cold.lhs, cold.metadata["nodes"])

    def test_policy_is_part_of_the_key(self, monkeypatch):
        loose = hy.EvaluationPolicy(abs_tol=1e-6, rel_tol=1e-6)
        identity_suite.strip_memo.cache_clear()
        cold = hy.check_spectral_resolvent(0.25, 1.0, loose)
        identity_suite.strip_memo.cache_clear()
        default = hy.check_spectral_resolvent(0.25, 1.0)
        calls = _halfline_calls(monkeypatch)
        assert hy.check_spectral_resolvent(0.25, 1.0, loose) == cold
        assert calls[0] == cold.metadata["nodes"] != default.metadata["nodes"]

    def test_runs_do_equal_work_and_share_nothing(self, monkeypatch):
        # cli.run empties the memo: two runs in one process give the same
        # report and pay the same calls, and a run with another policy is
        # not served the first run's estimates
        calls = _halfline_calls(monkeypatch)
        suites = ["spectral_resolvent", "spectral_product"]
        reports, paid = [], []
        for policy in ({}, {}, {"abs_tol": 1e-9}):
            calls[0] = 0
            doc = cli.run(cli.GridConfig.from_dict({"suites": suites, "policy": policy}))
            reports.append(_report(doc))
            paid.append(calls[0])
        assert reports[0] == reports[1] and paid[0] == paid[1] > 0
        cold = {(rec.metadata["A"], rec.metadata.get("B", 0.0)): rec.metadata["nodes"]
                for rec in doc.records}   # each (A, B)'s rule, paid once for all its r
        assert paid[2] == sum(cold.values())
        assert paid[2] != paid[0]

    def test_memo_is_bounded(self):
        # direct calls outside cli.run never empty it, so it must not grow; a
        # run meets each key's tasks together (cli.deal), and a product loop
        # over (r, B) alternates two keys, so a handful of rules hit every time
        info = identity_suite.strip_memo.cache_info()
        assert info.maxsize is not None and 2 <= info.maxsize <= 64

    def test_r_free_bound_covers_every_r(self):
        # strip_memo plans one rule from W's bound, envelope and rate for every r,
        # which holds as the r factor cos(2cs asinh(sqrt(r))) / sqrt(1+r) has modulus
        # at most cosh(asinh(sqrt(r))) / sqrt(1+r) = 1 on the strip |Im s| <= 1/(2c)
        rng = random.Random(27)
        for c in (1.0, 2.0):
            strip = identity_suite._spectral_integrand(0.0, 0.0, c)[1]
            for r in (10.0 ** (0.5 * k) for k in range(-6, 25)):   # 1e-3 .. 1e12
                lr = math.asinh(math.sqrt(r))
                edge = [complex(x, y) for x in (0.0, 0.3, 7.0) for y in (-strip, strip)]
                for s in edge + [complex(rng.uniform(0.0, 40.0), strip * rng.uniform(-1.0, 1.0))
                                 for _ in range(100)]:
                    assert abs(cmath.cos(2.0 * c * s * lr)) / math.sqrt(1.0 + r) <= 1.0 + 1e-15
                # the modulus reaches 1 at the strip's edge, so the strip is not narrower
                assert abs(cmath.cos(complex(0.0, lr))) / math.sqrt(1.0 + r) == pytest.approx(
                    1.0, rel=1e-15)

    def test_shared_rule_within_its_estimate(self):
        # 300 integrals through the shared path, 5 r values per (A, B, c) rule, against
        # 30 digits (oracle.strip_integral); the estimate is the rule's a-priori bound
        # plus round-off, which integrals near 100 (1 + A ~ 1e-2, r ~ 1e-3) and the
        # exponent's rounding as A -> -1 reach.  max_nodes is raised for 1 + A ~ 1e-5,
        # where round-off keeps the estimate above the target: only 1 + A >= 1e-2 must
        # converge
        rng = random.Random(270)
        policy = hy.DEFAULT_POLICY.replace(max_nodes=400000)
        identity_suite.strip_memo.cache_clear()
        for _ in range(60):
            c = rng.choice((1.0, 2.0))
            a_shift = (-1.0 + 10.0 ** rng.uniform(-5.0, 0.0) if rng.random() < 0.4
                       else rng.uniform(-0.99, 5.0))
            b_shift = rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 1.7)))
            for r in (10.0 ** rng.uniform(-3.0, 4.0) for _ in range(5)):
                est = identity_suite.strip_memo(a_shift, b_shift, c, policy)(r)
                truth = oracle.strip_integral(a_shift, r, b_shift, c)
                assert est.converged or a_shift < -0.99
                with mpmath.workdps(30):
                    assert abs(est.value.real - truth) <= est.error_estimate, (
                        a_shift, r, b_shift, c)
        identity_suite.strip_memo.cache_clear()

    def test_a_group_of_r_values_pays_one_rule(self, monkeypatch):
        # the 8 r values at one z evaluate W exactly n + 1 times, and each
        # record reads n + 1 nodes, as if computed cold
        calls = _halfline_calls(monkeypatch)
        r_values = [0.1, 0.5, 1.0, 2.0, 10.0, 50.0, 100.0, 1e3]
        doc = cli.run(cli.GridConfig.from_dict({"suites": ["spectral_kernel"],
                                                "pairs": [[PAIR.T, PAIR.S]],
                                                "r_values": r_values}))
        nodes = {}
        for rec in doc.records:
            assert rec.status == hy.PASS
            nodes.setdefault(rec.metadata["z"], set()).add(rec.metadata["nodes"])
        assert len(nodes) == len(cli.KERNEL_Z_FRACTIONS)
        assert all(len(n) == 1 for n in nodes.values())
        assert calls[0] == sum(n.pop() for n in nodes.values())
        z = 0.375
        identity_suite.strip_memo.cache_clear()
        calls[0] = 0
        recs = [hy.check_spectral_kernel(z, r, PAIR) for r in r_values]
        assert calls[0] == recs[0].metadata["nodes"] > 0
        assert all(rec.metadata["nodes"] == calls[0] for rec in recs)
        identity_suite.strip_memo.cache_clear()


class TestSpectralKernel:
    def test_lower_boundary(self):
        rec = hy.check_spectral_kernel(PAIR.T, 2.0, PAIR)
        assert rec.status == hy.PASS

    def test_upper_boundary(self):
        rec = hy.check_spectral_kernel(PAIR.S, 2.0, PAIR)
        assert rec.status == hy.PASS

    def test_interior_example(self):
        rec = hy.check_spectral_kernel(0.375, 2.0, PAIR)
        assert rec.status == hy.PASS
        assert rec.rel_err <= 1e-8

    def test_matches_kernel_factors(self):
        # the right side is the product closed form at the factored shifts,
        # which the paper's factorization i1 i2 equals away from S -> 1
        i1, i2 = hy.kernel_factors(0.375, 2.0, PAIR)
        rec = hy.check_spectral_kernel(0.375, 2.0, PAIR)
        assert rec.rhs == pytest.approx(i1 * i2, rel=1e-14)

    def test_kernel_factors_equal_the_product_closed_form(self):
        # the paper's factorization i1 i2 is P at the kernel shifts
        for pair in (hy.ParameterPair(*p) for p in cli.DEFAULT_PAIRS):
            for z in cli._kernel_points(pair.T, pair.S):
                a_shift, b_shift = hy.kernel_shifts(z, pair)
                for r in cli.DEFAULT_R_VALUES:
                    i1, i2 = hy.kernel_factors(z, r, pair)
                    p_form = identity_suite._product_closed_form(1.0 + a_shift, r, 1.0 + b_shift)
                    assert i1 * i2 == pytest.approx(p_form[0], rel=1e-13), (pair, z, r)

    @pytest.mark.parametrize("s_hi", [0.999, 0.99999, 0.9999999, 0.999999999])
    def test_right_side_exact_at_z_equal_s(self, s_hi, monkeypatch):
        # at z = S, S -> 1, i1 i2 was off by up to 4.3e-6 at S = 0.99999 and divided
        # by zero at 0.999999999; the factored shifts keep P to a few ulps
        monkeypatch.setattr(identity_suite, "strip_memo",
                            lambda *args: lambda r: hy.IntegralEstimate(0.0, 0.0, 1, True))
        pair = hy.ParameterPair(0.5, s_hi)
        for r in (0.5, 1.0, 10.0, 100.0):
            rhs = hy.check_spectral_kernel(s_hi, r, pair).rhs.real
            with mpmath.workdps(50):
                st, ss, mr = mpmath.sqrt(mpmath.mpf(0.5)), mpmath.sqrt(mpmath.mpf(s_hi)), r
                one_a = (1 - ss) * (ss + st) / (2 * (1 - st) * ss)
                want = (mpmath.pi * mpmath.sqrt(one_a) * (one_a + mr)
                        / ((one_a - mr) ** 2 + 4 * mr * one_a))
            assert rhs == pytest.approx(float(want), rel=4e-15), (s_hi, r)

    def test_over_budget_point_unconverged_without_evaluating(self, monkeypatch):
        # at (0.5, 0.99999), z = S, the decay rate is 0.015: the rule would need
        # about 70,000 nodes, so nothing is evaluated and the record says so
        calls = _halfline_calls(monkeypatch)
        params = {"T": 0.5, "S": 0.99999, "z": 0.99999, "r": 0.5}
        rec = cli.run_task(("spectral_kernel", params, hy.DEFAULT_POLICY, 1e-7))
        assert (rec.status, rec.lhs, rec.metadata["nodes"], calls[0]) == (
            hy.UNCONVERGED, None, 0, 0)
        needed = int(re.fullmatch(r"the a-priori trapezoid rule needs (\d+) nodes, more than "
                                  r"max_nodes = 60000", rec.metadata["reason"])[1])
        assert 60000 < needed < 100000

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_spectral_kernel(0.2, 2.0, PAIR)
        with pytest.raises(DomainError):
            hy.check_spectral_kernel(0.375, -1.0, PAIR)

    def test_closed_form_below_tolerance_is_degenerate(self):
        # at r = 1e15 the closed form is about 2.2e-15; the lhs came out
        # with the wrong sign, 127 times its size, and still passed
        with pytest.raises(DegenerateConfigurationError, match="vacuous"):
            hy.check_spectral_kernel(0.5, 1e15, PAIR)


class TestQIntegral:
    def test_large_r(self):
        rec = hy.check_q_integral(50.0, PAIR)
        assert rec.status == hy.PASS
        assert rec.rel_err <= 1e-8

    def test_small_r_also_exact(self):
        rec = hy.check_q_integral(0.5, PAIR)
        assert rec.status == hy.PASS

    def test_defect_rate(self):
        # the integrated kernel defect shrinks like 1/r
        for pair in (PAIR, WIDE):
            d10 = hy.check_q_integral(10.0, pair).metadata["kernel_defect"]
            d100 = hy.check_q_integral(100.0, pair).metadata["kernel_defect"]
            assert 5.0 <= d10 / d100 <= 20.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_q_integral(0.0, PAIR)

    @staticmethod
    def reference_defect(pair, r, n):
        # the defect written from its definition (i2 as in kernel_factors),
        # on a fixed n-node rule
        st, ss = pair.sqrt_T, pair.sqrt_S
        rr, _, _, e, f, g = _poly_coeffs(r, pair)
        m, k = st + ss - 2.0 * ss * st, st + ss - 2.0
        inv_base = 1.0 / (2.0 * (1.0 - st) * (1.0 - ss))

        def defect(q):
            sz = st + q * (ss - st)
            z = sz * sz
            i2 = (m + rr * sz + k * z) / (e + f * z + g * z * z)
            return 2.0 * sz * abs((1.0 + r) * i2 - inv_base / sz) / (1.0 + sz)

        return hy.chebyshev_rule(defect, 0.0, 1.0, n).real

    @pytest.mark.parametrize("pair, r_values", [
        *((p, cli.DEFAULT_R_VALUES) for p in cli.DEFAULT_PAIRS),
        ((0.05, 0.95), (0.1, 3.0, 100.0)),      # spectral_grid's range:
        ((0.3, 0.7), (0.1, 3.0, 100.0)),        # T in [0.05, 0.6],
        ((0.6, 0.65), (0.1, 3.0, 100.0)),       # S in [T + 0.05, 0.95],
        ((0.15, 0.4), (0.25, 30.0)),            # r in [0.1, 100]
    ])
    def test_kernel_defect_accuracy(self, pair, r_values):
        pair = hy.ParameterPair(*pair)
        for r in r_values:
            md = hy.check_q_integral(r, pair).metadata
            ref = self.reference_defect(pair, r, 2 ** 16)
            assert abs(md["kernel_defect"] - ref) <= 1e-3 * ref, (pair, r)
            assert md["kernel_defect_error"] <= identity_suite.DEFECT_REL_TOL * md["kernel_defect"]

    @pytest.mark.parametrize("r", [0.01, 0.1, 1.0])
    def test_kernel_defect_error_bounds_edge_error(self, r):
        # at S -> 1 the defect engine needs its whole node budget: its estimate
        # must say whether it met the three-digit target (at r = 1 its last
        # level does) and still bound the true error
        pair = hy.ParameterPair(0.05, 0.9999)
        md = hy.check_q_integral(r, pair).metadata
        ref = self.reference_defect(pair, r, 2 ** 18)
        met = md["kernel_defect_error"] <= identity_suite.DEFECT_REL_TOL * md["kernel_defect"]
        assert met == (r == 1.0)
        assert abs(md["kernel_defect"] - ref) <= md["kernel_defect_error"]

    def test_nodes_count_every_evaluation(self, monkeypatch):
        # Q and its kernel defect both go through the engine; `nodes`
        # counts the integrand calls of both
        calls = []
        engine = identity_suite.integrate_chebyshev_weighted

        def counting(f, lo, hi, policy):
            def g(q):
                calls.append(q)
                return f(q)
            return engine(g, lo, hi, policy)

        monkeypatch.setattr(identity_suite, "integrate_chebyshev_weighted", counting)
        rec = hy.check_q_integral(10.0, PAIR)
        assert rec.metadata["nodes"] == len(calls) > 2 * 48


class TestObstruction:
    def test_large_r_integer_zero(self):
        rec = hy.check_obstruction_integer(100.0, PAIR)
        assert rec.status == hy.PASS
        assert rec.metadata["n_int"] == 0
        assert rec.metadata["n_dist"] <= 1e-6
        assert abs(rec.metadata["n_r"]) <= 1e-6

    def test_sum_identity_and_equal_magnitudes(self):
        rec = hy.check_obstruction_integer(100.0, PAIR)
        assert rec.abs_err <= 1e-8  # D1+D2+D3+D4 vs Q - closed form
        assert rec.metadata["d_abs_spread"] <= 1e-9
        assert rec.metadata["d_square_residual"] <= 1e-8

    def test_small_r_records_without_integer_assertion(self):
        rec = hy.check_obstruction_integer(0.5, PAIR)
        assert rec.status == hy.PASS
        assert "n_r" in rec.metadata

    def test_complex_root_regime(self):
        # below the double-root radius the roots are complex conjugates
        rec = hy.check_obstruction_integer(50.0, WIDE)
        assert rec.status == hy.PASS
        assert rec.metadata["n_dist"] <= 1e-6

    def test_degenerate_radius_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            hy.check_obstruction_integer(8.0 + 6.0 * math.sqrt(2.0), PAIR)


class TestWeightedResidual:
    def test_vanishes(self):
        rec = hy.check_weighted_residual(1.0, PAIR)
        assert rec.status == hy.PASS
        assert abs(rec.lhs) <= 1e-6

    def test_unit_integral_against_closed_form(self):
        # the weight-only integral equals pi/(1+r) after normalization
        rec = hy.check_weighted_residual(10.0, PAIR)
        assert rec.metadata["unit_residual"] <= 1e-8

    def test_two_radii(self):
        for r in (1.0, 10.0):
            rec = hy.check_weighted_residual(r, WIDE)
            assert rec.status == hy.PASS

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_weighted_residual(0.0, PAIR)

    @pytest.mark.parametrize("r", [1.0, 100.0])
    def test_perturbed_closed_form_fails(self, r, monkeypatch):
        # C shifted by 10 tolerances of the check's scale C pi/(1+r) moves the
        # weighted average by 10 tolerances, which must fail the record
        assert hy.check_weighted_residual(r, PAIR).status == hy.PASS
        c = PAIR.main_closed_form()
        shifted = c * (1.0 + 10.0 * 1e-6 * (1.0 + r) / (math.pi * c))
        monkeypatch.setattr(hy.ParameterPair, "main_closed_form", lambda self: shifted)
        rec = hy.check_weighted_residual(r, PAIR, tolerance=1e-6)
        assert rec.status == hy.FAIL
        assert abs(abs(rec.lhs) - 1e-5) <= 1e-9

    def test_edge_pair_converges(self):
        # at S = 0.999 every inner integral converges and the record passes
        rec = hy.check_weighted_residual(0.5, hy.ParameterPair(0.5, 0.999))
        assert rec.status == hy.PASS
        assert rec.metadata["inner_unconverged"] == 0

    def test_unconverged_inner_integral_stops_the_record(self, tmp_path):
        # at S = 1 - 2**-53 the inner integral M(0) comes back unconverged at
        # 32,769 evaluations; the outer rule used to halve on, one such
        # integral per node, for more than a minute
        config = tmp_path / "edge.json"
        config.write_text(json.dumps({"pairs": [[0.5, 0.9999999999999999]],
                                      "suites": ["weighted_residual"], "r_values": [1.0]}))
        report = tmp_path / "report.json"
        proc = subprocess.run([sys.executable, "-m", "hypident", "--config", str(config),
                               "--output", str(report)], capture_output=True, timeout=10)
        assert proc.returncode == 3
        [rec] = json.loads(report.read_text())["records"]
        md = rec["metadata"]
        assert rec["status"] == hy.UNCONVERGED and rec["lhs"] is None
        assert md["inner_unconverged"] == 1 and md["nodes"] == 1 + 32769
        assert md["reason"] == ("the inner integral M(t) at t = 0 did not converge in 32769 "
                                "evaluations, so the outer rule stopped at its node 1")

    def test_stops_at_the_smallest_failing_t_of_a_level(self):
        # T16's level hands the ends first, but its inner integrals run in ascending t: at
        # (0.5, 0.99999) M(t) fails at t = 1.38562 and at t = WR_T_MAX, and the record names
        # the first, after the five converged integrals below it
        identity_suite.wr_inner_memo.cache_clear()
        rec = hy.check_weighted_residual(1.0, hy.ParameterPair(0.5, 0.99999))
        identity_suite.wr_inner_memo.cache_clear()
        assert rec.status == hy.UNCONVERGED and rec.metadata["nodes"] == 53260
        assert rec.metadata["reason"] == (
            "the inner integral M(t) at t = 1.38562 did not converge in 32769 evaluations, "
            "so the outer rule stopped at its node 6")

    def test_other_radii_stop_at_the_memoized_failure(self, monkeypatch):
        # a smaller inner budget, three levels (T16, T32, T64), fails every M(t)
        # of the edge pair at once; the pair's first record pays it, the next
        # stops on the memoized failure
        monkeypatch.setattr(identity_suite, "WR_INNER_POLICY",
                            hy.EvaluationPolicy(abs_tol=2e-10, rel_tol=1e-9, max_nodes=65))
        calls = _count_engine_calls(monkeypatch)
        doc = cli.run(cli.GridConfig.from_dict({"pairs": [[0.5, 0.9999999999999999]],
                                                "suites": ["weighted_residual"],
                                                "r_values": [1.0, 10.0]}))
        # the outer rule hands its first level, 17 nodes, to one call, which
        # stops at its first node; `nodes` counts what the record rests on
        assert calls == {"integrate_chebyshev_weighted": 65, "nested_trapezoid": 2 * 17}
        for rec in doc.records:
            assert rec.status == hy.UNCONVERGED and rec.lhs is None
            assert rec.metadata["nodes"] == 1 + 65 and rec.metadata["inner_unconverged"] == 1
            assert "at t = 0 did not converge in 65 evaluations" in rec.metadata["reason"]

    def test_scale_below_tolerance_is_degenerate(self):
        # at r = 1e160 the whole weight is below 1e-80, so any lhs would pass
        with pytest.raises(DegenerateConfigurationError, match="vacuous"):
            hy.check_weighted_residual(1e160, PAIR)
        doc = cli.run(cli.GridConfig.from_dict(
            {"r_values": [1e160], "suites": ["weighted_residual"]}))
        assert doc.records and all(rec.status == hy.SKIPPED for rec in doc.records)
        assert all("vacuous" in rec.metadata["reason"] for rec in doc.records)


def _reference_real_integrand(pair, t):
    # the real-t main integrand as written inline in the checks, its angles from
    # shift_angles and sqrt(z) - sqrt(T) as (z - T) / (sqrt(z) + sqrt(T)); the
    # shared kernel must reproduce it bit for bit
    st, ss = pair.sqrt_T, pair.sqrt_S
    s_val = pair.S
    inv_ss = 1.0 / (1.0 - ss) ** 2

    def f(z):
        sz = math.sqrt(z)
        y = (1.0 + sz) * ((z - pair.T) / (sz + st)) / (2.0 * (1.0 - st) * sz)
        x = (s_val - z) * (1.0 - z) * inv_ss / z
        return (math.cosh(4.0 * t * special_functions.shift_angles(-y)[1])
                * math.cos(2.0 * t * special_functions.shift_angles(x)[0]) / (1.0 - z))

    return f


class TestMainKernel:
    @pytest.mark.parametrize("T, S", [(0.5, 1.0 - 2.0 ** -53), (1e-310, 0.5)])
    def test_finite_at_both_ends(self, T, S):
        # the Chebyshev engine evaluates the kernel at T and S themselves: at
        # S = 1 - 2**-53 Y(S) rounds past 1, where asin(sqrt(Y)) would raise a
        # math domain error, and at T = 1e-310 x(T) overflows to inf, whose
        # cosine would raise too; both are clamped, so each t gives a record
        pair = hy.ParameterPair(T, S)
        assert identity_suite._y(S, pair) > 1.0 or (S - T) / T == math.inf
        for t in (0.0, 1.0, 0.5j, 0.3 + 0.4j):
            assert all(map(cmath.isfinite, _main_kernel(pair)(t).level((T, S))))
            rec = hy.check_main_identity(pair, t)
            assert rec.status == (hy.PASS if T < 0.5 and t == 0.0 else hy.UNCONVERGED)

    def test_real_t_bit_identical_to_reference(self):
        for pair in (hy.ParameterPair(*p) for p in cli.DEFAULT_PAIRS):
            at = _main_kernel(pair)   # one memo across every t and level
            for t in (0.0, 0.5, 1.0, 2.0, -1.3):
                ref, got = _reference_real_integrand(pair, t), at(t)
                for n in (16, 32, 64, 128, 256):
                    nodes = []
                    rule = hy.chebyshev_rule(lambda z: nodes.append(z) or got(z),
                                             pair.T, pair.S, n)
                    assert [got(z) for z in nodes] == [ref(z) for z in nodes]
                    assert rule == hy.chebyshev_rule(ref, pair.T, pair.S, n)

    def test_complex_t_matches_closed_form_factors(self):
        # complex t shares the real-t node geometry, so it agrees with the
        # closed-form factors to rounding rather than bit for bit
        pairs = [hy.ParameterPair(*p) for p in cli.DEFAULT_PAIRS + ((0.5, 0.999),)]
        for pair in pairs:
            at = _main_kernel(pair)   # one memo across every t
            nodes = [pair.T + (pair.S - pair.T) * (k + 0.5) / 25 for k in range(25)]
            for t in (0.5j, 0.3 + 0.4j, -1.1 + 0.2j, 1.5 - 0.7j):
                for z in nodes:
                    y = -hy.kernel_shifts(z, pair)[0]
                    want = (hy.f_2it_unit_interval(t, y)
                            * hy.f_it(t, _second_argument(z, pair)) / (1.0 - z))
                    assert abs(at(t)(z) - want) <= 1e-14 * abs(want), (pair, t, z)
                    assert _main_kernel(pair)(t)(z) == at(t)(z)   # cold == memoized

    def test_weighted_residual_independent_of_earlier_checks(self, monkeypatch):
        # a record computed cold equals the same record served from the
        # pair's inner-integral memo, and the one computed after another pair
        identity_suite.wr_inner_memo.cache_clear()
        first = hy.check_weighted_residual(1.0, PAIR)
        identity_suite.wr_inner_memo.cache_clear()
        for r in (0.5, 10.0, 100.0):
            hy.check_weighted_residual(r, PAIR)
        hy.check_main_identity(PAIR, 1.5)
        calls = _count_engine_calls(monkeypatch)
        assert hy.check_weighted_residual(1.0, PAIR) == first
        assert calls == {"nested_trapezoid": 129}   # every M(t) was a hit
        hy.check_weighted_residual(1.0, WIDE)
        assert hy.check_weighted_residual(1.0, PAIR) == first

    @pytest.mark.parametrize("suite, r_values", [("main_identity", cli.DEFAULT_R_VALUES),
                                                 ("weighted_residual", (10.0,))],
                             ids=["main_identity", "weighted_residual"])
    def test_every_evaluation_goes_through_an_engine(self, suite, r_values, monkeypatch):
        # each record's nodes count must equal the integrand calls made by
        # the engines, one per node, as an external call counter sees them;
        # with one r per pair, weighted_residual has no inner integral to share
        calls = _count_engine_calls(monkeypatch)
        doc = cli.run(cli.GridConfig.from_dict({"suites": [suite], "r_values": list(r_values)}))
        assert doc.records and sum(calls.values()) == sum(r.metadata["nodes"] for r in doc.records)

    def test_weighted_residual_pays_each_inner_integral_once_per_pair(self, monkeypatch):
        # a pair's first record pays its `nodes`; each further r pays only its
        # outer nodes, as every M(t) it needs is already in the memo
        calls = _count_engine_calls(monkeypatch)
        outer = []   # outer nodes of each record, in run order
        engine = identity_suite.nested_trapezoid

        def trapezoid(*args):
            est = engine(*args)
            outer.append(est.nodes_used)
            return est

        monkeypatch.setattr(identity_suite, "nested_trapezoid", trapezoid)
        doc = cli.run(cli.GridConfig.from_dict({"suites": ["weighted_residual"]}))
        n_r = len(cli.DEFAULT_R_VALUES)
        want = 0
        for i, (t_v, s_v) in enumerate(cli.DEFAULT_PAIRS):
            nodes = {rec.metadata["nodes"] for rec in doc.records
                     if (rec.metadata["T"], rec.metadata["S"]) == (t_v, s_v)}
            paid = set(outer[i * n_r:(i + 1) * n_r])
            assert len(nodes) == len(paid) == 1   # one node set per pair
            want += nodes.pop() + (n_r - 1) * paid.pop()
        assert len(outer) == len(doc.records)
        assert sum(calls.values()) == want <= 35000

    def test_weighted_residual_runs_do_equal_work(self, monkeypatch):
        # cli.run empties the memo, so neither run starts warm: not the first
        # from a check on the grid's first pair, nor the second from the first
        hy.check_weighted_residual(1.0, PAIR)
        assert (PAIR.T, PAIR.S) == cli.DEFAULT_PAIRS[0]
        calls = _count_engine_calls(monkeypatch)
        cfg = cli.GridConfig.from_dict({"suites": ["weighted_residual"]})
        counts = []
        for _ in range(2):
            cli.run(cfg)
            counts.append(sum(calls.values()))
            calls.clear()
        assert counts[0] == counts[1] > 0


def _count_engine_calls(monkeypatch) -> dict:
    """Wrap identity_suite's engines so each integrand call is counted; the
    returned dict maps an engine's name to the calls made through it."""
    calls = {}

    def counting(name, engine):
        def wrapped(f, *args, **kwargs):
            def count(n):
                calls[name] = calls.get(name, 0) + n
            return engine(_counted(f, count), *args, **kwargs)
        return wrapped

    _wrap_engines(monkeypatch, counting)
    return calls


def _second_argument(z, pair):
    # argument x(z) = (S-z)(1-z) / ((1-sqrt(S))^2 z) of the main integrand's
    # second closed-form factor, as a plain reference formula
    return (pair.S - z) * (1.0 - z) / ((1.0 - pair.sqrt_S) ** 2 * z)


def _reference_kernel_integrand(z, r, pair):
    # check_spectral_kernel's integrand as first written, and its envelope rate, written
    # inline, with the second factor in asinh(sqrt(x)); the shared spectral
    # integrand writes it as cos(4t asinh(sqrt(B))) at the kernel shifts
    y = -hy.kernel_shifts(z, pair)[0]
    x = _second_argument(z, pair)
    as_y = special_functions.shift_angles(-y)[1]
    lx = special_functions.shift_angles(x)[0]
    lr = special_functions.shift_angles(r)[0]
    inv_sqrt_1pr = 1.0 / math.sqrt(1.0 + r)

    def g(t):
        ln_w = identity_suite._LN_4PI2 - identity_suite._ln_cosh(identity_suite.TWO_PI * t)
        if as_y > 0.0:
            ln_w += identity_suite._ln_cosh(4.0 * t * as_y)
        return (math.exp(ln_w) * math.cos(4.0 * t * lr) * inv_sqrt_1pr
                * math.cos(2.0 * t * lx))

    return g, identity_suite.TWO_PI - 4.0 * as_y


def _reference_residual_weight(r):
    # check_weighted_residual's weight as first written inline
    lr = math.asinh(math.sqrt(r))
    inv_sqrt_1pr = 1.0 / math.sqrt(1.0 + r)

    def weight(t):
        return (math.exp(identity_suite._LN_4PI2
                         - identity_suite._ln_cosh(identity_suite.TWO_PI * t))
                * math.cos(4.0 * t * lr) * inv_sqrt_1pr)

    return weight


def _reference_ln_cosh(u):
    u = abs(u)
    return u + math.log1p(math.exp(-2.0 * u)) - math.log(2.0)


def _reference_spectral_integrand(a_shift, b_shift, c):
    # W as first written, one closure per sign of A, through _ln_cosh, its angles
    # from shift_angles
    pc, c2 = math.pi * c, 2.0 * c
    ln_4pi2 = math.log(4.0 * math.pi * math.pi)
    lb = special_functions.shift_angles(b_shift)[0]
    la, ga = special_functions.shift_angles(a_shift)
    if a_shift >= 0.0:
        def g(s):
            u = c2 * s
            return (math.exp(ln_4pi2 - _reference_ln_cosh(pc * s))
                    * math.cos(u * la) * math.cos(u * lb))
    else:
        def g(s):
            u = c2 * s
            w = math.exp(ln_4pi2 - _reference_ln_cosh(pc * s) + _reference_ln_cosh(u * ga))
            return w * math.cos(u * lb)

    return g


def _reference_power_integrand(a_shift, tau):
    # check_spectral_power's integrand and decay rate as first written, a branch per sign of A,
    # its angles from shift_angles
    z0 = 0.5 + tau
    la, ga = special_functions.shift_angles(a_shift)

    def g(s):
        base = math.log(4.0 * math.pi) + 2.0 * special_functions.log_gamma(complex(z0, s)).real
        if a_shift >= 0.0:
            return math.exp(base) * math.cos(2.0 * s * la)
        return math.exp(base + _reference_ln_cosh(2.0 * s * ga))

    return g, 0.9 * (math.pi - (2.0 * ga if a_shift < 0.0 else 0.0))


class TestSpectralIntegrand:
    def test_bit_identical_to_ln_cosh_reference(self):
        # both branches, c = 1 and 2, at Kronrod nodes, near s = 0, and out
        # where exp(-2v) and then the weight itself underflow to 0
        rng = random.Random(15)
        near_zero = [0.0, 5e-324, 1e-300, 1e-12, 1e-6]
        kronrod = [0.5 * (b - a) * x + 0.5 * (a + b) for (a, b) in ((0.0, 1.0), (1.0, 7.5))
                   for x in quadrature._K15_NODES]
        far = [60.0, 130.0, 250.0, 400.0, 1000.0]
        for c in (1.0, 2.0):
            for a_shift in (-0.9, -0.5, -1e-9, -0.0, 0.0, 1e-9, 0.25, 3.0):
                for b_shift in (0.0, 1e-9, 1.5, 40.0):
                    got = identity_suite._spectral_integrand(a_shift, b_shift, c)[0]
                    ref = _reference_spectral_integrand(a_shift, b_shift, c)
                    ss = near_zero + kronrod + far + [rng.uniform(0.0, 12.0) for _ in range(60)]
                    assert ([got(s).hex() for s in ss] == [ref(s).hex() for s in ss]), (
                        c, a_shift, b_shift)

    def test_residual_weight_bit_identical_to_reference(self, monkeypatch):
        # the weight check_weighted_residual hands the outer rule, captured there
        rng = random.Random(1)
        ts = [0.0] + [rng.uniform(0.0, 4.4) for _ in range(60)]
        seen = []

        def capture(f, *args):   # the weight is the packed integrand's real part
            seen.append([f(t).real for t in ts])
            return hy.IntegralEstimate(1j, 0.0, 1, True)

        monkeypatch.setattr(identity_suite, "nested_trapezoid", capture)
        for r in (0.01, 0.5, 1.0, 10.0, 100.0, 1e6):
            hy.check_weighted_residual(r, PAIR)
            ref = _reference_residual_weight(r)
            assert [w.hex() for w in seen.pop()] == [ref(t).hex() for t in ts], r
        _, strip, _, envelope, rate = identity_suite._spectral_integrand(0.0, 0.0, 2.0)
        assert (strip, envelope, rate) == (0.25, 8.0 * math.pi ** 2, identity_suite.TWO_PI)

    def test_kernel_integrand_matches_reference(self):
        # only the second factor's cos argument is rounded differently; the
        # difference is measured against the integrand's peak g(0), since
        # relative to g(t) itself it is unbounded where a cos factor crosses 0
        rng = random.Random(1)
        pairs = [hy.ParameterPair(*p) for p in cli.DEFAULT_PAIRS]
        for _ in range(2000):
            pair = rng.choice(pairs)
            z = min(pair.T + rng.random() * (pair.S - pair.T), pair.S)
            r = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            t = rng.uniform(0.0, 2.0)
            ref, ref_rate = _reference_kernel_integrand(z, r, pair)
            a_shift, b_shift = hy.kernel_shifts(z, pair)
            w, _, _, _, rate = identity_suite._spectral_integrand(a_shift, b_shift, 2.0)
            lr, inv_sqrt_1pr = math.asinh(math.sqrt(r)), 1.0 / math.sqrt(1.0 + r)

            def got(t):   # the integrand at r, W times the r factor
                return w(t) * math.cos(4.0 * t * lr) * inv_sqrt_1pr

            assert rate == ref_rate
            assert got(0.0) == ref(0.0)
            assert abs(got(t) - ref(t)) <= 1e-14 * ref(0.0), (pair, z, r, t)


class TestCheckRecordInvariant:
    @settings(max_examples=200, deadline=None)
    @given(lhs=st.floats(-1e3, 1e3), rhs=st.floats(-1e3, 1e3),
           tol=st.floats(1e-12, 1e3))
    def test_status_rule(self, lhs, rhs, tol):
        rec = hy.build_record("x", {"y": 1.0}, lhs, rhs, tol)
        ok = rec.abs_err <= rec.tolerance or rec.rel_err <= rec.tolerance
        assert (rec.status == hy.PASS) == ok

    @settings(max_examples=200, deadline=None)
    @given(lhs=st.floats(-1e3, 1e3), rhs=st.floats(-1e3, 1e3),
           tol=st.floats(1e-12, 1e3), consistent=st.booleans())
    def test_unconverged_estimate_decides(self, lhs, rhs, tol, consistent):
        # an unconverged estimate makes the record unconverged whatever it would be
        est = hy.IntegralEstimate(lhs, 1.0, 7, False)
        rec = hy.build_record("x", {"y": 1.0}, lhs, rhs, tol, est, consistent=consistent)
        assert rec.status == hy.UNCONVERGED and rec.metadata["nodes"] == 7

    def test_unconverged_priority(self):
        est = hy.IntegralEstimate(1.0, 0.0, 16, False)
        rec = hy.build_record("x", {"y": 1.0}, 1.0, 1.0, 1e-9, est)
        assert rec.status == hy.UNCONVERGED

    def test_estimate_nodes_become_the_record_nodes(self):
        # a converged estimate leaves the status to the values, and its nodes_used
        # is the record's `nodes`, after the params and the check's own fields
        est = hy.IntegralEstimate(1.0, 1e-12, 48, True)
        rec = hy.build_record("x", {"T": 0.25, "t": 0.5j}, 1.0, 1.0, 1e-9, est,
                              metadata={"digits_lost": 0.5})
        assert rec.status == hy.PASS
        assert list(rec.metadata.items()) == [("T", 0.25), ("t", 0.5j), ("digits_lost", 0.5),
                                              ("nodes", 48)]
        failed = hy.build_record("x", {"y": 1.0}, 1.0, 2.0, 1e-9, est)
        assert failed.status == hy.FAIL and failed.metadata["nodes"] == 48
        # a closed-form record rests on no estimate and has no `nodes`
        closed = hy.build_record("x", {"y": 1.0}, 1.0, 1.0, 1e-9, metadata={"residual": 0.0})
        assert closed.status == hy.PASS and "nodes" not in closed.metadata

    def test_consistency_flag(self):
        rec = hy.build_record("x", {"y": 1.0}, 1.0, 1.0, 1e-9, consistent=False)
        assert rec.status == hy.FAIL

    def test_record_names_itself_from_suite_and_params(self):
        # the id and the metadata echo both come from (suite, params), in
        # the order of params, with the check's own fields after them
        params = {"T": 0.25, "S": 0.5, "t": 0.5j}
        rec = hy.build_record("x", dict(params), 1.0, 1.0, 1e-9, metadata={"nodes": 3})
        assert rec.id == "x/T=0.25/S=0.5/t=0.5i" == hy.record_id("x", **params)
        assert list(rec.metadata.items()) == [*params.items(), ("nodes", 3)]
        skip = records.skipped_record("x", params, "why", 1e-9, {"nodes": 3})
        assert skip.id == rec.id and skip.status == hy.SKIPPED
        assert list(skip.metadata.items()) == [*params.items(), ("nodes", 3), ("reason", "why")]
        # a skip leaves the task's dict alone, which run_task may pass again
        assert params == {"T": 0.25, "S": 0.5, "t": 0.5j}


def _moved(value, tolerance):
    return value + 10.0 * tolerance * max(1.0, abs(value))


def _moved_d1(fam, tolerance):
    d_sum = fam.D1 + fam.D2 + fam.D3 + fam.D4
    return fam.replace(D1=fam.D1 + _moved(d_sum, tolerance) - d_sum)


# suite -> (owner, name, patch): patch(original, tolerance) replaces owner.name so
# that the check computes its closed form moved by 10 x tolerance x max(1, |value|)
CLOSED_FORM_SITES = {
    "main_identity": (hy.ParameterPair, "main_closed_form",
                      lambda orig, tol: lambda pair: _moved(orig(pair), tol)),
    "weighted_residual": (hy.ParameterPair, "main_closed_form",   # C inside the lhs
                          lambda orig, tol: lambda pair: _moved(orig(pair), tol)),
    "q_integral": (hy.ParameterPair, "q_closed_form",
                   lambda orig, tol: lambda pair: _moved(orig(pair), tol)),
    **dict.fromkeys(("spectral_resolvent", "spectral_product", "spectral_kernel"), (
        identity_suite, "_product_closed_form",
        lambda orig, tol: lambda *a: (_moved(orig(*a)[0], tol), orig(*a)[1]))),
    "obstruction": (identity_suite, "quadratic_family",
                    lambda orig, tol: lambda *a: _moved_d1(orig(*a), tol)),
    "quadratic_transform": (identity_suite, "f_2it_unit_interval",   # its rows with w > 0
                            lambda orig, tol: lambda t, w: _moved(orig(t, w), tol)),
}
# these checks write their closed form inline, as do quadratic_transform's rows with
# w <= 0; product_formula's rhs takes product_geometry's X+ and X-, but at t = 0 it is
# 2 whatever they are.  Only test_every_suite_fails_when_its_closed_form_moves
# (test_cli, which moves every rhs in build_record) covers them.
INLINE_CLOSED_FORMS = ("barnes", "spectral_power", "product_formula")


class TestClosedFormTeeth:
    """Each check fails every default-grid pass when the closed form it computes moves."""

    def test_every_suite_is_classified(self):
        assert sorted([*CLOSED_FORM_SITES, *INLINE_CLOSED_FORMS]) == sorted(cli.SUITES)

    @pytest.mark.parametrize("suite", sorted(CLOSED_FORM_SITES))
    def test_moved_closed_form_fails_every_pass(self, suite, monkeypatch):
        cfg = cli.GridConfig.from_dict({"suites": [suite]})
        passed = [rec.id for rec in cli.run(cfg).records if rec.status == hy.PASS
                  and (suite != "quadratic_transform" or rec.metadata["w"] > 0.0)]
        owner, name, patch = CLOSED_FORM_SITES[suite]
        monkeypatch.setattr(owner, name, patch(getattr(owner, name), cli.build_tasks(cfg)[0][3]))
        moved = {rec.id: rec.status for rec in cli.run(cfg).records}
        assert passed and [rid for rid in passed if moved[rid] != hy.FAIL] == []


# the strip-rule, Q and weighted-residual suites off the default grid, one pair near S = 1
SPECTRAL_CONFIG = {"pairs": [[0.2, 0.7], [0.5, 0.999]], "r_values": [0.3, 40.0],
                   "t_values": [0.0, [0.4, 0.3]], "suites": ["spectral_resolvent",
                   "spectral_product", "spectral_kernel", "q_integral", "weighted_residual"]}


class TestNodeIntegrand:
    """A level integrand's level(nodes) is its values node by node, bit for bit."""

    @pytest.mark.parametrize("config", [{}, SPECTRAL_CONFIG])
    def test_level_is_pointwise_at_the_engines_nodes(self, config, monkeypatch):
        checked = dict.fromkeys(ENGINES, 0)

        def checking(name, engine):
            def wrapped(f, *args, **kwargs):
                def level(nodes):
                    vals = f.level(nodes)
                    assert list(map(repr, vals)) == [repr(f(z)) for z in nodes], name
                    checked[name] += len(nodes)
                    return vals
                marked = isinstance(f, quadrature.NodeIntegrand)
                return engine(quadrature.NodeIntegrand(level) if marked else f, *args, **kwargs)
            return wrapped

        _wrap_engines(monkeypatch, checking)
        cli.run(cli.GridConfig.from_dict(config))
        # the main kernel, its peak, Q's h and its defect, and W are written a level at a time
        assert checked["integrate_chebyshev_weighted"] > 0 and checked["strip_trapezoid_rule"] > 0

    @pytest.mark.parametrize("config", [{}, SPECTRAL_CONFIG])
    def test_pointwise_path_prints_the_same_report(self, config, monkeypatch):
        # every engine's integrand wrapped in a plain function, as a tracer wraps it, so
        # each NodeIntegrand is called one node at a time
        cfg = cli.GridConfig.from_dict(config)
        plain = _report(cli.run(cfg))
        wrapped = dict.fromkeys(ENGINES, 0)

        def pointwise(name, engine):
            def run(f, *args, **kwargs):
                wrapped[name] += isinstance(f, quadrature.NodeIntegrand)
                return engine(lambda x: f(x), *args, **kwargs)
            return run

        _wrap_engines(monkeypatch, pointwise)
        assert _report(cli.run(cfg)) == plain
        assert wrapped["integrate_chebyshev_weighted"] > 0 and wrapped["strip_trapezoid_rule"] > 0


class TestLayers:
    """The scalar and engine layers stay below the checks, and every check is here."""

    def test_scalar_and_engine_layers_import_only_errors(self):
        for module in (special_functions, quadrature):
            tree = ast.parse(inspect.getsource(module))
            package = [node.module for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level]
            package += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names if alias.name.startswith("hypident")]
            assert package == ["errors"], module.__name__

    def test_every_angle_comes_from_shift_angles(self):
        # the checks take la and ga from special_functions.shift_angles; the one inverse
        # trigonometric call left is the quadratic transform's w >= 1/4 phase, its own side
        tree = ast.parse(inspect.getsource(identity_suite))
        calls = [(getattr(outer, "name", None), node.func.attr)
                 for outer in tree.body for node in ast.walk(outer)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
                 and node.func.attr in ("asin", "asinh", "atan2")]
        assert calls == [("check_quadratic_transform", "asin")]

    def test_every_check_lives_in_identity_suite(self):
        checks = [name for name in hy.__all__ if name.startswith("check_")]
        assert len(checks) == 11
        assert {getattr(hy, name).__module__ for name in checks} == {"hypident.identity_suite"}


class TestRGuard:
    """_poly_coeffs owns the r <= 0 guard of the kernel's three users."""

    @pytest.mark.parametrize("call", [lambda r: hy.kernel_factors(0.375, r, PAIR),
                                      lambda r: hy.quadratic_family(r, PAIR),
                                      lambda r: hy.check_q_integral(r, PAIR)],
                             ids=["kernel_factors", "quadratic_family", "check_q_integral"])
    def test_one_message(self, call):
        with pytest.raises(DomainError, match="^r must be positive, got 0$"):
            call(0.0)

    def test_kernel_factors_checks_z_before_r(self):
        with pytest.raises(DomainError, match="outside"):
            hy.kernel_factors(0.2, 0.0, PAIR)
