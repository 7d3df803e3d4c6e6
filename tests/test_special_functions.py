"""Tests for the scalar kernels: log-gamma and the closed trigonometric
forms of the F(it,-it;1/2;x) family, judged against mpmath at 30 digits."""

import cmath
import json
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypident as hy
from hypident import (DEFAULT_POLICY, DegenerateConfigurationError, DomainError, cli,
                      identity_suite, special_functions)

mpmath.mp.dps = 30


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(hy.log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert abs(hy.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_reflection_modulus_on_critical_line(self):
        # |Gamma(1/2+is)|^2 = pi / cosh(pi s); reflection-formula oracle
        s = 0.7
        lhs = math.exp(2.0 * hy.log_gamma(complex(0.5, s)).real)
        rhs = math.pi / math.cosh(math.pi * s)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_pole_rejection(self):
        for z in (0.0, -1.0, -7.0, complex(-3.0, 0.0)):
            with pytest.raises(DomainError):
                hy.log_gamma(z)

    def test_conjugate_symmetry(self):
        z = complex(2.3, -4.5)
        assert hy.log_gamma(z) == hy.log_gamma(z.conjugate()).conjugate()

    def test_accuracy_against_mpmath_disc(self):
        # scaled error |dz| / max(1, |ref|) <= 1e-13 over |z| <= 50
        # (plain relative error is ill-posed near the zeros of log gamma)
        xs = (-49.3, -35.7, -20.2, -9.9, -4.5, -2.3, -0.7, -0.2, 0.1, 0.3,
              0.5, 0.75, 1.5, 2.5, 3.3, 7.7, 12.1, 25.4, 49.7)
        ys = (-40.0, -12.5, -3.3, -0.9, -0.1, 0.0, 0.1, 0.9, 3.3, 12.5, 40.0)
        worst = 0.0
        for x in xs:
            for y in ys:
                z = complex(x, y)
                if abs(z) > 50.0 or (y == 0.0 and x <= 0.0 and x == int(x)):
                    continue
                ref = complex(mpmath.loggamma(mpmath.mpc(z)))
                err = abs(hy.log_gamma(z) - ref) / max(1.0, abs(ref))
                worst = max(worst, err)
        assert worst <= 1e-13

    def test_exp_matches_gamma_on_negative_axis(self):
        for x in (-0.5, -2.5, -6.3):
            got = cmath.exp(hy.log_gamma(x))
            ref = complex(mpmath.gamma(x))
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_bit_identical_to_reference(self):
        # each half-plane's path: the Lanczos sum (Re z >= 1/2), the
        # reflection (Re z < 1/2, with Barnes' z = 2is), the conjugate
        # (Im z < 0), and points a hair from the poles
        rng = random.Random(15)
        points = [complex(rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0))
                  for _ in range(3000)]
        points += [complex(x, s) for x in (0.0, 0.5, 0.75, 1.0, 1.5) for s in
                   (5e-324, 1e-300, 1e-12, 0.01, 0.37, 1.0, 6.5, 40.0, 200.0)]
        for k in range(9):
            for d in (1e-15, 1e-9, 1e-4, 0.3):
                points += [complex(-k + d, 0.0), complex(-k - d, 0.0), complex(-k, d),
                           complex(-k, -d), complex(-k + d, -d)]
        points += [complex(0.5, -0.0), complex(-0.0, 2.0), complex(2.5, 0.0), 3]
        for z in points:
            assert _outcome(hy.log_gamma, z) == _outcome(_reference_log_gamma, z), z

    # log_gamma's bits at points of each path, as its Lanczos loop over a coefficient tuple
    # gave them before the sum was written out as one expression
    LOOP_BITS = (
        (complex(0.5, 0.37), "0x1.2a12d630cd800p-2", "-0x1.3bc8a3fa8fad4p-1"),
        (complex(0.75, 6.5), "-0x1.1a59e350c18d5p+3", "0x1.83e7b11ec9844p+2"),
        (complex(1.0, 0.001), "-0x1.b98ef8a000000p-21", "-0x1.2ea08575e21b8p-11"),
        (complex(1.3, 40.0), "-0x1.d7b1b8e9d7231p+5", "0x1.b3382c7220770p+6"),
        (complex(1.5, 2.0), "-0x1.7fcb555e88e9ep+0", "0x1.777090c54d876p-1"),
        (complex(2.5, 0.0), "0x1.2383e809a6808p-2", "0x0.0p+0"),
        (complex(0.0, 0.722), "-0x1.806cafaec6540p-5", "-0x1.ddeb6deb6ba17p+0"),
        (complex(0.0, 80.0), "-0x1.fbbe3d5b032dfp+6", "0x1.0dc693ae6c51fp+8"),
        (complex(0.25, 1.0), "-0x1.48e43c74890fep-1", "-0x1.619514867296bp+0"),
        (complex(-1.3, 0.7), "-0x1.8e91b10427e20p-2", "-0x1.4ec2a6a3b674dp+2"),
        (complex(3.7, -12.5), "-0x1.5334d59d53564p+3", "-0x1.7b23012cd4af3p+4"),
    )

    def test_bits_pinned_to_the_loop(self):
        for z, re_bits, im_bits in self.LOOP_BITS:
            assert _outcome(hy.log_gamma, z) == (re_bits, im_bits), z

    def test_suite_paths_within_32_eps(self):
        # the Lanczos path at the suites' Re z (barnes' a, b, c, spectral_power's 1/2 + tau
        # and the kernel's shifts) and the reflection at barnes' 2is, s to 40, against 40
        # digits: |error| / max(1, |log gamma|) measured at most 21.1 eps (Re z = 1/2, s = 8.4),
        # bounded at 32 eps to leave room for another platform's libm
        worst = 0.0
        with mpmath.workdps(40):
            for k in range(1, 401):
                s = 40.0 * (k / 400) ** 2   # denser near s = 0
                for z in [complex(x, s) for x in (0.5, 0.75, 1.0, 1.3, 1.5, 2.5)] + [2j * s]:
                    ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
                    got = hy.log_gamma(z)
                    worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - ref)
                                             / max(1, abs(ref))))
        assert worst <= 32 * 2.0 ** -52, worst / 2.0 ** -52


def _f_half_shifted(s, r):
    # F(1/2+is,1/2-is;1/2;-r) for r > -1 by its closed form
    # (1+r)^(-1/2) cos(2 s log(sqrt(r+1) + sqrt(r))), as a plain reference formula
    w = cmath.sqrt(r + 1.0) + cmath.sqrt(complex(r))
    return cmath.cos(2.0 * s * cmath.log(w)) / math.sqrt(1.0 + r)


def _outcome(f, z):
    """f(z)'s bits (telling -0.0 from 0.0), or the exception it raised."""
    try:
        v = f(z)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


# the Lanczos coefficients (g = 7), as log_gamma first held them in a tuple
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028, 771.32342877765313,
            -176.61502916214059, 12.507343278686905, -0.13857109526572012,
            9.9843695780195716e-6, 1.5056327351493116e-7)


def _reference_log_gamma(z):
    # log_gamma as first written: the Lanczos loop over range() and every
    # constant formed at each call; the module must reproduce it bit for bit
    z = complex(z)
    if z.imag < 0.0:
        return _reference_log_gamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        w = cmath.exp(2j * math.pi * z)
        log_sin_pi = (complex(-math.log(2.0), 0.5 * math.pi) - 1j * math.pi * z
                      + cmath.log(1.0 - w))
        return complex(math.log(math.pi), 0.0) - log_sin_pi - _reference_log_gamma(1.0 - z)
    coeffs = _LANCZOS
    zm = z - 1.0
    s = complex(coeffs[0], 0.0)
    for i in range(1, len(coeffs)):
        s += coeffs[i] / (zm + i)
    t = zm + (7.0 + 0.5)
    return 0.5 * math.log(2.0 * math.pi) + (zm + 0.5) * cmath.log(t) - t + cmath.log(s)


class TestClosedForms:
    def test_f_it_trivials(self):
        assert hy.f_it(1.7, 0.0) == 1.0
        assert hy.f_it(0.0, 5.0) == 1.0

    def test_f_it_at_one(self):
        # t=1, x=1: cos(2 asinh(1)) = cos(2 log(1+sqrt(2)))
        assert abs(hy.f_it(1.0, 1.0) - (-0.19077427463725945)) < 1e-14

    def test_f_it_domain(self):
        with pytest.raises(DomainError):
            hy.f_it(1.0, -1.0)
        with pytest.raises(DomainError):
            hy.f_it(complex(math.inf, 0.0), 1.0)

    def test_f_2it_trivials(self):
        assert hy.f_2it_unit_interval(0.0, 0.3) == 1.0
        assert abs(hy.f_2it_unit_interval(1.0, 1e-12) - 1.0) < 1e-5

    def test_f_2it_half(self):
        # t=1/2, Y=1/2: asin(sqrt(1/2)) = pi/4, so the value is cosh(pi/2)
        got = hy.f_2it_unit_interval(0.5, 0.5)
        assert abs(got - math.cosh(math.pi / 2.0)) < 1e-14

    def test_f_2it_domain(self):
        for y in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                hy.f_2it_unit_interval(1.0, y)

    def test_f_half_trivials(self):
        assert _f_half_shifted(2.2, 0.0) == 1.0
        r = 3.0
        assert abs(_f_half_shifted(0.0, r) - 1.0 / math.sqrt(1.0 + r)) < 1e-15

    def test_f_half_value(self):
        # s=1, r=3: (1/2) cos(2 log(2+sqrt(3)))
        got = _f_half_shifted(1.0, 3.0)
        assert abs(got - (-0.4369381278751209)) < 1e-14

    # the series oracle is mpmath.hyp2f1 at 30 digits (mpmath sums the
    # hypergeometric series, transformed where |x| >= 1)
    @pytest.mark.parametrize("t,x", [(1.0, 1.0), (2.5, 0.2), (0.5j, 3.0),
                                     (1.3, -0.7), (0.3 + 0.4j, 12.0)])
    def test_f_it_vs_series_oracle(self, t, x):
        closed = hy.f_it(t, x)
        oracle = complex(mpmath.hyp2f1(1j * t, -1j * t, 0.5, -x))
        assert abs(closed - oracle) <= 1e-11 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("t,y", [(0.5, 0.5), (2.0, 0.1), (1.0, 0.9),
                                     (0.2 + 0.1j, 0.4)])
    def test_f_2it_vs_series_oracle(self, t, y):
        closed = hy.f_2it_unit_interval(t, y)
        oracle = complex(mpmath.hyp2f1(2j * t, -2j * t, 0.5, y))
        assert abs(closed - oracle) <= 1e-11 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("s,r", [(1.0, 3.0), (2.0, 0.4), (0.7, 15.0),
                                     (1.5 + 0.2j, 2.0), (1.0, -0.6)])
    def test_f_half_vs_series_oracle(self, s, r):
        closed = _f_half_shifted(s, r)
        oracle = complex(mpmath.hyp2f1(0.5 + 1j * s, 0.5 - 1j * s, 0.5, -r))
        assert abs(closed - oracle) <= 1e-11 * max(1.0, abs(oracle))


class TestAngle:
    """The angle L(x) = log(sqrt(x+1) + sqrt(x)) of every closed form, la = asinh(sqrt(x))
    for x >= 0 and i ga = i asin(sqrt(-x)) below, against mpmath at 40 digits."""

    def test_within_3_ulp_and_real_for_real_t(self):
        # a phase 2t L that is 3 ulp of L off, rounded once more, moves cos or cosh by at
        # most that over max(1, |value|), plus the cosine's own rounding
        rng, eps = random.Random(29), 2.0 ** -52
        xs = ([10.0 ** rng.uniform(-12.0, 3.0) for _ in range(300)]
              + [-10.0 ** rng.uniform(-12.0, -0.3) for _ in range(300)]
              + [-1.0 + 10.0 ** rng.uniform(-12.0, -0.3) for _ in range(300)])
        with mpmath.workdps(40):
            for x in xs:
                mx = mpmath.mpf(x)
                ref = mpmath.asinh(mpmath.sqrt(mx)) if x >= 0.0 else mpmath.asin(mpmath.sqrt(-mx))
                base, angle = special_functions.log_base(x), float(ref)
                got, zero = (base.real, base.imag) if x >= 0.0 else (base.imag, base.real)
                assert zero == 0.0 and abs(got - ref) <= 3.0 * math.ulp(angle), x
                for t in (1.3, -0.7, 2.0):
                    value = hy.f_it(t, x)
                    assert value.imag == 0.0, (t, x)
                    want = mpmath.cos(2 * t * ref) if x >= 0.0 else mpmath.cosh(2 * t * ref)
                    bound = max(1.0, abs(float(want))) * (
                        6.0 * abs(t) * math.ulp(angle) + math.ulp(2.0 * t * angle) + 2.0 * eps)
                    assert abs(value.real - want) <= bound, (t, x)
                    if x < 0.0:   # F(2iu,-2iu;1/2;Y) at Y = -x, u = t/2
                        assert abs(hy.f_2it_unit_interval(0.5 * t, -x) - want) <= bound, (t, x)


class TestBranchAndSymmetry:
    @pytest.mark.parametrize("x", [-0.9, -0.5, -0.01, 0.0, 0.3, 1.0, 7.5, 40.0])
    @pytest.mark.parametrize("t", [0.7, 2.0, 0.5j, 0.4 + 1.1j])
    def test_branch_contract(self, x, t):
        # (sqrt(x+1)+sqrt(x))^(-2it) = (sqrt(x+1)-sqrt(x))^(2it) for x > -1
        w_plus = cmath.sqrt(x + 1.0) + cmath.sqrt(complex(x))
        w_minus = cmath.sqrt(x + 1.0) - cmath.sqrt(complex(x))
        lhs = cmath.exp(-2j * t * cmath.log(w_plus))
        rhs = cmath.exp(2j * t * cmath.log(w_minus))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @settings(max_examples=80, deadline=None)
    @given(tr=st.floats(-3.0, 3.0), ti=st.floats(-2.0, 2.0),
           x=st.floats(-0.999, 50.0))
    def test_evenness(self, tr, ti, x):
        t = complex(tr, ti)
        a = hy.f_it(t, x)
        b = hy.f_it(-t, x)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.5, 5.0, 10.0])
    def test_gamma_weight_ratio_closed_form(self, s):
        # Gamma(is)Gamma(-is) / (Gamma(2is)Gamma(-2is)) = 4 cosh(pi s)
        lhs = math.exp(2.0 * (hy.log_gamma(complex(0.0, s)).real
                              - hy.log_gamma(complex(0.0, 2.0 * s)).real))
        rhs = 4.0 * math.cosh(math.pi * s)
        assert abs(lhs - rhs) <= 1e-11 * rhs


class TestQuadraticTransform:
    def test_trivial_w_zero(self):
        rec = hy.check_quadratic_transform(1.3, 0.0)
        assert rec.status == hy.PASS and rec.lhs == rec.rhs == 1.0

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.0, 0.5j, 0.3 + 0.4j])
    def test_endpoint_half_limit(self, t):
        rec = hy.check_quadratic_transform(t, 0.5)
        assert rec.status == hy.PASS
        if isinstance(t, float):
            # both sides equal cosh(pi t) in the limit
            assert abs(rec.lhs - math.cosh(math.pi * t)) < 1e-10 * math.cosh(math.pi * t)

    def test_negative_w(self):
        rec = hy.check_quadratic_transform(1.3, -0.7, tolerance=1e-11)
        assert rec.status == hy.PASS and rec.abs_err <= 1e-11

    def test_rejects_w_above_half(self):
        with pytest.raises(DomainError):
            hy.check_quadratic_transform(1.0, 0.6)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-2.5, 2.5), w=st.floats(-5.0, 0.5))
    def test_property_grid(self, t, w):
        rec = hy.check_quadratic_transform(t, w, tolerance=1e-10)
        assert rec.status == hy.PASS

    SMALL_W = (5146.96466425, 5.97605201009e-07)   # a phase 4t asin(sqrt(w)) of 15.9

    def test_small_w_phase_without_cancellation(self):
        # pi/2 - asin(1 - 2w) lost about eps/w relative of the phase 2 asin(sqrt(w)):
        # here the left side read 9.5e-4 off, a false fail.  The left side is f_it at
        # 4w(1-w), the right f_it(2t, -w), two angles, so each is judged on its own against
        # 40 digits (left 4e-16, right 3.1e-15 relative; their abs_err is 1.4e-8 of 4.1e6)
        t, w = self.SMALL_W
        rec = hy.check_quadratic_transform(t, w)
        with mpmath.workdps(40):
            want = mpmath.cosh(4 * mpmath.mpf(t) * mpmath.asin(mpmath.sqrt(mpmath.mpf(w))))
            errs = [float(abs(side - want) / want) for side in (rec.lhs, rec.rhs)]
        assert rec.status == hy.PASS and max(errs) <= 1e-14, errs

    @pytest.mark.parametrize("side", ["f_it", "f_2it_unit_interval"])   # left, right
    def test_small_w_moved_side_fails(self, side, monkeypatch):
        orig = getattr(identity_suite, side)
        monkeypatch.setattr(identity_suite, side,
                            lambda t, x: orig(t, x) * (1.0 + 10.0 * DEFAULT_POLICY.abs_tol))
        assert hy.check_quadratic_transform(*self.SMALL_W).status == hy.FAIL


class TestProductFormula:
    def test_trivial(self):
        rec = hy.check_product_formula(0.0, 1.0, 1.0)
        assert rec.status == hy.PASS and rec.lhs == 2.0 and rec.rhs == 2.0

    def test_equal_arguments_double_angle(self):
        # x = y makes X- = 0 and reduces to 2 f^2 = f(X+) + 1
        rec = hy.check_product_formula(0.9, 0.8, 0.8, tolerance=1e-12)
        assert rec.status == hy.PASS

    def test_complex_t(self):
        rec = hy.check_product_formula(0.8 + 0.2j, 0.3, 2.0, tolerance=1e-11)
        assert rec.status == hy.PASS
        assert rec.metadata["companion_residual"] <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            hy.check_product_formula(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            hy.check_product_formula(1.0, 1.0, -0.5)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-2.0, 2.0), x=st.floats(0.01, 10.0), y=st.floats(0.01, 10.0))
    def test_property_grid(self, t, x, y):
        rec = hy.check_product_formula(t, x, y, tolerance=1e-10)
        assert rec.status == hy.PASS

    def test_close_arguments_x_minus_without_cancellation(self):
        # X- as (sqrt(x) sqrt(y+1) - sqrt(y) sqrt(x+1))^2 cancelled to about eps x / X-
        # relative; here the record failed at rel_err 1.9e-9
        rec = hy.check_product_formula(1763.00527031, 817.716254418, 461.771804589)
        assert rec.status == hy.PASS and rec.rel_err <= 1e-10
        x, y = 817.716254418, 461.771804589
        with mpmath.workdps(50):
            mx, my = mpmath.mpf(x), mpmath.mpf(y)
            want = (mpmath.sqrt(mx * (my + 1)) - mpmath.sqrt(my * (mx + 1))) ** 2
        assert identity_suite.product_geometry(x, y)[1] == pytest.approx(float(want), rel=1e-14)


SWEEP_T = tuple(10.0 ** (3.0 + k / 4.0) for k in range(21))   # |t| from 1e3 to 1e8
OVERFLOW = "the point overflows the float range: "


def _closed_form_checks():
    """(check, args) for every grid point of the two closed-form suites."""
    return ([(hy.check_product_formula, xy) for xy in cli.PRODUCT_XY_GRID]
            + [(hy.check_quadratic_transform, (w,)) for w in cli.TRANSFORM_W_GRID])


def _recording_budget(monkeypatch) -> list:
    """Patch identity_suite._phase_budget to append each bound it forms, also one that
    raises; the checks look the helper up by name at call time."""
    bounds, budget = [], identity_suite._phase_budget

    def recorded(tolerance, t, big, reach):
        bounds.append(budget(math.inf, t, big, reach))
        return budget(tolerance, t, big, reach)

    monkeypatch.setattr(identity_suite, "_phase_budget", recorded)
    return bounds


class TestPhaseBudget:
    """Both closed-form suites compare cosines of phases t * angle, which round by about
    eps |phase|; where that can move them past the tolerance the point is skipped."""

    def test_large_t_sweep_has_no_fail(self):
        ts = [[m, 0.0] for m in SWEEP_T] + [[0.0, m] for m in SWEEP_T]
        doc = cli.run(cli.GridConfig.from_dict(
            {"t_values": ts, "suites": ["product_formula", "quadratic_transform"]}))
        assert doc.summary["fail"] == 0
        for rec in doc.records:
            if abs(rec.metadata["t"]) <= 1e4:   # the budget skips none of these
                assert rec.status == hy.PASS or rec.metadata["reason"].startswith(OVERFLOW)
            elif rec.status != hy.PASS:
                assert rec.status == hy.SKIPPED, rec.id
                assert re.fullmatch(r"(the point overflows the float range: .*|rounding phases "
                                    r"up to \S+ may move the closed forms by \S+, past the "
                                    r"tolerance)", rec.metadata["reason"]), rec.id
        low = [rec for rec in doc.records if abs(rec.metadata["t"]) <= 1e4]
        assert sum(rec.status == hy.PASS for rec in low) == 40   # as before the budget
        # a point whose cosines overflow says so, as before the budget: the product's at
        # imaginary t and the transform's with a real t and w > 0, or imaginary t and w < 0
        for rec in doc.records:
            t, w = rec.metadata["t"], rec.metadata.get("w")
            if (w is None and t.imag) or (w is not None and w * (t.real - t.imag) > 0.0):
                assert rec.metadata["reason"].startswith(OVERFLOW), rec.id

    @pytest.mark.parametrize("sign", [1.0, 1j])
    def test_bound_covers_every_record_that_runs(self, monkeypatch, sign):
        bounds = _recording_budget(monkeypatch)
        ran = 0
        for t in SWEEP_T:
            for check, args in _closed_form_checks():
                bounds.clear()
                try:
                    rec = check(t * sign, *args, tolerance=1e-10)
                except DegenerateConfigurationError:
                    assert bounds[-1] > 1e-10
                    continue
                except OverflowError:
                    continue
                ran += 1
                bound = bounds[-1] if bounds else 0.0   # w = 0 forms no phase: both sides are 1
                assert rec.status == hy.PASS and rec.abs_err <= bound, (rec.id, bound)
        assert ran >= 30

    @settings(max_examples=300, deadline=None)
    @given(t=st.complex_numbers(max_magnitude=1e7, allow_nan=False, allow_infinity=False),
           point=st.integers(0, 6))
    def test_bound_in_the_verdicts_terms(self, t, point):
        # anywhere in the complex plane a record that runs passes, and differs by at most
        # its bound times max(1, |rhs|); one that is skipped has a bound past its tolerance
        check, args = _closed_form_checks()[point]
        with pytest.MonkeyPatch.context() as patch:
            bounds = _recording_budget(patch)
            try:
                rec = check(t, *args, tolerance=1e-10)
            except DegenerateConfigurationError:
                assert bounds[-1] > 1e-10
                return
            except OverflowError:
                return
        assert rec.status == hy.PASS
        bound = bounds[-1] if bounds else 0.0   # w = 0 forms no phase: both sides are 1
        assert rec.abs_err <= bound * max(1.0, abs(rec.rhs))

    def test_a_looser_tolerance_lets_large_t_run(self, tmp_path):
        # at t = 1e6 the phases round by about 5e-9: past 1e-10, within 1e-6
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_values": [1e6], "suites": ["product_formula"]}))
        out = tmp_path / "report.json"
        assert cli.main(["--config", str(config), "--jobs", "1", "--output", str(out)]) == 3
        records = json.loads(out.read_text())["records"]
        assert [rec["status"] for rec in records] == [hy.SKIPPED] * 3
        assert cli.main(["--config", str(config), "--jobs", "1", "--tol", "1e-6",
                         "--output", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [rec["status"] for rec in records] == [hy.PASS] * 3

    def test_reason_names_the_largest_phase_and_the_bound(self):
        with pytest.raises(DegenerateConfigurationError) as info:
            hy.check_product_formula(1e6, 1.0, 1.0)
        phase, bound = re.fullmatch(r"rounding phases up to (\S+) may move the closed forms "
                                    r"by (\S+), past the tolerance", str(info.value)).groups()
        largest = 2e6 * math.asinh(math.sqrt(8.0))   # t times X+'s angle, 2 asinh(sqrt 8)
        assert float(phase) == pytest.approx(largest, rel=5e-3)   # 3 digits
        assert 1e-10 < float(bound) < 1e-8

    def test_zero_angles_cost_nothing(self, monkeypatch):
        # at w = 0 both sides are 1 exactly, whatever t, and X- = 0 at x = y makes the
        # product's f(X-) exactly 1: neither is charged for rounding
        bounds = _recording_budget(monkeypatch)
        assert hy.check_quadratic_transform(1e300, 0.0).status == hy.PASS and bounds == []
        hy.check_product_formula(1.0, 0.8, 0.8)
        hy.check_product_formula(1.0, 0.8, 0.81)
        assert bounds[0] < bounds[1]
        big, reach = identity_suite.product_geometry(0.8, 0.8)[3]   # X+, x, x, y, y; X- = 0
        angle = 2.0 * special_functions.log_base(0.8)
        assert reach == pytest.approx(5.0 + abs(big) + 4.0 * abs(angle))


def _uncached_f_it(t, x):
    # f_it's closed form with its base la + i ga formed at every call
    return cmath.cos(2.0 * complex(t) * complex(*special_functions.shift_angles(x)))


class TestRunCaches:
    """f_it's base and the product formula's geometry are cached by value per run."""

    XS = (-0.0, 0.0, 5e-324, -0.999999, 0.3, 1e300)
    TS = (0.0, -0.0, 0.7, -2.5, complex(0.0, 0.4), complex(-0.0, -0.4), complex(0.3, 0.4),
          complex(0.3, -0.0), complex(-0.3, 0.0), complex(-0.0, -0.0), complex(1.5, -0.7))

    def test_f_it_bit_identical_to_uncached_formula(self):
        # each x cold, then from the cache, and in the other order of the signed zeros
        special_functions.log_base.cache_clear()
        for x in self.XS + self.XS[::-1]:
            for t in self.TS:
                assert (_outcome(lambda t: hy.f_it(t, x), t)
                        == _outcome(lambda t: _uncached_f_it(t, x), t)), (t, x)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_x_share_one_base(self, first):
        # -0.0 and 0.0 are one cache key; the uncached formula gives them the same bits
        special_functions.log_base.cache_clear()
        base = special_functions.log_base(first)
        assert special_functions.log_base(-first) is base
        assert special_functions.log_base.cache_info().currsize == 1
        for x in (0.0, -0.0):
            w = cmath.sqrt(x + 1.0) + cmath.sqrt(complex(x))
            assert _outcome(cmath.log, w) == (base.real.hex(), base.imag.hex())

    def test_product_geometry_once_per_point(self):
        identity_suite.product_geometry.cache_clear()
        cold = hy.check_product_formula(0.8 + 0.2j, 0.3, 2.0)
        warm = hy.check_product_formula(0.8 + 0.2j, 0.3, 2.0)
        info = identity_suite.product_geometry.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert warm == cold
