"""Tests for the interval kernels: shift arguments, kernel factors, the
main integrand's kernel, and the quadratic/partial-fraction family."""

import cmath
import math

import pytest

import hypident as hy
from hypident import DegenerateConfigurationError, DomainError
from hypident.identity_suite import _main_kernel, _poly_coeffs

PAIR = hy.ParameterPair(0.25, 0.5)
WIDE = hy.ParameterPair(0.1, 0.9)
THIN = hy.ParameterPair(0.4, 0.45)
PAIRS = (PAIR, WIDE, THIN)

# double root of the kernel quadratic for (T, S) = (1/4, 1/2); found by
# scanning the discriminant sign change and polishing with a root finder
R_DOUBLE_ROOT = 8.0 + 6.0 * math.sqrt(2.0)


def z_grid(pair, n):
    return [pair.T + (pair.S - pair.T) * k / (n - 1) for k in range(n)]


def second_argument(z, pair):
    # argument x(z) of the main integrand's second closed-form factor
    return (pair.S - z) * (1.0 - z) / ((1.0 - pair.sqrt_S) ** 2 * z)


class TestParameterPair:
    def test_validation(self):
        for t_v, s_v in ((0.5, 0.25), (0.0, 0.5), (0.25, 1.0), (-0.1, 0.5), (0.3, 0.3)):
            with pytest.raises(DomainError):
                hy.ParameterPair(t_v, s_v)

    def test_closed_forms(self):
        assert abs(PAIR.main_closed_form() - math.pi / math.sqrt(3.0 / 8.0)) < 1e-15
        expected_q = math.pi / (math.sqrt(0.75 * 0.5)
                                * math.sqrt(0.5 * (1.0 - math.sqrt(0.5))))
        assert abs(PAIR.q_closed_form() - expected_q) < 1e-12


class TestKernelShifts:
    def test_boundary_values(self):
        a, _ = hy.kernel_shifts(PAIR.T, PAIR)
        assert a == 0.0
        _, b = hy.kernel_shifts(PAIR.S, PAIR)
        assert b == 0.0

    def test_ranges(self):
        for pair in PAIRS:
            for z in z_grid(pair, 33):
                a, b = hy.kernel_shifts(z, pair)
                assert a > -1.0
                assert b >= 0.0

    def test_rejects_outside(self):
        with pytest.raises(DomainError):
            hy.kernel_shifts(0.2, PAIR)
        with pytest.raises(DomainError):
            hy.kernel_shifts(0.6, PAIR)

    def test_shift_sum_identity(self):
        # 1 + A + r + B = (M + R sqrt(z) + z K) / (2 (1-sqrt(T))(1-sqrt(S)) sqrt(z))
        z, r = 0.375, 1.0
        a, b = hy.kernel_shifts(z, PAIR)
        st_, ss = PAIR.sqrt_T, PAIR.sqrt_S
        rr, _, _, _, _, _ = _poly_coeffs(r, PAIR)
        sz = math.sqrt(z)
        num = (st_ + ss - 2.0 * ss * st_) + rr * sz + z * (st_ + ss - 2.0)
        rhs = num / (2.0 * (1.0 - st_) * (1.0 - ss) * sz)
        assert abs((1.0 + a + r + b) - rhs) <= 1e-12


class TestKernelFactors:
    def test_prefactor_positive(self):
        for pair in PAIRS:
            for z in z_grid(pair, 17):
                i1, _ = hy.kernel_factors(z, 0.5, pair)
                assert i1 > 0.0

    def test_denominator_positive_at_ends(self):
        for z in (PAIR.T, PAIR.S):
            _, _, _, e, f, g = _poly_coeffs(0.5, PAIR)
            assert e + f * z + g * z * z > 0.0

    def test_denominator_positive_grid(self):
        # E + F z + G z^2 > 0 on [T, S], including small r with complex roots
        for pair in PAIRS:
            for r in (0.01, 0.1, 0.5, 1.0, 10.0, 100.0):
                _, _, _, e, f, g = _poly_coeffs(r, pair)
                for z in z_grid(pair, 33):
                    assert e + f * z + g * z * z > 0.0

    def test_large_r_rate(self):
        # (1+r) i2 approaches 1/(2 (1-sqrt(T))(1-sqrt(S)) sqrt(z)) at rate 1/r
        st_, ss = PAIR.sqrt_T, PAIR.sqrt_S

        def worst_defect(r):
            worst = 0.0
            for z in z_grid(PAIR, 17):
                _, i2 = hy.kernel_factors(z, r, PAIR)
                base = 1.0 / (2.0 * (1.0 - st_) * (1.0 - ss) * math.sqrt(z))
                worst = max(worst, abs((1.0 + r) * i2 - base))
            return worst

        d10, d100, d1000 = worst_defect(10.0), worst_defect(100.0), worst_defect(1000.0)
        assert 5.0 <= d10 / d100 <= 20.0
        assert 5.0 <= d100 / d1000 <= 20.0

    def test_rejects_bad_r(self):
        with pytest.raises(DomainError):
            hy.kernel_factors(0.3, 0.0, PAIR)


class TestMainIntegrand:
    def test_t_zero_reduces(self):
        for z in (0.26, 0.375, 0.49):
            got = _main_kernel(PAIR)(0.0)(z)
            assert abs(got - 1.0 / (1.0 - z)) <= 1e-14

    def test_first_factor_near_lower_end(self):
        z = PAIR.T + 1e-10
        t = 1.5
        ratio = _main_kernel(PAIR)(t)(z) * (1.0 - z) / hy.f_it(t, second_argument(z, PAIR))
        assert abs(ratio - 1.0) < 1e-5

    def test_second_factor_transform_witness(self):
        # the second factor at argument -x(z) equals the doubled-parameter
        # form at argument -B(z), pointwise in z
        for t in (0.7, 1.8, 0.5j):
            for z in z_grid(PAIR, 9)[1:-1]:
                _, b = hy.kernel_shifts(z, PAIR)
                lhs = hy.f_it(t, second_argument(z, PAIR))
                rhs = hy.f_it(2.0 * t, b)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestQuadraticFamily:
    def test_a_closed_form(self):
        # a = 1 / (2 (1-sqrt(T))(1-sqrt(S))(1+r))
        for r in (0.5, 10.0, 100.0):
            fam = hy.quadratic_family(r, PAIR)
            closed = 1.0 / (2.0 * (1.0 - PAIR.sqrt_T) * (1.0 - PAIR.sqrt_S) * (1.0 + r))
            assert abs(fam.a - closed) <= 1e-12

    def test_leading_coefficients_positive(self):
        for r in (1.0, 10.0, 100.0):
            fam = hy.quadratic_family(r, PAIR)
            assert fam.E > 0.0 and fam.G > 0.0

    def test_factorization_reconstructs_quadratic(self):
        for r in (0.5, 10.0, 100.0):
            fam = hy.quadratic_family(r, PAIR)
            for z in (PAIR.T, 0.5 * (PAIR.T + PAIR.S), PAIR.S):
                ref = fam.E + fam.F * z + fam.G * z * z
                got = fam.E * (1.0 - fam.alpha1 * z) * (1.0 - fam.alpha2 * z)
                assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_root_relation(self):
        # at sqrt(z) = 1/sqrt(alpha1):
        # (sqrt(z)-sqrt(T))(sqrt(z)-sqrt(S)) =
        #   -z (1-sqrt(T))(1-sqrt(S)) (1+A+r+B)^2 / ((1+sqrt(z))^2 r)
        st_, ss = PAIR.sqrt_T, PAIR.sqrt_S
        for r in (0.5, 10.0, 100.0):
            fam = hy.quadratic_family(r, PAIR)
            y = 1.0 / fam.sqrt_alpha1
            z = y * y
            a_s = -(1.0 + y) * (y - st_) / (2.0 * (1.0 - st_) * y)
            b_s = (1.0 + y) * (ss - y) / (2.0 * (1.0 - ss) * y)
            lhs = (y - st_) * (y - ss)
            rhs = (-z * (1.0 - st_) * (1.0 - ss) * (1.0 + a_s + r + b_s) ** 2
                   / ((1.0 + y) ** 2 * r))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_partial_fraction_residual_small(self):
        # includes small r where the roots are a complex-conjugate pair
        for pair in PAIRS:
            for r in (0.01, 0.1, 0.5, 1.0, 10.0, 100.0):
                fam = hy.quadratic_family(r, pair)
                assert fam.pf_residual <= 1e-9

    def test_root_ordering_deterministic(self):
        fam1 = hy.quadratic_family(3.0, PAIR)
        fam2 = hy.quadratic_family(3.0, PAIR)
        assert fam1.alpha1 == fam2.alpha1 and fam1.alpha2 == fam2.alpha2
        inv1 = 1.0 / fam1.alpha1
        inv2 = 1.0 / fam1.alpha2
        assert (inv1.real, inv1.imag) <= (inv2.real, inv2.imag)

    def test_double_root_detected(self):
        with pytest.raises(DegenerateConfigurationError):
            hy.quadratic_family(R_DOUBLE_ROOT, PAIR)

    def test_near_double_root_still_usable(self):
        fam = hy.quadratic_family(R_DOUBLE_ROOT * (1.0 + 1e-6), PAIR)
        assert fam.pf_residual <= 1e-9

    def test_rejects_bad_r(self):
        with pytest.raises(DomainError):
            hy.quadratic_family(-1.0, PAIR)

    def test_square_root_branch_fixed(self):
        fam = hy.quadratic_family(2.0, PAIR)
        assert cmath.isclose(fam.sqrt_alpha1 ** 2, fam.alpha1, rel_tol=1e-12)
        assert cmath.isclose(fam.sqrt_alpha2 ** 2, fam.alpha2, rel_tol=1e-12)
