"""The main identity's, the Q integral's, the Barnes integral's and the
spectral power integral's left sides against independent mpmath oracles,
and a calibration of the Chebyshev engine's error estimates."""

import sys

import mpmath
import pytest

import hypident as hy
import oracle

EPS = sys.float_info.epsilon
T_VALUES = (0.0, 0.5, 1.0, 1.9, 0.3 + 0.4j, 1.5 - 0.7j, 1j)
CALIBRATION_PAIRS = ((0.25, 0.5), (0.1, 0.9), (0.5, 0.999), (0.01, 0.02))


def roundoff_floor(rec):
    # eps * peak * nodes: what rounding can leave in a sum of `nodes` terms
    # each at most `peak` in size; the engine's estimate carries no such floor
    md = rec.metadata
    peak = abs(rec.rhs) * 10.0 ** md["digits_lost"]
    return EPS * peak * md["nodes"]


@pytest.mark.parametrize("T, S, t", [(0.25, 0.5, 0.5), (0.5, 0.999, 1.0),
                                     (0.1, 0.9, 0.3 + 0.4j)])
def test_engine_agrees_with_oracle(T, S, t):
    ref = oracle.main_identity_lhs(T, S, t)
    closed = oracle.main_closed_form(T, S)
    with mpmath.workdps(oracle.DPS):   # the oracle meets the theorem to ~1e-17 relative
        assert abs(ref - closed) <= 1e-15 * closed
    rec = hy.check_main_identity(hy.ParameterPair(T, S), t)
    assert rec.status == "pass"
    assert abs(rec.lhs - complex(ref)) <= rec.metadata["quadrature_error"] + roundoff_floor(rec)


def test_error_estimate_plus_roundoff_floor_bounds_true_error():
    records = [hy.check_main_identity(hy.ParameterPair(T, S), t)
               for (T, S) in CALIBRATION_PAIRS for t in T_VALUES]
    # one point's level differences stay at round-off, near 2e-7, above its
    # target of 1.4e-7, while its true error is 9e-9: with no round-off floor
    # in the engine it runs to the node budget and is unconverged
    [noisy] = [rec for rec in records if rec.id == "main_identity/T=0.5/S=0.999/t=1.9"]
    assert noisy.status == "unconverged" and noisy.metadata["nodes"] == 32769
    assert all(rec.status == "pass" for rec in records if rec is not noisy)
    for rec in records:   # the unconverged point is bounded too
        true_error = abs(rec.lhs - rec.rhs)
        assert true_error <= rec.metadata["quadrature_error"] + roundoff_floor(rec), rec.id


@pytest.mark.parametrize("T, S, r", [(0.25, 0.5, 1.0), (0.1, 0.9, 100.0)])
def test_q_integral_agrees_with_oracle(T, S, r):
    ref = oracle.q_integral_lhs(T, S, r)
    closed = oracle.q_closed_form(T, S)
    with mpmath.workdps(oracle.DPS):
        assert abs(ref - closed) <= 1e-15 * closed
    rec = hy.check_q_integral(r, hy.ParameterPair(T, S))
    assert rec.status == "pass"
    assert abs(rec.lhs - complex(ref)) <= 1e-12 * abs(complex(ref))


def test_q_integral_near_s_one_left_unconverged():
    # the oracle resolves the peak at z = S and meets the closed form; the
    # engine runs out of nodes there and says so (a known defect at S -> 1,
    # kept visible rather than hidden by a looser tolerance)
    ref = oracle.q_integral_lhs(0.5, 0.999, 0.5)
    closed = oracle.q_closed_form(0.5, 0.999)
    with mpmath.workdps(oracle.DPS):
        assert abs(ref - closed) <= 1e-12 * closed
    rec = hy.check_q_integral(0.5, hy.ParameterPair(0.5, 0.999))
    assert rec.status == "unconverged"


@pytest.mark.parametrize("a, b, c", [(0.5, 0.5, 0.5), (1.0, 1.0, 0.5)])
def test_barnes_agrees_with_oracle(a, b, c):
    # a > 0 only: at a = 0 the engine integrates a closed form of the
    # singular gamma ratio, which the oracle does not reproduce
    ref = oracle.barnes_lhs(a, b, c)
    with mpmath.workdps(oracle.DPS):   # the oracle meets the theorem to ~2e-21 relative
        closed = mpmath.gamma(a + b) * mpmath.gamma(a + c) * mpmath.gamma(b + c)
        assert abs(ref - closed) <= 1e-18 * closed
    rec = hy.check_barnes_triple(a, b, c)
    assert rec.status == "pass"
    assert abs(rec.lhs - complex(ref)) <= 1e-13 * abs(complex(ref))


@pytest.mark.parametrize("A, tau", [(-0.5, 0.0), (0.25, 0.8)])
def test_spectral_power_agrees_with_oracle(A, tau):
    ref = oracle.spectral_power_lhs(A, tau)
    with mpmath.workdps(oracle.DPS):   # the oracle meets the theorem to ~2e-21 relative
        a, ta = mpmath.mpf(A), mpmath.mpf(tau)
        closed = (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 + ta) * mpmath.gamma(0.5 + ta)
                  * (1 + a) ** (-0.5 - ta))
        assert abs(ref - closed) <= 1e-18 * closed
    rec = hy.check_spectral_power(A, tau)
    assert rec.status == "pass"
    assert abs(rec.lhs - complex(ref)) <= 1e-13 * abs(complex(ref))


@pytest.mark.parametrize("suite", ["spectral_resolvent", "spectral_product", "spectral_kernel"])
def test_spectral_product_integrand_agrees_with_oracle(suite):
    # one integrand serves all three suites: the kernel's is the product's at
    # the kernel shifts, in t = s/2, so the same oracle judges each
    if suite == "spectral_kernel":
        pair, z, r = hy.ParameterPair(0.25, 0.5), 0.375, 2.0
        (A, B), rec = hy.kernel_shifts(z, pair), hy.check_spectral_kernel(z, r, pair)
    else:
        A, r, B = -0.5, 0.5, 0.0
        rec = (hy.check_spectral_resolvent(A, r) if suite == "spectral_resolvent"
               else hy.check_spectral_product(A, r, B))
    ref = oracle.spectral_product_lhs(A, r, B)
    with mpmath.workdps(oracle.DPS):   # the oracle meets the theorem to ~1e-16 relative
        assert abs(ref - complex(rec.rhs).real) <= 1e-14 * abs(ref)
    assert rec.status == "pass"
    assert abs(rec.lhs - complex(ref)) <= 1e-13 * abs(complex(ref))


@pytest.mark.parametrize("T, S", [(0.5, 0.999), (0.25, 0.5)])
def test_kernel_shifts_agree_with_oracle_near_the_ends(T, S):
    # B is formed from S - z and A from z - T, sqrt(z) - sqrt(T) as
    # (z - T) / (sqrt(z) + sqrt(T)), so both stay exact to a few ulps relative
    # as z -> S and as z -> T
    pair = hy.ParameterPair(T, S)
    fracs = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
    for z in [S - f * (S - T) for f in fracs] + [T + f * (S - T) for f in fracs]:
        (a, b), (ref_a, ref_b) = hy.kernel_shifts(z, pair), oracle.kernel_shifts(T, S, z)
        with mpmath.workdps(40):
            assert abs(b - ref_b) <= 1e-14 * abs(ref_b), z
            assert abs(a - ref_a) <= 1e-14 * abs(ref_a), z
