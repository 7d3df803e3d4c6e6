"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

All tolerances are pinned here, not configurable: the identities under
test are exact, so acceptance is oracle-based at desk scale.
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time

import mpmath

import hypident as hy

DEFAULT_PAIRS = (hy.ParameterPair(0.25, 0.5), hy.ParameterPair(0.1, 0.9),
                 hy.ParameterPair(0.4, 0.45))
DEFAULT_T = (complex(0.0), complex(0.5), complex(1.0), complex(2.0),
             complex(0.0, 0.5), complex(0.3, 0.4))
SHIFT_A = (-0.5, 0.25, 3.0)
ORACLE_DPS = 30   # working digits of the mpmath.hyp2f1 reference


def _f_half_shifted(s, r):
    # F(1/2+is,1/2-is;1/2;-r) for r > -1 by its closed form
    # (1+r)^(-1/2) cos(2 s log(sqrt(r+1) + sqrt(r))), as a plain reference formula
    w = cmath.sqrt(r + 1.0) + cmath.sqrt(complex(r))
    return cmath.cos(2.0 * s * cmath.log(w)) / math.sqrt(1.0 + r)


def criterion(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_main_identity_closed_form():
    worst_rel = 0.0
    worst_time = 0.0
    for pair in DEFAULT_PAIRS:
        for t in DEFAULT_T:
            start = time.perf_counter()
            rec = hy.check_main_identity(pair, t)
            elapsed = time.perf_counter() - start
            worst_rel = max(worst_rel, rec.rel_err)
            worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-7 and worst_time <= 5.0
    criterion(1, "main integral vs closed form",
              ok, f"(worst rel {worst_rel:.2e}, worst time {worst_time:.2f}s)")


def test_criterion_02_t_independence():
    worst = 0.0
    for pair in DEFAULT_PAIRS:
        values = [hy.check_main_identity(pair, t).lhs for t in DEFAULT_T]
        scale = abs(pair.main_closed_form())
        spread = max(abs(a - b) for a in values for b in values) / scale
        worst = max(worst, spread)
    criterion(2, "t-independence of the main integral",
              worst <= 1e-7, f"(worst pairwise spread {worst:.2e})")


def test_criterion_03_barnes_triples():
    triples = ((0.0, 0.5, 0.5), (0.0, 1.0, 0.5), (0.5, 0.5, 0.5),
               (1.0, 1.0, 0.5), (0.5, 1.5, 0.75))
    worst = max(hy.check_barnes_triple(a, b, c).rel_err for (a, b, c) in triples)
    criterion(3, "Barnes gamma-triple integral (5 triples, a=0 included)",
              worst <= 1e-8, f"(worst rel {worst:.2e})")


def test_criterion_04_sech_weighted_spectral_integrals():
    recs_power = [hy.check_spectral_power(a, tau)
                  for a in SHIFT_A for tau in (0.0, 0.8, 2.0)]
    recs_res = [hy.check_spectral_resolvent(a, r)
                for a in SHIFT_A for r in (0.5, 1.0, 10.0, 100.0)]
    recs_prod = [hy.check_spectral_product(a, r, b)
                 for a in SHIFT_A for r in (0.5, 1.0, 10.0, 100.0)
                 for b in (0.0, 1.5)]
    assert min(len(recs_power), len(recs_res), len(recs_prod)) >= 6
    worst = max(rec.rel_err for rec in recs_power + recs_res + recs_prod)

    res_by_key = {(rec.metadata["A"], rec.metadata["r"]): rec for rec in recs_res}
    worst_b0 = 0.0
    for rec in recs_prod:
        if rec.metadata["B"] == 0.0:
            ref = res_by_key[(rec.metadata["A"], rec.metadata["r"])]
            worst_b0 = max(worst_b0, abs(rec.lhs - ref.lhs), abs(rec.rhs - ref.rhs))
    ok = worst <= 1e-8 and worst_b0 <= 1e-12
    criterion(4, "sech-weighted spectral integrals (incl. B=0 coincidence)",
              ok, f"(worst rel {worst:.2e}, B=0 gap {worst_b0:.2e})")


def test_criterion_05_spectral_kernel_factorization():
    worst = 0.0
    for pair in DEFAULT_PAIRS:
        combos = 0
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            z = pair.T + frac * (pair.S - pair.T)
            for r in (0.5, 10.0):
                worst = max(worst, hy.check_spectral_kernel(z, r, pair).rel_err)
                combos += 1
        assert combos >= 9
    criterion(5, "spectral kernel factorization (>=9 combos per pair)",
              worst <= 1e-7, f"(worst rel {worst:.2e})")


def test_criterion_06_q_integral_and_defect_rate():
    worst = 0.0
    ratios = []
    for pair in DEFAULT_PAIRS:
        rec10 = hy.check_q_integral(10.0, pair)
        rec100 = hy.check_q_integral(100.0, pair)
        worst = max(worst, rec10.rel_err, rec100.rel_err)
        ratios.append(rec10.metadata["kernel_defect"] / rec100.metadata["kernel_defect"])
    ok = worst <= 1e-7 and all(5.0 <= q <= 20.0 for q in ratios)
    criterion(6, "Q integral closed form and 1/r kernel-defect rate",
              ok, f"(worst rel {worst:.2e}, defect ratios "
                  + ", ".join(f"{q:.1f}" for q in ratios) + ")")


def test_criterion_07_obstruction_integer():
    worst_n = worst_sum = worst_spread = 0.0
    for pair in DEFAULT_PAIRS:
        for r in (50.0, 100.0):
            rec = hy.check_obstruction_integer(r, pair)
            worst_n = max(worst_n, abs(rec.metadata["n_r"]))
            worst_sum = max(worst_sum, rec.abs_err)
            worst_spread = max(worst_spread, rec.metadata["d_abs_spread"])
    ok = worst_n <= 1e-6 and worst_sum <= 1e-8 and worst_spread <= 1e-9
    criterion(7, "obstruction integer vanishes for r >= 50",
              ok, f"(worst |n_r| {worst_n:.2e}, sum residual {worst_sum:.2e}, "
                  f"|D_i| spread {worst_spread:.2e})")


def test_criterion_08_closed_forms_vs_series_oracle():
    def oracle(a, b, x):
        with mpmath.workdps(ORACLE_DPS):
            return complex(mpmath.hyp2f1(a, b, 0.5, x))

    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(200):
        t = rng.uniform(-3.0, 3.0)
        x = rng.uniform(-0.99, 20.0)
        closed = hy.f_it(t, x)
        ref = oracle(1j * t, -1j * t, -x)
        worst = max(worst, abs(closed - ref) / max(1.0, abs(ref)))
    for _ in range(200):
        t = rng.uniform(-3.0, 3.0)
        y = rng.uniform(0.002, 0.95)
        closed = hy.f_2it_unit_interval(t, y)
        ref = oracle(2j * t, -2j * t, y)
        worst = max(worst, abs(closed - ref) / max(1.0, abs(ref)))
    for _ in range(200):
        s = rng.uniform(-3.0, 3.0)
        r = rng.uniform(-0.9, 20.0)
        closed = _f_half_shifted(s, r)
        ref = oracle(0.5 + 1j * s, 0.5 - 1j * s, -r)
        worst = max(worst, abs(closed - ref) / max(1.0, abs(ref)))
    criterion(8, "closed forms vs mpmath hyp2f1 (3 x 200 random points)",
              worst <= 1e-10, f"(worst scaled error {worst:.2e})")


def test_criterion_09_gamma_weight_closed_forms():
    worst = 0.0
    for k in range(1, 41):
        s = 0.25 * k  # s in (0, 10]
        ratio = math.exp(2.0 * (hy.log_gamma(complex(0.0, s)).real
                                - hy.log_gamma(complex(0.0, 2.0 * s)).real))
        target = 4.0 * math.cosh(math.pi * s)
        worst = max(worst, abs(ratio - target) / target)
        sech_form = ratio * math.exp(4.0 * hy.log_gamma(complex(0.5, s)).real)
        target2 = 4.0 * math.pi ** 2 / math.cosh(math.pi * s)
        worst = max(worst, abs(sech_form - target2) / target2)
    criterion(9, "log-gamma weights vs 4cosh / 4pi^2 sech closed forms",
              worst <= 1e-11, f"(worst rel {worst:.2e})")


def test_criterion_10_report_determinism_across_jobs():
    config = {
        "suites": ["main_identity", "barnes", "spectral_resolvent",
                   "spectral_kernel", "q_integral", "obstruction"],
        "pairs": [[0.25, 0.5], [0.1, 0.9]],
        "t_values": [0, 1, [0.0, 0.5]],
        "r_values": [1.0, 10.0],
    }
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = f"{tmp}/config.json"
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        outputs = []
        for jobs in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "hypident", "--config", cfg_path,
                 "--jobs", jobs],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            stripped = "\n".join(ln for ln in proc.stdout.splitlines()
                                 if "wall_time_seconds" not in ln)
            outputs.append(stripped)
    criterion(10, "byte-identical reports across --jobs 1 / --jobs 8",
              outputs[0] == outputs[1],
              f"({len(outputs[0])} bytes compared, wall time excluded)")
