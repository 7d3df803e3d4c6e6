"""Seeded workload generation for the hypident benchmark.

Each workload is a list of `hypident` CLI arguments plus, where the grid
is seeded, a JSON grid configuration.  The benchmark alone draws the
inputs; the program under test only sees the generated config file.

Every workload states how many records its report must hold.  That count
is computed here from the benchmark's own copy of the fixed per-suite
grid sizes, so a report that silently drops or adds records fails the
correctness gate.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

ALL_SUITES = (
    "main_identity", "quadratic_transform", "product_formula", "barnes",
    "spectral_power", "spectral_resolvent", "spectral_product",
    "spectral_kernel", "q_integral", "obstruction", "weighted_residual",
)
SPECTRAL_SUITES = ("barnes", "spectral_power", "spectral_resolvent",
                   "spectral_product", "spectral_kernel", "q_integral",
                   "obstruction")
RECORD_SUITES = ("quadratic_transform", "product_formula")

# The CLI's embedded default grid: 3 (T, S) pairs, 6 t values, 4 r values.
DEFAULT_SHAPE = (3, 6, 4)

WHY = {
    "default_grid": "what users run; the main integrand inside "
                    "weighted_residual and the Chebyshev engine dominate",
    "spectral_grid": "half-line panels, log_gamma, quadratic_family and "
                     "q_integral's fixed rule; never calls the main integrand",
    "many_records": "14,000 closed-form records: per-record overhead and the "
                    "report writer; never enters quadrature",
    "large_grid_jobs": "all suites on a larger grid with --jobs 2; the only "
                       "load on the executor in cli.run",
}
WORKLOADS = tuple(WHY)
# large_grid_jobs is left out of BENCHMARK.json: with two executor threads on
# a 2-vCPU host its per-run median moved by up to 2x as load from outside
# the process came and went (ten seeds spread 11-48 % between the first and
# third quartile), while one-thread workloads moved far less.  It stays
# runnable by name for deciding between a process pool and serial runs.
MEASURED = WORKLOADS[:3]


@dataclass
class Workload:
    """One generated benchmark input.

    `argv` is what `cli.main` receives, minus `--config` and `--output`;
    `config`, if not None, is written to a file passed with `--config`.
    """

    name: str
    seed: int
    jobs: int
    suites: tuple
    shape: tuple          # (pairs, t values, r values) the grid is built from
    config: dict | None = None
    argv: list = field(default_factory=list)

    @property
    def expected_records(self) -> int:
        return sum(expected_per_suite(self).values())


def expected_per_suite(workload: Workload) -> dict:
    """Record count per suite of a report over the workload's grid, per the
    suite table: 5 Barnes triples, 3 A x 3 tau shifts, 3 A shifts x r (x 2 B
    for the product), 5 z fractions per pair, 4 w values and 3 (x, y)
    points per t.
    """
    n_pairs, n_t, n_r = workload.shape
    per_suite = {
        "main_identity": n_pairs * n_t,
        "quadratic_transform": 4 * n_t,
        "product_formula": 3 * n_t,
        "barnes": 5,
        "spectral_power": 9,
        "spectral_resolvent": 3 * n_r,
        "spectral_product": 6 * n_r,
        "spectral_kernel": 5 * n_pairs * n_r,
        "q_integral": n_pairs * n_r,
        "obstruction": n_pairs * n_r,
        "weighted_residual": n_pairs * n_r,
    }
    return {s: per_suite[s] for s in workload.suites}


# (T, S) are drawn on a grid of multiples of 2**-20 so that S - T is exact
# and T + 1.0 * (S - T) == S.  For about 2 % of arbitrary pairs that sum
# rounds above S; the CLI then builds a spectral_kernel point z > S and the
# whole run aborts with DomainError.  That is an open defect in
# cli.build_tasks, kept on record against the program by the strict xfail
# test_overshooting_pair_runs in test_hybench.py.  A run that aborts
# measures nothing, so until build_tasks clamps z to [T, S] the benchmark
# draws its pairs on this grid.
PAIR_GRID = 2.0 ** -20


def _on_grid(x: float) -> float:
    return round(x / PAIR_GRID) * PAIR_GRID


def _strata(rng: random.Random, n: int) -> list:
    # one uniform draw in each of n equal strata of [0, 1), in random order:
    # every seed covers the whole box, so the grid's cost varies less from
    # seed to seed than with n independent draws
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _pairs(rng: random.Random, n: int) -> list:
    # T in [0.05, 0.6], S in [T + 0.05, 0.95]
    out = []
    for u_t, u_s in zip(_strata(rng, n), _strata(rng, n)):
        t_v = _on_grid(0.05 + 0.55 * u_t)
        s_v = _on_grid(t_v + 0.05 + (0.9 - t_v) * u_s)
        out.append([t_v, s_v])
    return out


def _r_values(rng: random.Random, n: int) -> list:
    # log-uniform on [0.1, 100]
    lo, hi = math.log(0.1), math.log(100.0)
    return [float("%.6g" % math.exp(lo + (hi - lo) * u)) for u in _strata(rng, n)]


def _t_values(rng: random.Random, n: int) -> list:
    # complex t with |Re t| <= 2 (the main identity's cap) and |Im t| <= 1
    return [[round(-2.0 + 4.0 * u_re, 6), round(-1.0 + 2.0 * u_im, 6)]
            for u_re, u_im in zip(_strata(rng, n), _strata(rng, n))]


def default_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def make(name: str, seed: int) -> Workload:
    """Generate workload `name` from `seed`; the same seed gives the same
    inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "default_grid":
        # no config: the CLI's embedded grid, so the seed does not apply
        return Workload(name, seed, 1, ALL_SUITES, DEFAULT_SHAPE,
                        argv=["--format", "json"])
    if name == "spectral_grid":
        pairs, r_values = _pairs(rng, 6), _r_values(rng, 8)
        cfg = {"suites": list(SPECTRAL_SUITES), "pairs": pairs,
               "t_values": [0.0], "r_values": r_values, "format": "json"}
        return Workload(name, seed, 1, SPECTRAL_SUITES, (6, 1, 8), cfg)
    if name == "many_records":
        t_values = _t_values(rng, 2000)
        cfg = {"suites": list(RECORD_SUITES), "t_values": t_values,
               "format": "json"}
        return Workload(name, seed, 1, RECORD_SUITES, (3, 2000, 4), cfg)
    if name == "large_grid_jobs":
        jobs = default_jobs()
        pairs, t_values, r_values = (_pairs(rng, 6), _t_values(rng, 12),
                                     _r_values(rng, 8))
        cfg = {"suites": list(ALL_SUITES), "pairs": pairs,
               "t_values": t_values, "r_values": r_values, "format": "json"}
        return Workload(name, seed, jobs, ALL_SUITES, (6, 12, 8), cfg,
                        argv=["--jobs", str(jobs)])
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
