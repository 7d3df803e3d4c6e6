"""Untraced per-call costs of hypident's kernels, and the package's size.

The arguments are fixed points taken from the workloads, so the numbers
compare across commits; the quadrature kernels get cheap integrands, so
they time the engine rather than the integrand.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

BATCH_S = 0.02
BATCHES = 5


def _sech(s: float) -> float:
    return 1.0 / math.cosh(math.pi * s)


def _resolvent_weight(z: float) -> float:
    return 1.0 / (1.0 - z)


def cases() -> dict:
    """metric name -> (function, arguments), looked up at call time so a
    traced or patched binding is never picked up by accident."""
    from hypident import identity_suite, quadrature, special_functions
    pair = identity_suite.ParameterPair(0.25, 0.5)
    return {
        "special_functions.log_gamma": (special_functions.log_gamma,
                                        (complex(1.3, 3.0),)),
        "special_functions.f_it": (special_functions.f_it,
                                   (complex(0.3, 0.4), 2.0)),
        "special_functions.f_2it_unit_interval": (
            special_functions.f_2it_unit_interval, (complex(0.3, 0.4), 0.25)),
        "quadrature.chebyshev_rule": (quadrature.chebyshev_rule,
                                      (_resolvent_weight, 0.25, 0.5, 64)),
        "quadrature.gauss_kronrod_panel": (quadrature.gauss_kronrod_panel,
                                           (_sech, 0.0, 1.0)),
        "quadrature.integrate_decaying_halfline": (
            quadrature.integrate_decaying_halfline, (_sech, 0.9 * math.pi)),
        "identity_suite.quadratic_family": (identity_suite.quadratic_family,
                                            (10.0, pair)),
    }


def ns_per_call() -> dict:
    """Median over BATCHES batches of about BATCH_S seconds each."""
    out = {}
    clock = time.perf_counter
    for name, (fn, args) in cases().items():
        n = 1
        while True:
            t0 = clock()
            for _ in range(n):
                fn(*args)
            elapsed = clock() - t0
            if elapsed >= BATCH_S / 4:
                break
            n *= 2
        n = max(1, int(n * BATCH_S / elapsed))
        per = []
        for _ in range(BATCHES):
            t0 = clock()
            for _ in range(n):
                fn(*args)
            per.append((clock() - t0) / n * 1e9)
        out[f"{name}.ns_per_call"] = statistics.median(per)
    return out


def line_counts(package_dir: Path) -> dict:
    """hypident.<module>.lines for every source file, and the total."""
    out = {}
    for path in sorted(package_dir.rglob("*.py")):
        dotted = ".".join(path.relative_to(package_dir).with_suffix("").parts)
        out[f"hypident.{dotted}.lines"] = len(path.read_text(encoding="utf-8").splitlines())
    out["hypident.lines"] = sum(out.values())
    return out
