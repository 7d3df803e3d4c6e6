"""Tests of the benchmark itself (not of hypident).

    PYTHONPATH=src python3 -m pytest -q hybench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hypident  # noqa: E402
from hypident import cli  # noqa: E402

from hybench import run, tracer, verify, workloads  # noqa: E402

SIZES = {"default_grid": 206, "spectral_grid": 422, "many_records": 14000,
         "large_grid_jobs": 626}
SMALL = {"suites": ["main_identity", "product_formula", "barnes",
                    "spectral_kernel", "q_integral", "obstruction",
                    "weighted_residual"],
         "pairs": [[0.25, 0.5]], "t_values": [0.5, [0.3, 0.4]],
         "r_values": [10.0], "format": "json"}


def _main(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - t0


@pytest.fixture
def small_argv(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    return ["--config", str(config), "--output", str(tmp_path / "report.json")]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(name):
    a, b = workloads.make(name, 7), workloads.make(name, 7)
    assert (a.config, a.argv) == (b.config, b.argv)
    if a.config is not None:
        assert workloads.make(name, 8).config != a.config


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_grid_sizes_match_the_program(name, seed):
    w = workloads.make(name, seed)
    assert w.expected_records == SIZES[name]
    tasks = cli.build_tasks(cli.GridConfig.from_dict(dict(w.config or {})))
    assert len(tasks) == SIZES[name]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_values_stay_in_the_box(seed):
    w = workloads.make("large_grid_jobs", seed)
    cfg = w.config
    assert len(cfg["pairs"]) == 6 and len(cfg["t_values"]) == 12
    assert len(cfg["r_values"]) == 8
    for t_v, s_v in cfg["pairs"]:
        assert 0.05 - 1e-6 <= t_v <= 0.6 + 1e-6
        assert t_v + 0.05 - 1e-6 <= s_v <= 0.95 + 1e-6
        assert t_v + 1.0 * (s_v - t_v) == s_v
    assert all(0.1 <= r <= 100.0 for r in cfg["r_values"])
    assert all(abs(re) <= 2.0 and abs(im) <= 1.0 for re, im in cfg["t_values"])
    assert w.jobs == workloads.default_jobs()


def _overshooting_pair():
    rng = random.Random(0)
    for _ in range(10000):
        t_v = rng.uniform(0.05, 0.6)
        s_v = rng.uniform(t_v + 0.05, 0.95)
        if t_v + 1.0 * (s_v - t_v) > s_v:
            return [t_v, s_v]
    pytest.fail("no overshooting pair found")


@pytest.mark.xfail(strict=True, raises=hypident.DomainError,
                   reason="open defect: cli.build_tasks puts the last "
                          "spectral_kernel point at T + 1.0 * (S - T), which "
                          "can round above S; workloads.PAIR_GRID steps "
                          "around it until z is clamped to [T, S]")
def test_overshooting_pair_runs():
    pair = _overshooting_pair()
    cfg = cli.GridConfig.from_dict({"suites": ["spectral_kernel"],
                                    "pairs": [pair], "r_values": [1.0]})
    doc = cli.run(cfg)
    assert doc.summary["total"] == 5


def test_digest_ignores_only_wall_time(small_argv):
    report = Path(small_argv[-1])
    _main(small_argv)
    first = report.read_bytes()
    _main(small_argv)
    second = report.read_bytes()
    assert first != second                      # wall_time_seconds differs
    assert verify.report_digest(first) == verify.report_digest(second)
    assert verify.report_digest(first.replace(b'"pass"', b'"fail"', 1)) != \
        verify.report_digest(first)


def test_gate_rejects_a_tampered_report(small_argv, tmp_path):
    w = workloads.Workload("small", 0, 1, tuple(SMALL["suites"]), (1, 2, 1),
                           SMALL)
    code, _ = _main(small_argv)
    data = Path(small_argv[-1]).read_bytes()
    assert verify.check_report(data, code, w) == []
    assert verify.check_report(data, 2, w)      # exit code vs summary
    doc = json.loads(data)
    doc["records"].pop()
    assert verify.check_report(json.dumps(doc).encode(), code, w)
    doc = json.loads(data)
    doc["records"][0]["lhs"][0] += 1.0
    assert verify.check_report(json.dumps(doc).encode(), code, w)


def test_wrappers_are_removed_after_a_traced_run(small_argv):
    originals = {name: getattr(cli, name) for name in ("main", "run", "build_tasks")}
    check = hypident.identity_suite.check_q_integral
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.installed_wrappers()
        assert cli.check_q_integral is not check
        _main(small_argv)
    finally:
        tr.remove()
    assert tracer.installed_wrappers() == []
    assert cli.check_q_integral is check
    assert all(getattr(cli, k) is v for k, v in originals.items())
    assert tr.spans


def test_self_times_sum_to_traced_wall_within_overhead(small_argv):
    plain, traced_walls = [], []
    for _ in range(3):
        plain.append(_main(small_argv)[1])
        tr = tracer.Tracer()
        with tr:
            traced_walls.append(_main(small_argv)[1])
    tracer.analyse(tr.spans)
    overhead = statistics.median(traced_walls) - statistics.median(plain)
    self_sum = sum(s.self_s for s in tr.spans) + tracer.integrand_self_s(tr.spans)
    assert abs(self_sum - traced_walls[-1]) <= abs(overhead)
    assert all(s.self_s >= -1e-9 for s in tr.spans)


def test_eval_counts_match_the_records(small_argv):
    tr = tracer.Tracer()
    with tr:
        _main(small_argv)
    tracer.analyse(tr.spans)
    m = tracer.layer_metrics(tr.spans, jobs=1)
    doc = json.loads(Path(small_argv[-1]).read_bytes())
    nodes = {}
    for rec in doc["records"]:
        nodes[rec["suite"]] = nodes.get(rec["suite"], 0) + rec["metadata"].get("nodes", 0)
    for suite in ("main_identity", "barnes", "spectral_kernel", "weighted_residual"):
        assert m[f"identity_suite.{suite}.evals"] == nodes[suite], suite
    # q_integral's records leave out its fixed 2048-node defect rule
    assert m["identity_suite.q_integral.evals"] == nodes["q_integral"] + 2048
    assert m["identity_suite.product_formula.evals"] == 0
    assert m["records.build_record.calls"] == len(doc["records"])
    assert 0.0 < m["quadrature.chebyshev.useful_ratio"] < 1.0
    assert 0.0 < m["quadrature.halfline.useful_ratio"] <= 1.0


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.MEASURED)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
