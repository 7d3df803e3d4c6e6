"""Tests for the CLI: config validation, report formats, exit codes,
determinism across --jobs values."""

import csv
import errno
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading

import pytest

import hypident as hy
from hypident import UsageError
from hypident import (DegenerateConfigurationError, cli, identity_suite, quadrature, records,
                      special_functions)
from hypident.cli import (GridConfig, SUITES, build_tasks, exit_code, main, run,
                          run_task)
from hypident.records import CSV_COLUMNS, ReportDocument, record_id, render_csv, render_json

# each suite's check, by its name in the cli module
CHECKS = {"main_identity": "check_main_identity",
          "quadratic_transform": "check_quadratic_transform",
          "product_formula": "check_product_formula",
          "barnes": "check_barnes_triple",
          "spectral_power": "check_spectral_power",
          "spectral_resolvent": "check_spectral_resolvent",
          "spectral_product": "check_spectral_product",
          "spectral_kernel": "check_spectral_kernel",
          "q_integral": "check_q_integral",
          "obstruction": "check_obstruction_integer",
          "weighted_residual": "check_weighted_residual"}

FAST_CONFIG = {
    "suites": ["main_identity", "q_integral"],
    "pairs": [[0.25, 0.5]],
    "t_values": [0, [0.0, 0.5]],
    "r_values": [1.0, 10.0],
}


def rendered(render, doc) -> str:
    render(doc, out := io.StringIO())
    return out.getvalue()


def run_cli(args, config=None, tmp_path=None):
    argv = list(args)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + argv
    cmd = [sys.executable, "-m", "hypident"] + argv
    return subprocess.run(cmd, capture_output=True, text=True)


class TestGridConfig:
    def test_defaults(self):
        cfg = GridConfig.from_dict({})
        assert cfg.suites == list(SUITES)
        assert len(cfg.pairs) == 3 and len(cfg.t_values) == 6 and len(cfg.r_values) == 4

    def test_empty_suites_rejected(self):
        with pytest.raises(UsageError):
            GridConfig.from_dict({"suites": []})

    def test_unknown_suite_rejected(self):
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({"suites": ["nope"]})
        assert "nope" in str(exc.value)

    def test_bad_pair_rejected(self):
        with pytest.raises(UsageError):
            GridConfig.from_dict({"pairs": [[0.5, 0.25]]})
        with pytest.raises(UsageError):
            GridConfig.from_dict({"pairs": [[0.25]]})

    def test_bad_r_rejected(self):
        with pytest.raises(UsageError):
            GridConfig.from_dict({"r_values": [0.0]})

    def test_bad_t_rejected(self):
        with pytest.raises(UsageError):
            GridConfig.from_dict({"t_values": ["x"]})

    @pytest.mark.parametrize("key", ["pairs", "t_values", "r_values"])
    def test_empty_grid_list_rejected(self, key):
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({key: []})
        assert str(exc.value) == f"{key}: must not be empty"

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            GridConfig.from_dict({"sutes": ["barnes"]})

    @pytest.mark.parametrize("key, value, named", [
        ("suites", ["barnes", "q_integral", "barnes"], "'barnes'"),
        ("pairs", [[0.25, 0.5], [0.1, 0.9], [0.25, 0.5]], "(0.25, 0.5)"),
        ("t_values", [0.5, [1.0, 0.0], [0.5, 0.0]], "(0.5+0j)"),
        ("r_values", [1, 10.0, 1.0], "1.0"),
    ])
    def test_repeated_entry_rejected(self, key, value, named):
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({key: value})
        assert str(exc.value) == f"{key}: {named} is repeated; each entry must be distinct"

    def test_near_repeats_accepted(self):
        # distinct values whose record ids differ are kept
        cfg = GridConfig.from_dict({"pairs": [[0.25, 0.5], [0.25, 0.50000000001]],
                                    "t_values": [0.5, [0.5, 1e-300]],
                                    "r_values": [1.0, 1.00000000001]})
        assert len(cfg.pairs) == 2 and len(cfg.t_values) == 2 and len(cfg.r_values) == 2

    @pytest.mark.parametrize("key, value, named, text", [
        ("pairs", [[0.25, 0.5], [0.1, 0.9], [0.25000000000001, 0.5]],
         "(0.25, 0.5) and (0.25000000000001, 0.5)", "T=0.25/S=0.5"),
        ("t_values", [[0.3, 0.4], 1.0, [0.3, 0.4000000000000001]],
         "(0.3+0.4j) and (0.3+0.4000000000000001j)", "t=0.3+0.4i"),
        ("r_values", [1.0, 10.0, 1.0 + 2.0 ** -52],
         "1.0 and 1.0000000000000002", "r=1"),
    ])
    def test_values_sharing_an_id_rejected(self, key, value, named, text):
        # ids print 12 significant digits; two values that print alike would
        # give two records one id
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({key: value})
        assert str(exc.value) == (f"{key}: {named} share the record id text {text!r}; "
                                  "entries must differ within 12 significant digits")

    def test_kernel_points_sharing_an_id_rejected(self):
        # spectral_kernel's ids print its five z = T + f (S - T); a pair this
        # close would give 20 records 4 ids, and a report that moves with --jobs
        for pair, z, z2, text in (
                ([0.3, 0.3000000000000009], 0.3, 0.3000000000000002, "z=0.3"),
                ([0.25, 0.250000000001], 0.25, 0.25000000000025, "z=0.25")):
            with pytest.raises(UsageError) as exc:
                GridConfig.from_dict({"pairs": [pair], "suites": ["spectral_kernel"]})
            assert str(exc.value) == (
                f"pairs: the spectral_kernel z points of {pair}: {z!r} and {z2!r} share the "
                f"record id text {text!r}; entries must differ within 12 significant digits")
            GridConfig.from_dict({"pairs": [pair], "suites": ["q_integral"]})
        # S - T = 1e-10 still prints five z points apart
        doc = run(GridConfig.from_dict({"pairs": [[0.25, 0.2500000001]], "r_values": [1.0],
                                        "suites": ["spectral_kernel"]}))
        assert len({rec.id for rec in doc.records}) == doc.summary["total"] == 5

    def test_output_path_empty_rejected(self):
        # "" used to write the report to stdout while the echo read "output_path": ""
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({"output_path": ""})
        assert str(exc.value) == "output_path: must be a non-empty string path"
        with pytest.raises(UsageError) as exc:
            GridConfig.from_dict({"output_path": 5})
        assert str(exc.value) == "output_path: must be a string path"
        assert GridConfig.from_dict({"output_path": None}).output_path is None
        assert GridConfig.from_dict({}).output_path is None

    def test_policy_override(self):
        cfg = GridConfig.from_dict({"policy": {"abs_tol": 1e-8}})
        assert cfg.policy.abs_tol == 1e-8
        with pytest.raises(UsageError):
            GridConfig.from_dict({"policy": {"abs_tol": -1.0}})


class TestRun:
    def test_first_pass_over_max_nodes_is_unconverged_unevaluated(self):
        # main_identity's nested levels take 17 nodes at once, barnes' half-line rule 128:
        # neither fits max_nodes = 8, so each record is unconverged with `nodes` 0
        doc = run(GridConfig.from_dict({"suites": ["main_identity", "barnes"],
                                        "pairs": [[0.25, 0.5]], "t_values": [0.5],
                                        "policy": {"max_nodes": 8}}))
        assert {rec.suite for rec in doc.records} == {"main_identity", "barnes"}
        for rec in doc.records:
            assert rec.status == hy.UNCONVERGED and rec.lhs is None and rec.metadata["nodes"] == 0
            assert rec.metadata["reason"].endswith(
                f"rule needs {128 if rec.suite == 'barnes' else 17} nodes, more than max_nodes = 8")

    def test_level_and_pointwise_paths_give_the_same_report(self, monkeypatch):
        # the engines take a NodeIntegrand's values a level per call; mapped
        # node by node, as a plain callable is, the default grid reads the same
        cfg = GridConfig.from_dict({})
        strip = lambda s: [ln for ln in s.splitlines() if "wall_time_seconds" not in ln]
        by_level = strip(rendered(render_json, run(cfg)))
        levels = []
        monkeypatch.setattr(quadrature, "_values",
                            lambda f, nodes: levels.append(f) or list(map(f, nodes)))
        assert strip(rendered(render_json, run(cfg))) == by_level
        assert any(isinstance(f, quadrature.NodeIntegrand) for f in levels)

    def test_single_record_pass(self):
        cfg = GridConfig.from_dict({"suites": ["main_identity"],
                                    "pairs": [[0.25, 0.5]],
                                    "t_values": [0]})
        doc = run(cfg)
        assert doc.summary["total"] == 1
        assert doc.summary["pass"] == 1
        assert exit_code(doc) == 0
        assert doc.records[0].id == "main_identity/T=0.25/S=0.5/t=0"

    def test_records_sorted_by_id(self):
        cfg = GridConfig.from_dict(FAST_CONFIG)
        doc = run(cfg)
        ids = [rec.id for rec in doc.records]
        assert ids == sorted(ids)

    def test_summary_matches_tally(self):
        cfg = GridConfig.from_dict(FAST_CONFIG)
        empty = cfg.replace(suites=["main_identity"], pairs=[])   # no task at all
        for cfg in (cfg, empty):
            doc = run(cfg)
            for status in (hy.PASS, hy.FAIL, hy.UNCONVERGED, hy.SKIPPED):
                assert doc.summary[status] == sum(1 for rec in doc.records
                                                  if rec.status == status)
        assert doc.summary["total"] == 0

    @pytest.mark.parametrize("suite", SUITES)
    def test_task_count_cross_product(self, suite):
        # the README's grid column, on 2 pairs x 3 t_values x 2 r_values
        pairs, ts, rs = 2, 3, 2
        sizes = {"main_identity": pairs * ts, "quadratic_transform": ts * 4,
                 "product_formula": ts * 3, "barnes": 5, "spectral_power": 3 * 3,
                 "spectral_resolvent": 3 * rs, "spectral_product": 3 * rs * 2,
                 "spectral_kernel": pairs * 5 * rs, "q_integral": pairs * rs,
                 "obstruction": pairs * rs, "weighted_residual": pairs * rs}
        cfg = GridConfig.from_dict({"suites": [suite],
                                    "pairs": [[0.25, 0.5], [0.1, 0.9]],
                                    "t_values": [0, 1, [0.3, 0.4]],
                                    "r_values": [1.0, 10.0]})
        assert len(build_tasks(cfg)) == sizes[suite]

    def test_table_tolerances_are_the_checks_defaults(self, monkeypatch):
        assert tuple(CHECKS) == SUITES
        for suite, name in CHECKS.items():
            default = inspect.signature(getattr(hy, name)).parameters["tolerance"].default
            # a table tolerance of None is the policy's abs_tol, whose default
            # the check defaults to
            table = cli.SUITE_TABLE[suite].tolerance
            assert (hy.DEFAULT_POLICY.abs_tol if table is None else table) == default, suite
            # and the suite's tasks do call that check, with the tolerance
            seen = []
            monkeypatch.setattr(cli, name, lambda *a, tolerance: seen.append(tolerance))
            task = build_tasks(GridConfig.from_dict({"suites": [suite]}))[0]
            run_task(task)
            expected = task[2].abs_tol if table is None else table
            assert seen == [expected] and task[3] == expected, suite

    @pytest.mark.parametrize("suite", SUITES)
    def test_skipped_and_computed_records_share_names(self, suite, monkeypatch):
        # a check and run_task's skip both name a record through records.py,
        # from the grid's params; the two must agree on every id and echo
        computed = run(GridConfig.from_dict({"suites": [suite]})).records

        def degenerate(*args, **kwargs):
            raise DegenerateConfigurationError("forced")

        monkeypatch.setattr(cli, CHECKS[suite], degenerate)
        skipped = run(GridConfig.from_dict({"suites": [suite]})).records
        assert computed and all(rec.status == hy.SKIPPED for rec in skipped)
        assert [rec.id for rec in skipped] == [rec.id for rec in computed]
        for done, skip in zip(computed, skipped):
            params = {k: v for k, v in skip.metadata.items() if k != "reason"}
            # the echo is the id's keys, in its order, first in the computed metadata
            assert list(params) == [part.split("=")[0] for part in done.id.split("/")[1:]]
            assert list(done.metadata)[:len(params)] == list(params)
            assert all(repr(done.metadata[k]) == repr(v) for k, v in params.items()), done.id

    def test_every_suite_fails_when_its_closed_form_moves(self, monkeypatch):
        # every record is built by records.build_record; moving each rhs by
        # 10 x tolerance x max(1, |rhs|) there must flip every pass to fail
        computed = run(GridConfig.from_dict({})).records
        original = records.build_record

        def moved(suite, params, lhs, rhs, tolerance, *args, **kwargs):
            rhs += 10.0 * tolerance * max(1.0, abs(rhs))
            return original(suite, params, lhs, rhs, tolerance, *args, **kwargs)

        monkeypatch.setattr(identity_suite, "build_record", moved)
        moved_status = {rec.id: rec.status for rec in run(GridConfig.from_dict({})).records}
        passed = [rec for rec in computed if rec.status == hy.PASS]
        assert {rec.suite for rec in passed} == set(SUITES)
        assert [rec.id for rec in passed if moved_status[rec.id] != hy.FAIL] == []

    def test_checks_are_reached_through_module_names(self, monkeypatch):
        # a tracer rebinds cli.check_q_integral; every task must call the
        # name as bound at run time, not a function captured at import
        original = cli.check_q_integral
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "check_q_integral", counting)
        cfg = GridConfig.from_dict({"suites": ["q_integral"],
                                    "pairs": [[0.25, 0.5], [0.1, 0.9]],
                                    "r_values": [1.0, 10.0, 100.0]})
        doc = run(cfg)
        assert doc.summary["total"] == len(calls) == 6
        assert sorted(calls) == sorted(rec.metadata["r"] for rec in doc.records)

    def test_run_empties_the_closed_form_caches_first(self, monkeypatch):
        # the run memos are empty when a run starts and again when it ends,
        # so no value of the run outlives it
        memos = (identity_suite.wr_inner_memo, identity_suite.strip_memo,
                 special_functions.log_base, identity_suite.product_geometry)
        special_functions.log_base(0.123)
        identity_suite.product_geometry(0.123, 4.5)
        sizes, run_task = [], cli.run_task

        def sizing(task):
            sizes.append([memo.cache_info().currsize for memo in memos])
            record = run_task(task)
            sizes.append([memo.cache_info().currsize for memo in memos])
            return record

        monkeypatch.setattr(cli, "run_task", sizing)
        run(GridConfig.from_dict({"suites": ["product_formula", "spectral_resolvent",
                                             "weighted_residual"],
                                  "pairs": [[0.25, 0.5]], "t_values": [0.5],
                                  "r_values": [1.0]}))
        assert sizes[0] == [0, 0, 0, 0]
        assert all(map(max, zip(*sizes)))   # the run filled each of them
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0, 0]

    def test_kernel_point_at_s_never_overshoots(self):
        # for some pairs T + 1.0 * (S - T) rounds above S, outside the
        # kernel's domain; the last spectral_kernel point must be S itself
        rng = random.Random(0)
        for _ in range(10000):
            t_v = rng.uniform(0.05, 0.6)
            s_v = rng.uniform(t_v + 0.05, 0.95)
            if t_v + 1.0 * (s_v - t_v) > s_v:
                break
        else:
            pytest.fail("no overshooting pair found")
        cfg = GridConfig.from_dict({"suites": ["spectral_kernel"],
                                    "pairs": [[t_v, s_v]], "r_values": [1.0]})
        doc = run(cfg)
        zs = sorted(rec.metadata["z"] for rec in doc.records)
        assert doc.summary["total"] == 5
        assert zs[0] == t_v and zs[-1] == s_v

    def test_degenerate_obstruction_skipped(self):
        # r at the double-root radius of (0.25, 0.5)
        cfg = GridConfig.from_dict({"suites": ["obstruction"],
                                    "pairs": [[0.25, 0.5]],
                                    "r_values": [16.48528137423857]})
        doc = run(cfg)
        assert doc.summary["skipped"] == 1
        assert exit_code(doc) == 3
        assert doc.records[0].lhs is None

    def test_tol_reaches_skipped_records(self, tmp_path):
        # both kinds of skip: beyond the |Re t| cap, and an obstruction double root
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"suites": ["main_identity", "obstruction"],
                                      "pairs": [[0.25, 0.5]], "t_values": [3.0],
                                      "r_values": [16.48528137423857]}))
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--tol", "1e-5", "--output", str(out)]) == 3
        records = json.loads(out.read_text())["records"]
        assert [(rec["suite"], rec["status"], rec["tolerance"]) for rec in records] == [
            ("main_identity", "skipped", 1e-5), ("obstruction", "skipped", 1e-5)]


class TestReports:
    def test_record_id_writes_the_sign_of_t(self):
        # the sign of the imaginary part is written, so 1+11i and 11+1i
        # get different ids
        assert record_id("m", t=0.3 + 0.4j) == "m/t=0.3+0.4i"
        assert record_id("m", t=1 + 11j) == "m/t=1+11i"
        assert record_id("m", t=11 + 1j) == "m/t=11+1i"
        assert record_id("m", t=0.3 - 0.4j) == "m/t=0.3-0.4i"
        assert record_id("m", t=0.5j) == "m/t=0.5i"
        assert record_id("m", T=0.25, t=2 + 0j) == "m/T=0.25/t=2"
        # 0 and -0 compare equal; each keeps its own text, in either order
        zero, minus_zero = complex(0.0, 0.0), complex(-0.0, 0.0)
        assert [record_id("m", t=t) for t in (zero, minus_zero, zero)] == [
            "m/t=0", "m/t=-0", "m/t=0"]
        assert [record_id("m", r=r) for r in (0.0, -0.0, 0.0)] == ["m/r=0", "m/r=-0", "m/r=0"]

    def test_csv_columns(self):
        cfg = GridConfig.from_dict({"suites": ["main_identity"],
                                    "pairs": [[0.25, 0.5]], "t_values": [[0.3, 0.4]]})
        doc = run(cfg)
        reader = csv.DictReader(io.StringIO(rendered(render_csv, doc)))
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        row = next(reader)
        assert row["suite"] == "main_identity"
        assert float(row["T"]) == 0.25 and float(row["S"]) == 0.5
        assert float(row["t_re"]) == 0.3 and float(row["t_im"]) == 0.4
        assert row["status"] == "pass"
        assert float(row["digits_lost"]) == pytest.approx(
            doc.records[0].metadata["digits_lost"])

    @pytest.mark.parametrize("render", [render_json, render_csv])
    def test_report_streams_in_batches(self, render):
        # main hands the open destination to the writer, which writes the
        # records a batch at a time instead of building the whole report
        cfg = GridConfig.from_dict({"suites": ["quadratic_transform", "product_formula"],
                                    "t_values": [[-1.999 + 0.002 * k, 0.25]
                                                 for k in range(2000)]})
        doc = run(cfg)

        class Recording:   # a stream that defines write alone
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

        out = Recording()
        assert render(doc, out) is None
        assert "".join(out.writes) == rendered(render, doc)
        assert len(out.writes) > len(doc.records) // records.REPORT_BATCH
        assert max(len(text.encode("utf-8")) for text in out.writes) <= 2 ** 20

    def test_names_the_benchmark_looks_up(self):
        # hybench/tracer.py wraps the writers through the cli module's names, and
        # hybench/probe.py calls main, run, build_tasks and GridConfig.from_dict there
        assert cli.render_json is records.render_json
        assert cli.render_csv is records.render_csv
        assert cli.ReportDocument is records.ReportDocument
        assert all(map(callable, (cli.main, cli.run, cli.build_tasks, cli.GridConfig.from_dict)))

    def test_json_shape(self):
        cfg = GridConfig.from_dict({"suites": ["barnes"]})
        doc = run(cfg)
        payload = json.loads(rendered(render_json, doc))
        assert payload["tool_version"] == hy.__version__
        assert payload["summary"]["total"] == len(payload["records"])
        rec = payload["records"][0]
        assert set(rec) == {"id", "suite", "lhs", "rhs", "abs_err", "rel_err",
                            "tolerance", "status", "metadata"}
        assert isinstance(rec["lhs"], list) and len(rec["lhs"]) == 2


def _oracle_json_safe(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    return value


def _oracle_render_json(doc):
    """The writer render_json replaced: plain dicts through the indenting
    json encoder.  render_json must produce exactly these bytes."""
    records = [{
        "id": rec.id,
        "suite": rec.suite,
        "lhs": None if rec.lhs is None else [rec.lhs.real, rec.lhs.imag],
        "rhs": None if rec.rhs is None else [rec.rhs.real, rec.rhs.imag],
        "abs_err": _oracle_json_safe(rec.abs_err),
        "rel_err": _oracle_json_safe(rec.rel_err),
        "tolerance": rec.tolerance,
        "status": rec.status,
        "metadata": {k: _oracle_json_safe(v) for k, v in sorted(rec.metadata.items())},
    } for rec in doc.records]
    payload = {"tool_version": doc.tool_version, "config": doc.config,
               "summary": doc.summary, "wall_time_seconds": doc.wall_time_seconds,
               "records": records}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _document(records, config=None):
    return ReportDocument(tool_version=hy.__version__,
                          config=config or GridConfig.from_dict({}).echo(),
                          records=records, summary={"total": len(records)},
                          wall_time_seconds=0.125)


class TestJsonWriter:
    """render_json against the json.dumps(indent=2, sort_keys=True) oracle."""

    def test_default_grid(self):
        doc = run(GridConfig.from_dict({}))
        assert rendered(render_json, doc) == _oracle_render_json(doc)

    def test_complex_t_grid(self):
        cfg = GridConfig.from_dict({
            "suites": ["main_identity", "quadratic_transform", "product_formula",
                       "q_integral", "obstruction"],
            "pairs": [[0.25, 0.5], [0.1, 0.9]],
            "t_values": [[0.0, 0.25], [1.5, 0.1], [0.7, -0.3], 1.9, 3.0],
            "r_values": [0.5, 16.48528137423857]})
        doc = run(cfg)
        assert doc.summary["skipped"] > 0
        assert rendered(render_json, doc) == _oracle_render_json(doc)

    def test_non_finite_and_signed_zero(self):
        inf, nan = math.inf, math.nan
        records = [
            hy.CheckRecord("main_identity/a", complex(nan, -0.0), complex(inf, -inf),
                           nan, inf, 1e-7, hy.FAIL,
                           {"t": complex(1.0, nan), "q": -inf, "p": nan,
                            "zero": -0.0, "z": complex(-0.0, inf)}),
            hy.CheckRecord("barnes/b", complex(-0.0, 0.0), complex(1e300, -5e-324),
                           -inf, -0.0, inf, hy.PASS, {"tiny": 5e-324, "big": -1.7e308}),
            hy.CheckRecord("q_integral/c", 1j, 1j, 0.0, 0.0, nan, hy.PASS, {}),
            # adjacent values that compare equal but differ in sign: a writer
            # that reuses a value's text must not reuse it for its twin
            hy.CheckRecord("product_formula/d", 1j, 1j, 0.0, 0.0, 1e-10, hy.PASS,
                           {"t": complex(1.0, 0.0), "w": 0.0}),
            hy.CheckRecord("product_formula/e", 1j, 1j, 0.0, 0.0, 1e-10, hy.PASS,
                           {"t": complex(1.0, -0.0), "w": -0.0}),
            hy.CheckRecord("product_formula/f", 1j, 1j, 0.0, 0.0, 1.0, hy.PASS,
                           {"t": complex(1.0, 0.0), "w": 0.0}),
            # int errors and tolerance, beside finite complex sides; 1 == 1.0
            hy.CheckRecord("barnes/g", 2 + 0j, 2 + 0j, 0, 0.0, 1, hy.PASS, {"w": 0}),
        ]
        doc = _document(records)
        text = rendered(render_json, doc)
        assert text == _oracle_render_json(doc)
        assert "NaN" in text and "-Infinity" in text and "null" in text

    def test_metadata_kinds(self):
        reason = 'na\u00efve \u00e9t\u00e9 \U0001d70b "quoted" \\ back\nline [1, 2], {a: b}\t'
        records = [
            hy.CheckRecord("obstruction/T=0.25/S=0.5/r=16.5", None, None, 0.0, 0.0,
                           1e-8, hy.SKIPPED, {"reason": reason, "T": 0.25, "S": 0.5}),
            hy.CheckRecord("spectral_power/A=1", 2.0 + 0j, 2.0 + 0j, 0.0, 0.0, 1,
                           hy.PASS,
                           {"nodes": 112, "big_int": 10 ** 30, "flag": True,
                            "off": False, "none": None,
                            "nested": {"b": [1.5, {"c": None, "a": [1, 2]}], "a": []},
                            "list": [1, [2.5, "x"], []], "empty": {},
                            "\u00fcber": "\u2603"}),
            hy.CheckRecord("barnes/empty", 1 + 0j, 1 + 0j, 0, 0, 1e-8, hy.PASS, {}),
        ]
        doc = _document(records)
        assert rendered(render_json, doc) == _oracle_render_json(doc)

    @pytest.mark.parametrize("value", [
        True, False, None, 0, -7, 2 ** 63, -(10 ** 40), 10 ** 300, "", 'say "hi"',
        "back\\slash/", "ctl \x00\x01\x1f\t\n\r\x7f", "na\u00efve \u2603 \U0001d70b \u2028"])
    def test_plain_scalars_written_as_json_dumps_writes_them(self, value):
        assert records.json_text(value, " " * 8) == json.dumps(value, indent=2, sort_keys=True)

    def test_empty_record_list(self):
        doc = _document([])
        assert rendered(render_json, doc) == _oracle_render_json(doc)
        assert '"records": []' in rendered(render_json, doc)

    def test_envelope_holding_the_records_key_text(self):
        config = GridConfig.from_dict({"output_path": '"records": [] x.json'}).echo()
        records = [hy.CheckRecord("barnes/a", 1j, 1j, 0.0, 0.0, 1e-8, hy.PASS, {})]
        for recs in (records, []):
            doc = _document(recs, config)
            assert rendered(render_json, doc) == _oracle_render_json(doc)


    def test_envelope_holding_the_t_values_key_text(self):
        # the config's t_values are written in place of the first "t_values": [],
        # which a string value cannot hold: json.dumps escapes its quotes
        cfg = GridConfig.from_dict({"output_path": '"t_values": [] "records": [] x.json',
                                    "t_values": [[0.5, -0.0], -0.0, [1e-300, 2.5]]})
        records = [hy.CheckRecord("barnes/a", 1j, 1j, 0.0, 0.0, 1e-8, hy.PASS, {})]
        for config in (cfg.echo(), cfg.replace(t_values=[]).echo()):
            for recs in (records, []):
                doc = _document(recs, config)
                assert rendered(render_json, doc) == _oracle_render_json(doc)

    def test_slots_cycling_past_their_bound(self):
        # id_text and the writer remember a few value objects per key: w cycles
        # through 0.0, -0.0 and 0.5, which a value key would merge; x through more
        # objects than a key keeps; the tolerance through fresh objects of one value
        ws = (0.0, -0.0, 0.5)
        xs = [k / 7.0 for k in range(40)]
        ts = (complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.0, 1.5))
        recs = []
        for i in range(480):
            params = {"t": ts[i % 3], "w": ws[i % 3 - 1], "x": xs[i % 40]}
            want = "product_formula/" + "/".join(
                f"{k}={records.fmt_complex(v) if k == 't' else records.fmt_float(v)}"
                for k, v in params.items())
            rec = hy.build_record("product_formula", params, 1j, 1j, float("1e-10"),
                                  metadata={"companion_residual": xs[(7 * i) % 40]})
            assert rec.id == want
            recs.append(rec)
        doc = _document(recs)
        assert rendered(render_json, doc) == _oracle_render_json(doc)
        # a value whose only other holder is gone: its entry keeps its id from reuse
        for k in range(100):
            r = float(f"{k}.25")
            assert record_id("m", r=r) == f"m/r={records.fmt_float(r)}"
            del r


class TestCommandLine:
    def test_single_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["--suite", "main_identity", "--output", str(out)],
                       config={"pairs": [[0.25, 0.5]], "t_values": [0]},
                       tmp_path=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["pass"] == 1

    def test_empty_suites_usage_error(self, tmp_path):
        proc = run_cli([], config={"suites": []}, tmp_path=tmp_path)
        assert proc.returncode == 64

    def test_repeated_suite_flag_usage_error(self):
        proc = run_cli(["--suite", "barnes", "--suite", "barnes"])
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "suites: 'barnes' is repeated" in proc.stderr

    def test_repeated_config_value_usage_error(self, tmp_path):
        proc = run_cli(["--suite", "q_integral"],
                       config={"pairs": [[0.25, 0.5]], "r_values": [1.0, 10.0, 1.0]},
                       tmp_path=tmp_path)
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "r_values: 1.0 is repeated" in proc.stderr

    def test_values_sharing_an_id_usage_error(self, tmp_path):
        proc = run_cli(["--suite", "q_integral"],
                       config={"pairs": [[0.25, 0.5]], "r_values": [1.0, 1.0000000000001]},
                       tmp_path=tmp_path)
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "r_values: 1.0 and 1.0000000000001 share the record id text 'r=1'" in proc.stderr

    def test_kernel_points_sharing_an_id_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pairs": [[0.3, 0.3000000000000009]],
                                    "suites": ["spectral_kernel"]}))
        assert main(["--config", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: pairs: the spectral_kernel z points of "
                              "[0.3, 0.3000000000000009]: ")
        assert "share the record id text 'z=0.3'" in err

    @pytest.mark.parametrize("key", ["pairs", "t_values"])
    def test_empty_grid_list_usage_error(self, key, tmp_path, capsys):
        # a run without records used to exit 0, as if every record had passed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: []}))
        assert main(["--config", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and f"{key}: must not be empty" in err

    def test_unwritable_stdout_exits_74(self, capsys, monkeypatch, tmp_path):
        # `hypident > /dev/full` used to end in a traceback and exit 1; stdout's
        # descriptor is then pointed at devnull, so the flush at exit cannot fail
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FullStdout())
        try:
            assert main(["--suite", "barnes"]) == 74
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert err == "error: cannot write report: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [[], ["--format", "csv"], ["--config"]])
    def test_full_output_device_exits_74(self, args, tmp_path):
        # the report is written in batches, so the write fails partway through
        # it; the run must still end with one error line and no traceback
        if args == ["--config"]:   # 300 closed-form t values, as CI's edge_t_cycle
            rng = random.Random(18)
            config = tmp_path / "edge_t_cycle.json"
            config.write_text(json.dumps({
                "suites": ["quadratic_transform", "product_formula"],
                "t_values": [[round(rng.uniform(-2.0, 2.0), 6),
                              -0.0 if i % 3 == 0 else round(rng.uniform(-1.0, 1.0), 6)]
                             for i in range(300)]}))
            args = ["--config", str(config)]
        proc = run_cli(args + ["--output", "/dev/full"])
        assert proc.returncode == 74
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write report: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_unknown_flag_usage_error(self, tmp_path):
        proc = run_cli(["--bogus"])
        assert proc.returncode == 64

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_usage_error(self, jobs, capsys):
        assert main(["--suite", "barnes", "--jobs", jobs]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "--jobs must be at least 1" in err

    def test_import_starts_no_thread_pool_machinery(self):
        # --jobs forks by hand: concurrent.futures (with logging) or
        # multiprocessing would cost every start-up milliseconds, and so
        # would typing, which site loads on some hosts but python -S does not
        code = ("import sys, hypident.cli\n"
                "print([m for m in ('concurrent.futures', 'multiprocessing', 'typing')"
                " if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hy.__file__)))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_needs_only_the_standard_library(self):
        # src/ stays stdlib-only: without site-packages (python -S) the CLI
        # imports, and loads no module outside the standard library
        code = ("import sys, hypident.cli\n"
                "allowed = set(sys.stdlib_module_names) | {'hypident', '__main__'}\n"
                "print(sorted({n.partition('.')[0] for n in sys.modules} - allowed))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hy.__file__)))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("config, args, named", [
        ('{"r_values": [Infinity]}', [], "r_values"),
        ('{"t_values": [[0, Infinity]]}', [], "t_values"),
        ('{"t_values": [NaN]}', [], "t_values"),
        ('{"r_values": [true]}', [], "r_values"),
        ('{"t_values": [true]}', [], "t_values"),
        ('{}', ["--tol", "inf"], "--tol must be a positive finite number"),
        ('{}', ["--tol", "nan"], "--tol must be a positive finite number"),
        ('{}', ["--tol", "0"], "--tol must be a positive finite number"),
        ('{}', ["--tol", "-1"], "--tol must be a positive finite number"),
        ('[1]', [], "config must be a JSON object"),
        ('"x"', [], "config must be a JSON object"),
        ('{"output_path": ""}', [], "output_path: must be a non-empty string path"),
        ('{}', ["--output", ""], "output_path: must be a non-empty string path"),
        ('{"r_values": [1%s]}' % ("0" * 400), [], "r_values"),
        ('{"policy": {"max_terms": 2400}}', [], "max_terms"),
        ('{"pairs": 5}', [], "pairs"),
        ('{"pairs": null}', [], "pairs"),
        ('{"t_values": null}', [], "t_values"),
        ('{"t_values": 5}', [], "t_values"),
        ('{"r_values": null}', [], "r_values"),
    ], ids=["r_inf", "t_im_inf", "t_nan", "r_true", "t_true", "tol_inf", "tol_nan", "tol_zero",
            "tol_negative", "config_list", "config_string", "output_empty", "output_flag_empty",
            "r_huge_int", "max_terms", "pairs_int", "pairs_null", "t_null", "t_int", "r_null"])
    def test_non_finite_bool_or_unknown_value_usage_error(self, config, args, named,
                                                          tmp_path, capsys):
        # JSON reads NaN, Infinity and true as numbers, and ints past the float
        # range; each used to crash the run, run as 1, or (--tol inf) pass
        # every record vacuously; a config that is not an object, or an empty
        # output path (which used to print to stdout), is a usage error too
        path = tmp_path / "config.json"
        path.write_text(config)
        assert main(["--config", str(path), "--suite", "barnes"] + args) == 64
        out, err = capsys.readouterr()
        assert out == "" and named in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("policy, named", [
        ('{"abs_tol": Infinity}', "abs_tol"),
        ('{"abs_tol": true}', "abs_tol"),
        ('{"rel_tol": NaN}', "rel_tol"),
        ('{"max_nodes": 100.5}', "max_nodes"),
        ('{"max_nodes": 1e9}', "max_nodes"),
        ('{"max_nodes": true}', "max_nodes"),
    ], ids=["abs_inf", "abs_true", "rel_nan", "nodes_fraction", "nodes_float", "nodes_true"])
    def test_non_finite_bool_or_fractional_policy_usage_error(self, policy, named,
                                                              tmp_path, capsys):
        # abs_tol = Infinity used to pass every record vacuously, true to
        # crash the run, and a float node budget was accepted
        path = tmp_path / "config.json"
        path.write_text('{"policy": %s}' % policy)
        assert main(["--config", str(path), "--suite", "barnes"]) == 64
        out, err = capsys.readouterr()
        assert out == "" and f"policy: {named} " in err

    @pytest.mark.parametrize("config, skipped, total", [
        ({"t_values": [1000], "suites": ["quadratic_transform"]}, 2, 4),
        ({"t_values": [[0, 1000]],
          "suites": ["quadratic_transform", "product_formula", "main_identity"]}, 7, 10),
        ({"r_values": [1e160],
          "suites": ["spectral_product", "q_integral", "spectral_kernel", "obstruction"]},
         27, 27),
    ], ids=["t_real", "t_imaginary", "r"])
    def test_point_beyond_float_range_skipped(self, config, skipped, total):
        # these points used to crash the run with OverflowError, fail
        # (q_integral's lhs read 0) or pass vacuously (spectral_kernel).  At
        # r = 1e160 the product closed form's denominator passes the float
        # range, so spectral_product's and spectral_kernel's closed forms
        # round to 0: those points are skipped as vacuous
        doc = run(GridConfig.from_dict(config))
        assert (doc.summary["skipped"], doc.summary["total"]) == (skipped, total)
        assert exit_code(doc) == 3
        for rec in doc.records:
            if rec.status != "pass":
                assert rec.status == "skipped", rec.id
                assert rec.metadata["reason"].startswith(
                    "the closed form 0 is at or below the tolerance"
                    if rec.suite in ("spectral_product", "spectral_kernel")
                    else "the point overflows the float range: "), rec.id

    def test_opposite_infinities_in_a_node_sum_skipped(self, monkeypatch):
        # a node sum meeting +inf and -inf has left the float range; the
        # correctly rounded sum raises where a left-to-right one read nan
        def check(a, b, c, policy, tolerance):
            est = hy.integrate_chebyshev_weighted(
                lambda z: math.inf if z < 0.5 else -math.inf, 0.0, 1.0, policy)
            return hy.build_record("barnes", {"a": a, "b": b, "c": c}, est.value, 1.0,
                                   tolerance)

        monkeypatch.setattr(cli, "check_barnes_triple", check)
        doc = run(GridConfig.from_dict({"suites": ["barnes"]}))
        assert doc.records and doc.summary["skipped"] == doc.summary["total"]
        assert exit_code(doc) == 3
        assert all(rec.metadata["reason"].startswith("the point overflows the float range: ")
                   for rec in doc.records)

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli(["--config", str(path)])
        assert proc.returncode == 64

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                             ids=["not_utf8", "nested_100000_deep"])
    def test_undecodable_config(self, tmp_path, content):
        # json.load raises UnicodeDecodeError and RecursionError, not JSONDecodeError
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        proc = run_cli(["--config", str(path)])
        assert proc.returncode == 64
        assert proc.stderr.startswith("error: config is not valid JSON: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_missing_config_file(self):
        proc = run_cli(["--config", "/nonexistent/config.json"])
        assert proc.returncode == 64

    def test_failure_exit_two(self, tmp_path):
        proc = run_cli(["--suite", "q_integral", "--tol", "1e-30"],
                       config={"pairs": [[0.25, 0.5]], "r_values": [1.0]},
                       tmp_path=tmp_path)
        assert proc.returncode == 2

    def test_unconverged_exit_three(self, tmp_path):
        proc = run_cli(["--suite", "main_identity"],
                       config={"pairs": [[0.25, 0.5]], "t_values": [0],
                               "policy": {"max_nodes": 32}},
                       tmp_path=tmp_path)
        assert proc.returncode == 3

    def test_csv_stdout(self, tmp_path):
        proc = run_cli(["--suite", "barnes", "--format", "csv"])
        assert proc.returncode == 0
        header = proc.stdout.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_product_b_zero_rows_match_resolvent(self, tmp_path):
        config = {"suites": ["spectral_resolvent", "spectral_product"],
                  "r_values": [1.0, 10.0]}
        proc = run_cli(["--format", "csv"], config=config, tmp_path=tmp_path)
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        resolvent = {(r["id"].split("/")[1], r["r"]): r for r in rows
                     if r["suite"] == "spectral_resolvent"}
        matched = 0
        for row in rows:
            if row["suite"] == "spectral_product" and row["id"].endswith("/B=0"):
                key = (row["id"].split("/")[1], row["r"])
                ref = resolvent[key]
                for col in ("lhs_re", "lhs_im", "rhs_re", "rhs_im"):
                    assert row[col] == ref[col]  # bit-for-bit in value columns
                matched += 1
        assert matched == 6

    def test_jobs_byte_identical_stdout(self, tmp_path):
        config = {"suites": ["main_identity", "spectral_resolvent"],
                  "pairs": [[0.25, 0.5]], "t_values": [0, 1], "r_values": [1.0]}
        out1 = run_cli(["--jobs", "1"], config=config, tmp_path=tmp_path)
        out8 = run_cli(["--jobs", "8"], config=config, tmp_path=tmp_path)
        strip = lambda s: "\n".join(ln for ln in s.splitlines()
                                    if "wall_time_seconds" not in ln)
        assert strip(out1.stdout) == strip(out8.stdout)

    def test_in_process_runs_match_a_fresh_run(self, tmp_path, capsys):
        # the report writer and record_id keep per-key slots of the last
        # value they formatted; runs in one process, as a benchmark makes,
        # must not see each other's
        rng = random.Random(7)
        many = tmp_path / "many.json"
        many.write_text(json.dumps({
            "suites": ["quadratic_transform", "product_formula"],
            "t_values": [[round(rng.uniform(-2.0, 2.0), 6), round(rng.uniform(-1.0, 1.0), 6)]
                         for _ in range(50)]}))
        strip = lambda s: "\n".join(ln for ln in s.splitlines()
                                    if "wall_time_seconds" not in ln)
        texts = []
        for argv in ([], ["--config", str(many)], []):
            assert main(argv) == 0
            texts.append(strip(capsys.readouterr().out))
        assert texts[0] == texts[2]
        assert texts[1] != texts[0]
        assert texts[0] == strip(run_cli([]).stdout)
        assert texts[1] == strip(run_cli(["--config", str(many)]).stdout)

    def test_kernel_denominator_rounded_to_zero_skipped(self, tmp_path):
        # near S = 1 the kernel denominator E + F z + G z^2 rounds to 0 at
        # q_integral's nodes near q = 1; the division by it used to abort the
        # whole run with a ZeroDivisionError and no report.  spectral_kernel's
        # right side, from the factored shifts, no longer divides by it: at
        # z = S its strip trapezoid would need millions of nodes, so those
        # records are unconverged without evaluating the integrand
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pairs": [[0.5, 0.999999999]],
                                      "suites": ["spectral_kernel", "q_integral"]}))
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--output", str(out)]) == 3
        records = json.loads(out.read_text())["records"]
        skipped = [rec for rec in records if rec["status"] == "skipped"]
        assert {rec["suite"] for rec in skipped} == {"q_integral"}
        assert all(rec["metadata"]["reason"].startswith("the point divides by zero: ")
                   and rec["lhs"] is None for rec in skipped)
        stopped = [rec for rec in records if rec["suite"] == "spectral_kernel"
                   and rec["status"] == "unconverged"]
        assert {rec["metadata"]["z"] for rec in stopped} == {0.999999999}
        assert len(stopped) == 4 and all(
            rec["metadata"]["nodes"] == 0 and rec["lhs"] is None
            and re.fullmatch(r"the a-priori trapezoid rule needs \d+ nodes, more than "
                             r"max_nodes = 60000", rec["metadata"]["reason"])
            for rec in stopped)
        assert all(rec["status"] != "fail" for rec in records)

    def test_main_identity_beyond_cap_skipped(self, tmp_path):
        # |Re t| above the cancellation cap used to abort the whole run with
        # a DomainError traceback and no report
        out = tmp_path / "report.json"
        proc = run_cli(["--output", str(out)],
                       config={"suites": ["main_identity"], "pairs": [[0.25, 0.5]],
                               "t_values": [1.0, 3.0, [-2.5, 0.5]]},
                       tmp_path=tmp_path)
        assert proc.returncode == 3, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["summary"] == {"pass": 1, "fail": 0, "unconverged": 0,
                                      "skipped": 2, "total": 3}
        skipped = {rec["id"]: rec for rec in payload["records"]
                   if rec["status"] == "skipped"}
        assert len(skipped) == 2
        rec = skipped["main_identity/T=0.25/S=0.5/t=3"]
        assert rec["lhs"] is None and rec["rhs"] is None
        assert rec["tolerance"] == 1e-7
        assert rec["metadata"] == {
            "T": 0.25, "S": 0.5, "t": [3.0, 0.0],
            "reason": "|Re t| = 3 exceeds the cancellation cap 2"}


# pass, unconverged and skipped records: (0.5, 0.999999999) divides by zero
# at z = S and leaves spectral_kernel unconverged at large r, r = 1e160 is
# skipped as beyond the float range or vacuous
MIXED_CONFIG = {"pairs": [[0.25, 0.5], [0.5, 0.999999999]], "r_values": [1.0, 1e160],
                "suites": ["spectral_kernel", "q_integral", "weighted_residual",
                           "spectral_product"]}


class TestJobs:
    @staticmethod
    def counting_fork(monkeypatch):
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    def test_reports_byte_identical_across_jobs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(MIXED_CONFIG))
        texts = []
        for jobs in (["--jobs", "1"], [], ["--jobs", "3"]):
            assert main(["--config", str(config), *jobs]) == 3
            texts.append(capsys.readouterr().out)
        summary = json.loads(texts[0])["summary"]
        assert all(summary[s] > 0 for s in ("pass", "unconverged", "skipped")), summary
        strip = lambda s: [ln for ln in s.splitlines() if "wall_time_seconds" not in ln]
        assert strip(texts[0]) == strip(texts[1]) == strip(texts[2])

    def test_no_child_outlives_a_parallel_run(self, monkeypatch, capsys):
        forks = self.counting_fork(monkeypatch)
        assert main(["--suite", "barnes", "--jobs", "2"]) == 0
        assert len(forks) == min(2, cli.usable_cpus()) - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_more_shares_than_cpus_byte_identical(self, monkeypatch):
        # run() caps jobs at usable_cpus(); claiming 4 deals every grid into
        # 4 shares, 3 of them in children, whatever this host has
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        forks = self.counting_fork(monkeypatch)
        strip = lambda s: [ln for ln in s.splitlines() if "wall_time_seconds" not in ln]
        for raw in (MIXED_CONFIG, {}):
            cfg = GridConfig.from_dict(dict(raw))
            serial = rendered(render_json, run(cfg, 1))
            del forks[:]
            assert strip(rendered(render_json, run(cfg, 4))) == strip(serial)
            assert len(forks) == 3
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_error_in_a_check_surfaces_from_main(self, monkeypatch, capsys):
        # a child that fails has its share rerun in the parent, which raises
        def broken(*args, **kwargs):
            raise RuntimeError("broken check")

        monkeypatch.setattr(cli, "check_barnes_triple", broken)
        with pytest.raises(RuntimeError, match="broken check"):
            main(["--suite", "barnes", "--suite", "spectral_power", "--jobs", "2"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_share_of_a_failed_child_reruns_in_the_parent(self, monkeypatch):
        cfg = GridConfig.from_dict({"suites": ["barnes", "spectral_power"]})
        serial = run(cfg).records
        parent, original = os.getpid(), cli.check_barnes_triple

        def dies_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "check_barnes_triple", dies_in_a_child)
        assert run(cfg, jobs=2).records == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_closed_form_grid_forks_nothing(self, monkeypatch, capsys):
        forks = self.counting_fork(monkeypatch)
        assert main(["--suite", "quadratic_transform", "--suite", "product_formula",
                     "--jobs", "4"]) == 0
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        forks = self.counting_fork(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            doc = run(GridConfig.from_dict({"suites": ["barnes"]}), jobs=2)
        finally:
            release.set()
            waiter.join()
        assert forks == [] and doc.summary["total"] == 5

    def test_jobs_capped_by_cpus_and_groups(self, monkeypatch, capsys):
        forks = self.counting_fork(monkeypatch)
        serial = run(GridConfig.from_dict({"suites": ["barnes"]})).records
        assert main(["--suite", "barnes", "--jobs", "100000"]) == 0
        assert len(forks) <= min(cli.usable_cpus(), len(serial)) - 1
        assert capsys.readouterr().out.count('"id":') == len(serial)

    def test_share_runs_in_the_parent_when_fork_fails(self, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "no process")

        cfg = GridConfig.from_dict({"suites": ["barnes", "spectral_power"]})
        serial = run(cfg).records
        monkeypatch.setattr(os, "fork", no_fork)
        assert run(cfg, jobs=2).records == serial

    def test_shares_keep_memo_groups_whole(self):
        # each pair's weighted_residual tasks share wr_inner_memo; strip_memo's
        # keys leave r out, so each (A, B)'s spectral_resolvent (B = 0) and
        # spectral_product tasks and each (T, S, z)'s spectral_kernel tasks share
        # it; closed-form tasks stay in the parent's share
        shares = cli.deal(build_tasks(GridConfig.from_dict({})), 3)
        assert len(shares) == 3
        where = {}
        for i, share in enumerate(shares):
            for suite, params, _, _ in share:
                if suite in ("quadratic_transform", "product_formula"):
                    assert i == 0
                elif suite == "weighted_residual":
                    where.setdefault(("pair", params["T"], params["S"]), set()).add(i)
                elif suite in ("spectral_resolvent", "spectral_product"):
                    where.setdefault(("shift", params["A"], params.get("B", 0.0)), set()).add(i)
                elif suite == "spectral_kernel":
                    where.setdefault(("z", params["T"], params["S"], params["z"]), set()).add(i)
        assert len(where) == 3 + 6 + 15 and all(len(s) == 1 for s in where.values())
        assert all(shares)
        barnes = build_tasks(GridConfig.from_dict({"suites": ["barnes"]}))
        assert cli.deal(barnes, 1) == [barnes]


class TestEdgeCensus:
    # tests/edge_census.json: a config of the domain's edges (S -> 1, T -> 0,
    # a kernel denominator and an inner integral that round away) and the
    # status of each record that does not pass, by id
    RANK = {"pass": 0, "skipped": 1, "unconverged": 2, "fail": 3}

    def test_statuses_match_the_census(self):
        path = os.path.join(os.path.dirname(__file__), "edge_census.json")
        with open(path, encoding="utf-8") as fh:
            census = json.load(fh)
        doc = run(GridConfig.from_dict(census["config"]))
        got = {rec.id: rec.status for rec in doc.records}
        assert len(got) == census["total"] and set(census["statuses"]) <= set(got)
        moves = [(census["statuses"].get(i, "pass"), s, i) for i, s in sorted(got.items())]
        worse = [f"{i}: {was} -> {now}" for was, now, i in moves
                 if self.RANK[now] > self.RANK[was]]
        better = [f"{i}: {was} -> {now}" for was, now, i in moves
                  if self.RANK[now] < self.RANK[was]]
        assert not worse and not better, (
            "worse than the census:\n" + "\n".join(worse)
            + "\nbetter than the census (update tests/edge_census.json):\n"
            + "\n".join(better))


# the nine configs of the CI step "hypident skips points beyond the float range and rejects
# a non-finite policy", as it writes them
CI_EDGE_CONFIGS = {
    "edge_t_real": '{"t_values": [1000], "suites": ["quadratic_transform"]}',
    "edge_t_imag": '{"t_values": [[0, 1000]], "suites": ["quadratic_transform", '
                   '"product_formula", "main_identity"]}',
    "edge_t_large": '{"t_values": [1e6, [0, 1e6]], "suites": ["product_formula", '
                    '"quadratic_transform"]}',
    "edge_r_huge": '{"r_values": [1e160], "suites": ["spectral_product", "q_integral", '
                   '"spectral_kernel"]}',
    "edge_wr_vacuous": '{"r_values": [1e160], "suites": ["weighted_residual"]}',
    "edge_sr_vacuous": '{"r_values": [1e160], "suites": ["spectral_resolvent"]}',
    "edge_spk_vacuous": '{"r_values": [1e12], "suites": ["spectral_product", "spectral_kernel"]}',
    "edge_s_to_1": '{"pairs": [[0.5, 0.999999999]], "suites": ["spectral_kernel", "q_integral"]}',
    "edge_wr_inner": '{"pairs": [[0.5, 0.9999999999999999]], "suites": ["weighted_residual"], '
                     '"r_values": [1.0]}',
}


class TestCiEdgeConfigs:
    @pytest.mark.parametrize("cfg", CI_EDGE_CONFIGS)
    def test_exit_three_with_the_step_s_statuses_and_reasons(self, cfg, tmp_path, monkeypatch):
        # in-process through cli.main, then the step's assertions, copied unchanged but for
        # the report's path, sys.argv[1] there
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"{cfg}.json").write_text(CI_EDGE_CONFIGS[cfg] + "\n")
        assert main(["--config", f"{cfg}.json", "--output", f"{cfg}.report.json"]) == 3
        report = f"{cfg}.report.json"
        records = json.load(open(report, encoding="utf-8"))["records"]
        s_to_1 = report.startswith("edge_s_to_1")
        if report.startswith("edge_wr_inner"):
            assert records and all(rec["status"] == "unconverged" and rec["metadata"]["reason"]
                                   and rec["metadata"]["inner_unconverged"] >= 1
                                   for rec in records)
            records = []
        for rec in records:
            if s_to_1 and rec["status"] == "unconverged" and rec["suite"] == "spectral_kernel":
                continue
            if rec["status"] != "pass":
                assert rec["status"] == "skipped" and rec["metadata"]["reason"], rec["id"]
            if s_to_1 and rec["status"] == "skipped":
                assert "divides by zero" in rec["metadata"]["reason"], rec["id"]
        if s_to_1:
            assert any(rec["status"] == "skipped" for rec in records)
        if report.startswith(("edge_wr_vacuous", "edge_sr_vacuous", "edge_spk_vacuous")):
            assert records and all(rec["status"] == "skipped"
                                   and "vacuous" in rec["metadata"]["reason"] for rec in records)
