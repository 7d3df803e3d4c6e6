"""Command-line front end: load a grid configuration, run the selected
check suites over the parameter cross-product, emit a JSON or CSV report,
and signal the outcome through the exit code.

Exit codes: 0 all records pass, 2 at least one failure, 3 unconverged or
skipped records only, 64 invalid usage/config, 74 report I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from io import StringIO
from typing import Callable, NamedTuple

from . import __version__
from .errors import DegenerateConfigurationError, UsageError, Value
from .identity_suite import (ParameterPair, check_barnes_triple,
                             check_main_identity, check_obstruction_integer,
                             check_product_formula, check_q_integral,
                             check_quadratic_transform, check_spectral_kernel,
                             check_spectral_power, check_spectral_product,
                             check_spectral_resolvent, check_weighted_residual,
                             product_geometry, shift_memo, wr_inner_memo)
from .quadrature import EvaluationPolicy
from .records import (FAIL, PASS, SKIPPED, STATUSES, UNCONVERGED, CheckRecord,
                      id_text, json_text, json_writer, skipped_record)
from .special_functions import log_base

DEFAULT_PAIRS = ((0.25, 0.5), (0.1, 0.9), (0.4, 0.45))
DEFAULT_T_VALUES = (complex(0.0), complex(0.5), complex(1.0), complex(2.0),
                    complex(0.0, 0.5), complex(0.3, 0.4))
DEFAULT_R_VALUES = (0.5, 1.0, 10.0, 100.0)

# scalar grids for the shift-parameter suites
SHIFT_A_GRID = (-0.5, 0.25, 3.0)
SHIFT_TAU_GRID = (0.0, 0.8, 2.0)
SHIFT_B_GRID = (0.0, 1.5)
BARNES_TRIPLES = ((0.0, 0.5, 0.5), (0.0, 1.0, 0.5), (0.5, 0.5, 0.5),
                  (1.0, 1.0, 0.5), (0.5, 1.5, 0.75))
KERNEL_Z_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
TRANSFORM_W_GRID = (-0.7, 0.0, 0.25, 0.5)
PRODUCT_XY_GRID = ((1.0, 1.0), (0.3, 2.0), (0.8, 0.8))


def _pair(p: dict) -> ParameterPair:
    return ParameterPair(p["T"], p["S"])


def _pairs_by_r(cfg: GridConfig):
    return ({"T": T, "S": S, "r": r} for (T, S) in cfg.pairs for r in cfg.r_values)


def _finite(v) -> bool:
    """Whether v is a number, not a bool, that converts to a finite float;
    JSON reads NaN, Infinity and true as numbers too."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


def _near_twins(xs) -> bool:
    """Whether two of the floats xs are equal or lie within 1e-10 of each
    other, relatively, as two that print alike to 12 significant digits do."""
    s = sorted(xs)
    return any(b - a <= 1e-10 * max(abs(a), abs(b)) for a, b in zip(s, s[1:]))


class Suite(NamedTuple):
    """One check suite as data.  `check(params, policy, tolerance)` looks the
    check up by this module's name at call time, so rebinding that name (as a
    tracer does) reaches every task."""

    check: Callable          # (params, policy, tolerance) -> CheckRecord
    tolerance: float | None  # default pass tolerance; None: the policy's abs_tol
    grid: Callable           # GridConfig -> params dicts, keys in record-id order


SUITE_TABLE = {
    "main_identity": Suite(
        lambda p, pol, tol: check_main_identity(_pair(p), p["t"], pol, tolerance=tol),
        1e-7,
        lambda cfg: ({"T": T, "S": S, "t": t}
                     for (T, S) in cfg.pairs for t in cfg.t_values)),
    "quadratic_transform": Suite(
        lambda p, pol, tol: check_quadratic_transform(p["t"], p["w"], tolerance=tol),
        None,
        lambda cfg: ({"t": t, "w": w} for t in cfg.t_values for w in TRANSFORM_W_GRID)),
    "product_formula": Suite(
        lambda p, pol, tol: check_product_formula(p["t"], p["x"], p["y"], tolerance=tol),
        None,
        lambda cfg: ({"t": t, "x": x, "y": y}
                     for t in cfg.t_values for (x, y) in PRODUCT_XY_GRID)),
    "barnes": Suite(
        lambda p, pol, tol: check_barnes_triple(p["a"], p["b"], p["c"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"a": a, "b": b, "c": c} for (a, b, c) in BARNES_TRIPLES)),
    "spectral_power": Suite(
        lambda p, pol, tol: check_spectral_power(p["A"], p["tau"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "tau": tau} for a in SHIFT_A_GRID for tau in SHIFT_TAU_GRID)),
    "spectral_resolvent": Suite(
        lambda p, pol, tol: check_spectral_resolvent(p["A"], p["r"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "r": r} for a in SHIFT_A_GRID for r in cfg.r_values)),
    "spectral_product": Suite(
        lambda p, pol, tol: check_spectral_product(p["A"], p["r"], p["B"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "r": r, "B": b} for a in SHIFT_A_GRID for r in cfg.r_values
                     for b in SHIFT_B_GRID)),
    "spectral_kernel": Suite(
        lambda p, pol, tol: check_spectral_kernel(p["z"], p["r"], _pair(p), pol, tolerance=tol),
        1e-7,
        # z is clamped: T + 1.0 * (S - T) may round above S
        lambda cfg: ({"T": T, "S": S, "z": min(T + frac * (S - T), S), "r": r}
                     for (T, S) in cfg.pairs for frac in KERNEL_Z_FRACTIONS
                     for r in cfg.r_values)),
    "q_integral": Suite(
        lambda p, pol, tol: check_q_integral(p["r"], _pair(p), pol, tolerance=tol),
        1e-7, _pairs_by_r),
    "obstruction": Suite(
        lambda p, pol, tol: check_obstruction_integer(p["r"], _pair(p), pol, tolerance=tol),
        1e-8, _pairs_by_r),
    "weighted_residual": Suite(   # runs on its own fixed inner and outer policies
        lambda p, pol, tol: check_weighted_residual(p["r"], _pair(p), tolerance=tol),
        1e-6, _pairs_by_r),
}
SUITES = tuple(SUITE_TABLE)

CSV_COLUMNS = ("id", "suite", "T", "S", "t_re", "t_im", "r",
               "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_err", "rel_err", "tolerance", "status", "nodes",
               "digits_lost")


class GridConfig(Value):
    __slots__ = ("suites", "pairs", "t_values", "r_values", "policy", "output_path", "format",
                 "tol_override")

    def __init__(self, suites, pairs, t_values, r_values, policy, output_path, format,
                 tol_override=None):
        self.suites, self.pairs, self.t_values, self.r_values = suites, pairs, t_values, r_values
        self.policy, self.output_path, self.format = policy, output_path, format
        self.tol_override = tol_override

    @classmethod
    def from_dict(cls, raw: dict) -> "GridConfig":
        known = {"suites", "pairs", "t_values", "r_values", "policy",
                 "output_path", "format"}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

        suites = raw.get("suites", list(SUITES))
        if not isinstance(suites, list) or not suites:
            raise UsageError("suites: must be a non-empty list of suite names")
        bad = [s for s in suites if s not in SUITES]
        if bad:
            raise UsageError(f"suites: unknown suite names {bad}; "
                             f"known: {list(SUITES)}")

        for key in ("pairs", "t_values", "r_values"):
            if not isinstance(raw.get(key, []), list):
                raise UsageError(f"{key}: must be a list, got {raw[key]!r}")
        pairs = []
        for entry in raw.get("pairs", [list(p) for p in DEFAULT_PAIRS]):
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(map(_finite, entry))):
                raise UsageError(f"pairs: each entry must be [T, S], got {entry!r}")
            t_v, s_v = float(entry[0]), float(entry[1])
            if not 0.0 < t_v < s_v < 1.0:
                raise UsageError(f"pairs: need 0 < T < S < 1, got [{t_v:g}, {s_v:g}]")
            pairs.append((t_v, s_v))

        t_values = []
        for entry in raw.get("t_values", [[t.real, t.imag] for t in DEFAULT_T_VALUES]):
            if _finite(entry):
                t_values.append(complex(float(entry)))
            elif (isinstance(entry, (list, tuple)) and len(entry) == 2
                  and all(map(_finite, entry))):
                t_values.append(complex(float(entry[0]), float(entry[1])))
            else:
                raise UsageError(
                    f"t_values: entries must be finite numbers or [re, im], got {entry!r}")

        r_values = []
        for entry in raw.get("r_values", list(DEFAULT_R_VALUES)):
            if not _finite(entry) or not entry > 0:
                raise UsageError(
                    f"r_values: entries must be positive finite numbers, got {entry!r}")
            r_values.append(float(entry))
        for key, values in (("suites", suites), ("pairs", pairs),
                            ("t_values", t_values), ("r_values", r_values)):
            if not values:   # a run without records would exit 0, as if all passed
                raise UsageError(f"{key}: must not be empty")
            if len(set(values)) < len(values):   # a repeat would run its points twice
                repeat = next(v for i, v in enumerate(values) if v in values[:i])
                raise UsageError(f"{key}: {repeat!r} is repeated; each entry must be distinct")
        # record ids print values to 12 significant digits; values that print
        # alike would give two records one id.  Their id texts (records.id_text)
        # are only built when each coordinate holds such near twins.
        for key, values, coords, text in (
                ("pairs", pairs, zip(*pairs), lambda p: id_text({"T": p[0], "S": p[1]})),
                ("t_values", t_values, ([t.real for t in t_values], [t.imag for t in t_values]),
                 lambda t: id_text({"t": t})),
                ("r_values", r_values, (r_values,), lambda r: id_text({"r": r}))):
            if not all(map(_near_twins, coords)):
                continue
            first = {}
            for v in values:
                w = first.setdefault(text(v), v)
                if w is not v:
                    raise UsageError(f"{key}: {w!r} and {v!r} share the record id text "
                                     f"{text(v)!r}; entries must differ within 12 "
                                     "significant digits")

        pol_raw = raw.get("policy", {})
        if not isinstance(pol_raw, dict):
            raise UsageError("policy: must be an object of EvaluationPolicy fields")
        # checked here, as the grid values are, rather than in EvaluationPolicy,
        # whose constructor runs again at every replace()
        for key, value in pol_raw.items():
            if key == "max_nodes" and type(value) is not int:   # bool is an int subclass
                raise UsageError(f"policy: max_nodes must be an integer, got {value!r}")
            if key in ("abs_tol", "rel_tol") and not _finite(value):
                raise UsageError(f"policy: {key} must be a finite number, got {value!r}")
        try:
            policy = EvaluationPolicy(**pol_raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"policy: {exc}") from exc

        fmt = raw.get("format", "json")
        if fmt not in ("json", "csv"):
            raise UsageError(f"format: must be 'json' or 'csv', got {fmt!r}")

        output_path = raw.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise UsageError("output_path: must be a string path")

        return cls(list(suites), pairs, t_values, r_values, policy, output_path, fmt)

    def echo(self) -> dict:
        return {**self.as_dict(), "suites": list(self.suites),
                "pairs": [[t, s] for (t, s) in self.pairs],
                "t_values": [[t.real, t.imag] for t in self.t_values],
                "r_values": list(self.r_values), "policy": self.policy.as_dict()}


class ReportDocument(Value):
    __slots__ = ("tool_version", "config", "records", "summary", "wall_time_seconds")

    def __init__(self, tool_version, config, records, summary, wall_time_seconds):
        self.tool_version, self.config, self.records = tool_version, config, records
        self.summary, self.wall_time_seconds = summary, wall_time_seconds


def build_tasks(cfg: GridConfig) -> list:
    """Deterministic task list for the cross-product of suites and grids: one
    (suite, params, policy, tolerance) tuple per record."""
    pol = cfg.policy
    tasks = []
    for suite in cfg.suites:
        entry = SUITE_TABLE[suite]
        tol = (cfg.tol_override if cfg.tol_override is not None
               else pol.abs_tol if entry.tolerance is None else entry.tolerance)
        tasks.extend((suite, params, pol, tol) for params in entry.grid(cfg))
    return tasks


def run_task(task: tuple) -> CheckRecord:
    """The record of one task.  A point where the check raises
    DegenerateConfigurationError, leaves the float range (OverflowError) or
    divides by a rounded-off zero (ZeroDivisionError) is skipped with the reason;
    records.skipped_record names it from (suite, params), as the check would have."""
    suite, params, policy, tolerance = task
    try:
        return SUITE_TABLE[suite].check(params, policy, tolerance)
    except DegenerateConfigurationError as exc:
        reason = str(exc)
    except OverflowError as exc:
        reason = f"the point overflows the float range: {exc}"
    except ZeroDivisionError as exc:
        reason = f"the point divides by zero: {exc}"
    return skipped_record(suite, params, reason, tolerance)


def run(cfg: GridConfig) -> ReportDocument:
    """Execute the configured grid and assemble the report.

    Records are computed one after another, each independently, and sorted
    by id.  The checks are CPU-bound pure Python, so a thread pool would run
    them no faster under the interpreter lock.  The run memos (wr_inner_memo,
    shift_memo, log_base, product_geometry) are emptied first, so every run does
    the same work, and id_text's slots after, so that no value of the run outlives it.
    """
    start = time.perf_counter()
    for memo in (wr_inner_memo, shift_memo, log_base, product_geometry):
        memo.cache_clear()
    records = list(map(run_task, build_tasks(cfg)))
    id_text.cache_clear()
    records.sort(key=lambda rec: rec.id)
    summary = dict.fromkeys(STATUSES, 0)
    for rec in records:
        summary[rec.status] += 1
    summary["total"] = len(records)
    wall = time.perf_counter() - start
    return ReportDocument(__version__, cfg.echo(), records, summary, wall)


def render_json(doc: ReportDocument) -> str:
    """The report as json.dumps(payload, indent=2, sort_keys=True) writes it.  With
    indent that encoder runs in pure Python, so it writes the small envelope, and the
    records and config t_values, [re, im], are written directly (json_writer, json_text)
    in place of its first "records": [] and "t_values": [] (a string escapes quotes)."""
    envelope = json.dumps({"tool_version": doc.tool_version,
                           "config": {**doc.config, "t_values": []},
                           "summary": doc.summary, "records": [],
                           "wall_time_seconds": doc.wall_time_seconds},
                          indent=2, sort_keys=True)
    ts = ",\n      ".join(json_text(complex(*t), " " * 6) for t in doc.config["t_values"])
    body = ",\n    ".join(map(json_writer(), doc.records))   # copied only by the join below
    head, tail = envelope.split('"t_values": []', 1)
    mid, tail = tail.split('"records": []', 1)
    return "".join((head, f'"t_values": [\n      {ts}\n    ]' if ts else '"t_values": []', mid,
                    *(('"records": [\n    ', body, "\n  ]") if body else ('"records": []',)),
                    tail, "\n"))


def render_csv(doc: ReportDocument) -> str:
    def cell(value) -> str:   # str of a float is its repr
        return "" if value is None else str(value)

    out = StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in doc.records:
        md = rec.metadata
        t = md.get("t")
        row = [
            rec.id,
            rec.suite,
            cell(md.get("T")),
            cell(md.get("S")),
            cell(None if t is None else complex(t).real),
            cell(None if t is None else complex(t).imag),
            cell(md.get("r")),
            cell(None if rec.lhs is None else rec.lhs.real),
            cell(None if rec.lhs is None else rec.lhs.imag),
            cell(None if rec.rhs is None else rec.rhs.real),
            cell(None if rec.rhs is None else rec.rhs.imag),
            cell(rec.abs_err),
            cell(rec.rel_err if rec.rel_err != float("inf") else None),
            cell(rec.tolerance),
            rec.status,
            cell(md.get("nodes")),
            cell(md.get("digits_lost")),
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def exit_code(doc: ReportDocument) -> int:
    if doc.summary.get(FAIL, 0) > 0:
        return 2
    if doc.summary.get(UNCONVERGED, 0) > 0 or doc.summary.get(SKIPPED, 0) > 0:
        return 3
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypident",
        description="Run hypergeometric integral identity check suites "
                    "over parameter grids and report pass/fail per record.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON grid configuration (defaults embedded)")
    parser.add_argument("--suite", action="append", metavar="NAME",
                        help=f"suite to run (repeatable, overrides config); "
                             f"known: {', '.join(SUITES)}")
    parser.add_argument("--output", metavar="PATH",
                        help="report destination (default: config output_path or stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="report format (default: config format or json)")
    parser.add_argument("--tol", type=float, metavar="X",
                        help="override every record's pass tolerance")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1); records "
                             "are always evaluated serially")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the usage exit code
        return 64 if exc.code not in (0, None) else 0

    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 64
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 64
        if not isinstance(raw, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 64

    if args.suite:
        raw["suites"] = args.suite
    if args.output is not None:
        raw["output_path"] = args.output
    if args.format is not None:
        raw["format"] = args.format

    try:
        cfg = GridConfig.from_dict(raw)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    if args.tol is not None:
        if not 0.0 < args.tol < math.inf:
            print("error: --tol must be a positive finite number", file=sys.stderr)
            return 64
        cfg.tol_override = args.tol
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 64

    doc = run(cfg)
    text = render_csv(doc) if cfg.format == "csv" else render_json(doc)
    try:
        if cfg.output_path:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        if not cfg.output_path:   # at exit stdout is flushed again: on devnull it cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 74

    counts = doc.summary
    print(f"{counts['total']} records: {counts[PASS]} pass, {counts[FAIL]} fail, "
          f"{counts[UNCONVERGED]} unconverged, {counts[SKIPPED]} skipped "
          f"({doc.wall_time_seconds:.2f}s)", file=sys.stderr)
    return exit_code(doc)


def entry() -> None:
    sys.exit(main())
