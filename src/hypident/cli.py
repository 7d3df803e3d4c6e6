"""Command-line front end: load a grid configuration, run the selected
check suites over the parameter cross-product, emit a JSON or CSV report,
and signal the outcome through the exit code.

Exit codes: 0 all records pass, 2 at least one failure, 3 unconverged or
skipped records only, 64 invalid usage/config, 74 report I/O failure.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import sys
import time
from collections import namedtuple
from functools import partial

from . import __version__
from .errors import DegenerateConfigurationError, NodeBudgetError, UsageError, Value
from .identity_suite import (ParameterPair, check_barnes_triple,
                             check_main_identity, check_obstruction_integer,
                             check_product_formula, check_q_integral,
                             check_quadratic_transform, check_spectral_kernel,
                             check_spectral_power, check_spectral_product,
                             check_spectral_resolvent, check_weighted_residual,
                             product_geometry, strip_memo, wr_inner_memo)
from .quadrature import EvaluationPolicy
from .records import (FAIL, PASS, SKIPPED, STATUSES, UNCONVERGED, CheckRecord,
                      ReportDocument, fork, id_text, reap, render_csv, render_json,
                      skipped_record)
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


def _kernel_points(T: float, S: float) -> list:
    # clamped: T + 1.0 * (S - T) may round above S
    return [min(T + frac * (S - T), S) for frac in KERNEL_Z_FRACTIONS]


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


class Suite(namedtuple("Suite", "check tolerance grid share")):
    """One check suite as data.  `check(params, policy, tolerance)` looks the
    check up by this module's name at call time, so rebinding that name (as a
    tracer does) reaches every task.  `tolerance` is the default pass tolerance
    (None: the policy's abs_tol), `grid(cfg)` yields params dicts, keys in
    record-id order.  `share(params)` names the task's group, which runs in one
    process (deal): tasks that fill one run memo share a key, `id` puts each task
    alone, and the closed-form suites, None, stay in the parent."""

    __slots__ = ()


def _memo_share(p: dict) -> tuple:   # the run memo's key, r left out: (T, S), (T, S, z), (A, B)
    return tuple(p.get(k, 0.0) for k in ("T", "S", "z", "A", "B"))   # the resolvent's B is 0


SUITE_TABLE = {
    "main_identity": Suite(
        lambda p, pol, tol: check_main_identity(_pair(p), p["t"], pol, tolerance=tol),
        1e-7,
        lambda cfg: ({"T": T, "S": S, "t": t}
                     for (T, S) in cfg.pairs for t in cfg.t_values), id),
    "quadratic_transform": Suite(
        lambda p, pol, tol: check_quadratic_transform(p["t"], p["w"], tolerance=tol),
        None,
        lambda cfg: ({"t": t, "w": w} for t in cfg.t_values for w in TRANSFORM_W_GRID),
        None),
    "product_formula": Suite(
        lambda p, pol, tol: check_product_formula(p["t"], p["x"], p["y"], tolerance=tol),
        None,
        lambda cfg: ({"t": t, "x": x, "y": y}
                     for t in cfg.t_values for (x, y) in PRODUCT_XY_GRID), None),
    "barnes": Suite(
        lambda p, pol, tol: check_barnes_triple(p["a"], p["b"], p["c"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"a": a, "b": b, "c": c} for (a, b, c) in BARNES_TRIPLES), id),
    "spectral_power": Suite(
        lambda p, pol, tol: check_spectral_power(p["A"], p["tau"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "tau": tau} for a in SHIFT_A_GRID for tau in SHIFT_TAU_GRID),
        id),
    "spectral_resolvent": Suite(
        lambda p, pol, tol: check_spectral_resolvent(p["A"], p["r"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "r": r} for a in SHIFT_A_GRID for r in cfg.r_values),
        _memo_share),
    "spectral_product": Suite(
        lambda p, pol, tol: check_spectral_product(p["A"], p["r"], p["B"], pol, tolerance=tol),
        1e-8,
        lambda cfg: ({"A": a, "r": r, "B": b} for a in SHIFT_A_GRID for r in cfg.r_values
                     for b in SHIFT_B_GRID), _memo_share),
    "spectral_kernel": Suite(
        lambda p, pol, tol: check_spectral_kernel(p["z"], p["r"], _pair(p), pol, tolerance=tol),
        1e-7,
        lambda cfg: ({"T": T, "S": S, "z": z, "r": r} for (T, S) in cfg.pairs
                     for z in _kernel_points(T, S) for r in cfg.r_values), _memo_share),
    "q_integral": Suite(
        lambda p, pol, tol: check_q_integral(p["r"], _pair(p), pol, tolerance=tol),
        1e-7, _pairs_by_r, id),
    "obstruction": Suite(
        lambda p, pol, tol: check_obstruction_integer(p["r"], _pair(p), pol, tolerance=tol),
        1e-8, _pairs_by_r, id),
    "weighted_residual": Suite(   # runs on its own fixed inner and outer policies
        lambda p, pol, tol: check_weighted_residual(p["r"], _pair(p), tolerance=tol),
        1e-6, _pairs_by_r, _memo_share),
}
SUITES = tuple(SUITE_TABLE)


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
                ("r_values", r_values, (r_values,), lambda r: id_text({"r": r})),
                *((f"pairs: the spectral_kernel z points of {[T, S]}", zs, (zs,),
                   lambda z: id_text({"z": z})) for T, S in pairs
                  if "spectral_kernel" in suites for zs in (_kernel_points(T, S),))):
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
        if output_path == "":   # not stdout, which null or no key asks for
            raise UsageError("output_path: must be a non-empty string path")

        return cls(list(suites), pairs, t_values, r_values, policy, output_path, fmt)

    def echo(self) -> dict:
        return {**self.as_dict(), "suites": list(self.suites),
                "pairs": [[t, s] for (t, s) in self.pairs],
                "t_values": [[t.real, t.imag] for t in self.t_values],
                "r_values": list(self.r_values), "policy": self.policy.as_dict()}


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
    one whose rule would need more than max_nodes (NodeBudgetError) is unconverged,
    with `nodes` 0.  records.skipped_record names it from (suite, params), as the
    check would have."""
    suite, params, policy, tolerance = task
    try:
        return SUITE_TABLE[suite].check(params, policy, tolerance)
    except NodeBudgetError as exc:
        return skipped_record(suite, params, str(exc), tolerance, {"nodes": 0}, UNCONVERGED)
    except DegenerateConfigurationError as exc:
        reason = str(exc)
    except OverflowError as exc:
        reason = f"the point overflows the float range: {exc}"
    except ZeroDivisionError as exc:
        reason = f"the point divides by zero: {exc}"
    return skipped_record(suite, params, reason, tolerance)


def usable_cpus() -> int:
    """The CPUs this process may run on: --jobs' default and its bound."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def deal(tasks: list, jobs: int) -> list:
    """Split tasks into at most `jobs` shares, one per process, the parent's first.
    Tasks of a suite without a share key stay in the parent; the others form
    groups by key (Suite.share), dealt round-robin in task order."""
    local, groups = [], {}
    for task in tasks:
        share = SUITE_TABLE[task[0]].share
        if share:
            groups.setdefault(share(task[1]), []).append(task)
        else:
            local.append(task)
    shares = [local] + [[] for _ in range(min(jobs, len(groups)) - 1)]
    for i, group in enumerate(groups.values()):
        shares[i % len(shares)] += group
    return shares


def _send_records(share: list, pipe) -> None:
    """A pool child's work: run `share` and write its records as one marshal list of
    their field tuples, in constructor order."""
    pipe.write(marshal.dumps(list(map(CheckRecord._fields, map(run_task, share)))))


def run(cfg: GridConfig, jobs: int = 1) -> ReportDocument:
    """Execute the configured grid and assemble the report.

    Every record is a pure function of its task.  The tasks are dealt into at
    most min(jobs, usable_cpus()) shares (deal); the parent runs the first and
    forks one child per other share (records.fork), where os.fork exists and no
    other thread runs; a share no child could start runs in the parent.  jobs = 1,
    the default here, forks nothing.  A share whose child fails is run again in
    the parent, so an error surfaces as in a serial run.
    The records are sorted by id, so the report is byte-identical for every jobs.
    The run memos (wr_inner_memo, strip_memo, log_base, product_geometry) are
    emptied first, so every run does the same work, and after, with id_text's
    slots, so that no value of the run outlives it.
    """
    start = time.perf_counter()
    memos = (wr_inner_memo, strip_memo, log_base, product_geometry)
    for memo in memos:
        memo.cache_clear()
    shares = deal(build_tasks(cfg), min(jobs, usable_cpus()))
    children = []
    try:
        for share in shares[1:]:
            child = fork(partial(_send_records, share))
            if child:
                children.append((share, child))
            else:   # no process could start: the parent runs the share
                shares[0] += share
        records = list(map(run_task, shares[0]))
    finally:
        results = reap([child for _, child in children], lambda pipe, i: pipe.read())
    for (share, _), (data, status) in zip(children, results):
        records += (map(run_task, share) if status
                    else [CheckRecord(*fields) for fields in marshal.loads(data)])
    for memo in (*memos, id_text):
        memo.cache_clear()
    records.sort(key=lambda rec: rec.id)
    summary = dict.fromkeys(STATUSES, 0)
    for rec in records:
        summary[rec.status] += 1
    summary["total"] = len(records)
    wall = time.perf_counter() - start
    return ReportDocument(__version__, cfg.echo(), records, summary, wall)


def exit_code(doc: ReportDocument) -> int:
    counts = doc.summary
    return 2 if counts.get(FAIL) else 3 if counts.get(UNCONVERGED) or counts.get(SKIPPED) else 0


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
    parser.add_argument("--jobs", type=int, default=usable_cpus(), metavar="N",
                        help="processes to run and format records on (N >= 1; "
                             "default: the CPUs this process may use, which also "
                             "bound N); 1 runs serially, and every N prints the "
                             "same report")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the usage exit code
        return 64 if exc.code not in (0, None) else 0

    try:
        raw = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise UsageError(f"cannot read config: {exc}") from exc
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise UsageError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise UsageError("config must be a JSON object")
        if args.suite:
            raw["suites"] = args.suite
        if args.output is not None:
            raw["output_path"] = args.output
        if args.format is not None:
            raw["format"] = args.format
        cfg = GridConfig.from_dict(raw)
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            raise UsageError("--tol must be a positive finite number")
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    cfg.tol_override = args.tol

    jobs = min(args.jobs, usable_cpus())
    doc = run(cfg, jobs)
    render = render_csv if cfg.format == "csv" else render_json
    try:   # written in pieces: a failed write may leave part of the report
        if cfg.output_path:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                render(doc, fh, jobs)
        else:
            render(doc, sys.stdout, jobs)
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
