"""Check records: one verified identity instance with its errors and status; ids; the report."""

from __future__ import annotations

import cmath
import json
import math
from collections import defaultdict
from itertools import islice
from json.encoder import encode_basestring_ascii as _str

from .errors import Value

PASS = "pass"
FAIL = "fail"
UNCONVERGED = "unconverged"
SKIPPED = "skipped"

STATUSES = (PASS, FAIL, UNCONVERGED, SKIPPED)
CSV_COLUMNS = ("id", "suite", "T", "S", "t_re", "t_im", "r",
               "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_err", "rel_err", "tolerance", "status", "nodes",
               "digits_lost")
REPORT_BATCH = 256   # records or CSV rows per write of the report


class CheckRecord(Value):
    """Outcome of one identity check.

    lhs is the numerically computed side, rhs the closed form.  A record
    passes when abs_err <= tolerance or rel_err <= tolerance; quadrature
    that did not reach its own target demotes the record to "unconverged"
    (lhs/rhs None if it stopped early); a degenerate point is "skipped" (lhs/rhs None).
    Checks that assert several sub-identities at once may also demote a
    record to "fail" through their internal consistency flags.
    """

    __slots__ = ("id", "lhs", "rhs", "abs_err", "rel_err", "tolerance", "status", "metadata")

    def __init__(self, id: str, lhs: complex | None, rhs: complex | None, abs_err: float,
                 rel_err: float, tolerance: float, status: str, metadata: dict | None = None):
        self.id, self.lhs, self.rhs, self.abs_err = id, lhs, rhs, abs_err
        self.rel_err, self.tolerance, self.status = rel_err, tolerance, status
        self.metadata = {} if metadata is None else metadata

    @property
    def suite(self) -> str:
        return self.id.split("/", 1)[0]


def fmt_float(v: float) -> str:
    return "%.12g" % float(v)


def fmt_complex(v: complex) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return fmt_float(v.real)
    if v.real == 0.0:
        return fmt_float(v.imag) + "i"
    return "%.12g%+.12gi" % (v.real, v.imag)


def remember(slots: dict, val, text: str) -> tuple:
    """Put (val, text) in one key's map id(value) -> (value, text), emptied at 16 entries.
    The entry holds val, so its id names val alone: -0.0 never takes 0.0's text."""
    if len(slots) >= 16:
        slots.clear()
    slots[id(val)] = hit = (val, text)
    return hit


_id_slots = defaultdict(dict)   # key -> {id(value): (value, "key=text")}


def id_text(params: dict) -> str:
    """A parameter point as its id writes it: key=value/... in the order of params."""
    parts = []
    for key, val in params.items():
        slots = _id_slots[key]
        parts.append((slots.get(id(val)) or remember(slots, val, f"{key}={fmt_complex(val)}"))[1])
    return "/".join(parts)


id_text.cache_clear = _id_slots.clear   # as lru_cache's; cli.run calls it after a run


def record_id(suite: str, **params) -> str:
    """Deterministic id suite/key=value/..., params in the order given (the grid's)."""
    return f"{suite}/{id_text(params)}"


def build_record(suite: str, params: dict, lhs: complex, rhs: complex, tolerance: float,
                 est=None, consistent: bool = True,
                 metadata: dict | None = None) -> CheckRecord:
    """Assemble the record of `suite` at the point `params` from computed
    lhs/rhs and the pass tolerance.  This module names every record: its id
    is record_id(suite, **params) (formed from the dict, not re-packed), and
    its metadata is params, in order, then the check's own fields.  The record
    keeps params itself as its metadata, so each check passes a dict of its own.

    `est`, the IntegralEstimate the lhs rests on if any, makes the record unconverged
    if it is, and its nodes_used is the record's `nodes`, after the check's own fields.
    `consistent` folds a check's sub-identity assertions into the pass/fail decision.
    """
    lhs, rhs = complex(lhs), complex(rhs)
    abs_err = abs(lhs - rhs)
    if rhs != 0:
        rel_err = abs_err / abs(rhs)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    ok = (abs_err <= tolerance or rel_err <= tolerance) and consistent
    status = UNCONVERGED if est is not None and not est.converged else PASS if ok else FAIL
    rid = f"{suite}/{id_text(params)}"
    if metadata:
        params.update(metadata)
    if est is not None:
        params["nodes"] = est.nodes_used
    return CheckRecord(rid, lhs, rhs, abs_err, rel_err, tolerance, status, params)


def skipped_record(suite: str, params: dict, reason: str, tolerance: float,
                   metadata: dict | None = None, status: str = SKIPPED) -> CheckRecord:
    """A record without a value, and why: a skipped point, or a check stopped
    unconverged.  Named as build_record names it, but from a copy of params,
    as run_task passes its task's dict; metadata ends with `reason`."""
    return CheckRecord(f"{suite}/{id_text(params)}", None, None, 0.0, 0.0, tolerance, status,
                       {**params, **(metadata or {}), "reason": reason})


def _num(x: float) -> str:
    """A number as json.dumps writes it: NaN and Infinity kept."""
    return float.__repr__(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def json_text(v, pad: str) -> str:
    """A record value at indent `pad`: a float by its repr (null if not finite), a
    complex as [re, im], a plain scalar directly, nested values through json.dumps."""
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else "null"
    if isinstance(v, complex):
        return f"[\n{pad}  {_num(v.real)},\n{pad}  {_num(v.imag)}\n{pad}]"
    if type(v) in (int, str):   # plain scalars as json.dumps writes them, building no encoder
        return int.__repr__(v) if type(v) is int else _str(v)
    if v is None or type(v) is bool:
        return "null" if v is None else "true" if v else "false"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def json_writer():
    """A function writing one report's records in one pass each, as json.dumps(indent=2,
    sort_keys=True) does.  Complex lhs and rhs and float abs_err and rel_err, all finite
    (one test per record), are written by float.__repr__, other values by json_text.  The
    tolerance and each metadata key remember the texts of their last few value objects
    (remember), so an object that a grid repeats (a t, an x, the tolerance) is formatted
    once."""
    slots, heads, tol_slots = defaultdict(dict), {}, {}   # per key, key tuple; tolerance

    def write(rec: CheckRecord) -> str:
        lhs, rhs, a, r, tol, md = (rec.lhs, rec.rhs, rec.abs_err, rec.rel_err,
                                   rec.tolerance, rec.metadata)
        if (type(lhs) is complex is type(rhs) and type(a) is float is type(r)
                and cmath.isfinite(lhs + rhs + a + r)):   # every part finite, and no overflow
            lhs = f"[\n        {lhs.real!r},\n        {lhs.imag!r}\n      ]"
            rhs = f"[\n        {rhs.real!r},\n        {rhs.imag!r}\n      ]"
            a, r = f"{a!r}", f"{r!r}"
        else:
            lhs, rhs, a, r = (json_text(v, " " * 6) for v in (lhs, rhs, a, r))
        tol = (tol_slots.get(id(tol)) or remember(tol_slots, tol, _num(tol)))[1]
        spec = heads.get(keys := tuple(md))
        if spec is None:   # (key, its slots, the text before its value)
            spec = heads[keys] = [(k, slots[k], f"\n        {_str(k)}: ") for k in sorted(md)]
        parts = [(ks.get(id(v := md[k])) or remember(ks, v, head + json_text(v, " " * 8)))[1]
                 for k, ks, head in spec]
        meta = "{" + ",".join(parts) + "\n      }" if parts else "{}"
        return (f'{{\n      "abs_err": {a},\n      "id": {_str(rec.id)},\n'
                f'      "lhs": {lhs},\n      "metadata": {meta},\n'
                f'      "rel_err": {r},\n      "rhs": {rhs},\n'
                f'      "status": {_str(rec.status)},\n      "suite": {_str(rec.suite)},\n'
                f'      "tolerance": {tol}\n    }}')

    return write


class ReportDocument(Value):
    __slots__ = ("tool_version", "config", "records", "summary", "wall_time_seconds")

    def __init__(self, tool_version, config, records, summary, wall_time_seconds):
        self.tool_version, self.config, self.records = tool_version, config, records
        self.summary, self.wall_time_seconds = summary, wall_time_seconds


def _write_joined(out, texts, sep: str) -> None:
    """out.write(sep.join(texts)) in pieces, one write per REPORT_BATCH texts."""
    texts, lead = iter(texts), ""
    while batch := list(islice(texts, REPORT_BATCH)):
        out.write(lead + sep.join(batch))
        lead = sep


def render_json(doc: ReportDocument, out) -> None:
    """Write the report to the text stream `out` as json.dumps(payload, indent=2,
    sort_keys=True) does.  With indent that encoder runs in pure Python, so it writes
    the small envelope; the records and config t_values, [re, im], are written directly
    in place of its first "records": [] and "t_values": [] (a string escapes quotes)."""
    envelope = json.dumps({"tool_version": doc.tool_version,
                           "config": {**doc.config, "t_values": []},
                           "summary": doc.summary, "records": [],
                           "wall_time_seconds": doc.wall_time_seconds},
                          indent=2, sort_keys=True)
    ts = ",\n      ".join(json_text(complex(*t), " " * 6) for t in doc.config["t_values"])
    head, tail = envelope.split('"t_values": []', 1)
    mid, tail = tail.split('"records": []', 1)
    out.write(head + (f'"t_values": [\n      {ts}\n    ]' if ts else '"t_values": []') + mid
              + ('"records": [\n    ' if doc.records else '"records": []'))
    _write_joined(out, map(json_writer(), doc.records), ",\n    ")
    out.write(("\n  ]" if doc.records else "") + tail + "\n")


def _csv_row(rec: CheckRecord) -> str:
    md, t = rec.metadata, rec.metadata.get("t")
    t, lhs, rhs = [(None, None) if z is None else (z.real, z.imag)
                   for z in (None if t is None else complex(t), rec.lhs, rec.rhs)]
    return ",".join(["" if v is None else str(v) for v in (   # str of a float is its repr
        rec.id, rec.suite, md.get("T"), md.get("S"), *t, md.get("r"), *lhs, *rhs, rec.abs_err,
        rec.rel_err if rec.rel_err != math.inf else None, rec.tolerance, rec.status,
        md.get("nodes"), md.get("digits_lost"))]) + "\n"


def render_csv(doc: ReportDocument, out) -> None:
    """Write the report as CSV, one row per record, to the text stream `out`."""
    out.write(",".join(CSV_COLUMNS) + "\n")
    _write_joined(out, map(_csv_row, doc.records), "")
