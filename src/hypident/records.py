"""Check records: one verified identity instance with its errors and status; id and JSON text."""

from __future__ import annotations

import cmath
import json
import math
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _str

from .errors import Value

PASS = "pass"
FAIL = "fail"
UNCONVERGED = "unconverged"
SKIPPED = "skipped"

STATUSES = (PASS, FAIL, UNCONVERGED, SKIPPED)


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
                 converged: bool = True, consistent: bool = True,
                 metadata: dict | None = None) -> CheckRecord:
    """Assemble the record of `suite` at the point `params` from computed
    lhs/rhs and the pass tolerance.  This module names every record: its id
    is record_id(suite, **params) (formed from the dict, not re-packed), and
    its metadata is params, in order, then the check's own fields.  The record
    keeps params itself as its metadata, so each check passes a dict of its own.

    `converged` reflects the quadrature flags; `consistent` lets a check
    fold extra sub-identity assertions into the pass/fail decision.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    if rhs != 0:
        rel_err = abs_err / abs(rhs)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    ok = (abs_err <= tolerance or rel_err <= tolerance) and consistent
    if not converged:
        status = UNCONVERGED
    else:
        status = PASS if ok else FAIL
    rid = f"{suite}/{id_text(params)}"
    if metadata:
        params.update(metadata)
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
    """A record value at indent `pad`: a float by its repr (null if not
    finite), a complex as [re, im], the rare kinds through json.dumps."""
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else "null"
    if isinstance(v, complex):
        return f"[\n{pad}  {_num(v.real)},\n{pad}  {_num(v.imag)}\n{pad}]"
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
