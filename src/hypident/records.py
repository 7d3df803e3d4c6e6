"""Check records: one verified identity instance with its errors and status."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNCONVERGED = "unconverged"
SKIPPED = "skipped"

STATUSES = (PASS, FAIL, UNCONVERGED, SKIPPED)


@dataclass
class CheckRecord:
    """Outcome of one identity check.

    lhs is the numerically computed side, rhs the closed form.  A record
    passes when abs_err <= tolerance or rel_err <= tolerance; quadrature
    that did not reach its own target demotes the record to "unconverged"
    (lhs/rhs None if it stopped early); a degenerate point is "skipped" (lhs/rhs None).
    Checks that assert several sub-identities at once may also demote a
    record to "fail" through their internal consistency flags.
    """

    id: str
    lhs: complex | None
    rhs: complex | None
    abs_err: float
    rel_err: float
    tolerance: float
    status: str
    metadata: dict = field(default_factory=dict)

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


def record_id(suite: str, **params) -> str:
    """Deterministic id of the form suite/key=value/...; insertion order of
    params is preserved, so callers pass them in canonical order."""
    parts = [suite]
    for key, val in params.items():
        if isinstance(val, complex):
            parts.append("%s=%s" % (key, fmt_complex(val)))
        else:
            parts.append("%s=%s" % (key, fmt_float(val)))
    return "/".join(parts)


def build_record(rid: str, lhs: complex, rhs: complex, tolerance: float,
                 converged: bool = True, consistent: bool = True,
                 metadata: dict | None = None) -> CheckRecord:
    """Assemble a record from computed lhs/rhs and the pass tolerance.

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
    return CheckRecord(id=rid, lhs=lhs, rhs=rhs, abs_err=abs_err,
                       rel_err=rel_err, tolerance=tolerance, status=status,
                       metadata=metadata or {})


def skipped_record(rid: str, reason: str, tolerance: float,
                   metadata: dict | None = None, status: str = SKIPPED) -> CheckRecord:
    """A record without a value, and why: a skipped point, or a check stopped unconverged."""
    md = dict(metadata or {})
    md["reason"] = reason
    return CheckRecord(id=rid, lhs=None, rhs=None, abs_err=0.0, rel_err=0.0,
                       tolerance=tolerance, status=status, metadata=md)
