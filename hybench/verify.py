"""Correctness gate for one hypident report.

`report_digest` hashes the report with its `wall_time_seconds` line taken
out, so two runs that computed the same records give the same digest.
`check_report` parses the report and returns every way it disagrees with
the workload and with itself; an empty list means the report is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

from .workloads import Workload, expected_per_suite

STATUSES = ("pass", "fail", "unconverged", "skipped")
WALL_KEY = b'\n  "wall_time_seconds": '


def report_digest(data: bytes) -> str:
    """sha256 of the report bytes without the top-level wall-time line."""
    start = data.find(WALL_KEY)
    if start < 0 or data.find(WALL_KEY, start + 1) >= 0:
        raise ValueError("report must hold exactly one top-level wall_time_seconds")
    end = data.index(b"\n", start + 1)
    return hashlib.sha256(data[:start] + data[end:]).hexdigest()


def expected_exit(summary: dict) -> int:
    if summary.get("fail", 0) > 0:
        return 2
    if summary.get("unconverged", 0) > 0 or summary.get("skipped", 0) > 0:
        return 3
    return 0


def _complex(pair):
    return None if pair is None else complex(pair[0], pair[1])


def check_report(data: bytes, exit_code: int, workload: Workload) -> list:
    """Problems found in a JSON report produced for `workload`."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"report is not valid JSON: {exc}"]
    problems = []
    records = doc.get("records", [])
    summary = doc.get("summary", {})

    want = expected_per_suite(workload)
    got = {}
    for rec in records:
        got[rec["suite"]] = got.get(rec["suite"], 0) + 1
    if got != want:
        problems.append(f"records per suite {got} != grid size {want}")
    ids = [rec["id"] for rec in records]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        problems.append("record ids are not unique and sorted")

    counts = {s: 0 for s in STATUSES}
    for rec in records:
        if rec["status"] not in counts:
            problems.append(f"{rec['id']}: unknown status {rec['status']!r}")
            continue
        counts[rec["status"]] += 1
    if any(summary.get(s) != counts[s] for s in STATUSES) or \
            summary.get("total") != len(records):
        problems.append(f"summary {summary} disagrees with records {counts}")
    if exit_code != expected_exit(counts):
        problems.append(f"exit code {exit_code} disagrees with summary {counts}")

    for rec in records:
        if rec["status"] == "pass":
            problems += _check_pass(rec)
    return problems


def _check_pass(rec: dict) -> list:
    # a pass must be a pass by the report's own numbers, and the closed
    # forms that need no quadrature must match the benchmark's own
    lhs, rhs = _complex(rec["lhs"]), _complex(rec["rhs"])
    if lhs is None or rhs is None:
        return [f"{rec['id']}: pass without lhs/rhs"]
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else math.inf
    if not min(abs_err, rel_err) <= rec["tolerance"]:
        return [f"{rec['id']}: pass but |lhs - rhs| = {abs_err:.3e} exceeds "
                f"tolerance {rec['tolerance']:g}"]
    md = rec["metadata"]
    if rec["suite"] == "main_identity":
        closed = math.pi / math.sqrt((1.0 - md["T"]) * (1.0 - md["S"]))
    elif rec["suite"] == "q_integral":
        st, ss = math.sqrt(md["T"]), math.sqrt(md["S"])
        closed = math.pi / (math.sqrt((1.0 - md["T"]) * (1.0 - md["S"]))
                            * math.sqrt((1.0 - st) * (1.0 - ss)))
    else:
        return []
    if not math.isclose(rhs.real, closed, rel_tol=1e-12) or rhs.imag != 0.0:
        return [f"{rec['id']}: closed form {rhs} != {closed!r}"]
    return []
