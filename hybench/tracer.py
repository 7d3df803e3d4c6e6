"""Outside-in tracing of hypident's layers.

`Tracer.install()` rebinds the public functions of `cli`, `records`,
`identity_suite`, `quadrature` and `special_functions` to wrappers that
record one span per call, in every hypident module that holds the
function under its name (the package imports most of them by name).
`Tracer.remove()` puts every original back.  Nothing in the package is
edited; the wrappers live only in this file.

A span records its name, start, end, the span that caused it and how it
was caused: called directly ("span"), called from inside an integrand
("integrand"), or run by `cli.run`'s executor on another thread
("thread").  Integrands handed to a quadrature engine are wrapped too, but
they add counts and time to the engine span instead of spans of their own,
so 289k evaluations do not make 289k spans.  Spans are kept in memory and
written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# module -> functions wrapped by name; every check_* is added at install time
TARGETS = {
    "cli": ("main", "build_tasks", "run", "render_json", "render_csv"),
    "records": ("build_record",),
    "identity_suite": ("quadratic_family",),
    "special_functions": ("log_gamma", "f_it", "f_2it_unit_interval"),
    "quadrature": ("integrate_chebyshev_weighted", "chebyshev_rule",
                   "integrate_decaying_halfline", "gauss_kronrod_panel"),
}
CHECK_MODULES = ("identity_suite", "special_functions")
# engines take the integrand as their first argument
ENGINES = frozenset(("quadrature.integrate_chebyshev_weighted",
                     "quadrature.chebyshev_rule",
                     "quadrature.integrate_decaying_halfline",
                     "quadrature.gauss_kronrod_panel"))
# suite of a check whose call raised instead of returning a record
CHECK_SUITE = {"check_barnes_triple": "barnes",
               "check_obstruction_integer": "obstruction"}

CHEBYSHEV = "quadrature.integrate_chebyshev_weighted"
RULE = "quadrature.chebyshev_rule"
HALFLINE = "quadrature.integrate_decaying_halfline"
PANEL = "quadrature.gauss_kronrod_panel"
RUN = "cli.run"


class Span:
    __slots__ = ("id", "name", "parent", "kind", "thread", "start", "end",
                 "evals", "integrand_s", "info", "marker",
                 # filled in by analyse()
                 "child_s", "integrand_child_s", "self_s", "sub_evals",
                 "engine_evals", "engine_self_s", "engine_integrand_s",
                 "last_child_evals", "panels", "panel_lefts")

    def __init__(self, sid, name, parent, kind, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.kind = kind
        self.thread = thread
        self.evals = 0
        self.integrand_s = 0.0
        self.info = None
        self.marker = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _InIntegrand:
    """Stack marker: the code above it runs inside an integrand of `owner`."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        self.owner = owner


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._run_span = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hypident" or n.startswith("hypident."))]
        for short, names in targets().items():
            mod = importlib.import_module("hypident." + short)
            for fname in names:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            m, attr, orig = self._patches.pop()
            setattr(m, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        engine = name in ENGINES
        is_check = name.rsplit(".", 1)[1].startswith("check_")
        tracer = self
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            top = stack[-1] if stack else None
            if isinstance(top, Span) and top.name == name:
                return fn(*args, **kwargs)      # recursion: one span per call
            if isinstance(top, Span):
                parent, kind = top.id, "span"
            elif top is not None:
                parent, kind = top.owner.id, "integrand"
            elif tracer._run_span is not None:
                parent, kind = tracer._run_span.id, "thread"
            else:
                parent, kind = None, "root"
            span = Span(next(tracer._ids), name, parent, kind,
                        threading.get_ident())
            if engine and args:
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            if name == PANEL and len(args) > 1:
                span.info = args[1]              # left end of the panel
            stack.append(span)
            if name == RUN:
                tracer._run_span = span
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if name == RUN:
                    tracer._run_span = None
                if is_check:
                    span.info = getattr(result, "suite", None) or CHECK_SUITE.get(
                        name.rsplit(".", 1)[1], name.rsplit(".", 1)[1][6:])
                elif name in (CHEBYSHEV, HALFLINE):
                    span.info = getattr(result, "converged", True)
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_integrand(self, f):
        # hot path: ~300k calls on default_grid, so the per-call work is
        # kept to one marker push and two clock reads
        if getattr(f, "_hybench_integrand", False):
            return f
        local = self._local
        clock = time.perf_counter

        def integrand(x):
            stack = local.stack
            owner = stack[-1]
            while owner.__class__ is not Span:
                owner = owner.owner
            marker = owner.marker
            if marker is None:
                marker = owner.marker = _InIntegrand(owner)
            stack.append(marker)
            t0 = clock()
            try:
                return f(x)
            finally:
                owner.integrand_s += clock() - t0
                owner.evals += 1
                stack.pop()

        integrand._hybench_integrand = True
        return integrand


def targets() -> dict:
    """Functions to wrap, per module: the fixed list plus every check_*
    defined in the check modules."""
    out = {k: list(v) for k, v in TARGETS.items()}
    for short in CHECK_MODULES:
        mod = importlib.import_module("hypident." + short)
        out[short] += sorted(n for n, v in vars(mod).items()
                             if n.startswith("check_") and callable(v)
                             and getattr(v, "__module__", None) == mod.__name__)
    return out


def installed_wrappers() -> list:
    """Names in hypident modules that still hold a traced wrapper."""
    found = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == "hypident" or n.startswith("hypident.")):
            continue
        for attr, val in vars(m).items():
            if callable(val) and getattr(val, "__code__", None) is not None and \
                    val.__code__.co_filename == __file__:
                found.append(f"{n}.{attr}")
    return found


# -- analysis ----------------------------------------------------------------

def _union(intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyse(spans: list) -> None:
    """Fill in self time and subtree counts.

    Children end before their parent, so one pass in end order sees every
    child before its parent.  Self time is the span's duration minus the
    time its integrands ran and the part of its interval its child spans
    cover (a union, because executor threads overlap in time).  The time an
    integrand spends in its own code is `integrand_s` minus the spans it
    caused.
    """
    for s in spans:
        s.child_s = s.integrand_child_s = 0.0
        s.sub_evals = s.engine_evals = s.evals
        s.engine_self_s = 0.0
        s.engine_integrand_s = 0.0
        s.last_child_evals = 0
        s.panels = 0
    by_id = {s.id: s for s in spans}
    threaded = defaultdict(list)      # span id -> intervals of executor tasks
    lefts = defaultdict(set)          # halfline span id -> panel left ends
    for s in spans:
        s.self_s = s.duration - s.child_s - s.integrand_s
        if s.id in threaded:
            s.self_s -= _union(threaded.pop(s.id))
        s.panel_lefts = len(lefts.pop(s.id, ()))
        s.engine_self_s += s.self_s
        s.engine_integrand_s += s.integrand_s - s.integrand_child_s
        p = by_id.get(s.parent)
        if p is None:
            continue
        p.sub_evals += s.sub_evals
        if s.kind == "span":
            p.child_s += s.duration
            p.engine_evals += s.engine_evals
            p.engine_self_s += s.engine_self_s
            p.engine_integrand_s += s.engine_integrand_s
            p.last_child_evals = s.engine_evals
            if s.name == PANEL:
                p.panels += 1
                lefts[p.id].add(s.info)
        elif s.kind == "integrand":
            p.integrand_child_s += s.duration
        else:
            threaded[p.id].append((s.start, s.end))


def integrand_self_s(spans: list) -> float:
    return sum(s.integrand_s - s.integrand_child_s for s in spans)


def percentile_tail(values: list) -> tuple:
    """(p50, tail, tail percentile): the tail is the highest listed
    percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0.0

    def at(p):
        k = max(0, min(n - 1, -(-p * n // 100) - 1))
        return v[int(k)]

    tail_p = next((p for p in (99.9, 99.5, 99, 98, 95, 90, 75, 50)
                   if n * (100 - p) / 100 >= 10), 50)
    return at(50), at(tail_p), float(tail_p)


def layer_metrics(spans: list, jobs: int) -> dict:
    """Per-layer numbers of one traced run (spans must be analysed)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    m = {}

    def total(name):
        return sum(s.duration for s in by_name[name])

    m["cli.build_tasks_s"] = total("cli.build_tasks")
    m["cli.render_s"] = total("cli.render_json") + total("cli.render_csv")
    runs = by_name[RUN]
    checks = [s for s in spans if s.name.rsplit(".", 1)[1].startswith("check_")]
    run_ids = {r.id for r in runs}
    tasks = [s for s in checks if s.parent in run_ids]
    m["cli.run.overhead_s"] = sum(r.self_s for r in runs)
    run_time = total(RUN)
    m["cli.run.busy_ratio"] = (sum(s.duration for s in tasks) / (jobs * run_time)
                               if run_time > 0 else 0.0)

    m["records.build_record.calls"] = len(by_name["records.build_record"])
    m["records.build_record_s"] = total("records.build_record")

    per_suite = defaultdict(lambda: [0.0, 0, 0])
    for s in checks:
        acc = per_suite[s.info]
        acc[0] += s.duration
        acc[1] += 1
        acc[2] += s.sub_evals
    for suite, (secs, calls, evals) in sorted(per_suite.items()):
        m[f"identity_suite.{suite}.s"] = secs
        m[f"identity_suite.{suite}.records"] = calls
        m[f"identity_suite.{suite}.evals"] = evals
    m["identity_suite.quadratic_family.calls"] = len(by_name["identity_suite.quadratic_family"])
    m["identity_suite.quadratic_family_s"] = total("identity_suite.quadratic_family")
    p50, tail, tail_p = percentile_tail([s.duration * 1e3 for s in tasks])
    m["identity_suite.record_ms.p50"] = p50
    m["identity_suite.record_ms.tail"] = tail
    m["identity_suite.record_ms.tail_pct"] = tail_p
    m["identity_suite.record_ms.samples"] = len(tasks)

    cheb = by_name[CHEBYSHEV]
    evals = sum(s.engine_evals for s in cheb)
    m["quadrature.chebyshev.calls"] = len(cheb)
    m["quadrature.chebyshev.evals"] = evals
    m["quadrature.chebyshev.self_s"] = sum(s.engine_self_s for s in cheb)
    m["quadrature.chebyshev.integrand_s"] = sum(s.engine_integrand_s for s in cheb)
    m["quadrature.chebyshev.unconverged"] = sum(1 for s in cheb if s.info is False)
    m["quadrature.chebyshev.useful_ratio"] = (
        sum(s.last_child_evals for s in cheb) / evals if evals else 0.0)

    rule = by_name[RULE]
    m["quadrature.chebyshev_rule.calls"] = len(rule)
    m["quadrature.chebyshev_rule.evals"] = sum(s.engine_evals for s in rule)
    m["quadrature.chebyshev_rule.self_s"] = sum(s.self_s for s in rule)

    half = by_name[HALFLINE]
    panels = sum(s.panels for s in half)
    m["quadrature.halfline.calls"] = len(half)
    m["quadrature.halfline.evals"] = sum(s.engine_evals for s in half)
    m["quadrature.halfline.self_s"] = sum(s.engine_self_s for s in half)
    m["quadrature.halfline.integrand_s"] = sum(s.engine_integrand_s for s in half)
    m["quadrature.halfline.panels"] = panels
    # a bisected panel shares its left end with its left half, so the
    # panels kept are the distinct left ends
    m["quadrature.halfline.useful_ratio"] = (
        sum(s.panel_lefts for s in half) / panels if panels else 0.0)
    m["quadrature.halfline.unconverged"] = sum(1 for s in half if s.info is False)

    for fname in ("log_gamma", "f_it", "f_2it_unit_interval"):
        m[f"special_functions.{fname}.calls"] = len(by_name[f"special_functions.{fname}"])
        m[f"special_functions.{fname}.s"] = total(f"special_functions.{fname}")
    return m


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,parent,kind,thread,start,end,self_s,evals,integrand_s\n")
        for s in spans:
            fh.write(f"{s.id},{s.name},{s.parent or ''},{s.kind},{s.thread},"
                     f"{s.start!r},{s.end!r},{s.self_s!r},{s.evals},{s.integrand_s!r}\n")
