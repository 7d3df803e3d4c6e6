"""Benchmark of the hypident CLI on one seeded workload.

    python3 hybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hybench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; hypident is imported from src/.
Each run calls `cli.main` in-process on the workload, over and over for S
seconds, and checks every report against a gate (verify.py).  With
--trace 0 it prints the end-to-end metrics, measured untraced; with
--trace 1 it alternates untraced and traced calls and prints the per-layer
metrics (tracer.py).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs each workload of BENCHMARK.json
both ways, each in its own process.

The closed loop is one client: the next call starts when the previous one
has returned and its report has been checked.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not __package__:                      # run as a script
    sys.path.insert(0, str(ROOT))

from hybench import hostspeed, kernels, tracer, verify, workloads  # noqa: E402

WORK = Path(".hybench_work")          # relative: the report echoes its path
SETUP_PROBES = 41
MIN_REPS = 3

# The bounded times are scaled to a nominal host (hostspeed.py):
# wall_norm_s by the compute reference timed just before and after each
# call in this process, setup_s by the load reference timed just before
# and after the set-up in each fresh interpreter.  The raw wall_s and
# setup_raw_s, records_per_s (records / wall_s) and fail_share
# (1 - pass_share) are printed too.
END_TO_END = {
    "wall_norm_s": "s",
    "pass_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUITES = ("main_identity", "quadratic_transform", "product_formula", "barnes",
          "spectral_power", "spectral_resolvent", "spectral_product",
          "spectral_kernel", "q_integral", "obstruction", "weighted_residual")
SOURCE_FILES = ("__init__", "__main__", "cli", "errors", "identity_suite",
                "policy", "quadrature", "records", "special_functions")
# Per-layer metrics in the JSON line.  A time that reads exactly the same
# on every run is refused as not measured, and the time of a layer that a
# workload never enters reads 0 on every run; every suite, engine and
# special-function layer is left out by one of the three workloads (its
# count is 0 there, which is allowed).  So these times are printed in the
# table and written to .hybench_work/<workload>/per_layer.json, and the
# JSON line keeps the layer times that no workload leaves at 0.
PER_LAYER = dict(
    [("cli.build_tasks_s", "s"), ("cli.render_s", "s"),
     ("cli.report_bytes", "bytes"), ("cli.run.overhead_s", "s"),
     ("cli.run.busy_ratio", "ratio"),
     ("records.build_record.calls", "count"), ("records.build_record_s", "s")]
    + [(f"identity_suite.{s}.{k}", "count") for s in SUITES
       for k in ("records", "evals")]
    + [("identity_suite.quadratic_family.calls", "count"),
       ("identity_suite.record_ms.p50", "ms"),
       ("identity_suite.record_ms.tail", "ms"),
       ("identity_suite.record_ms.tail_pct", "%"),
       ("identity_suite.record_ms.samples", "count"),
       ("quadrature.chebyshev.calls", "count"),
       ("quadrature.chebyshev.evals", "count"),
       ("quadrature.chebyshev.unconverged", "count"),
       ("quadrature.chebyshev.useful_ratio", "ratio"),
       ("quadrature.chebyshev_rule.calls", "count"),
       ("quadrature.chebyshev_rule.evals", "count"),
       ("quadrature.halfline.calls", "count"),
       ("quadrature.halfline.evals", "count"),
       ("quadrature.halfline.panels", "count"),
       ("quadrature.halfline.useful_ratio", "ratio"),
       ("quadrature.halfline.unconverged", "count")]
    + [(f"special_functions.{f}.calls", "count")
       for f in ("log_gamma", "f_it", "f_2it_unit_interval")]
    + [(f"{k}.ns_per_call", "ns") for k in (
        "special_functions.log_gamma", "special_functions.f_it",
        "special_functions.f_2it_unit_interval", "quadrature.chebyshev_rule",
        "quadrature.gauss_kronrod_panel",
        "quadrature.integrate_decaying_halfline",
        "identity_suite.quadratic_family")]
    + [(f"hypident.{f}.lines", "lines") for f in SOURCE_FILES]
    + [("hypident.lines", "lines"), ("trace.overhead_s", "s")])


def load_hypident():
    """Import hypident from this checkout's src/, or None if it is absent."""
    init = ROOT / "src" / "hypident" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import hypident
    import hypident.cli  # noqa: F401  (binds hypident.cli)
    if Path(hypident.__file__).resolve() != init.resolve():
        return None
    return hypident


class Runner:
    """Gated `cli.main` calls on one workload.

    The first call is the reference: its report is checked in full and its
    digest kept.  Every later call must reproduce that digest and exit
    code; a call that does not, or that raises, counts all its records as
    failed and gives no time.
    """

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.records = workload.expected_records
        workdir.mkdir(parents=True, exist_ok=True)
        self.report = workdir / "report.json"
        self.argv = []
        if workload.config is not None:
            config = workdir / "config.json"
            config.write_text(json.dumps(workload.config, indent=1) + "\n",
                              encoding="utf-8")
            self.argv = ["--config", str(config)]
        self.argv += workload.argv + ["--output", str(self.report)]
        self.digest = None
        self.exit = None
        self.not_pass = 0
        self.report_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _call(self, argv: list):
        with contextlib.suppress(FileNotFoundError):
            self.report.unlink()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        return wall, code, self.report.read_bytes()

    def reference(self) -> None:
        try:
            _, code, data = self._call(self.argv)
            self.problems += verify.check_report(data, code, self.workload)
            self.digest = verify.report_digest(data)
        except Exception:                        # the gate must report, not crash
            self.problems.append("reference run failed:\n" + traceback.format_exc())
            return
        self.exit = code
        self.report_bytes = len(data)
        summary = json.loads(data)["summary"]
        self.not_pass = summary["total"] - summary["pass"]

    def rep(self, argv: list | None = None) -> float | None:
        """One gated call; its wall time, or None if it failed the gate."""
        argv = argv or self.argv
        self.attempted += self.records
        wall = None
        try:
            wall, code, data = self._call(argv)
            if code != self.exit or verify.report_digest(data) != self.digest:
                self.problems.append(f"report of {' '.join(argv)} differs "
                                     f"from the reference")
                wall = None
        except Exception:                        # the gate must report, not crash
            self.problems.append(f"{' '.join(argv)} failed:\n"
                                 + traceback.format_exc())
            wall = None
        if wall is None or self.problems:
            self.failed += self.records
            return None
        self.failed += self.not_pass
        return wall

    @property
    def correct(self) -> bool:
        return not self.problems


def probe(*args: str, timeout: float = 170.0) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                         capture_output=True, text=True, timeout=timeout,
                         cwd=ROOT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probe(runner: Runner) -> tuple:
    """(raw, scaled) set-up time of one fresh interpreter."""
    config = runner.argv[1] if runner.argv[:1] == ["--config"] else "-"
    out = probe("setup", config)
    return out["setup_s"], hostspeed.scaled(out["setup_s"], "load",
                                            *out["reference_s"])


def timed_loop(seconds: float, step, between=None, between_n: int = 0) -> None:
    """Call step() for `seconds` (at least MIN_REPS times); between steps,
    call between() until it has run between_n times, spread evenly over the
    window so that it sees the same machine state as the steps."""
    start = time.perf_counter()
    reps = done = 0
    while reps < MIN_REPS or time.perf_counter() < start + seconds:
        gc.collect()                # the previous call's garbage, untimed
        step()
        reps += 1
        while done < between_n and done < between_n * (
                time.perf_counter() - start) / seconds:
            between()
            done += 1
    while done < between_n:
        between()
        done += 1


def end_to_end(runner: Runner, seconds: float) -> tuple:
    setup_probe(runner)                         # writes the bytecode caches
    rss = probe("rss", *runner.argv)
    if rss["exit"] != runner.exit:
        runner.problems.append(f"fresh-process run exited {rss['exit']}, "
                                f"reference exited {runner.exit}")
    if runner.workload.jobs > 1:
        serial = list(runner.argv)
        serial[serial.index("--jobs") + 1] = "1"
        runner.rep(serial)                      # gate: --jobs 1 digest
    walls, norm, setup, setup_raw = [], [], [], []
    refs = [hostspeed.reference_s("compute")]

    def step():
        wall = runner.rep()
        refs.append(hostspeed.reference_s("compute"))
        if wall is not None:
            walls.append(wall)
            norm.append(hostspeed.scaled(wall, "compute", refs[-2], refs[-1]))

    def set_up():
        raw, scaled = setup_probe(runner)
        setup_raw.append(raw)
        setup.append(scaled)

    timed_loop(seconds, step, set_up, SETUP_PROBES)
    metrics = {
        "wall_norm_s": statistics.median(norm) if norm else float("nan"),
        "pass_share": 1.0 - runner.failed / runner.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss["peak_rss_kb"] / 1024.0,
    }
    metrics["wall_s"] = statistics.median(walls) if walls else float("nan")
    metrics["setup_raw_s"] = statistics.median(setup_raw)
    samples = {"wall_norm_s": norm, "wall_s": walls, "setup_s": setup,
               "setup_raw_s": setup_raw, "reference_s": refs}
    (WORK / runner.workload.name / "samples.json").write_text(
        json.dumps(samples) + "\n", encoding="utf-8")
    return metrics, samples


def shared(name: str) -> bool:
    """Metrics that do not depend on the workload: kernel costs and sizes."""
    return name.endswith((".ns_per_call", ".lines"))


def traced(runner: Runner, seconds: float, hypident_dir: Path) -> tuple:
    # the kernel costs come first and out of the same time budget; every
    # traced JSON line must hold them, so each process measures them once
    start = time.perf_counter()
    metrics = kernels.ns_per_call()
    metrics.update(kernels.line_counts(hypident_dir))
    plain, traced_walls, layers = [], [], []
    last = []

    def step():
        wall = runner.rep()
        if wall is not None:
            plain.append(wall)
        tr = tracer.Tracer()
        with tr:
            wall = runner.rep()
        if wall is not None:
            tracer.analyse(tr.spans)
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(tr.spans, runner.workload.jobs))
            last[:] = [tr.spans, wall]

    timed_loop(seconds - (time.perf_counter() - start), step)
    left = tracer.installed_wrappers()
    if left:
        runner.problems.append(f"traced wrappers left installed: {left}")
    names = {k for layer in layers for k in layer}
    metrics.update({k: statistics.median(layer.get(k, 0) for layer in layers)
                    for k in names})
    metrics["cli.report_bytes"] = runner.report_bytes
    if plain and traced_walls:
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain))
    if last:
        spans, wall = last
        tracer.write_spans(spans, WORK / runner.workload.name / "spans.csv")
        metrics["trace.self_sum_s"] = (sum(s.self_s for s in spans)
                                       + tracer.integrand_self_s(spans))
        metrics["trace.wall_s"] = wall
    (WORK / runner.workload.name / "per_layer.json").write_text(
        json.dumps(metrics, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    samples = {"wall_s": plain, "traced_wall_s": traced_walls}
    return metrics, samples


def unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(metrics: dict, samples: dict, names) -> None:
    for name in names:
        if name not in metrics:
            continue
        note = ""
        if name in samples and samples[name]:
            n = len(samples[name])
            note = f"  (median of n={n}"
            _, tail, p = tracer.percentile_tail(samples[name])
            if p > 50:
                note += f"; p{p:g} {tail:.6g}"
            note += ")"
        print(f"  {name:<48} {fmt(metrics[name]):>14} {unit_of(name)}{note}")


INTERACTIONS = """\
interactions (what each layer metric should move, on which workload):
  weighted_residual + main_identity + q_integral + obstruction are the only
  users of the Chebyshev engine: a faster main integrand or cached nodes can
  save at most their share (above) of wall_s, nothing on many_records.
  quadrature.chebyshev.self_s and .integrand_s are reported apart: the
  engine's own time (node positions, complex(), pairwise_sum) is of the same
  order as its integrand's.  Times here are traced: every integrand call is
  wrapped, so they include the tracing cost (trace.overhead_s)."""


def run_one(args, hy) -> int:
    w = workloads.make(args.workload, args.seed)
    runner = Runner(hy.cli, w, WORK / w.name)
    runner.reference()
    print(f"hybench workload={w.name} seed={w.seed} trace={args.trace} "
          f"records={w.expected_records} jobs={w.jobs} (min(2, nproc={os.cpu_count()}))")
    print(f"  why: {workloads.WHY[w.name]}")
    if args.trace:
        metrics, samples = traced(runner, args.seconds,
                                  Path(hy.__file__).resolve().parent)
        print(f"  traced run: {len(samples['traced_wall_s'])} traced and "
              f"{len(samples['wall_s'])} untraced calls, alternating")
        print_table(metrics, {}, sorted(k for k in metrics if not shared(k)))
        print("  workload-independent (fixed kernel arguments, source files):")
        print_table(metrics, {}, sorted(k for k in metrics if shared(k)))
        suite_s = {s: metrics.get(f"identity_suite.{s}.s", 0.0) for s in SUITES}
        busy = sum(suite_s.values())
        if busy:
            # shares of the summed record time, which with --jobs 2 counts
            # both executor threads
            print("  suite shares of record time: " + ", ".join(
                f"{s} {v / busy:.1%}" for s, v in suite_s.items() if v > 0))
            cheb = sum(suite_s[s] for s in ("main_identity", "weighted_residual",
                                            "q_integral", "obstruction")) / busy
            print(f"  ceiling for main-integrand / Chebyshev-node work: {cheb:.1%}")
        print(INTERACTIONS)
        reported = {k: metrics.get(k, 0) for k in PER_LAYER}
    else:
        metrics, samples = end_to_end(runner, args.seconds)
        print_table(metrics, samples, list(END_TO_END) + ["wall_s", "setup_raw_s"])
        print(f"  records_per_s {runner.records / metrics['wall_s']:.6g} 1/s "
              f"({runner.records} records / wall_s)")
        print(f"  fail_share {runner.failed / runner.attempted:.6g} "
              f"({runner.failed} of {runner.attempted} records attempted)")
        reported = {k: metrics[k] for k in END_TO_END}
    print(f"  report_sha256 {runner.digest}")
    for problem in runner.problems:
        print(f"  GATE FAILED: {problem}")
    # a run whose every call failed the gate has no time (nan)
    reported = {k: (0.0 if v != v else v) for k, v in reported.items()}
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0 if runner.correct else 1


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    print("large_grid_jobs is not part of the benchmark (see workloads.MEASURED); "
          "run it with --workload large_grid_jobs")
    for name in workloads.MEASURED:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=900, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(out.stderr)
            if out.returncode != 0 or not lines:
                correct = False
                continue
            res = json.loads(lines[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for k, v in res["metrics"].items():
                metrics[k if shared(k) else f"{name}.{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: all, {', '.join(workloads.WORKLOADS)}")
    hy = load_hypident()
    if hy is None:
        print(f"error: no hypident sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, hy)


if __name__ == "__main__":
    sys.exit(main())
