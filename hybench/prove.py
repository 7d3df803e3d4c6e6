"""Steadiness check and baseline of the benchmark.

    python3 hybench/prove.py [--runs 10] [--first-seed 1] [--workload NAME]...
                             [--out FILE]

Runs run.py --trace 0 once per seed on each workload (seeds first-seed,
first-seed+1, ...) and --trace 1 once, all at BENCHMARK.json's
run_seconds.  For every end-to-end metric it prints the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.  A spread above the bound makes the benchmark unfit to
judge a change by that bound.  With --out it writes the numbers as a
baseline: the end-to-end values, every per-layer number of the traced run,
and the workload-independent kernel costs and source sizes once.  The
baseline claims no gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not __package__:                      # run as a script
    sys.path.insert(0, str(ROOT))

from hybench import run  # noqa: E402


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline, shared = {}, {}
    steady = True
    for name in names:
        values = {k: [] for k in bounds}
        elapsed = []
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            res, secs = bench_run(name, seed, seconds, 0)
            elapsed.append(secs)
            steady = steady and res["correct"] and res["failed"] == 0
            for k in bounds:
                values[k].append(res["metrics"][k]["value"])
        traced, secs = bench_run(name, seeds[0], seconds, 1)
        elapsed.append(secs)
        steady = steady and traced["correct"]
        print(f"{name}: {args.runs} runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}, "
              f"longest run {max(elapsed):.1f} s")
        rows = {}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread <= bounds[k] / 3
            steady = steady and spread <= bounds[k]
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[k], "values": v}
            print(f"  {k:<14} median {med:<12.6g} spread {spread:7.2%}  "
                  f"bound {bounds[k]:g}{'' if ok else '  <-- above a third of its bound'}")
            print("    " + " ".join(f"{x:.4g}" for x in v))
        # every layer number of the traced run, the layer times that the
        # JSON line leaves out included
        per_layer = json.loads((ROOT / run.WORK / name / "per_layer.json")
                               .read_text(encoding="utf-8"))
        shared = shared or {k: v for k, v in per_layer.items() if run.shared(k)}
        baseline[name] = {
            "end_to_end": rows,
            "per_layer": {k: v for k, v in per_layer.items() if not run.shared(k)},
            "run_seconds_elapsed": elapsed,
        }
    if args.out:
        summary = {"runs_per_workload": args.runs, "run_seconds": seconds,
                   "first_seed": args.first_seed, "steady": steady,
                   "claim": None}
        args.out.write_text(json.dumps({"workloads": baseline,
                                        "workload_independent": shared,
                                        "summary": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
