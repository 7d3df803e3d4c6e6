"""How fast the host runs Python right now.

The host's speed drifts by up to 1.8x within minutes (the compute work
below took 1.0-1.8 ms from one 20 s window to the next on a 2-vCPU Intel
Xeon VM), more than any bound allows, so the benchmark's bounded times are
scaled by a nominal time over a reference time taken around them: they
are given in seconds of a nominal host, where the compute work takes
1.5 ms and the load work 1.25 ms.

Two kinds of reference work, each tracking one kind of measured time:
"compute" (real and complex math, calls and a list, like the suites'
integrands) for the CLI's run, and "load" (unmarshal a module's code and
execute it, defining functions and classes, like an import) for the
set-up.  Over five minutes of fresh-interpreter set-ups the load
reference kept the median of set-up / reference within 5.5 % across 20 s
windows, against 13 % for the compute reference and 48 % unscaled.

This module imports only cmath, marshal, math and time, which hypident
loads too, so a fresh interpreter can time the reference work before
importing hypident without taking any of hypident's import cost out of it.
"""

import cmath
import marshal
import math
import time

NOMINAL_S = {"compute": 1.5e-3, "load": 1.25e-3}


def _compute():
    acc = 0j
    vals = []
    for k in range(2000):
        x = 0.5 + k * 1e-3
        z = complex(math.cos(x), math.sin(x)) * cmath.exp(1j * x)
        vals.append(z)
        acc += z / (1.0 + x)
    return acc, sum(abs(v) for v in vals)


_MODULE = marshal.dumps(compile("".join(
    f"def f{i}(a, b=1, *c, **d):\n    return a + b + len(c) + {i}\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n"
    for i in range(100)), "<reference>", "exec"))


def _load():
    exec(marshal.loads(_MODULE), {})


WORK = {"compute": _compute, "load": _load}


def reference_s(kind: str, calls: int = 15) -> float:
    """Median time of `calls` runs of the `kind` reference work."""
    work = WORK[kind]
    clock = time.perf_counter
    times = []
    for _ in range(calls):
        t0 = clock()
        work()
        times.append(clock() - t0)
    times.sort()
    return times[calls // 2]


def scaled(seconds: float, kind: str, *refs: float) -> float:
    """`seconds` in seconds of the nominal host, given the `kind`
    reference times taken around it."""
    return seconds * NOMINAL_S[kind] * len(refs) / sum(refs)
