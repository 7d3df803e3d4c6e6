"""Fresh-interpreter measurements, run by run.py as child processes.

    python3 hybench/probe.py setup CONFIG|-   import hypident, parse the
                                              config, build the task list;
                                              time the host's load reference
                                              work before and after
    python3 hybench/probe.py rss ARG...       one `hypident ARG...` run,
                                              then the peak RSS

Each prints one JSON object on standard output.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SPEED_CALLS = 7


def main(argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from hybench import hostspeed
        before = hostspeed.reference_s("load", SPEED_CALLS)
        start = time.perf_counter()
        from hypident import cli
        raw = {}
        if rest[0] != "-":
            with open(rest[0], encoding="utf-8") as fh:
                raw = json.load(fh)
        tasks = cli.build_tasks(cli.GridConfig.from_dict(raw))
        setup_s = time.perf_counter() - start
        after = hostspeed.reference_s("load", SPEED_CALLS)
        print(json.dumps({"setup_s": setup_s, "tasks": len(tasks),
                          "reference_s": [before, after]}))
        return 0
    if mode == "rss":
        from hypident import cli
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(rest)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"exit": code, "peak_rss_kb": peak_kb}))
        return 0
    print(f"unknown probe {mode!r}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
