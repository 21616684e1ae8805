"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

Imports isoslope.cli first, so the parent can time interpreter start plus
import, then makes the CLI calls the job lists through `isoslope.cli.main`,
each with stdout and stderr sent to files, as a shell redirect would.  The
first call is the timed one; later calls are checks.  Prints one JSON object:
when the import returned (time.monotonic), and per call the exit code, wall
and CPU time, plus the peak RSS after the timed call and, in a traced round,
the per-layer metrics of the timed call.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import isoslope.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = {"imported_at": IMPORTED_AT, "calls": []}
    for i, call in enumerate(job["calls"]):
        with open(call["stdout"], "w", encoding="utf-8") as out, \
                open(call["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            rc = isoslope.cli.main(call["argv"])
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
        result["calls"].append({"rc": rc, "wall_s": wall, "cpu_s": cpu})
        if i == 0:
            result["peak_rss_mb"] = _peak_rss_mb()
            if tracer is not None:
                result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
