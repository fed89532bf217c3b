"""Run one solartwin CLI command in this fresh interpreter and report on it.

    python3 perfbench/child.py REPORT.json TRACE -- CLI ARGS...

TRACE 0 records spans around the eight stage commands only; TRACE 1 also
wraps every layer entry point (see tracer.py).  The report holds the exit
code, the spans, the counters and the peak RSS of this process and of the
worker processes it waited for.  The package is imported from ``src`` next
to this directory, so nothing needs installing.
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracer  # noqa: E402  (this directory is sys.path[0])
from solartwin import cli  # noqa: E402


def main(argv) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py REPORT TRACE -- CLI ARGS...", file=sys.stderr)
        return 2
    recorder = tracer.Tracer()
    tracer.install(recorder, full=trace == "1")
    rc = cli.main(cli_args)
    report = {
        "rc": rc,
        "spans": recorder.spans,
        "counters": recorder.counters,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_workers_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
