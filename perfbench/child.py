"""Run one cartaninv CLI command in a fresh process and report its cost.

    python3 perfbench/child.py probe
    python3 perfbench/child.py run TRACE CLI-ARGS...

``probe`` only imports ``cartaninv.cli``: one set-up sample.  ``run``
imports it, times ``cli.main(CLI-ARGS)`` and exits with its code; with
TRACE = 1 every traced call records a span (see ``spans.py``).  The CLI's
stdout passes through untouched.  The report is one JSON line on stderr
after the ``PERFBENCH`` marker.

The parent puts its CLOCK_MONOTONIC reading from just before the spawn in
``PERFBENCH_SPAWN_NS``, so set-up time runs from process start until the
CLI module is imported and ready to parse argv.  Nothing but ``os``,
``sys`` and ``time`` is imported before that point.
"""

import os
import sys
import time

MARKER = "PERFBENCH "


def peak_rss_kb() -> int:
    """This process's peak RSS since exec (VmHWM).

    ``ru_maxrss`` would not do: on Linux exec carries the spawning
    process's peak RSS into it, which puts a floor under the figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    from cartaninv import cli
    setup_ns = time.monotonic_ns() - spawn_ns

    import json

    report = {"setup_ns": setup_ns}
    code = 0
    if sys.argv[1] == "run":
        tracer = None
        if sys.argv[2] == "1":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter_ns()
        code = cli.main(sys.argv[3:])
        report["wall_ns"] = time.perf_counter_ns() - start
        sys.stdout.flush()
        report["code"] = code
        if tracer is not None:
            report["trace"] = tracer.report()
    report["maxrss_kb"] = peak_rss_kb()
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
