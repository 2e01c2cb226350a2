"""Check that tracing leaves the CLI's output alone and that its counts are exact.

    python3 perfbench/selftest.py

Run from the root of a cartaninv checkout.  For each workload every
command runs once untraced and twice traced.  The check fails if any of
the three runs misses its pinned exit code or stdout digest, if a traced
stdout digest differs from the untraced one, or if an exact per-layer
metric (calls, labels, bits, multiplication and coefficient counts,
repeat ratios, spans) differs between the two traced runs.  Exits 1
after listing every failure, 0 when there is none.
"""

from __future__ import annotations

import os
import sys

from run import COMMAND_TIMEOUT_S, WORKLOADS, exact_metric, layer_metrics, run_command


def check_workload(workload: str, root: str) -> list[str]:
    commands = WORKLOADS[workload]

    def run_all(traced):
        return [run_command(c, root, traced, COMMAND_TIMEOUT_S) for c in commands]

    untraced = run_all(False)
    traced = [run_all(True), run_all(True)]
    problems = []
    for label, outcomes in (("untraced", untraced), ("traced", traced[0]),
                            ("traced again", traced[1])):
        for cmd, plain, outcome in zip(commands, untraced, outcomes):
            name = " ".join(cmd.argv)
            if not outcome.ok:
                problems.append(f"{workload}: {name} ({label}): {outcome.error}")
            elif outcome.sha256 != plain.sha256:
                problems.append(f"{workload}: {name} ({label}): stdout differs "
                                "from the untraced run")
    first, second = (layer_metrics(outcomes) for outcomes in traced)
    compared = 0
    for name, (value, unit) in first.items():
        if exact_metric(name, unit):
            compared += 1
            if second[name][0] != value:
                problems.append(f"{workload}: {name} is {value}, then {second[name][0]}")
    print(f"{workload}: {len(commands)} commands, {compared} exact metrics compared, "
          f"{len(problems)} problems")
    return problems


def main() -> int:
    problems = []
    for workload in sorted(WORKLOADS):
        problems += check_workload(workload, os.getcwd())
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
