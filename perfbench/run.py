"""cartaninv benchmark: run CLI workloads as users run them, check every
output, and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cartaninv checkout; it runs the sources under
``src/`` with no install step.  The load is a closed loop with one client:
one command process at a time, each started only after the previous one
has exited.  A pass runs every command of the workload once, in an order
drawn from the seed; passes repeat until the next one would end after
``--seconds``.  Command parameters are fixed, because SNF cost depends
chaotically on (ell, d), so a drawn grid point would measure the draw.

Every command's exit code and stdout sha256 are pinned from the seed
commit; a mismatch or a timeout is a failed command.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes, plus the tracing overhead.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MARKER = "PERFBENCH "
SETUP_PROBES = 15
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    sha256: str


def _cmd(line: str, sha256: str, exit_code: int = 0) -> Command:
    return Command(tuple(line.split()), exit_code, sha256)


# Exit codes and stdout digests pinned at the seed commit (442fc30).
WORKLOADS = {
    # SNF coefficient explosion on 22-30 label one-color matrices; covers
    # the theorem path (verified) and the conjecture path (unproven-match).
    "snf_wall": (
        _cmd("verify snf --ell 4 --dmax 9",
             "943b991134c140c95ddb8fe8eeaa71781233fdf0dd9d19e36dc20057769511dd"),
        _cmd("verify snf --ell 8 --dmax 8",
             "d730a439a1ca9e2f6f473912ef24738b618932c07b16c3798a5503afc5a99862"),
    ),
    # Fraction conjugation (inverse, matmul) up to 101 labels and a
    # 190-label tensor matrix, Bareiss det and a large print; no SNF.
    "build_det": (
        _cmd("verify det --ell 4 --dmax 13",
             "fe606cd554033af8919e96e5b2e852c245f9d1c3592cb9ba41401bb6cd7821af"),
        _cmd("matrix X_A --ell 6 --d 4",
             "7f278864ca4a91fb4ddd94638a09854bd1e4f5cf621f74faea8668e174c392a9"),
    ),
    # q-series products, class-regular enumeration and closed forms; no
    # matrices.
    "closed_forms": (
        _cmd("verify series --order 300",
             "fc4f3efcbcffbd23ef1d0ece1a2328fa5835e652648336a5fd008d9300257948"),
        _cmd("verify kor --ell 6 --n 55",
             "1a8836698810a13d7ce2b861047cdf51d39275e0b4602a3135b7b268f693b414"),
        _cmd("invariants --ell 6 --n 200",
             "eada695c4d4e430f067000d17b012cefefd9eaad8ffaee09a71a48dcec2f9fb9"),
    ),
    # Hundreds of small calls (22 labels or fewer), mostly Fraction inverse
    # and matmul; 139 SNF and 225 inverse calls expose set-up cost per call.
    "suite_all": (
        _cmd("verify all",
             "05a3c8d2817b5f4a0f97fb68199aa15500be220de66bce91128a78c88cc67b7d"),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """One command process: whether it met its pins, and what it reported."""

    ok: bool
    wall_s: float
    setup_s: float | None = None
    rss_kb: int = 0
    stdout_bytes: int = 0
    sha256: str = ""
    trace: dict | None = None
    error: str = ""


def spawn_child(child_args: list[str], root: str, timeout: float):
    """Start child.py and wait for it.

    Returns (returncode, stdout, report, last stderr line); the return code
    is None after a timeout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    proc = subprocess.Popen([sys.executable, CHILD, *child_args], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, b"", None, ""
    report = None
    lines = err.decode("utf-8", "replace").splitlines()
    for line in lines:
        if line.startswith(MARKER):
            report = json.loads(line[len(MARKER):])
    return proc.returncode, out, report, lines[-1] if lines else ""


def run_command(cmd: Command, root: str, traced: bool, timeout: float) -> Outcome:
    """Run one CLI command in a fresh process and check it against its pins."""
    start = time.monotonic()
    code, out, report, last_err = spawn_child(
        ["run", "1" if traced else "0", *cmd.argv], root, timeout)
    elapsed = time.monotonic() - start
    if code is None:
        return Outcome(False, elapsed, error=f"timeout after {timeout:.0f} s")
    if report is None or "wall_ns" not in report:
        return Outcome(False, elapsed, error=f"no report, exit code {code}: {last_err}")
    digest = hashlib.sha256(out).hexdigest()
    errors = []
    if code != cmd.exit_code or report["code"] != cmd.exit_code:
        errors.append(f"exit code {code}, expected {cmd.exit_code}")
    if digest != cmd.sha256:
        errors.append(f"stdout sha256 {digest[:12]}, expected {cmd.sha256[:12]}")
    return Outcome(not errors, report["wall_ns"] / 1e9, report["setup_ns"] / 1e9,
                   report["maxrss_kb"], len(out), digest, report.get("trace"),
                   "; ".join(errors))


def probe_setup(root: str) -> float | None:
    """One set-up sample: seconds until cartaninv.cli is imported."""
    code, _, report, _ = spawn_child(["probe"], root, COMMAND_TIMEOUT_S)
    if code != 0 or report is None:
        return None
    return report["setup_ns"] / 1e9


# ---------------------------------------------------------------------------
# per-layer metrics


def _sum(traces, group, key):
    return sum(t[group][key] for t in traces if group in t)


def _max(traces, group, key):
    return max((t[group][key] for t in traces if group in t), default=0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Counts and bits are exact; ``*_s`` is self time summed over the pass's
    commands; ``*_bits`` is the largest over the pass.
    """
    t = [o.trace for o in outcomes if o.trace]

    def calls(g):
        return _sum(t, g, "calls"), "count"

    def secs(*groups):
        return sum(_sum(t, g, "self_ns") for g in groups) / 1e9, "s"

    def count(g, key):
        return _sum(t, g, key), "count"

    def bits(g, key):
        return _max(t, g, key), "bits"

    def repeat(*groups):
        rep = sum(_sum(t, g, "repeats") for g in groups)
        return _ratio(rep, sum(_sum(t, g, "calls") for g in groups)), "ratio"

    series_groups = ("series.mul", "series.identity", "series.count")
    return {
        "linalg.snf_calls": calls("linalg.snf"),
        "linalg.snf_s": secs("linalg.snf"),
        "linalg.snf_labels": count("linalg.snf", "labels"),
        "linalg.snf_in_bits": bits("linalg.snf", "in_bits"),
        "linalg.snf_out_bits": bits("linalg.snf", "out_bits"),
        "linalg.snf_transform_calls": count("linalg.snf", "transform_calls"),
        "linalg.inverse_calls": calls("linalg.inverse"),
        "linalg.inverse_s": secs("linalg.inverse"),
        "linalg.inverse_den_bits": bits("linalg.inverse", "den_bits"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "linalg.matmul_s": secs("linalg.matmul"),
        "linalg.matmul_mults": count("linalg.matmul", "mults"),
        "linalg.matmul_fraction_share": (
            _ratio(_sum(t, "linalg.matmul", "fraction_mults"),
                   _sum(t, "linalg.matmul", "mults")), "ratio"),
        "linalg.det_calls": calls("linalg.det"),
        "linalg.det_s": secs("linalg.det"),
        "linalg.assemble_s": secs("linalg.assemble"),
        "invariants.build_calls": calls("invariants.build"),
        "invariants.build_s": secs("invariants.build"),
        "invariants.build_labels": count("invariants.build", "labels"),
        "invariants.build_out_bits": bits("invariants.build", "out_bits"),
        "invariants.closed_form_calls": calls("invariants.closed_form"),
        "invariants.closed_form_s": secs("invariants.closed_form"),
        "invariants.multiset_s": secs("invariants.multiset"),
        "invariants.verify_calls": calls("invariants.verify"),
        "invariants.verify_s": secs("invariants.verify"),
        "invariants.guard_rejections": count("trace", "guard_rejections"),
        "symfunc.transition_calls": calls("symfunc.transition"),
        "symfunc.transition_s": secs("symfunc.transition"),
        "symfunc.transition_labels": count("symfunc.transition", "labels"),
        "symfunc.repeat_ratio": repeat("symfunc.transition"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": secs("series.mul"),
        "series.mul_coeff_ops": count("series.mul", "coeff_ops"),
        "series.identity_calls": calls("series.identity"),
        "series.identity_s": secs("series.identity"),
        "series.count_calls": calls("series.count"),
        "series.count_s": secs("series.count"),
        "series.repeat_ratio": repeat(*series_groups),
        "partitions.enum_calls": calls("partitions.enum"),
        "partitions.enum_s": secs("partitions.enum"),
        "partitions.labels": count("partitions.enum", "labels"),
        "partitions.repeat_ratio": repeat("partitions.enum"),
        "cli.commands": calls("cli.main"),
        "cli.self_s": secs("cli.main"),
        "cli.stdout_bytes": (sum(o.stdout_bytes for o in outcomes), "bytes"),
        "trace.spans": count("trace", "spans"),
        "trace.self_s": secs("trace"),
    }


def exact_metric(name: str, unit: str) -> bool:
    """Whether a per-layer metric is a count that must repeat exactly."""
    return unit != "s"


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: str) -> str:
    """HEAD of the checkout's own repository; git may not search above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256(root: str) -> str:
    """Digest of every .py file under src/cartaninv, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "cartaninv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "git_commit": _git_commit(root),
            "source_sha256": _source_sha256(root), "seed": seed}


# ---------------------------------------------------------------------------
# measurement loop


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str):
    """Run passes until the next would end after ``seconds``.

    Returns the passes as (traced, outcomes) pairs and the set-up samples.
    With tracing, passes alternate untraced and traced, starting untraced,
    and at least one of each runs.
    """
    rng = random.Random(seed)
    commands = WORKLOADS[workload]
    began = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        sample = probe_setup(root)
        if sample is None:
            raise RuntimeError("cannot import cartaninv.cli from src/")
        setups.append(sample)
    passes: list[tuple[bool, list[Outcome]]] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.monotonic()
        outcomes = []
        for cmd in rng.sample(commands, len(commands)):
            remaining = RUN_DEADLINE_S - (time.monotonic() - began)
            outcome = run_command(cmd, root, traced, min(COMMAND_TIMEOUT_S, remaining))
            outcomes.append(outcome)
            if not outcome.ok:
                print(f"FAILED {' '.join(cmd.argv)}: {outcome.error}", file=sys.stderr)
            if outcome.setup_s is not None:
                setups.append(outcome.setup_s)
        passes.append((traced, outcomes))
        longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        if any(not o.ok and o.error.startswith("timeout") for o in outcomes):
            break
        if now - began + longest > RUN_DEADLINE_S:
            break
        if trace and len(passes) < 2:
            continue
        if now - start + longest > seconds:
            break
    return passes, setups


def _median_pass_wall(passes, traced: bool) -> float:
    return statistics.median(sum(o.wall_s for o in outs) for tr, outs in passes
                             if tr == traced)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cartaninv", "cli.py")):
        print("error: run from the root of a cartaninv checkout "
              "(src/cartaninv/cli.py not found)", file=sys.stderr)
        return 2
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcomes = [o for _, outs in passes for o in outs]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)}")
    print("env: " + json.dumps(environment(root, args.seed), sort_keys=True))
    metrics: dict[str, dict] = {}
    if not args.trace:
        walls = [sum(o.wall_s for o in outs) for _, outs in passes]
        values = {
            "wall_s": (statistics.median(walls),
                       f"median of {len(walls)} passes, min {min(walls):.4f}, "
                       f"max {max(walls):.4f}"),
            "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
            "peak_rss_mb": (max(o.rss_kb for o in outcomes) / 1024,
                            f"largest of {attempted} command processes"),
        }
        for name, (value, note) in values.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<12} {value:.6f} {unit:<5} ({note})")
        print(f"{'fail_rate':<12} {failed / attempted:.6f} ratio "
              f"({failed} failed of {attempted} attempted)")
    else:
        traced = [outs for tr, outs in passes if tr]
        if not traced:
            print("error: no traced pass finished before the deadline", file=sys.stderr)
            return 1
        per_pass = [layer_metrics(outs) for outs in traced]
        untraced_wall = _median_pass_wall(passes, False)
        traced_wall = _median_pass_wall(passes, True)
        for name, (_, unit) in per_pass[0].items():
            value = statistics.median(p[name][0] for p in per_pass)
            if exact_metric(name, unit):
                value = per_pass[0][name][0]
                if any(p[name][0] != value for p in per_pass):
                    print(f"warning: {name} differs between traced passes",
                          file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        for name, m in metrics.items():
            share = ""
            if m["unit"] == "s" and name.split(".")[0] != "trace":
                share = f"  ({m['value'] / traced_wall:.1%} of trace.wall_s)"
            print(f"{name:<30} {_fmt(m['value'])} {m['unit']}{share}")
        print(f"untraced wall_s {untraced_wall:.6f} s over "
              f"{sum(not tr for tr, _ in passes)} passes; "
              f"traced over {len(traced)} passes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
