"""Command-line surface: compute invariant multisets, print matrices and
series, run the verification suites, and regenerate the golden files.

One table, ``_TABLE``, gives each command's positional, flags, required
flags and defaults; ``_parse`` reads argv from it and ``-h`` prints it.
After the command come its positional and flags in any order, each flag
as ``--flag value`` or ``--flag=value``, by its exact name.

Exit codes: 0 on success and for verified/unproven-match runs, 1 for usage
or size-guard errors or a stdout closed early, 2 when a theorem-range claim
fails, 3 when only conjecture-range comparisons mismatch.  All big
integers are rendered as decimal strings in json mode.  Each command
renders only the format it prints: the table lines, or the json payload.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import invariants as inv
from . import series as ser
from .invariants import SizeGuardError
from .linalg import smith_normal_form
from .partitions import factorial_valuation, is_prime
from .symfunc import transition_p_to_m

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_UNPROVEN_MISMATCH = 3

GOLDEN_FILES = {
    "table1_ell6_n18.txt": ("full", 6, 18),
    "table2_full_ell6_n24.txt": ("full", 6, 24),
    "table2_block_ell6_w4.txt": ("block", 6, 4),
    "example1_block_ell4_w2.txt": ("block", 4, 2),
}


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# invariants command


def _full_breakdown(ell: int, n: int, d: int) -> str:
    """Per-degree multiplicity as a sum of block-count times core-count
    terms, with its total, which must agree with the series route."""
    blocks = ser.multipartition_series(ell - 2, n // ell).coeffs
    cores = ser.core_count_series(ell, n).coeffs
    terms = []
    total = 0
    for w in range(n // ell, d - 1, -1):
        terms.append(f"{blocks[w - d]}×{cores[n - ell * w]}")
        total += blocks[w - d] * cores[n - ell * w]
    if total != ser.multiplicity_m(ell, n, d):
        raise ArithmeticError("breakdown disagrees with the series route")
    return "+".join(terms) + f"={total}"


def _invariants_output(args, as_json: bool):
    if (args.n is None) == (args.weight is None):
        raise _UsageError("provide exactly one of --n or --weight")
    if args.n is not None:
        params = {"ell": args.ell, "n": args.n}
        ms = inv.full_invariants(args.ell, args.n)
    else:
        params = {"ell": args.ell, "weight": args.weight}
        ms = inv.block_invariants(args.ell, args.weight)
    layers = sorted(ms.by_degree.items())
    if as_json:
        entries = [{"value": str(v), "multiplicity": layer[v], "degree": d}
                   for d, layer in layers for v in sorted(layer)]
        return {"command": "invariants", "params": params, "entries": entries,
                "report": None}
    if args.n is not None:
        column = {d: _full_breakdown(args.ell, args.n, d) for d in ms.by_degree}
    else:
        mults = ser.multipartition_series(args.ell - 2, args.weight).coeffs
        column = {d: mults[args.weight - d] for d in ms.by_degree}
    lines = [" ".join(f"{k}={v}" for k, v in params.items()) + f" total={ms.total()}",
             "degree | invariants | multiplicity"]
    lines += [f"{d} | {', '.join(map(str, sorted(layer)))} | {column[d]}"
              for d, layer in layers]
    lines.append("total multiset: " + " ".join(
        f"{v}^{m}" for v, m in sorted(ms.entries.items(), reverse=True)))
    return lines


# ---------------------------------------------------------------------------
# verify command


def _series_suite(order: int) -> list[inv.VerificationReport]:
    reports = []
    reports.append(inv.VerificationReport(
        claim="series:LPT", params={"order": order},
        status="verified" if ser.check_identity("LPT", order) else "refuted"))
    for name in ("l-LPT", "L-dec", "T-split", "Cartan-det", "full-and-block",
                 "block-det"):
        for ell in range(2, 13):
            ok = ser.check_identity(name, order, ell=ell)
            reports.append(inv.VerificationReport(
                claim=f"series:{name}", params={"ell": ell, "order": order},
                status="verified" if ok else "refuted"))
    for a in range(2, 13):
        for b in range(2, 13):
            ok = ser.check_identity("Cartan-reduction", order, a=a, b=b)
            reports.append(inv.VerificationReport(
                claim="series:Cartan-reduction",
                params={"a": a, "b": b, "order": order},
                status="verified" if ok else "refuted"))
    return reports


# suite -> (its inv.verify_* function by name, its key flags, the flags it
# reads only together with all its key flags).  Looking the function up at
# call time keeps a rebound module attribute (perfbench/spans.py traces that
# way) live.  "all" runs every other suite on its default grid.
_VERIFIERS = {
    "series": (None, (), ("order",)),
    "det": ("verify_determinants", ("ell",), ("dmax",)),
    "snf": ("verify_snf_conjecture", ("ell",), ("d", "dmax")),
    "splitting": ("verify_splitting", ("a", "b"), ("d", "dmax")),
    "reduction": ("verify_reduction", ("ell",), ("d", "dmax")),
    "kor": ("verify_kor_multiset", ("ell",), ("n",)),
    "all": (None, (), ("order",)),
}


def _check_suite_flags(args):
    """Reject a flag the suite does not read, or one given without the
    suite's key flags, instead of silently running another grid."""
    _, keys, others = _VERIFIERS[args.suite]
    given = [k for k, v in vars(args).items()
             if v is not None and k not in ("command", "suite", "format")]
    for flag in given:
        if flag not in keys + others:
            takes = ", ".join(f"--{f}" for f in keys + others)
            raise _UsageError(f"verify {args.suite} takes {takes}, not --{flag}")
    if given and any(getattr(args, k) is None for k in keys):
        need = " and ".join(f"--{k}" for k in keys)
        raise _UsageError(f"verify {args.suite} needs {need} with --{given[0]}")


def _degree_range(args, default_d_max: int, ell: int | None = None) -> list[int]:
    """The single --d, or degrees 0..--dmax; a negative --dmax would check
    nothing and is rejected rather than reported as a clean run.  The
    largest degree's partition index, and with ``ell`` its multipartition
    index, must pass the size guards before any suite runs."""
    if args.d is not None:
        degrees = [args.d]
    else:
        d_max = args.dmax if args.dmax is not None else default_d_max
        if d_max < 0:
            raise _UsageError("--dmax must be >= 0")
        degrees = list(range(d_max + 1))
    inv._check_index(degrees[-1])
    if ell is not None:
        inv._check_index(degrees[-1], ell)
    return degrees


def _suite_calls(suite: str, args) -> list[tuple]:
    """Argument tuples for the suite's verifier: the given parameters, or
    the default grid."""
    if suite == "det":
        if args.ell is not None:
            return [(args.ell, args.dmax if args.dmax is not None else 8)]
        return ([(ell, 8) for ell in (2, 3, 4, 6, 9, 12)]
                + [(p ** r, 12, -1) for p in (2, 3, 5) for r in (1, 2, 3, 4)])
    if suite == "snf":
        if args.ell is not None:
            return [(args.ell, d) for d in _degree_range(args, 6)]
        return ([(p ** r, d) for p, r in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (5, 1))
                 for d in range(9)]
                + [(ell, d) for ell in (6, 12) for d in range(7)]
                + [(8, d) for d in range(5)])
    if suite == "splitting":
        if args.a is not None:
            return [(args.a, args.b, d) for d in _degree_range(args, 4)]
        return [(a, b, d) for a, b in ((2, 3), (3, 2), (2, 2), (2, 6), (3, 4))
                for d in range(5)]
    if suite == "reduction":
        if args.ell is not None:
            return [(args.ell, d) for d in _degree_range(args, 2, args.ell)]
        return [(ell, d) for ell, d_max in ((3, 3), (4, 2)) for d in range(d_max + 1)]
    if args.ell is not None:
        return [(args.ell, n) for n in ([args.n] if args.n is not None else range(25))]
    return [(ell, n) for ell in (4, 6, 12) for n in range(25)]


def _verify_output(args, as_json: bool):
    """The json payload or the table lines, and the exit code."""
    _check_suite_flags(args)
    order = ser.DEFAULT_ORDER if args.order is None else args.order
    names = ([s for s in _VERIFIERS if s != "all"] if args.suite == "all"
             else [args.suite])
    reports = []
    for name in names:
        if name == "series":
            reports.extend(_series_suite(order))
            continue
        verify = getattr(inv, _VERIFIERS[name][0])
        reports.extend(verify(*call) for call in _suite_calls(name, args))
    counts = {"verified": 0, "refuted": 0, "unproven-match": 0,
              "unproven-mismatch": 0}
    for r in reports:
        counts[r.status] += 1
    code = _exit_code(counts)
    if as_json:
        return {
            "command": "verify",
            "params": {"suite": args.suite},
            "entries": [],
            "report": [
                {"claim": r.claim, "status": r.status,
                 "params": _stringify(r.params), "witness": _stringify(r.witness)}
                for r in reports
            ],
        }, code
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"[{r.status}] {r.claim} {params}")
        if r.status in ("refuted", "unproven-mismatch"):
            lines.append(f"    witness: {_stringify(r.witness)}")
    summary = " ".join(f"{k}={v}" for k, v in counts.items() if v)
    lines.append(f"summary: {summary or 'no checks ran'}")
    return lines, code


def _exit_code(counts: dict) -> int:
    """Theorem failures dominate; conjecture mismatches get their own code."""
    if counts.get("refuted"):
        return EXIT_REFUTED
    if counts.get("unproven-mismatch"):
        return EXIT_UNPROVEN_MISMATCH
    return EXIT_OK


def _stringify(obj):
    """Recursively render ints as decimal strings for json safety."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# matrix and series commands


def _matrix_output(args, as_json: bool):
    kind = args.kind
    if kind in ("X_ell", "X_A", "B_ell") and args.ell is None:
        raise _UsageError(f"matrix {kind} requires --ell")
    if kind == "M_pm" and args.ell is not None:
        raise _UsageError("matrix M_pm does not take --ell")
    if kind in ("B_ell", "M_pm"):
        inv._check_index(args.d)
    if kind == "X_ell":
        m = inv.gram_matrix(args.ell, args.d)
    elif kind == "X_A":
        m = inv.tensor_gram_matrix(args.ell, args.d)
    elif kind == "B_ell":
        m = inv.length_power_diagonal(args.ell, args.d)
    else:
        m = transition_p_to_m(args.d).matrix
    params = {"kind": kind, "ell": args.ell, "d": args.d, "snf": bool(args.snf)}
    if args.snf:
        if kind in ("X_ell", "B_ell"):
            # |det B_ell| = ell^L(d) = |det X_ell|, and both share the bounds
            chain = inv._invariant_factors(m, args.ell, args.d)
        elif kind == "X_A":
            chain = inv._invariant_factors(m, args.ell, args.d, args.ell - 1)
        else:
            # M_pm is triangular, so Bareiss gives |det| at once; d! * M_pm^-1
            # is integral, and det M_pm has only primes p <= d
            bounds = {p: factorial_valuation(args.d, p) for p in range(2, args.d + 1)
                      if is_prime(p)}
            chain = smith_normal_form(m, det=abs(m.det()), bounds=bounds).invariant_factors
        if as_json:
            return {"command": "matrix", "params": params, "snf": [str(x) for x in chain]}
        return [", ".join(str(x) for x in chain)]
    if as_json:
        return {"command": "matrix", "params": params,
                "matrix": [[str(x) for x in row] for row in m.data]}
    return [str([list(row) for row in m.data])]


def _series_output(args, as_json: bool):
    s = ser.named_series(args.name, order=args.order, ell=args.ell, k=args.k)
    if as_json:
        params = {"name": args.name, "ell": args.ell, "k": args.k,
                  "order": args.order}
        return {"command": "series", "params": params,
                "coefficients": [str(c) for c in s.coeffs]}
    return [" ".join(str(c) for c in s.coeffs)]


# ---------------------------------------------------------------------------
# golden files


def golden_text(kind: str, ell: int, param: int) -> str:
    """One multiset entry per line: value, multiplicity, degree."""
    ms = inv.full_invariants(ell, param) if kind == "full" else \
        inv.block_invariants(ell, param)
    lines = []
    for d in sorted(ms.by_degree):
        for v in sorted(ms.by_degree[d]):
            lines.append(f"{v} {ms.by_degree[d][v]} {d}")
    return "\n".join(lines) + "\n"


def _seed_tables_output(args, as_json: bool):
    os.makedirs(args.dir, exist_ok=True)
    written = []
    for filename, (kind, ell, param) in GOLDEN_FILES.items():
        path = os.path.join(args.dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(golden_text(kind, ell, param))
        written.append(path)
    if as_json:
        return {"command": "seed-tables", "params": {"dir": args.dir}, "written": written}
    return [f"wrote {p}" for p in written]


# ---------------------------------------------------------------------------
# entry point


# command -> (the function that runs it and returns its json payload, or
# its table lines, as the format asks, and for verify also the exit code;
# its positional and that positional's choices, or None; its flags in
# order, each typed int, str, a tuple of choices, or bool for a switch; its
# required flags; its defaults other than None)
_TABLE = {
    "invariants": (_invariants_output, None, {"ell": int, "n": int, "weight": int},
                   ("ell",), {}),
    "verify": (_verify_output, ("suite", tuple(_VERIFIERS)),
               dict.fromkeys(("ell", "n", "d", "dmax", "a", "b", "order"), int), (), {}),
    "matrix": (_matrix_output, ("kind", ("X_ell", "X_A", "B_ell", "M_pm")),
               {"ell": int, "d": int, "snf": bool}, ("d",), {"snf": False}),
    "series": (_series_output, None, {"name": str, "ell": int, "k": int, "order": int},
               ("name",), {"order": ser.DEFAULT_ORDER}),
    "seed-tables": (_seed_tables_output, None, {"dir": str}, (), {"dir": "golden"}),
}
_FORMAT = {"format": ("table", "json")}  # every command's, default table


def _usage(command: str) -> str:
    """The commands, or the positional choices and flags of ``command``."""
    if command not in _TABLE:
        return f"usage: cartaninv {{{','.join(_TABLE)}}} ... (-h after one lists its flags)"
    _, positional, flags, required, _ = _TABLE[command]
    words = ["{%s}" % ",".join(positional[1])] if positional else []
    for flag, kind in {**flags, **_FORMAT}.items():
        word = f"--{flag}" + ("" if kind is bool else " {%s}" % ",".join(kind)
                              if isinstance(kind, tuple) else f" {flag.upper()}")
        words.append(word if flag in required else f"[{word}]")
    return f"usage: cartaninv {command} " + " ".join(words)


def _value(name: str, kind, value: str):
    """``value`` as ``kind``: one of a tuple of choices, an int or a str."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise _UsageError(f"argument {name}: invalid choice: {value!r} "
                          f"(choose from {', '.join(kind)})")
    try:
        return kind(value)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid int value: {value!r}") from None


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command, its positional, and each of its flags as given last or
    defaulted; the positional and the flags come in any order."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command = _value("command", tuple(_TABLE), argv[0])
    _, positional, flags, required, defaults = _TABLE[command]
    flags = {**flags, **_FORMAT}
    words, given = [], dict(defaults, format="table")
    for token in (tokens := iter(argv[1:])):
        if not token.startswith("--"):
            words.append(token)
            continue
        flag, eq, value = token[2:].partition("=")
        kind = flags.get(flag)
        if kind is None or (kind is bool and eq):
            raise _UsageError(f"unrecognized arguments: {token}")
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"argument --{flag}: expected one argument")
        given[flag] = True if kind is bool else _value(f"--{flag}", kind, value)
    if {"d", "dmax"} <= given.keys():
        raise _UsageError("argument --dmax: not allowed with argument --d")
    missing = [positional[0]] if positional and not words else []
    missing += [f"--{flag}" for flag in required if flag not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    head = {positional[0]: _value(*positional, words.pop(0))} if positional else {}
    if words:
        raise _UsageError(f"unrecognized arguments: {' '.join(words)}")
    return SimpleNamespace(command=command, **head, **{f: given.get(f) for f in flags})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json, code = False, EXIT_OK
    try:
        if "-h" in argv or "--help" in argv:
            out = [_usage(argv[0])]
        else:
            args = _parse(argv)
            as_json = args.format == "json"
            out = _TABLE[args.command][0](args, as_json)
            if args.command == "verify":
                out, code = out
    except (_UsageError, ValueError, SizeGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if as_json:
        import json

        out = [json.dumps(out, sort_keys=True)]
    try:
        for line in out:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull, so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
