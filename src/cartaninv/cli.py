"""Command-line surface: compute invariant multisets, print matrices and
series, run the verification suites, and regenerate the golden files.

Exit codes: 0 on success and for verified/unproven-match runs, 1 for usage
or size-guard errors, 2 when a theorem-range claim fails, 3 when only
conjecture-range comparisons mismatch.  All big integers are rendered as
decimal strings in json mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import invariants as inv
from . import series as ser
from .invariants import SizeGuardError
from .linalg import smith_normal_form
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


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        raise _UsageError(message)


def _check_args(args):
    """The checks argparse cannot make: a ``CARTANINV_FORMAT`` default
    outside the choices, and a truncation order outside ``0..MAX_ORDER``."""
    if args.format not in ("table", "json"):
        raise _UsageError(f"unknown output format {args.format!r}")
    order = getattr(args, "order", None)
    if order is not None and not 0 <= order <= ser.MAX_ORDER:
        raise _UsageError(f"order must lie in 0..{ser.MAX_ORDER}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cartaninv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"),
                       default=os.environ.get("CARTANINV_FORMAT", "table"))

    p = sub.add_parser("invariants", help="graded invariant multisets")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, help="full matrix at degree n")
    p.add_argument("--weight", type=int, help="single block of this weight")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(_VERIFIERS))
    p.add_argument("--ell", type=int)
    p.add_argument("--n", type=int)
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--d", type=int)
    degrees.add_argument("--dmax", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--order", type=int,
                   help=f"series truncation order (default {ser.DEFAULT_ORDER})")
    common(p)

    p = sub.add_parser("matrix", help="print a matrix or its invariant factors")
    p.add_argument("kind", choices=("X_ell", "X_A", "B_ell", "M_pm"))
    p.add_argument("--ell", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--snf", action="store_true")
    common(p)

    p = sub.add_parser("series", help="print coefficients of a named series")
    p.add_argument("--name", required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--order", type=int, default=ser.DEFAULT_ORDER,
                   help="series truncation order")
    common(p)

    p = sub.add_parser("seed-tables", help="write the golden files")
    p.add_argument("--dir", default="golden")
    common(p)
    return parser


# ---------------------------------------------------------------------------
# invariants command


def _multiset_line(ms: inv.InvariantMultiset) -> str:
    return " ".join(f"{v}^{m}" for v, m in ms.sorted_items(descending=True))


def _full_breakdown(ell: int, n: int, d: int) -> str:
    """Per-degree multiplicity as a sum of block-count times core-count terms."""
    terms = []
    total = 0
    for w in range(n // ell, d - 1, -1):
        blocks = ser.count_multipartitions(ell - 2, w - d)
        cores = ser.core_count(ell, n - ell * w)
        terms.append(f"{blocks}×{cores}")
        total += blocks * cores
    return "+".join(terms) + f"={total}"


def _invariants_payload(args) -> tuple[dict, list[str]]:
    if (args.n is None) == (args.weight is None):
        raise _UsageError("provide exactly one of --n or --weight")
    if args.ell < 2:
        raise _UsageError("--ell must be >= 2")
    lines = []
    if args.n is not None:
        ms = inv.full_invariants(args.ell, args.n)
        params = {"ell": args.ell, "n": args.n}
        lines.append(f"ell={args.ell} n={args.n} total={ms.total()}")
        lines.append("degree | invariants | multiplicity")
        for d in sorted(ms.by_degree):
            layer = ms.by_degree[d]
            values = ", ".join(str(v) for v in sorted(set(layer)))
            breakdown = _full_breakdown(args.ell, args.n, d)
            check = ser.multiplicity_m(args.ell, args.n, d)
            if int(breakdown.rsplit("=", 1)[1]) != check:
                raise ArithmeticError("breakdown disagrees with the series route")
            lines.append(f"{d} | {values} | {breakdown}")
    else:
        ms = inv.block_invariants(args.ell, args.weight)
        params = {"ell": args.ell, "weight": args.weight}
        lines.append(f"ell={args.ell} weight={args.weight} total={ms.total()}")
        lines.append("degree | invariants | multiplicity")
        for d in sorted(ms.by_degree):
            layer = ms.by_degree[d]
            values = ", ".join(str(v) for v in sorted(set(layer)))
            mult = ser.count_multipartitions(args.ell - 2, args.weight - d)
            lines.append(f"{d} | {values} | {mult}")
    lines.append("total multiset: " + _multiset_line(ms))
    entries = []
    for d in sorted(ms.by_degree):
        for v in sorted(ms.by_degree[d]):
            entries.append(
                {"value": str(v), "multiplicity": ms.by_degree[d][v], "degree": d}
            )
    payload = {"command": "invariants", "params": params, "entries": entries,
               "report": None}
    return payload, lines


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


def _degree_range(args, default_d_max: int) -> list[int]:
    if args.d is not None:
        return [args.d]
    d_max = args.dmax if args.dmax is not None else default_d_max
    return list(range(d_max + 1))


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
            return [(args.ell, d) for d in _degree_range(args, 2)]
        return [(ell, d) for ell, d_max in ((3, 3), (4, 2)) for d in range(d_max + 1)]
    if args.ell is not None:
        return [(args.ell, n) for n in ([args.n] if args.n is not None else range(25))]
    return [(ell, n) for ell in (4, 6, 12) for n in range(25)]


def _verify_payload(args) -> tuple[dict, list[str], int]:
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
    lines = []
    counts = {"verified": 0, "refuted": 0, "unproven-match": 0,
              "unproven-mismatch": 0}
    for r in reports:
        counts[r.status] += 1
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"[{r.status}] {r.claim} {params}")
        if r.status in ("refuted", "unproven-mismatch"):
            lines.append(f"    witness: {_stringify(r.witness)}")
    summary = " ".join(f"{k}={v}" for k, v in counts.items() if v)
    lines.append(f"summary: {summary or 'no checks ran'}")
    code = _exit_code(counts)
    payload = {
        "command": "verify",
        "params": {"suite": args.suite},
        "entries": [],
        "report": [
            {"claim": r.claim, "status": r.status,
             "params": _stringify(r.params), "witness": _stringify(r.witness)}
            for r in reports
        ],
    }
    return payload, lines, code


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


def _matrix_payload(args) -> tuple[dict, list[str]]:
    kind = args.kind
    if kind in ("X_ell", "X_A", "B_ell") and args.ell is None:
        raise _UsageError(f"matrix {kind} requires --ell")
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
        chain = smith_normal_form(m).invariant_factors
        lines = [", ".join(str(x) for x in chain)]
        payload = {"command": "matrix", "params": params,
                   "snf": [str(x) for x in chain]}
    else:
        lines = [str([list(row) for row in m.data])]
        payload = {"command": "matrix", "params": params,
                   "matrix": [[str(x) for x in row] for row in m.data]}
    return payload, lines


def _series_payload(args) -> tuple[dict, list[str]]:
    try:
        s = ser.named_series(args.name, order=args.order, ell=args.ell, k=args.k)
    except ValueError as exc:
        raise _UsageError(str(exc))
    params = {"name": args.name, "ell": args.ell, "k": args.k,
              "order": args.order}
    lines = [" ".join(str(c) for c in s.coeffs)]
    payload = {"command": "series", "params": params,
               "coefficients": [str(c) for c in s.coeffs]}
    return payload, lines


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


def _seed_tables(args) -> list[str]:
    os.makedirs(args.dir, exist_ok=True)
    written = []
    for filename, (kind, ell, param) in GOLDEN_FILES.items():
        path = os.path.join(args.dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(golden_text(kind, ell, param))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_args(args)
        code = EXIT_OK
        if args.command == "invariants":
            payload, lines = _invariants_payload(args)
        elif args.command == "verify":
            payload, lines, code = _verify_payload(args)
        elif args.command == "matrix":
            payload, lines = _matrix_payload(args)
        elif args.command == "series":
            payload, lines = _series_payload(args)
        else:
            written = _seed_tables(args)
            payload = {"command": "seed-tables",
                       "params": {"dir": args.dir}, "written": written}
            lines = [f"wrote {p}" for p in written]
    except (_UsageError, ValueError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
