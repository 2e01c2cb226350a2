"""In-memory span tracer for one cartaninv command process.

`Tracer.install` rebinds the public functions that make up each layer in
every cartaninv module namespace that binds them (``smith_normal_form``
lives in ``linalg``, ``invariants``, ``cli`` and the package), and wraps the
public methods ``Matrix.inverse``, ``Matrix.__mul__``, ``Matrix.det``,
``Matrix.kron`` and ``Series.__mul__``.  Every call then records a span:
its function, its parent span, its start and its end.  Spans stay in flat
arrays in memory; `Tracer.report` reduces them to per-group call counts,
self time and counters once the command has finished.

Counters that need a look at arguments or results (labels, entry bits,
multiplication counts, argument repeats) are taken after the span closes,
inside a span of the tracer's own group, so their cost is not charged to
any layer's self time.
"""

from __future__ import annotations

import importlib
import time
from array import array

import cartaninv
from cartaninv import cli, invariants, linalg, series, symfunc
from cartaninv.invariants import SizeGuardError

# The package re-exports the function ``partitions`` under the module's name.
partitions = importlib.import_module("cartaninv.partitions")

MODULES = (cartaninv, cli, invariants, linalg, partitions, series, symfunc)
TRACER_GROUP = "trace"


def _max_abs_bits(rows) -> int:
    """Bits of the largest numerator (or integer) among the entries."""
    return max((abs(x.numerator) for row in rows for x in row), default=0).bit_length()


def _matrix_counters(c, args, kwargs, result):
    c["labels"] += result.rows
    c["out_bits"] = max(c["out_bits"], _max_abs_bits(result.data))


def _snf_counters(c, args, kwargs, result):
    mat = args[0]
    c["labels"] += mat.rows
    c["in_bits"] = max(c["in_bits"], _max_abs_bits(mat.data))
    c["out_bits"] = max(c["out_bits"], _max_abs_bits([result.invariant_factors]))
    want = args[1] if len(args) > 1 else kwargs.get("want_transforms", False)
    c["transform_calls"] += bool(want)


def _inverse_counters(c, args, kwargs, result):
    den = max(x.denominator for row in result.data for x in row)
    c["den_bits"] = max(c["den_bits"], den.bit_length())


def _matmul_counters(c, args, kwargs, result):
    a, b = args
    if isinstance(b, linalg.Matrix):
        mults = a.rows * a.cols * b.cols
        rational = not (a.is_integral() and b.is_integral())
    else:
        mults = a.rows * a.cols
        rational = not (a.is_integral() and isinstance(b, int))
    c["mults"] += mults
    if rational:
        c["fraction_mults"] += mults


def _series_mul_counters(c, args, kwargs, result):
    n = min(args[0].order, args[1].order)
    c["coeff_ops"] += (n + 1) * (n + 2) // 2


def _transition_counters(c, args, kwargs, result):
    c["labels"] += len(result.index) if hasattr(result, "index") else len(result)


def _enum_counters(c, args, kwargs, result):
    c["labels"] += len(result)


def _plain_key(fid, args, kwargs):
    return (fid, args, tuple(sorted(kwargs.items())))


def _series_mul_key(fid, args, kwargs):
    # Series hashes are pure int-tuple hashes, identical in every process.
    return (fid, hash(args[0]), hash(args[1]))


# group -> (functions as (owner, attribute), counter names, counter hook,
#           repeat key or None).  Names follow the per-layer metric names.
GROUPS = {
    "linalg.snf": (
        [(linalg, "smith_normal_form")],
        ("labels", "in_bits", "out_bits", "transform_calls"), _snf_counters, None),
    "linalg.inverse": (
        [(linalg.Matrix, "inverse")], ("den_bits",), _inverse_counters, None),
    "linalg.matmul": (
        [(linalg.Matrix, "__mul__")], ("mults", "fraction_mults"), _matmul_counters, None),
    "linalg.det": ([(linalg.Matrix, "det")], (), None, None),
    "linalg.assemble": (
        [(linalg.Matrix, "kron"), (linalg, "direct_sum"), (linalg, "symmetric_power")],
        (), None, None),
    "invariants.build": (
        [(invariants, name) for name in (
            "gram_matrix", "tensor_gram_matrix", "gram_matrix_oracle",
            "tensor_diagonal_blocks", "length_power_diagonal", "lie_cartan_matrix")],
        ("labels", "out_bits"), _matrix_counters, None),
    "invariants.closed_form": (
        [(invariants, name) for name in (
            "graded_invariant", "graded_invariant_prime_power", "graded_invariants",
            "kor_number", "graded_to_snf")],
        (), None, None),
    "invariants.multiset": (
        [(invariants, name) for name in (
            "block_invariants", "full_invariants", "kor_invariants")],
        (), None, None),
    "invariants.verify": (
        [(invariants, name) for name in (
            "verify_snf_conjecture", "verify_splitting", "verify_reduction",
            "verify_kor_multiset", "verify_determinants")],
        (), None, None),
    "symfunc.transition": (
        [(symfunc, name) for name in (
            "transition_p_to_m", "transition_tensor", "power_to_monomial")],
        ("labels",), _transition_counters, _plain_key),
    "series.mul": (
        [(series.Series, "__mul__")], ("coeff_ops",), _series_mul_counters, _series_mul_key),
    "series.identity": ([(series, "check_identity")], (), None, _plain_key),
    "series.count": (
        [(series, name) for name in (
            "count_partitions", "count_multipartitions", "core_count", "multiplicity_m")],
        (), None, _plain_key),
    "partitions.enum": (
        [(partitions, name) for name in (
            "partitions", "class_regular_partitions", "regular_partitions",
            "multipartitions")],
        ("labels",), _enum_counters, _plain_key),
    "cli.main": ([(cli, "main")], (), None, None),
}


class Tracer:
    """Span recorder for the calls of one process."""

    def __init__(self):
        self.fids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.current = -1
        self.groups = [TRACER_GROUP]  # fid -> group
        self.counters = {g: dict.fromkeys(spec[1], 0) for g, spec in GROUPS.items()}
        self.repeats = dict.fromkeys(GROUPS, 0)
        self.seen: dict[str, set] = {g: set() for g in GROUPS}
        self.guard_rejections = 0

    def install(self):
        """Rebind every traced function and method; call once per process."""
        for group, (targets, _, hook, key) in GROUPS.items():
            for owner, name in targets:
                original = getattr(owner, name)
                self.groups.append(group)
                wrapped = self._wrap(original, len(self.groups) - 1, group, hook, key)
                if isinstance(owner, type):
                    setattr(owner, name, wrapped)
                    continue
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, fn, fid, group, hook, key):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns
        counters = self.counters[group]
        seen = self.seen[group]
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(fids)
            fids.append(fid)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            tracer.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except SizeGuardError as exc:
                tracer.count_rejection(exc)
                raise
            finally:
                end = clock()
                starts[idx] = start
                ends[idx] = end
                tracer.current = parent
            if hook is not None or key is not None:
                t0 = clock()
                if hook is not None:
                    hook(counters, args, kwargs, result)
                if key is not None:
                    k = key(fid, args, kwargs)
                    if k in seen:
                        tracer.repeats[group] += 1
                    else:
                        seen.add(k)
                fids.append(0)
                parents.append(parent)
                starts.append(t0)
                ends.append(clock())
            return result

        return traced

    def count_rejection(self, exc):
        """Count a size-guard rejection once, at the innermost traced call."""
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.guard_rejections += 1

    def report(self) -> dict:
        """Reduce the spans to calls and self time per group, plus counters."""
        n = len(self.fids)
        covered = [0] * n
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(self.groups, 0)
        self_ns = dict.fromkeys(self.groups, 0)
        for fid, start, end, cover in zip(self.fids, self.starts, self.ends, covered):
            group = self.groups[fid]
            calls[group] += 1
            self_ns[group] += end - start - cover
        out = {}
        for group in self.groups:
            out[group] = {"calls": calls[group], "self_ns": self_ns[group],
                          "repeats": self.repeats.get(group, 0),
                          **self.counters.get(group, {})}
        out[TRACER_GROUP]["spans"] = n
        out[TRACER_GROUP]["guard_rejections"] = self.guard_rejections
        return out
