"""Spans around polycomm's public functions, installed from the outside.

``Tracer.install()`` replaces every binding of each target function (the
defining module's and every ``from x import name`` copy in the other
polycomm modules, found by identity), the ``GenericMatrix`` and
``RealizationWitness`` methods, and ``numpy.linalg.eigvalsh`` as ``norms``
looks it up.  ``uninstall()`` puts the originals back.  Scalar
``Fraction``/``Quaternion`` operations are never wrapped: at that grain the
wrapper would cost more than the work and distort every self time.

Spans live in memory as tuples (name, parent index, request id, start,
end, note) and are summarized by ``layer_metrics``.  A span's self time is
its duration minus that of its direct children; calls nest strictly in
this single-threaded client, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, note).  note(args, result) adds a detail
# the layer metrics need; None when the span needs none.
_TARGETS = [
    ("polycomm.cli", "main", "cli.main", "exit"),
    ("polycomm.serialize", "decode_matrix", "serialize.decode_matrix", None),
    ("polycomm.serialize", "decode_quaternion", "serialize.decode_quaternion", None),
    ("polycomm.serialize", "polynomial_from_text", "serialize.polynomial_from_text", None),
    ("polycomm.serialize", "encode_matrix", "serialize.encode_matrix", None),
    ("polycomm.serialize", "encode_polynomial", "serialize.encode_polynomial", None),
    ("polycomm.serialize", "encode_quaternion", "serialize.encode_quaternion", None),
    ("polycomm.serialize", "encode_witness", "serialize.encode_witness", None),
    ("polycomm.serialize", "dumps_canonical", "serialize.dumps_canonical", None),
    ("polycomm.sampling", "probe_like", "sampling.probe_like", None),
    ("polycomm.sampling", "rational_matrix", "sampling.rational_matrix", None),
    ("polycomm.sampling", "quaternion_matrix", "sampling.quaternion_matrix", None),
    ("polycomm.sampling", "complex_gaussian_matrix", "sampling.complex_gaussian_matrix", None),
    ("polycomm.poly", "eval_poly", "poly.eval_poly", None),
    ("polycomm.poly", "solve_odd_equation", "poly.solve_odd_equation", None),
    ("polycomm.quat", "poly_commutator", "quat.poly_commutator", None),
    ("polycomm.quat", "solve_poly_commutator", "quat.solve_poly_commutator", None),
    ("polycomm.quat", "factor_into_two_commutators", "quat.factor_into_two_commutators", None),
    ("polycomm.matrix", "GenericMatrix.__mul__", "matrix.mul", "size"),
    ("polycomm.matrix", "GenericMatrix.inverse", "matrix.inverse", None),
    ("polycomm.matrix", "poly_eval_matrix", "matrix.poly_eval_matrix", None),
    ("polycomm.matrix", "poly_commutator", "matrix.poly_commutator", None),
    ("polycomm.matrix", "telescoping_expand", "matrix.telescoping_expand", None),
    ("polycomm.realize", "realize_zero_diagonal", "realize.realize_zero_diagonal", None),
    ("polycomm.realize", "realize_traceless", "realize.realize_traceless", None),
    ("polycomm.realize", "triangular_diagonalize", "realize.triangular_diagonalize", None),
    ("polycomm.realize", "RealizationWitness.verify", "realize.witness_verify", None),
    ("polycomm.realize", "traceless_to_zero_diagonal", "realize.traceless_to_zero_diagonal", None),
    ("polycomm.realize", "nonzero_trace_witness", "realize.nonzero_trace_witness", None),
    ("polycomm.realize", "algebraicity_polynomial", "realize.algebraicity_polynomial", "probes"),
    ("polycomm.realize", "algebraic_degree_probe", "realize.algebraic_degree_probe", None),
    ("polycomm.norms", "numerical_radius", "norms.numerical_radius", None),
    ("polycomm.norms", "operator_norm", "norms.operator_norm", None),
    ("polycomm.norms", "spherical_average", "norms.spherical_average", None),
    ("polycomm.norms", "poly_commutator_array", "norms.poly_commutator_array", None),
    # the bound checkers and small helpers do numpy work of their own; without
    # spans that work would count as CLI glue in cli.main.self_s
    ("polycomm.norms", "check_bottcher_wenzel", "norms.check_bottcher_wenzel", None),
    ("polycomm.norms", "check_frobenius_bound", "norms.check_frobenius_bound", None),
    ("polycomm.norms", "check_numrad_bound", "norms.check_numrad_bound", None),
    ("polycomm.norms", "check_average_bound", "norms.check_average_bound", None),
    ("polycomm.norms", "frobenius_norm", "norms.frobenius_norm", None),
    ("polycomm.norms", "commutator_array", "norms.commutator_array", None),
    ("numpy.linalg", "eigvalsh", "norms.eigvalsh", None),
]

_NOTES = {
    "exit": lambda args, result: result,
    "size": lambda args, result: (args[0].ring.name, args[0].n),
    "probes": lambda args, result: len(args[1]),
}

_UNCAUGHT = "uncaught"

DECODE = ("serialize.decode_matrix", "serialize.decode_quaternion", "serialize.polynomial_from_text")
ENCODE = ("serialize.encode_matrix", "serialize.encode_polynomial", "serialize.encode_quaternion",
          "serialize.encode_witness", "serialize.dumps_canonical")
SAMPLING = ("sampling.probe_like", "sampling.rational_matrix", "sampling.quaternion_matrix",
            "sampling.complex_gaussian_matrix")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans = []
        self.request_id = None
        self._stack = []
        self._installed = []  # (owner, name, original)

    def _wrap(self, fn, span_name, note):
        spans, stack = self.spans, self._stack
        note_fn = _NOTES.get(note)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = _UNCAUGHT
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                detail = note_fn(args, result) if note_fn else None
                spans[idx] = (span_name, parent, self.request_id, t0, t1, detail)

        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("polycomm") and m]
        for module_name, attr, span_name, note in _TARGETS:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span_name, note)
            bindings = [(owner, name)] + [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original and (m, key) != (owner, name)
            ]
            for where, key in bindings:
                setattr(where, key, wrapper)
                self._installed.append((where, key, original))

    def uninstall(self):
        for where, key, original in reversed(self._installed):
            setattr(where, key, original)
        self._installed.clear()

    def write(self, path):
        """All spans as gzip JSON lines: name, parent, request, start, end, note."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, parent, rid, t0, t1, note) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, parent, rid, t0, t1, note]) + "\n")

    def per_span(self):
        """{span name: [calls, total_s, self_s]}."""
        child_time = defaultdict(float)
        for name, parent, rid, t0, t1, note in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, parent, rid, t0, t1, note) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_time[idx]
        return dict(out)


def layer_metrics(tracer, bytes_out, overhead_ratio):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    s = tracer.per_span()

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[2] for n in names)

    spans = tracer.spans
    exits = defaultdict(int)
    scalar_mults = defaultdict(int)
    terms = products = 0
    levels = defaultdict(set)
    for name, parent, rid, t0, t1, note in spans:
        if name == "cli.main":
            exits[note if note in (0, 2, 3) else _UNCAUGHT] += 1
        elif name == "matrix.mul":
            ring, n = note
            scalar_mults[ring.split("-")[0]] += n**3
            if parent >= 0 and spans[parent][0] == "realize.algebraicity_polynomial":
                products += 1
        elif name == "realize.algebraicity_polynomial":
            terms += math.factorial(note + 1)
            levels[parent].add(note)

    def ratio(num, base):
        return num / base if base else 0.0

    rz = total("realize.realize_zero_diagonal")
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.exit_0.count": exits[0],
        "cli.exit_2.count": exits[2],
        "cli.exit_3.count": exits[3],
        "cli.uncaught.count": exits[_UNCAUGHT],
        "serialize.decode.self_s": self_s(*DECODE),
        "serialize.encode.self_s": self_s(*ENCODE),
        "serialize.bytes_out": bytes_out,
        "sampling.self_s": self_s(*SAMPLING),
        "poly.solve_odd_equation.calls": calls("poly.solve_odd_equation"),
        "poly.solve_odd_equation.self_s": self_s("poly.solve_odd_equation"),
        "poly.eval_poly.calls": calls("poly.eval_poly"),
        "quat.solve_poly_commutator.total_s": total("quat.solve_poly_commutator"),
        "quat.factor_into_two_commutators.total_s": total("quat.factor_into_two_commutators"),
        "matrix.mul.calls": calls("matrix.mul"),
        "matrix.mul.self_s": self_s("matrix.mul"),
        "matrix.mul.scalar_mults.rational": scalar_mults["rational"],
        "matrix.mul.scalar_mults.quaternion": scalar_mults["quaternion"],
        "matrix.mul.scalar_mults.complex": scalar_mults["complex"],
        "matrix.inverse.calls": calls("matrix.inverse"),
        "matrix.inverse.self_s": self_s("matrix.inverse"),
        "matrix.poly_eval_matrix.self_s": self_s("matrix.poly_eval_matrix"),
        "matrix.telescoping_expand.total_s": total("matrix.telescoping_expand"),
        "realize.realize_zero_diagonal.total_s": rz,
        "realize.triangular_diagonalize.calls": calls("realize.triangular_diagonalize"),
        "realize.triangular_diagonalize.total_s": total("realize.triangular_diagonalize"),
        "realize.witness_verify.calls": calls("realize.witness_verify"),
        "realize.witness_verify.total_s": total("realize.witness_verify"),
        "realize.verify_share": ratio(total("realize.witness_verify"), rz),
        "realize.traceless_to_zero_diagonal.total_s": total("realize.traceless_to_zero_diagonal"),
        "realize.nonzero_trace_witness.total_s": total("realize.nonzero_trace_witness"),
        "realize.algebraicity_polynomial.calls": calls("realize.algebraicity_polynomial"),
        "realize.algebraicity_polynomial.total_s": total("realize.algebraicity_polynomial"),
        "realize.algebraicity_polynomial.self_s": self_s("realize.algebraicity_polynomial"),
        "realize.algebraicity.terms": terms,
        "realize.algebraicity.products": products,
        "realize.degree_probe.levels": sum(len(v) for v in levels.values()),
        "norms.numerical_radius.calls": calls("norms.numerical_radius"),
        "norms.numerical_radius.self_s": self_s("norms.numerical_radius"),
        "norms.eigvalsh.calls": calls("norms.eigvalsh"),
        "norms.eigvalsh_per_radius": ratio(calls("norms.eigvalsh"), calls("norms.numerical_radius")),
        "norms.operator_norm.calls": calls("norms.operator_norm"),
        "norms.operator_norm.self_s": self_s("norms.operator_norm"),
        "norms.spherical_average.self_s": self_s("norms.spherical_average"),
        "norms.poly_commutator_array.self_s": self_s("norms.poly_commutator_array"),
        "trace.overhead_ratio": overhead_ratio,
    }


# Counts of answers rather than of work: what they read depends on polycomm's
# outcomes, not on which layers a workload reaches.
OUTCOME_COUNTS = ("cli.exit_2.count", "cli.exit_3.count", "cli.uncaught.count")

# Workloads on which each metric must read nonzero; on every other workload
# it must read zero.  A missed binding shows up here as a zero.
ALL = frozenset(("exact-construct", "degree-probe", "float-verify"))
EXACT, PROBE, FLOAT = (frozenset((w,)) for w in ("exact-construct", "degree-probe", "float-verify"))
NONZERO_ON = {
    "cli.main.calls": ALL,
    "cli.main.self_s": ALL,
    "cli.exit_0.count": ALL,
    "serialize.decode.self_s": ALL,
    "serialize.encode.self_s": ALL,
    "serialize.bytes_out": ALL,
    "sampling.self_s": ALL,
    "poly.solve_odd_equation.calls": FLOAT,
    "poly.solve_odd_equation.self_s": FLOAT,
    "poly.eval_poly.calls": EXACT | FLOAT,
    "quat.solve_poly_commutator.total_s": FLOAT,
    "quat.factor_into_two_commutators.total_s": FLOAT,
    "matrix.mul.calls": ALL,
    "matrix.mul.self_s": ALL,
    "matrix.mul.scalar_mults.rational": EXACT | PROBE,
    "matrix.mul.scalar_mults.quaternion": EXACT | PROBE,
    "matrix.mul.scalar_mults.complex": FLOAT,
    "matrix.inverse.calls": EXACT,
    "matrix.inverse.self_s": EXACT,
    "matrix.poly_eval_matrix.self_s": EXACT | FLOAT,
    "matrix.telescoping_expand.total_s": EXACT | FLOAT,
    "realize.realize_zero_diagonal.total_s": EXACT,
    "realize.triangular_diagonalize.calls": EXACT,
    "realize.triangular_diagonalize.total_s": EXACT,
    "realize.witness_verify.calls": EXACT,
    "realize.witness_verify.total_s": EXACT,
    "realize.verify_share": EXACT,
    "realize.traceless_to_zero_diagonal.total_s": EXACT,
    "realize.nonzero_trace_witness.total_s": EXACT,
    "realize.algebraicity_polynomial.calls": PROBE,
    "realize.algebraicity_polynomial.total_s": PROBE,
    "realize.algebraicity_polynomial.self_s": PROBE,
    "realize.algebraicity.terms": PROBE,
    "realize.algebraicity.products": PROBE,
    "realize.degree_probe.levels": PROBE,
    "norms.numerical_radius.calls": FLOAT,
    "norms.numerical_radius.self_s": FLOAT,
    "norms.eigvalsh.calls": FLOAT,
    "norms.eigvalsh_per_radius": FLOAT,
    "norms.operator_norm.calls": FLOAT,
    "norms.operator_norm.self_s": FLOAT,
    "norms.spherical_average.self_s": FLOAT,
    "norms.poly_commutator_array.self_s": FLOAT,
    "trace.overhead_ratio": ALL,
}
