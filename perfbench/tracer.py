"""Span tracer for the traced benchmark run.

The tracer wraps public gradlie functions from outside: each wrapper is
rebound in every ``gradlie.*`` namespace that holds the original function
object (modules bind names with ``from .linalg import rref``), and
methods are patched on their classes.  A span records its name, start,
end and parent in flat arrays, kept in memory and written out by
``dump``; self time is computed afterwards by ``summarize``.  Per-scalar
hot paths (``Field.of``, ``bracket``) are never wrapped: the wrapper
would cost more than the work.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> public functions (module, attribute) it covers
SPANS = {
    "cli.main": [("gradlie.cli", "main")],
    "serialize.parse_algebra": [("gradlie.serialize", "parse_algebra")],
    "serialize.serialize_algebra": [("gradlie.serialize", "serialize_algebra")],
    "lie.validate": [("gradlie.lie", "GradedLieAlgebra.__init__")],
    "lie.bracket_space": [("gradlie.lie", "GradedLieAlgebra.bracket_space")],
    "lie.ideal_generated": [("gradlie.lie", "GradedLieAlgebra.ideal_generated")],
    "lie.annihilator": [("gradlie.lie", "GradedLieAlgebra.annihilator")],
    "linalg.kernel_basis": [("gradlie.linalg", "kernel_basis")],
    "linalg.solve_linear": [("gradlie.linalg", "solve_linear")],
    "linalg.determinant": [("gradlie.linalg", "determinant")],
    "linalg.subspace": [("gradlie.linalg", "Subspace." + m) for m in (
        "add", "intersect", "reduce", "coords", "contains", "contains_space")],
    "analysis.killing_matrix": [("gradlie.analysis", "killing_matrix")],
    "analysis.predicates": [("gradlie.analysis", f) for f in (
        "is_semiprime", "is_prime", "is_strongly_nondegenerate",
        "is_essential_ideal", "socle", "graded_socle", "minimal_ideals")],
    "analysis.structure_report": [("gradlie.analysis", "structure_report")],
    "analysis.graded_core": [("gradlie.analysis", "graded_core")],
    "derivations.derivation_space": [("gradlie.derivations",
                                      "derivation_space")],
    "derivations.maximal_quotients": [("gradlie.derivations",
                                       "maximal_quotients")],
    "derivations.check_axiomatic": [("gradlie.derivations", "check_axiomatic")],
    "derivations.is_quotient": [("gradlie.derivations", "is_quotient")],
    "derivations.is_weak_quotient": [("gradlie.derivations",
                                      "is_weak_quotient")],
    "enumeration.find_absolute_zero_divisor": [
        ("gradlie.enumeration", "find_absolute_zero_divisor")],
    "jordan.tkk": [("gradlie.jordan", "tkk")],
    "jordan.associated_pair": [("gradlie.jordan", "associated_pair")],
    "jordan.pair_quotients": [("gradlie.jordan", f) for f in (
        "is_pair_of_quotients", "maximal_pair_quotients",
        "maximal_triple_quotients", "maximal_jordan_algebra_quotients")],
    "jordan.pair_scan": [("gradlie.jordan", "pair_is_semiprime")],
    "assoc.check_central_quotients": [("gradlie.assoc",
                                       "check_central_quotients")],
    "assoc.exchange_double": [("gradlie.assoc", "exchange_double")],
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.active = False

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def spanned(self, fn, name_of, before=None, after=None):
        """fn inside a span; name_of(args) picks the span name, before and
        after hooks update counters around the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            idx = tracer.open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(token, args, result)
            return result
        return wrapper

    def counted(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, module, attr, make):
        """Wrap module.attr (or module.Class.method) everywhere it is bound."""
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name != "gradlie" and not name.startswith("gradlie."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)

    def install(self):
        from gradlie.errors import DimensionTooLarge
        from gradlie.enumeration import projective_count

        for span, targets in SPANS.items():
            for module, attr in targets:
                self._replace(module, attr, lambda fn, s=span: self.spanned(
                    fn, lambda args, s=s: s))

        def rref_name(args):
            rows = args[1]
            self.counts["linalg.rref_%s.cells" % ("q" if args[0].p is None
                                                  else "p")] += \
                len(rows) * (len(rows[0]) if rows else 0)
            return "linalg.rref_q" if args[0].p is None else "linalg.rref_p"
        self._replace("gradlie.linalg", "rref",
                      lambda fn: self.spanned(fn, rref_name))

        def closures_before(args):
            return self.counts["enumeration.closures"]

        def ideals_after(before, args, result):
            # distinct ideals of scans that ran, not of memo hits
            if self.counts["enumeration.closures"] > before:
                self.counts["enumeration.distinct_ideals"] += len(result)
        self._replace("gradlie.enumeration", "distinct_principal_ideals",
                      lambda fn: self.spanned(
                          fn, lambda a: "enumeration.distinct_principal_ideals",
                          closures_before, ideals_after))

        def pair_points(before, args, result):
            pair = args[0]
            self.counts["jordan.pair_scan.points"] += sum(
                projective_count(pair.field.p, pair.dim(s)) for s in (1, -1))
        self._replace("gradlie.jordan", "distinct_principal_pair_ideals",
                      lambda fn: self.spanned(
                          fn, lambda a: "jordan.pair_scan", None, pair_points))

        self._replace("gradlie.enumeration", "principal_ideal_np",
                      lambda fn: self.counted(fn, "enumeration.closures"))
        self._replace("gradlie.lie", "GradedLieAlgebra.ad_matrix",
                      lambda fn: self.counted(fn, "lie.ad_matrix.calls"))

        def counting_scan(fn):
            @functools.wraps(fn)
            def scan_points(*args, **kwargs):
                for point in fn(*args, **kwargs):
                    if self.active:
                        self.counts["enumeration.points_scanned"] += 1
                    yield point
            return scan_points
        self._replace("gradlie.enumeration", "scan_points", counting_scan)

        def refusing(fn):
            @functools.wraps(fn)
            def check_budget(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except DimensionTooLarge:
                    if self.active:
                        self.counts["enumeration.budget_refusals"] += 1
                    raise
            return check_budget
        self._replace("gradlie.enumeration", "check_budget", refusing)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Header line of JSON, then the four span arrays."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "n": len(self.start),
                    "counts": dict(self.counts)}
            fh.write((json.dumps(head) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    """(names, counts, name ids, parent ids, starts, ends) of a dump."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["n"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head["names"], head["counts"], *arrays)


def summarize(path):
    """Per span name: calls, self seconds and inclusive seconds; and the
    counters.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest strictly, so children never
    overlap.  Inclusive time skips spans nested in a span of the same
    name, so recursion is not counted twice."""
    names, counts, name, parent, start, end = load(path)
    child = [0.0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    calls, self_s, total = Counter(), Counter(), Counter()
    for i in range(len(start)):
        nm = name[i]
        calls[names[nm]] += 1
        self_s[names[nm]] += end[i] - start[i] - child[i]
        up = parent[i]
        while up >= 0 and name[up] != nm:
            up = parent[up]
        if up < 0:
            total[names[nm]] += end[i] - start[i]
    return calls, self_s, total, counts
