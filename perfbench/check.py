"""Checks a recorded outcome against the hand-written expected table.

Every outcome is classified as ``ok``, ``undecided`` or ``failed``:

* undecided: ``UndecidedError``, ``DimensionTooLarge``, a verdict of
  ``undecided`` or ``verified-on-witnesses``, a field left open (None),
  CLI exit 3, and CLI exit 2 naming ``DimensionTooLarge``;
* failed: a wrong verdict, value, witness or exit code, or any other
  exception;
* ok: everything the question asked for matches.

Pure Python with exact arithmetic; nothing here imports gradlie.
"""

from __future__ import annotations

import json
from fractions import Fraction

UNDECIDED_ERRORS = ("UndecidedError", "DimensionTooLarge")
UNDECIDED_VALUES = ("undecided", "verified-on-witnesses")
EXIT_UNDECIDED = 3
EXIT_INVALID = 2

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"


class Context:
    """What the checker needs to read a witness: the basis change (rows
    of P in gallery coordinates, as strings), the characteristic, the
    degrees and the basis names of the generated input."""

    def __init__(self, change, p=None, degrees=None, names=None):
        self.change = {k: [[Fraction(x) for x in row] for row in m]
                       for k, m in change.items()}
        self.p = p
        self.degrees = degrees
        self.names = names

    def to_gallery(self, vec, side="P"):
        """A vector in the generated basis, in gallery coordinates."""
        m = self.change[side]
        out = [Fraction(0)] * len(m[0])
        for c, row in zip(vec, m):
            if c:
                for j, x in enumerate(row):
                    out[j] += c * x
        if self.p is not None:
            out = [Fraction(x.numerator * pow(x.denominator, -1, self.p)
                            % self.p) for x in out]
        return out


def _witness_problem(vec, allowed, ctx, side="P", homogeneous=False):
    """None when vec is a valid witness, else what is wrong with it."""
    if vec is None:
        return "no witness reported"
    vec = [Fraction(x) for x in vec]
    if not any(vec):
        return "zero witness"
    if homogeneous and ctx.degrees is not None:
        degs = {ctx.degrees[i] for i, c in enumerate(vec) if c}
        if len(degs) > 1:
            return "witness is not homogeneous"
    gal = ctx.to_gallery(vec, side)
    outside = [j for j, c in enumerate(gal) if c and j not in allowed]
    if outside:
        return "witness leaves the expected subspace at %s" % outside
    return None


def _compare_fields(got, want):
    """(status, message) for a dict of expected fields."""
    wrong, left_open = [], []
    for key, w in want.items():
        g = got.get(key) if isinstance(got, dict) else None
        if g is None or g in UNDECIDED_VALUES:
            left_open.append(key)
        elif g != w:
            wrong.append("%s: got %r, want %r" % (key, g, w))
    if wrong:
        return FAILED, "; ".join(wrong)
    if left_open:
        return UNDECIDED, "undecided: " + ", ".join(left_open)
    return OK, ""


def check_api(kind, expected, outcome, ctx):
    """Classify the outcome of an in-process question."""
    if "error" in outcome:
        if outcome["error"] in UNDECIDED_ERRORS:
            return UNDECIDED, outcome["error"]
        return FAILED, "%s: %s" % (outcome["error"], outcome.get("message"))
    got = outcome["answer"]
    if isinstance(expected, dict) and "value" in expected:
        value = got.get("value")
        if value in UNDECIDED_VALUES:
            return UNDECIDED, value
        if value != expected["value"]:
            return FAILED, "verdict %r, want %r" % (value, expected["value"])
        if "witness_in" in expected:
            why = _witness_problem(got.get("witness"), expected["witness_in"],
                                   ctx, homogeneous=kind.endswith("_graded"))
            if why:
                return FAILED, why
        return OK, ""
    if isinstance(expected, dict):
        return _compare_fields(got, expected)
    if isinstance(got, str) and got in UNDECIDED_VALUES:
        return UNDECIDED, got
    if got != expected:
        return FAILED, "got %r, want %r" % (got, expected)
    return OK, ""


def parse_vector(text, names):
    """Invert the CLI's 'c*name + name' rendering into coordinates."""
    vec = [Fraction(0)] * len(names)
    if text.strip() == "0":
        return vec
    index = {nm: i for i, nm in enumerate(names)}
    for term in text.split(" + "):
        coef, star, name = term.partition("*")
        if not star:
            coef, name = "1", term
        if name not in index:
            raise ValueError("unknown basis name %r" % name)
        vec[index[name]] += Fraction(coef)
    return vec


def check_cli(command, expected, outcome, ctx):
    """Classify a CLI run: exit code, JSON fields, witness."""
    code = outcome["exit"]
    if code == EXIT_UNDECIDED:
        return UNDECIDED, "exit 3"
    if code == EXIT_INVALID and "DimensionTooLarge" in outcome["stderr"]:
        return UNDECIDED, "exit 2 (DimensionTooLarge)"
    if code != expected["exit"]:
        return FAILED, "exit %d, want %d: %s" % (
            code, expected["exit"], outcome["stderr"].strip()[-200:])
    try:
        doc = json.loads(outcome["stdout"])
    except ValueError:
        return FAILED, "stdout is not JSON"
    if "lie_dim" in expected:
        if doc.get("kind") != "lie" or len(doc.get("basis", ())) != \
                expected["lie_dim"]:
            return FAILED, "expected a lie file of dim %d" % expected["lie_dim"]
        return OK, ""
    status, msg = _compare_fields(doc, expected.get("json", {}))
    if status != OK:
        return status, msg
    try:
        if "witness_in" in expected:
            vec = parse_vector(doc.get("witness", ""), ctx.names)
            why = _witness_problem(vec, expected["witness_in"], ctx,
                                   homogeneous="--graded" in command)
            if why:
                return FAILED, why
        if "pair_witness_in" in expected:
            side, _, text = doc.get("witness", "").partition(" side: ")
            sign = "plus" if side == "plus" else "minus"
            vec = parse_vector(text, ctx.names[sign])
            why = _witness_problem(vec, expected["pair_witness_in"][sign], ctx,
                                   side="P+" if sign == "plus" else "P-")
            if why:
                return FAILED, why
    except ValueError as exc:
        return FAILED, "unreadable witness: %s" % exc
    return OK, ""
