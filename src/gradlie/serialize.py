"""Algebra files: a canonical JSON exchange format.

One file holds one algebra (Lie, associative, Jordan pair, Jordan triple,
or Jordan algebra), its scalars, an optional grading, an optional
involution, and an optional distinguished subalgebra or subpair that
downstream quotient checks run against.  Scalars are written as exact
"num" or "num/den" strings.  Serialization is canonical: fixed key order,
two-space indent, trailing newline; equal objects produce equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .assoc import AssocAlgebra
from .derivations import QuotientEmbedding
from .errors import ParseError
from .jordan import (JordanAlgebra, JordanPair, JordanTriple, PairEmbedding,
                     SubPair)
from .lie import GradedLieAlgebra, GradingGroup
from .linalg import Subspace, span
from .scalars import Field

KINDS = ("lie", "assoc", "jordan_pair", "jordan_triple", "jordan_algebra")


@dataclass
class AlgebraFile:
    kind: str
    algebra: object
    subspace: object = None   # Subspace (lie/assoc) or SubPair (jordan_pair)
    # the QuotientEmbedding (lie) or PairEmbedding (jordan_pair) built to
    # check the marked subspace when the file was loaded
    embedding: object = None

    @property
    def field(self):
        return self.algebra.field


# -- scalars ---------------------------------------------------------------


def _field_to_json(field):
    return "Q" if field.p is None else {"Fp": field.p}


def _field_from_json(obj):
    if obj == "Q":
        return Field(None)
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        p = obj["Fp"]
        if not isinstance(p, int) or p < 2:
            raise ParseError("bad prime in scalars: %r" % (p,))
        return Field(p)
    raise ParseError("scalars must be \"Q\" or {\"Fp\": p}")


def _fmt(field, c):
    return field.format(c)


def _scalar(field, s, what):
    if not isinstance(s, str):
        raise ParseError("%s scalars are strings like \"-1/2\", got %r"
                         % (what, s))
    return field.parse(s)


# -- gradings ----------------------------------------------------------------


def _grading_to_json(group, degrees):
    if group.kind == "trivial":
        g = "trivial"
    elif group.kind == "Z":
        g = "Z"
    else:
        g = {"Zn": group.n}
    return {"group": g, "degrees": [int(d) for d in degrees]}


def _grading_from_json(obj, dim):
    if obj is None:
        return GradingGroup.trivial(), None
    if not isinstance(obj, dict):
        raise ParseError("grading must be an object with \"group\" and "
                         "\"degrees\"")
    g = obj.get("group")
    if g == "trivial":
        group = GradingGroup.trivial()
    elif g == "Z":
        group = GradingGroup.integers()
    elif isinstance(g, dict) and set(g) == {"Zn"}:
        n = g["Zn"]
        if type(n) is not int or n < 1:
            raise ParseError("grading group Zn needs a positive integer "
                             "modulus, got %r" % (n,))
        group = GradingGroup.mod(n)
    else:
        raise ParseError(
            "grading group must be \"trivial\", \"Z\", or {\"Zn\": n}")
    degrees = obj.get("degrees")
    if not isinstance(degrees, list) or len(degrees) != dim:
        raise ParseError("degrees must list one value per basis element")
    if not all(type(d) is int for d in degrees):
        raise ParseError("grading degrees must be integers")
    if group.kind == "trivial" and any(degrees):
        raise ParseError("trivially graded degrees must all be zero")
    return group, tuple(degrees)


# -- sparse cells ------------------------------------------------------------


def _cell_to_json(field, vec):
    return [[k, _fmt(field, c)] for k, c in enumerate(vec) if c != field.zero]


def _entries(obj, what, shape):
    """The entries of the sparse list what: lists of the given shape,
    integer indices and then one value."""
    text = "[%s]" % ", ".join(shape)
    if not isinstance(obj, list):
        raise ParseError("%s must be a list of %s entries" % (what, text))
    for item in obj:
        if (not isinstance(item, list) or len(item) != len(shape)
                or not all(type(i) is int for i in item[:-1])):
            raise ParseError("%s entries are %s with integer indices"
                             % (what, text))
    return obj


def _cell_from_json(field, entries, dim):
    v = [field.zero] * dim
    for k, s in _entries(entries, "table cell", ("index", "scalar")):
        if not 0 <= k < dim:
            raise ParseError("cell index %d out of range" % k)
        v[k] = _scalar(field, s, "table cell")
    return tuple(v)


def _rows_to_json(field, rows):
    return [[_fmt(field, c) for c in row] for row in rows]


def _rows_from_json(field, obj, ambient, what):
    if not isinstance(obj, list):
        raise ParseError("%s must be a list of rows" % what)
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != ambient:
            raise ParseError("%s rows are lists of %d scalars"
                             % (what, ambient))
        rows.append(tuple(_scalar(field, c, what) for c in row))
    return rows


# -- per-kind tables ---------------------------------------------------------


def _lie_table_to_json(alg):
    f = alg.field
    out = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            cell = _cell_to_json(f, alg.table[i][j])
            if cell:
                out.append([i, j, cell])
    return out


def _lie_table_from_json(field, obj, dim):
    zero = (field.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for i, j, cell in _entries(obj, "lie table", ("i", "j", "cell")):
        if not (0 <= i < dim and 0 <= j < dim and i < j):
            raise ParseError("lie table stores each bracket once, i < j")
        v = _cell_from_json(field, cell, dim)
        table[i][j] = v
        table[j][i] = tuple(field.neg(c) for c in v)
    return tuple(tuple(r) for r in table)


def _bilinear_to_json(alg, symmetric):
    f = alg.field
    out = []
    for i in range(alg.dim):
        jstart = i if symmetric else 0
        for j in range(jstart, alg.dim):
            cell = _cell_to_json(f, alg.table[i][j])
            if cell:
                out.append([i, j, cell])
    return out


def _bilinear_from_json(field, obj, dim, symmetric):
    zero = (field.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for i, j, cell in _entries(obj, "table", ("i", "j", "cell")):
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError("table index out of range")
        if symmetric and i > j:
            raise ParseError("symmetric table stores each product once")
        v = _cell_from_json(field, cell, dim)
        table[i][j] = v
        if symmetric:
            table[j][i] = v
    return tuple(tuple(r) for r in table)


def _trilinear_to_json(field, table):
    out = []
    for i, plane in enumerate(table):
        for j, row in enumerate(plane):
            for l, vec in enumerate(row):
                cell = _cell_to_json(field, vec)
                if cell:
                    out.append([i, j, l, cell])
    return out


def _trilinear_from_json(field, obj, na, nb, what="table"):
    zero = (field.zero,) * na
    table = [[[zero] * na for _ in range(nb)] for _ in range(na)]
    for i, j, l, cell in _entries(obj, what, ("i", "j", "l", "cell")):
        if not (0 <= i < na and 0 <= j < nb and 0 <= l < na):
            raise ParseError("trilinear index out of range")
        table[i][j][l] = _cell_from_json(field, cell, na)
    return tuple(tuple(tuple(r) for r in p) for p in table)


# -- top level ---------------------------------------------------------------


def serialize_algebra(obj, subspace=None):
    """Canonical JSON text for an algebra plus an optional marked
    subalgebra (Subspace) or subpair (SubPair)."""
    doc = {"format": "algebra-file", "version": 1}
    if isinstance(obj, GradedLieAlgebra):
        f = obj.field
        doc["kind"] = "lie"
        doc["scalars"] = _field_to_json(f)
        doc["basis"] = list(obj.names)
        doc["table"] = _lie_table_to_json(obj)
        doc["grading"] = _grading_to_json(obj.group, obj.degrees)
    elif isinstance(obj, AssocAlgebra):
        f = obj.field
        doc["kind"] = "assoc"
        doc["scalars"] = _field_to_json(f)
        doc["basis"] = list(obj.names)
        doc["table"] = _bilinear_to_json(obj, symmetric=False)
        doc["grading"] = _grading_to_json(obj.group, obj.degrees)
        if obj.involution is not None:
            doc["involution"] = _rows_to_json(f, obj.involution)
    elif isinstance(obj, JordanPair):
        f = obj.field
        doc["kind"] = "jordan_pair"
        doc["scalars"] = _field_to_json(f)
        doc["basis"] = [list(obj.names_plus), list(obj.names_minus)]
        doc["table"] = {"plus": _trilinear_to_json(f, obj.table_plus),
                        "minus": _trilinear_to_json(f, obj.table_minus)}
    elif isinstance(obj, JordanTriple):
        f = obj.field
        doc["kind"] = "jordan_triple"
        doc["scalars"] = _field_to_json(f)
        doc["basis"] = list(obj.names)
        doc["table"] = _trilinear_to_json(f, obj.table)
    elif isinstance(obj, JordanAlgebra):
        f = obj.field
        doc["kind"] = "jordan_algebra"
        doc["scalars"] = _field_to_json(f)
        doc["basis"] = list(obj.names)
        doc["table"] = _bilinear_to_json(obj, symmetric=True)
    else:
        raise ParseError("cannot serialize %r" % type(obj).__name__)

    if subspace is not None:
        if isinstance(subspace, SubPair):
            doc["subpair"] = {
                "plus": _rows_to_json(f, subspace.plus.rows),
                "minus": _rows_to_json(f, subspace.minus.rows),
            }
        elif isinstance(subspace, Subspace):
            doc["subalgebra"] = _rows_to_json(f, subspace.rows)
        else:
            raise ParseError("marked subspace must be a Subspace or SubPair")
    return canonical_json(doc)


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=2) + "\n"


def parse_algebra(text):
    """AlgebraFile from JSON text; running the constructors validates all
    axioms, so a parse that returns is a certified object."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise ParseError("bad JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("format") != "algebra-file":
        raise ParseError("missing format: \"algebra-file\"")
    if doc.get("version") != 1:
        raise ParseError("unsupported version %r" % doc.get("version"))
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError("kind must be one of %s" % (KINDS,))
    field = _field_from_json(doc.get("scalars"))
    if "subalgebra" in doc and "subpair" in doc:
        raise ParseError("a file marks at most one of subalgebra/subpair")

    def name_list(ns, what="basis"):
        if (not isinstance(ns, list) or not ns
                or not all(isinstance(x, str) for x in ns)):
            raise ParseError("%s must be a nonempty list of strings" % what)
        return tuple(ns)

    if kind == "lie":
        names = name_list(doc.get("basis"))
        dim = len(names)
        table = _lie_table_from_json(field, doc.get("table", []), dim)
        group, degrees = _grading_from_json(doc.get("grading"), dim)
        alg = GradedLieAlgebra(field, names, table, group, degrees)
    elif kind == "assoc":
        names = name_list(doc.get("basis"))
        dim = len(names)
        table = _bilinear_from_json(field, doc.get("table", []), dim,
                                    symmetric=False)
        group, degrees = _grading_from_json(doc.get("grading"), dim)
        inv = None
        if "involution" in doc:
            rows = _rows_from_json(field, doc["involution"], dim,
                                   "involution")
            if len(rows) != dim:
                raise ParseError("involution matrix needs one row per "
                                 "basis element")
            inv = tuple(rows)
        alg = AssocAlgebra(field, names, table, group, degrees,
                           involution=inv)
    elif kind == "jordan_pair":
        b = doc.get("basis")
        if not (isinstance(b, list) and len(b) == 2):
            raise ParseError("pair basis is a list of two name lists")
        names_p = name_list(b[0], "plus basis")
        names_m = name_list(b[1], "minus basis")
        t = doc.get("table")
        if not (isinstance(t, dict) and set(t) <= {"plus", "minus"}):
            raise ParseError("pair table has \"plus\" and \"minus\" parts")
        tp = _trilinear_from_json(field, t.get("plus", []),
                                  len(names_p), len(names_m), "table plus")
        tm = _trilinear_from_json(field, t.get("minus", []),
                                  len(names_m), len(names_p), "table minus")
        alg = JordanPair(field, names_p, names_m, tp, tm)
    elif kind == "jordan_triple":
        names = name_list(doc.get("basis"))
        table = _trilinear_from_json(field, doc.get("table", []),
                                     len(names), len(names))
        alg = JordanTriple(field, names, table)
    else:
        names = name_list(doc.get("basis"))
        table = _bilinear_from_json(field, doc.get("table", []),
                                    len(names), symmetric=True)
        alg = JordanAlgebra(field, names, table)

    subspace = embedding = None
    if "subalgebra" in doc:
        if kind not in ("lie", "assoc"):
            raise ParseError("subalgebra only applies to lie/assoc files")
        rows = _rows_from_json(field, doc["subalgebra"], len(alg.names),
                               "subalgebra")
        subspace = span(field, len(alg.names), rows)
        if kind == "lie":
            # raises ValidationError unless it is closed, and graded when
            # the grading is nontrivial
            embedding = QuotientEmbedding(alg, subspace)
    if "subpair" in doc:
        if kind != "jordan_pair":
            raise ParseError("subpair only applies to jordan_pair files")
        sp = doc["subpair"]
        if not isinstance(sp, dict):
            raise ParseError("subpair must be an object with \"plus\" and "
                             "\"minus\" rows")
        pr = _rows_from_json(field, sp.get("plus", []), alg.dim_plus,
                             "subpair plus")
        mr = _rows_from_json(field, sp.get("minus", []), alg.dim_minus,
                             "subpair minus")
        subspace = SubPair(span(field, alg.dim_plus, pr),
                           span(field, alg.dim_minus, mr))
        # raises ValidationError unless it is closed
        embedding = PairEmbedding(alg, subspace)
    return AlgebraFile(kind, alg, subspace, embedding)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())
