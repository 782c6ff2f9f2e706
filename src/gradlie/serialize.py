"""Algebra files: a canonical JSON exchange format.

One file holds one algebra (Lie, associative, Jordan pair, Jordan triple,
or Jordan algebra), its scalars, an optional grading, an optional
involution, and an optional distinguished subalgebra or subpair that
downstream quotient checks run against.  Scalars are written as exact
"num" or "num/den" strings.  Every table is written from the algebra's
cell tree (tables.cells) and read back into the nested table its
constructor freezes, by one encoder and one decoder whatever the kind.
Serialization is canonical: fixed key order, two-space indent, trailing
newline; equal objects produce equal bytes.

The class of each kind, and the embeddings that check a marked subspace,
are imported when a file of that kind is first read or written: reading
a Lie file loads no Jordan, associative or derivations module.
"""

from __future__ import annotations

import json
import operator
import sys

from .errors import ParseError
from .lie import GradingGroup
from .linalg import Subspace, span
from .scalars import Field
from .tables import cells

# the module and class of each kind of algebra
_CLASSES = {"lie": ("lie", "GradedLieAlgebra"),
            "assoc": ("assoc", "AssocAlgebra"),
            "jordan_pair": ("jordan", "JordanPair"),
            "jordan_triple": ("jordan", "JordanTriple"),
            "jordan_algebra": ("jordan", "JordanAlgebra")}

# the kinds whose table lists one cell of each pair (i, j), (j, i): the
# rule the listed (i, j) meet, its test, and whether the cell (j, i) is
# the negated cell (i, j) (else it is equal)
_HALVES = {"lie": ("i < j", operator.lt, True),
           "jordan_algebra": ("i <= j", operator.le, False)}


class AlgebraFile:
    """A parsed file: its kind, its algebra, the marked Subspace (lie,
    assoc) or SubPair (jordan_pair), and the QuotientEmbedding (lie) or
    PairEmbedding (jordan_pair) built to check that mark on loading."""

    __slots__ = ("kind", "algebra", "subspace", "embedding")

    def __init__(self, kind, algebra, subspace=None, embedding=None):
        self.kind = kind
        self.algebra = algebra
        self.subspace = subspace
        self.embedding = embedding

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


# -- sparse tables -----------------------------------------------------------


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
            raise ParseError("table cell index %d out of range" % k)
        v[k] = _scalar(field, s, "table cell")
    return v


def rows_to_json(field, rows):
    """A matrix of scalars as JSON: one list of scalar strings per row."""
    return [[field.format(c) for c in row] for row in rows]


def _rows_from_json(field, obj, ambient, what):
    if not isinstance(obj, list):
        raise ParseError("%s must be a list of rows" % what)
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != ambient:
            raise ParseError("%s rows are lists of %d scalars"
                             % (what, ambient))
        rows.append([_scalar(field, c, what) for c in row])
    return rows


def _table_to_json(field, tree, half=None):
    """The entries [indices..., [[k, scalar], ...]] of the nonzero cells
    of a cell tree, in index order; with half (an entry of _HALVES) only
    the index pairs it stores."""
    return [[*idx, [[k, field.format(c)] for k, c in cell]]
            for idx, cell in cells(tree) if half is None or half[1](*idx)]


def _table_from_json(field, obj, what, shape, half=None):
    """The nested table of the given shape (as freeze takes it) whose
    nonzero cells the sparse entries obj list.  With half (an entry of
    _HALVES) each listed index pair must meet its rule, and the mirror
    cell is filled in."""
    dim = shape[-1]

    def zeros(level):
        if level == len(shape) - 1:
            return (field.zero,) * dim
        return [zeros(level + 1) for _ in range(shape[level])]

    table = zeros(0)
    for *idx, cell in _entries(obj, what, ("i", "j", "l")[:len(shape) - 1]
                               + ("cell",)):
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ParseError("%s index out of range" % what)
        if half is not None and not half[1](*idx):
            raise ParseError("%s stores each product once, %s"
                             % (what, half[0]))
        node = table
        for i in idx[:-1]:
            node = node[i]
        v = node[idx[-1]] = _cell_from_json(field, cell, dim)
        if half is not None:
            i, j = idx
            table[j][i] = tuple(map(field.neg, v)) if half[2] else v
    return table


# -- top level ---------------------------------------------------------------


def _kind(obj):
    """The kind of an algebra object, or None.  An instance implies that
    the module of its class is loaded, so this imports nothing."""
    for kind, (module, name) in _CLASSES.items():
        mod = sys.modules.get("%s.%s" % (__package__, module))
        if mod is not None and isinstance(obj, getattr(mod, name)):
            return kind
    return None


def serialize_algebra(obj, subspace=None):
    """Canonical JSON text for an algebra plus an optional marked
    subalgebra (Subspace) or subpair (SubPair)."""
    kind = _kind(obj)
    if kind is None:
        raise ParseError("cannot serialize %r" % type(obj).__name__)
    f = obj.field
    doc = {"format": "algebra-file", "version": 1, "kind": kind,
           "scalars": _field_to_json(f)}
    if kind == "jordan_pair":
        doc["basis"] = [list(obj.names_plus), list(obj.names_minus)]
        doc["table"] = {"plus": _table_to_json(f, obj.cells[1]),
                        "minus": _table_to_json(f, obj.cells[-1])}
    else:
        doc["basis"] = list(obj.names)
        tree = obj.double.cells[1] if kind == "jordan_triple" else obj.cells
        doc["table"] = _table_to_json(f, tree, _HALVES.get(kind))
    if kind in ("lie", "assoc"):
        doc["grading"] = _grading_to_json(obj.group, obj.degrees)
    if kind == "assoc" and obj.involution is not None:
        doc["involution"] = rows_to_json(f, obj.involution)

    if isinstance(subspace, Subspace):
        doc["subalgebra"] = rows_to_json(f, subspace.rows)
    elif subspace is not None:
        from .jordan import SubPair
        if not isinstance(subspace, SubPair):
            raise ParseError("marked subspace must be a Subspace or SubPair")
        doc["subpair"] = {
            "plus": rows_to_json(f, subspace.plus.rows),
            "minus": rows_to_json(f, subspace.minus.rows),
        }
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
    if not isinstance(kind, str) or kind not in _CLASSES:
        raise ParseError("kind must be one of %s" % (tuple(_CLASSES),))
    field = _field_from_json(doc.get("scalars"))
    if "subalgebra" in doc and "subpair" in doc:
        raise ParseError("a file marks at most one of subalgebra/subpair")

    def name_list(ns, what="basis"):
        if (not isinstance(ns, list) or not ns
                or not all(isinstance(x, str) for x in ns)):
            raise ParseError("%s must be a nonempty list of strings" % what)
        return tuple(ns)

    if kind == "jordan_pair":
        b = doc.get("basis")
        if not (isinstance(b, list) and len(b) == 2):
            raise ParseError("pair basis is a list of two name lists")
        names = (name_list(b[0], "plus basis"),
                 name_list(b[1], "minus basis"))
        t = doc.get("table")
        if not (isinstance(t, dict) and set(t) <= {"plus", "minus"}):
            raise ParseError("pair table has \"plus\" and \"minus\" parts")
        n, m = map(len, names)
        args = names + (
            _table_from_json(field, t.get("plus", []), "table plus",
                             (n, m, n, n)),
            _table_from_json(field, t.get("minus", []), "table minus",
                             (m, n, m, m)))
    else:
        names = name_list(doc.get("basis"))
        n = len(names)
        args = (names, _table_from_json(
            field, doc.get("table", []),
            "lie table" if kind == "lie" else "table",
            (n,) * (4 if kind == "jordan_triple" else 3), _HALVES.get(kind)))
    if kind in ("lie", "assoc"):
        args += _grading_from_json(doc.get("grading"), n)
    if kind == "assoc" and "involution" in doc:
        rows = _rows_from_json(field, doc["involution"], n, "involution")
        if len(rows) != n:
            raise ParseError("involution matrix needs one row per "
                             "basis element")
        args += (rows,)
    module, name = _CLASSES[kind]
    # python -X importtime reports __import__, not importlib.import_module
    alg = getattr(__import__(module, globals(), None, (name,), 1),
                  name)(field, *args)

    subspace = embedding = None
    if "subalgebra" in doc:
        if kind not in ("lie", "assoc"):
            raise ParseError("subalgebra only applies to lie/assoc files")
        rows = _rows_from_json(field, doc["subalgebra"], n, "subalgebra")
        subspace = span(field, n, rows)
        if kind == "lie":
            from .derivations import QuotientEmbedding
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
        pr = _rows_from_json(field, sp.get("plus", []), n, "subpair plus")
        mr = _rows_from_json(field, sp.get("minus", []), m, "subpair minus")
        from .jordan import PairEmbedding, SubPair
        subspace = SubPair(span(field, n, pr), span(field, m, mr))
        # raises ValidationError unless it is closed
        embedding = PairEmbedding(alg, subspace)
    return AlgebraFile(kind, alg, subspace, embedding)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())
