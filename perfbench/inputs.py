"""Seeded inputs for the benchmark: homogeneous basis changes of gallery
objects.

A basis change is a block-diagonal invertible matrix P, one block per
degree, whose row a gives the new basis vector a in gallery coordinates.
Two input classes:

* ``sparse``: each block is monomial (a permutation times nonzero
  scalars), so every structure constant maps to exactly one constant and
  the nonzero count of every table is unchanged.
* ``dense``: each block has small integer entries, rejected until it is
  invertible over the target field.

Seed 0 returns the literal gallery objects.  All arithmetic here is exact
(``fractions.Fraction``); scalars are handed to the gradlie constructors,
which map them into F_p where needed.  Marked subspaces are given in
gallery coordinates and transformed along with the basis (rows @ P^-1).
"""

from __future__ import annotations

import random
from fractions import Fraction

import gradlie
from gradlie import gallery

SPARSE_SCALARS = (1, -1, 2, -2)
DENSE_ENTRIES = (-2, -1, 0, 1, 2)


# -- exact matrix helpers ----------------------------------------------------


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(m):
    """Exact inverse of an invertible matrix, by Gauss-Jordan over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                k = a[r][c]
                a[r] = [x - k * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def determinant(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                k = a[r][c] / a[c][c]
                a[r] = [x - k * y for x, y in zip(a[r], a[c])]
    return det


def vec_mat(v, m):
    """Row vector times matrix, exact."""
    out = [Fraction(0)] * len(m[0])
    for vi, row in zip(v, m):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] += vi * x
    return out


def _unit_mod(det, p):
    """Whether a nonzero rational determinant stays invertible mod p."""
    if det == 0:
        return False
    return p is None or (det.numerator % p != 0
                         and det.denominator % p != 0)


# -- basis changes -----------------------------------------------------------


def _blocks(degrees):
    out = {}
    for i, d in enumerate(degrees):
        out.setdefault(d, []).append(i)
    return [out[d] for d in sorted(out)]


def basis_change(rng, degrees, cls, p):
    """Block-diagonal invertible P over Q, invertible mod p when p is set."""
    n = len(degrees)
    m = [[Fraction(0)] * n for _ in range(n)]
    for block in _blocks(degrees):
        k = len(block)
        if cls == "sparse":
            perm = list(range(k))
            rng.shuffle(perm)
            for a in range(k):
                m[block[a]][block[perm[a]]] = Fraction(
                    rng.choice(SPARSE_SCALARS))
            continue
        if cls != "dense":
            raise ValueError("unknown input class %r" % (cls,))
        while True:
            sub = [[Fraction(rng.choice(DENSE_ENTRIES)) for _ in range(k)]
                   for _ in range(k)]
            if _unit_mod(determinant(sub), p):
                break
        for a in range(k):
            for b in range(k):
                m[block[a]][block[b]] = sub[a][b]
    return m


def _bilinear(table, p_a, p_b, p_out_inv):
    """New table[a][b] = (sum_ij P_a[a][i] P_b[b][j] T[i][j]) @ P_out^-1."""
    na, nb = len(p_a), len(p_b)
    out = []
    for a in range(na):
        row_a = p_a[a]
        acc_a = None
        for i, c in enumerate(row_a):
            if c:
                ti = [[Fraction(x) * c for x in cell] for cell in table[i]]
                acc_a = ti if acc_a is None else [
                    [x + y for x, y in zip(u, v)] for u, v in zip(acc_a, ti)]
        row = []
        for b in range(nb):
            acc = None
            for j, c in enumerate(p_b[b]):
                if c:
                    cell = [x * c for x in acc_a[j]]
                    acc = cell if acc is None else [
                        x + y for x, y in zip(acc, cell)]
            row.append(tuple(vec_mat(acc, p_out_inv)))
        out.append(tuple(row))
    return tuple(out)


def _trilinear(table, p_a, p_b, p_c, p_out_inv):
    """New table[a][b][c] = sum P_a[a][i] P_b[b][j] P_c[c][k] T[i][j][k],
    mapped back through P_out^-1."""
    out = []
    for a in range(len(p_a)):
        folded = None
        for i, c in enumerate(p_a[a]):
            if c:
                ti = [[[Fraction(x) * c for x in cell] for cell in row]
                      for row in table[i]]
                folded = ti if folded is None else [
                    [[x + y for x, y in zip(u, v)] for u, v in zip(r1, r2)]
                    for r1, r2 in zip(folded, ti)]
        out.append(_bilinear(folded, p_b, p_c, p_out_inv))
    return tuple(out)


def nonzeros(table):
    """Nonzero count of a nested table of scalars."""
    if isinstance(table, (tuple, list)):
        return sum(nonzeros(x) for x in table)
    return int(table != 0)


# -- transforms per kind -----------------------------------------------------


def _rows_to_new(field, sub, p_inv):
    """A marked subspace from gallery into new coordinates (rows @ P^-1)."""
    n = len(p_inv)
    return gradlie.span(field, n, [tuple(field.of(x) for x in vec_mat(r, p_inv))
                                   for r in sub.rows])


def _marks_to_new(field, marks, p_inv):
    return {k: _rows_to_new(field, sub, p_inv) for k, sub in marks.items()}


def transform(obj, marks, rng, cls):
    """(new object, new marked subspaces, basis-change matrices).

    The matrices are {"P": ...}, or {"P+": ..., "P-": ...} for a Jordan
    pair, with rows in gallery coordinates, so a vector reported in the
    new basis maps back to the gallery basis as v @ P.
    """
    p = obj.field.p
    f = obj.field
    if isinstance(obj, gradlie.GradedLieAlgebra):
        P = basis_change(rng, obj.degrees, cls, p)
        Pi = inverse(P)
        new = gradlie.GradedLieAlgebra(f, obj.names, _bilinear(obj.table, P, P, Pi),
                                       obj.group, obj.degrees)
        return new, _marks_to_new(f, marks, Pi), {"P": P}
    if isinstance(obj, gradlie.AssocAlgebra):
        P = basis_change(rng, obj.degrees, cls, p)
        Pi = inverse(P)
        inv = None
        if obj.involution is not None:
            # (b'_a)* = sum_i P[a][i] b_i*, read back in the new basis
            inv = tuple(tuple(vec_mat(vec_mat(row, obj.involution), Pi))
                        for row in P)
        new = gradlie.AssocAlgebra(f, obj.names, _bilinear(obj.table, P, P, Pi),
                                   obj.group, obj.degrees, involution=inv)
        return new, _marks_to_new(f, marks, Pi), {"P": P}
    if isinstance(obj, gradlie.JordanPair):
        Pp = basis_change(rng, (0,) * obj.dim_plus, cls, p)
        Pm = basis_change(rng, (0,) * obj.dim_minus, cls, p)
        Ppi, Pmi = inverse(Pp), inverse(Pm)
        new = gradlie.JordanPair(f, obj.names_plus, obj.names_minus,
                                 _trilinear(obj.table_plus, Pp, Pm, Pp, Ppi),
                                 _trilinear(obj.table_minus, Pm, Pp, Pm, Pmi))
        subs = {k: gradlie.SubPair(_rows_to_new(f, sp.plus, Ppi),
                                   _rows_to_new(f, sp.minus, Pmi))
                for k, sp in marks.items()}
        return new, subs, {"P+": Pp, "P-": Pm}
    if isinstance(obj, gradlie.JordanTriple):
        P = basis_change(rng, (0,) * obj.dim, cls, p)
        Pi = inverse(P)
        new = gradlie.JordanTriple(f, obj.names,
                                   _trilinear(obj.table, P, P, P, Pi))
        return new, {}, {"P": P}
    if isinstance(obj, gradlie.JordanAlgebra):
        P = basis_change(rng, (0,) * obj.dim, cls, p)
        Pi = inverse(P)
        new = gradlie.JordanAlgebra(f, obj.names,
                                    _bilinear(obj.table, P, P, Pi))
        return new, {}, {"P": P}
    raise TypeError("no basis change for %r" % type(obj).__name__)


def _tables(obj):
    if isinstance(obj, gradlie.JordanPair):
        return (obj.table_plus, obj.table_minus)
    return (obj.table,)


def _dims(obj):
    if isinstance(obj, gradlie.JordanPair):
        return obj.dims()
    return obj.dim


def check_invariants(old, new, cls):
    """The invariants the generator relies on.  Raises ValueError, so the
    checks also run under ``python -O``."""
    if _dims(old) != _dims(new):
        raise ValueError("basis change altered the dimension")
    if sorted(getattr(old, "degrees", ())) != sorted(getattr(new, "degrees", ())):
        raise ValueError("basis change altered the multiset of degrees")
    if cls == "sparse":
        for t_old, t_new in zip(_tables(old), _tables(new)):
            if nonzeros(t_old) != nonzeros(t_new):
                raise ValueError("monomial basis change altered the "
                                 "nonzero count")


# -- the instances the workloads draw from -----------------------------------


def _identity_change(obj):
    if isinstance(obj, gradlie.JordanPair):
        return {"P+": identity(obj.dim_plus), "P-": identity(obj.dim_minus)}
    return {"P": identity(obj.dim)}


def _coords(field, n, indices):
    """Span of basis vectors, as a marked subspace."""
    return gradlie.span(field, n, [tuple(int(i == j) for j in range(n))
                                   for i in indices])


def _lie(make, **marks):
    """Factory of a Lie instance whose marks are spanned by basis vectors."""
    def build(field):
        alg = make(field)
        return alg, {k: _coords(field, alg.dim, idx) for k, idx in marks.items()}
    return build


def _pmi(field):
    alg = gallery.p_mod_i(field)
    return alg, {"small": gallery.p_mod_i_small(alg),
                 "ix3": _coords(field, alg.dim, [7])}


def _padded(field):
    pair = gallery.pair_padded(field)
    return pair, {"small": gallery.padded_subpair(pair)}


def _plain(make):
    return lambda field: (make(field), {})


# name -> factory(field) -> (gallery object, {mark: subspace in gallery
# coordinates}); questions on one instance share one generated object
INSTANCES = {
    "sl2": _lie(gallery.sl2, full=range(3)),
    "sl2sum": _lie(gallery.sl2sum, first=range(3)),
    "heis3": _lie(gallery.heis3, center=[2]),
    "sl2_heis3": _lie(lambda f: gradlie.direct_sum(gallery.sl2(f),
                                                   gallery.heis3(f))),
    "p_mod_i": _pmi,
    "sl3": _lie(lambda f: gallery.sln_e11(3, f), full=range(8)),
    "sl4": _lie(lambda f: gallery.sln_e11(4, f)),
    "m2": _plain(lambda f: gallery.m_n_transpose(2, f)),
    "m3": _plain(lambda f: gallery.m_n_transpose(3, f)),
    "m4": _plain(lambda f: gallery.m_n_transpose(4, f)),
    "pair_field": _plain(gallery.pair_field),
    "pair_rect12": _plain(lambda f: gallery.pair_rect(1, 2, f)),
    "pair_padded": _padded,
    "triple_2xyz": _plain(gallery.triple_2xyz),
    "jordan_sym2": _plain(gallery.jordan_sym2),
}


def field_of(spec):
    """'Q' or 'F5' -> gradlie field."""
    return gradlie.QQ if spec == "Q" else gradlie.GF(int(spec[1:]))


class Instance:
    """One generated input: the object, its marked subspaces, and the
    basis change that produced it from the gallery object."""

    __slots__ = ("obj", "marks", "change")

    def __init__(self, obj, marks, change):
        self.obj = obj
        self.marks = marks
        self.change = change


def generate(name, field_spec, cls, seed, pass_index=0):
    """The instance ``name`` over ``field_spec`` ('Q' or 'F5') in input
    class ``cls``, drawn from (seed, pass_index).

    Seed 0 gives the literal gallery object in both classes."""
    obj, marks = INSTANCES[name](field_of(field_spec))
    if seed == 0:
        return Instance(obj, marks, _identity_change(obj))
    rng = random.Random("%d:%d:%s:%s:%s" % (seed, pass_index, cls, name,
                                            field_spec))
    new, new_marks, change = transform(obj, marks, rng, cls)
    check_invariants(obj, new, cls)
    return Instance(new, new_marks, change)
