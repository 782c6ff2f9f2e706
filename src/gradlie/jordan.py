"""Jordan pairs, triples, and algebras; TKK; pairs of quotients.

Axioms are verified as polynomial identities in formal coordinates: a
multilinear product turns each side of an identity into a vector of
polynomials in the coordinates of the formal arguments, and comparing
coefficients monomial by monomial is exactly the fully multilinearized
identity family, which is what validity under all scalar extensions
means.  That comparison is the proof, over Q and over F_p alike; no
point evaluation cross-checks it at runtime.

The polynomials have int coefficients.  Over Q both tables of a pair are
multiplied by one lcm d of their denominators (tables.integral_trees), and
Q_x y = half {x, y, x} drops its half.  The three pair identities have
degree 2, 2 and 3 in the tables and carry the same power of half on both
sides; the Jordan algebra identity has degree 3 on both sides.  So each
scaled side is the true one times the same nonzero factor, and the
coefficients are compared exactly, reduced mod p only there.

The quotients decider works through one canonical candidate per element
q of the big pair: the set of elements of the small pair satisfying the
absorption conditions at q is a subspace S(q), and the largest ideal
D(q) inside it is a greatest fixpoint of linear shrinking.  Any witness
ideal for q sits inside D(q), annihilators only grow when ideals
shrink, and the nonvanishing requirement only improves when the ideal
grows, so q has a witness ideal exactly when D(q) itself works.

Semiprimeness and strong nondegeneracy of a pair are read off TKK(V),
over Q and F_p alike: both take their candidates from the absolute zero
divisors of TKK(V) of degree 1 or -1 (_divisor_candidates), and no pair
ideal is scanned.  TKK(V) is built once per pair and memoized on it
(JordanPair.memo), like every result that analysis, enumeration and
derivations memoize on an algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AxiomViolation,
    BadCharacteristic,
    NotAPairIdeal,
    NotJordanThreeGraded,
    NotSemiprime,
    NotStronglyNondegenerate,
    ValidationError,
)
from .lie import GradedLieAlgebra, GradingGroup
from .linalg import (
    Subspace,
    closure,
    mat_mul,
    mat_vec,
    preimage,
    rank,
    solve_linear,
    span,
)
from .tables import (
    bilinear,
    cell_tree,
    freeze,
    integral_trees,
    require_preserved,
    trilinear,
)


# ---------------------------------------------------------------------------
# formal polynomial arithmetic: int coefficients; a monomial is an int
# holding the exponent of variable v in bits _EXP * v and up, so that
# multiplying monomials adds them (the identities checked here have
# degree at most 4 in any one variable, far below 2^_EXP)

_EXP = 8


def _pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb
    return out


def _formal(first, dim):
    """The vector of variables first, ..., first + dim - 1."""
    return [{1 << (_EXP * (first + i)): 1} for i in range(dim)]


def _poly_product(tree, args, out_dim):
    """The multilinear product of vectors of int polynomials over a cell
    tree scaled to ints (tables.integral_trees), with one vector per key
    level."""
    out = [{} for _ in range(out_dim)]

    def walk(node, mono, rest):
        if not rest:
            for k, c in node:
                acc = out[k]
                for m, v in mono.items():
                    acc[m] = acc.get(m, 0) + v * c
            return
        for i, sub in node.items():
            poly = rest[0][i]
            if poly:
                walk(sub, _pmul(mono, poly), rest[1:])

    walk(tree, {0: 1}, args)
    return [{m: v for m, v in acc.items() if v} for acc in out]


def _agree(f, lhs, rhs):
    """Whether two vectors of int polynomials are equal in the field,
    coefficient by coefficient."""
    for a, b in zip(lhs, rhs):
        diff = dict(a)
        for m, c in b.items():
            diff[m] = diff.get(m, 0) - c
        if not f.vanishes(diff.values()):
            return False
    return True


def _basis(field, n):
    return [tuple(field.one if i == j else field.zero for i in range(n))
            for j in range(n)]


def _trilinear_table(n, m, g):
    """The table with table[i][j][l] = g(i, j, l), i and l below n, j
    below m."""
    return tuple(tuple(tuple(g(i, j, l) for l in range(n)) for j in range(m))
                 for i in range(n))


def _cut(f, idx, v, message):
    """The coordinates of v on the block idx; raises ValidationError with
    the message when v has a nonzero coordinate outside the block."""
    if any(c != f.zero for pos, c in enumerate(v) if pos not in idx):
        raise ValidationError(message)
    return tuple(v[i] for i in idx)


# ---------------------------------------------------------------------------
# Jordan pairs


class JordanPair:
    """A pair of modules with trilinear products {x,y,z} on each side.

    table_plus[i][j][l] gives {b+_i, b-_j, b+_l} in plus coordinates, and
    table_minus the mirror; cells[sign] is the cell tree of the sign
    side.  Requires invertible 2 and 3 (so F_2 and F_3 are rejected);
    Q_x y = half {x,y,x}.  memo holds TKK(V) once built; it takes no part
    in equality.
    """

    __slots__ = ("field", "names_plus", "names_minus", "table_plus",
                 "table_minus", "cells", "half", "memo", "_key")

    def __init__(self, field, names_plus, names_minus, table_plus,
                 table_minus):
        if field.p in (2, 3):
            raise BadCharacteristic(
                "Jordan systems need invertible 2 and 3; p = %d" % field.p)
        self.field = field
        self.names_plus = tuple(names_plus)
        self.names_minus = tuple(names_minus)
        n, m = len(self.names_plus), len(self.names_minus)
        self.table_plus = freeze(field, table_plus, (n, m, n, n))
        self.table_minus = freeze(field, table_minus, (m, n, m, m))
        self.cells = {1: cell_tree(self.table_plus, 3),
                      -1: cell_tree(self.table_minus, 3)}
        self.half = field.inv(field.of(2))
        self.memo = {}
        self._key = (field.p, self.names_plus, self.names_minus,
                     self.table_plus, self.table_minus)
        self._validate()

    def __eq__(self, other):
        return isinstance(other, JordanPair) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def dim_plus(self):
        return len(self.names_plus)

    @property
    def dim_minus(self):
        return len(self.names_minus)

    def dims(self):
        return (self.dim_plus, self.dim_minus)

    def table(self, sign):
        return self.table_plus if sign > 0 else self.table_minus

    def dim(self, sign):
        return self.dim_plus if sign > 0 else self.dim_minus

    def names(self, sign):
        return self.names_plus if sign > 0 else self.names_minus

    def zero(self, sign):
        return (self.field.zero,) * self.dim(sign)

    def triple(self, sign, x, y, z):
        """{x, y, z} with x, z on the sign side and y opposite."""
        return trilinear(self.field, self.cells[sign], x, y, z,
                         self.dim(sign))

    def d_matrix(self, sign, x, y):
        """Matrix of D_{x,y} on the sign side (row convention v @ M)."""
        return tuple(self.triple(sign, x, y, e)
                     for e in _basis(self.field, self.dim(sign)))

    def q_matrix(self, sign, x):
        """Matrix of Q_x: row j is Q_x b_j."""
        return tuple(self.q_apply(sign, x, e)
                     for e in _basis(self.field, self.dim(-sign)))

    def q_apply(self, sign, x, y):
        f = self.field
        return tuple(f.of(self.half * c) for c in self.triple(sign, x, y, x))

    def _validate(self):
        for sign in (1, -1):
            t = self.table(sign)
            n, m = self.dim(sign), self.dim(-sign)
            for i in range(n):
                for j in range(m):
                    for l in range(n):
                        if t[i][j][l] != t[l][j][i]:
                            raise AxiomViolation(
                                "outer symmetry",
                                " at (%d, %d, %d), sign %+d" % (i, j, l, sign))
        self._check_axioms_formal()

    def _check_axioms_formal(self):
        f = self.field
        _d, trees = integral_trees(f, (self.cells[1], self.cells[-1]))
        trees = dict(zip((1, -1), trees))

        def tri(sign, a, b, c):
            return _poly_product(trees[sign], (a, b, c), self.dim(sign))

        # Q_a b is half of {a, b, a}; q leaves the half out, which each
        # identity below carries to the same power on both sides
        def q(sign, a, b):
            return tri(sign, a, b, a)

        for sign in (1, -1):
            n, m = self.dim(sign), self.dim(-sign)
            x, y = _formal(0, n), _formal(n, m)
            z, w = _formal(n + m, n), _formal(2 * n + m, m)
            qxw = q(sign, x, w)
            if not _agree(f, tri(sign, x, y, qxw),
                          q(sign, x, tri(-sign, y, x, w))):
                raise AxiomViolation("D_{x,y} Q_x = Q_x D_{y,x}",
                                     " on the %+d side" % sign)
            qxy = q(sign, x, y)
            if not _agree(f, tri(sign, qxy, y, z),
                          tri(sign, x, q(-sign, y, x), z)):
                raise AxiomViolation("D_{Q_x y, y} = D_{x, Q_y x}",
                                     " on the %+d side" % sign)
            if not _agree(f, q(sign, qxy, w), q(sign, x, q(-sign, y, qxw))):
                raise AxiomViolation("Q_{Q_x y} = Q_x Q_y Q_x",
                                     " on the %+d side" % sign)


# ---------------------------------------------------------------------------
# subpairs and annihilators


@dataclass(frozen=True)
class SubPair:
    plus: Subspace
    minus: Subspace

    def part(self, sign):
        return self.plus if sign > 0 else self.minus

    def dims(self):
        return (self.plus.dim, self.minus.dim)

    def is_zero(self):
        return self.plus.is_zero() and self.minus.is_zero()

    def contains(self, other):
        return (self.plus.contains_space(other.plus)
                and self.minus.contains_space(other.minus))

    def intersect(self, other):
        return SubPair(self.plus.intersect(other.plus),
                       self.minus.intersect(other.minus))


def full_subpair(pair):
    f = pair.field
    return SubPair(Subspace.full(f, pair.dim_plus),
                   Subspace.full(f, pair.dim_minus))


def zero_subpair(pair):
    f = pair.field
    return SubPair(Subspace.zero(f, pair.dim_plus),
                   Subspace.zero(f, pair.dim_minus))


def is_pair_ideal(pair, sub):
    """The four absorption families of a pair ideal, checked on bases."""
    f = pair.field
    for sign in (1, -1):
        mine, other = sub.part(sign), sub.part(-sign)
        vs_same = _basis(f, pair.dim(sign))
        vs_opp = _basis(f, pair.dim(-sign))
        for a in mine.rows:
            for y in vs_opp:
                for v in vs_same:
                    if not mine.contains(pair.triple(sign, a, y, v)):
                        return False
        for b in other.rows:
            for v in vs_same:
                for w in vs_same:
                    if not mine.contains(pair.triple(sign, v, b, w)):
                        return False
    return True


def pair_ideal_generated(pair, sub):
    """Smallest pair ideal containing the given subpair.

    A closure on W+ (+) W-: the generators and all their images lie on a
    single side, so the result is a direct sum, and its echelon basis is
    the union of the echelon bases of its two parts.
    """
    f = pair.field
    n, m = pair.dim_plus, pair.dim_minus
    basis = {1: _basis(f, n), -1: _basis(f, m)}

    def joined(sign, v):
        if sign > 0:
            return tuple(v) + pair.zero(-1)
        return pair.zero(1) + tuple(v)

    def images(vec):
        out = []
        for sign, part in ((1, vec[:n]), (-1, vec[n:])):
            if not any(part):
                continue
            same, opp = basis[sign], basis[-sign]
            # {a, W-opp, W-same} stays on the side of a
            out += [joined(sign, pair.triple(sign, part, y, v))
                    for y in opp for v in same]
            # {W-opp, a, W-opp} lands on the other side
            out += [joined(-sign, pair.triple(-sign, v, part, w))
                    for v in opp for w in opp]
        return out

    start = span(f, n + m, [joined(1, r) for r in sub.plus.rows]
                 + [joined(-1, r) for r in sub.minus.rows])
    rows = closure(start, images).rows
    plus = [r[:n] for r in rows if any(r[:n])]
    minus = [r[n:] for r in rows if not any(r[:n])]
    return SubPair(Subspace(f, n, plus, _canonical=True),
                   Subspace(f, m, minus, _canonical=True))


def pair_annihilator(pair, sub):
    """Ann of a subpair: per sign, z killing the three product families
    {z, X-opp, V-same}, {z, V-opp, X-same}, {V-opp, z, X-opp}."""
    f = pair.field
    parts = {}
    for sign in (1, -1):
        n, m = pair.dim(sign), pair.dim(-sign)
        x_opp = sub.part(-sign).rows
        x_same = sub.part(sign).rows
        es = _basis(f, n)
        eo = _basis(f, m)
        into_same = [[pair.triple(sign, e, t, v) for e in es]
                     for t in x_opp for v in es]
        into_same += [[pair.triple(sign, e, y, s) for e in es]
                      for y in eo for s in x_same]
        into_opp = [[pair.triple(-sign, y, e, t) for e in es]
                    for y in eo for t in x_opp]
        kills_same = preimage(Subspace.zero(f, n), into_same)
        parts[sign] = preimage(Subspace.zero(f, m), into_opp,
                               within=kills_same)
    return SubPair(parts[1], parts[-1])


# ---------------------------------------------------------------------------
# inner derivations and TKK


@dataclass
class InnerDerivationSpace:
    pair: object
    basis: tuple       # flattened (plus-block | minus-block) rows
    subspace: object   # the same rows as a canonical Subspace

    @property
    def dim(self):
        return len(self.basis)

    def plus_matrix(self, flat):
        n = self.pair.dim_plus
        return tuple(tuple(flat[r * n + c] for c in range(n))
                     for r in range(n))

    def minus_matrix(self, flat):
        n, m = self.pair.dim_plus, self.pair.dim_minus
        off = n * n
        return tuple(tuple(flat[off + r * m + c] for c in range(m))
                     for r in range(m))


def _delta_flat(pair, x, y):
    """delta(x, y) = (D_{x,y}, -D_{y,x}) flattened row-major."""
    f = pair.field
    dp = pair.d_matrix(1, x, y)
    dm = pair.d_matrix(-1, y, x)
    flat = []
    for row in dp:
        flat.extend(row)
    for row in dm:
        flat.extend(f.neg(c) for c in row)
    return tuple(flat)


def inner_derivations(pair):
    f = pair.field
    n, m = pair.dim_plus, pair.dim_minus
    rows = []
    for x in _basis(f, n):
        for y in _basis(f, m):
            rows.append(_delta_flat(pair, x, y))
    sub = span(f, n * n + m * m, rows)
    return InnerDerivationSpace(pair, sub.rows, sub)


@dataclass
class TkkData:
    algebra: object
    ider: object
    pair: object

    @property
    def dim_plus(self):
        return self.pair.dim_plus

    @property
    def dim_minus(self):
        return self.pair.dim_minus

    def embed_plus(self, x):
        f = self.algebra.field
        return tuple(x) + (f.zero,) * (self.ider.dim + self.pair.dim_minus)

    def embed_minus(self, y):
        f = self.algebra.field
        return (f.zero,) * (self.pair.dim_plus + self.ider.dim) + tuple(y)

    def embed_delta(self, x, y):
        f = self.algebra.field
        flat = _delta_flat(self.pair, x, y)
        co = self.ider.subspace.coords(flat)
        if co is None:
            raise ValidationError("inner derivation left its own span")
        return (f.zero,) * self.pair.dim_plus + tuple(co) + \
            (f.zero,) * self.pair.dim_minus

    def plus_part(self, v):
        return tuple(v[:self.pair.dim_plus])

    def minus_part(self, v):
        return tuple(v[self.pair.dim_plus + self.ider.dim:])


def tkk_data(pair):
    got = pair.memo.get("tkk")
    if got is not None:
        return got
    f = pair.field
    n, m = pair.dim_plus, pair.dim_minus
    ider = inner_derivations(pair)
    d = ider.dim
    dim = n + d + m
    names = tuple(nm + "+" for nm in pair.names_plus) + \
        tuple("d%d" % i for i in range(d)) + \
        tuple(nm + "-" for nm in pair.names_minus)
    degrees = (1,) * n + (0,) * d + (-1,) * m

    plus_mats = [ider.plus_matrix(flat) for flat in ider.basis]
    minus_mats = [ider.minus_matrix(flat) for flat in ider.basis]

    def delta_coords(x, y):
        co = ider.subspace.coords(_delta_flat(pair, x, y))
        if co is None:
            raise ValidationError("inner derivation left its own span")
        return tuple(co)

    zero = (f.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]

    def put(i, j, vec):
        table[i][j] = tuple(vec)
        table[j][i] = tuple(f.neg(c) for c in vec)

    ep = _basis(f, n)
    em = _basis(f, m)
    # [x+, y-] = delta(x, y)
    for i in range(n):
        for j in range(m):
            co = delta_coords(ep[i], em[j])
            put(i, n + d + j,
                (f.zero,) * n + co + (f.zero,) * m)
    # [gamma, x+] = gamma_plus x ; [gamma, y-] = gamma_minus y
    for a in range(d):
        for i in range(n):
            img = mat_vec(ep[i], plus_mats[a], f)
            put(n + a, i, tuple(img) + (f.zero,) * (d + m))
        for j in range(m):
            img = mat_vec(em[j], minus_mats[a], f)
            put(n + a, n + d + j, (f.zero,) * (n + d) + tuple(img))
    # [gamma, mu] componentwise operator commutator; with the row
    # convention (v @ M) the composite gamma o mu has matrix Mmu @ Mgamma
    for a in range(d):
        for b in range(a + 1, d):
            cp = _mat_comm(plus_mats[b], plus_mats[a], f)
            cm = _mat_comm(minus_mats[b], minus_mats[a], f)
            flat = []
            for row in cp:
                flat.extend(row)
            for row in cm:
                flat.extend(row)
            co = ider.subspace.coords(tuple(flat))
            if co is None:
                raise ValidationError("derivation commutator left the span")
            put(n + a, n + b, (f.zero,) * n + tuple(co) + (f.zero,) * m)

    alg = GradedLieAlgebra(f, names, tuple(tuple(r) for r in table),
                           GradingGroup.integers(), degrees)
    data = pair.memo["tkk"] = TkkData(alg, ider, pair)
    return data


def _mat_comm(a, b, f):
    ab = mat_mul(a, b, f)
    ba = mat_mul(b, a, f)
    return tuple(tuple(f.of(x - y) for x, y in zip(r1, r2))
                 for r1, r2 in zip(ab, ba))


def tkk(pair):
    """The 3-graded Lie algebra on V+ (+) IDer(V) (+) V-.

    The bracket follows [x+g+x-, y+m+y-] = (g y+ - m x+) (+) ([g,m] +
    delta(x+,y-) - delta(y+,x-)) (+) (g y- - m x-); full Jacobi validation
    runs in the Lie constructor, and a failure there means this builder is
    wrong, not the data.
    """
    return tkk_data(pair).algebra


def tkk_ideal(pair, sub):
    """The graded ideal I+ (+) ([I+,V-]+[V+,I-]) (+) I- of tkk(pair)."""
    if not is_pair_ideal(pair, sub):
        raise NotAPairIdeal("the subpair is not an ideal")
    data = tkk_data(pair)
    f = pair.field
    rows = []
    for r in sub.plus.rows:
        rows.append(data.embed_plus(r))
    for r in sub.minus.rows:
        rows.append(data.embed_minus(r))
    for r in sub.plus.rows:
        for y in _basis(f, pair.dim_minus):
            rows.append(data.embed_delta(r, y))
    for x in _basis(f, pair.dim_plus):
        for r in sub.minus.rows:
            rows.append(data.embed_delta(x, r))
    return span(f, data.algebra.dim, rows)


def pair_from_lie_blocks(alg, plus_idx, minus_idx, names_plus=None,
                         names_minus=None):
    """Jordan pair on two coordinate blocks of a Lie algebra via
    {x,y,z} = [[x,y],z]."""
    f = alg.field
    e = alg.basis_vector

    def build(idx_a, idx_b):
        inner = [[alg.table[i][j] for j in idx_b] for i in idx_a]

        def g(i, j, l):
            return _cut(f, idx_a, alg.bracket(inner[i][j], e(idx_a[l])),
                        "triple product left its block")

        return _trilinear_table(len(idx_a), len(idx_b), g)

    np_ = names_plus or tuple(alg.names[i] for i in plus_idx)
    nm_ = names_minus or tuple(alg.names[i] for i in minus_idx)
    return JordanPair(f, np_, nm_, build(plus_idx, minus_idx),
                      build(minus_idx, plus_idx))


@dataclass
class AssociatedPair:
    pair: object
    c_v: object          # Z(L) cap L_0, as a subspace of L
    tkk_algebra: object
    map_rows: tuple      # dim L x dim TKK, the canonical quotient map
    plus_idx: tuple
    minus_idx: tuple


def associated_pair(alg, budget=None):
    """The Jordan pair (L_1, L_-1) of a Jordan 3-graded Lie algebra.

    Requires [L_1, L_-1] = L_0 and invertible 2.  Also builds the map
    L -> TKK(pair) (identity on the outer components, [x, y] to
    delta(x, y) in the middle) and verifies it is a surjective graded
    homomorphism with kernel Z(L) cap L_0, which realizes the canonical
    isomorphism L / (Z(L) cap L_0) = TKK(pair).  Nothing here scans
    points, so budget is accepted and never consulted.
    """
    from .analysis import require_three_graded

    require_three_graded(alg)
    f = alg.field
    if f.p == 2:
        raise BadCharacteristic("associated pairs need invertible 2")
    plus_idx = tuple(i for i in range(alg.dim) if alg.degrees[i] == 1)
    minus_idx = tuple(i for i in range(alg.dim) if alg.degrees[i] == -1)
    l0 = alg.degree_component(0)
    lplus = alg.degree_component(1)
    lminus = alg.degree_component(-1)
    if alg.bracket_space(lplus, lminus) != l0:
        raise NotJordanThreeGraded("[L_1, L_-1] is a proper part of L_0")

    pair = pair_from_lie_blocks(alg, plus_idx, minus_idx)
    c_v = alg.center().intersect(l0)

    data = tkk_data(pair)
    t = data.algebra
    n, m = len(plus_idx), len(minus_idx)
    ep, em = _basis(f, n), _basis(f, m)

    # bracket pairs [e_i^+, e_j^-] span L_0; solve for preimages of the
    # standard degree-0 coordinates
    pair_list = [(i, j) for i in range(n) for j in range(m)]
    bracket_vecs = []
    for (i, j) in pair_list:
        ei = alg.basis_vector(plus_idx[i])
        ej = alg.basis_vector(minus_idx[j])
        bracket_vecs.append(alg.bracket(ei, ej))

    map_rows = []
    for k in range(alg.dim):
        deg = alg.degrees[k]
        if deg == 1:
            pos = plus_idx.index(k)
            row = data.embed_plus(ep[pos])
        elif deg == -1:
            pos = minus_idx.index(k)
            row = data.embed_minus(em[pos])
        else:
            target = alg.basis_vector(k)
            eqs = tuple(tuple(bracket_vecs[p][c] for p in range(len(pair_list)))
                        for c in range(alg.dim))
            sol = solve_linear(f, eqs, target, nunknowns=len(pair_list))
            if sol is None:
                raise NotJordanThreeGraded(
                    "degree-0 coordinate outside [L_1, L_-1]")
            acc = [f.zero] * t.dim
            for c, (i, j) in zip(sol, pair_list):
                if c != f.zero:
                    dv = data.embed_delta(ep[i], em[j])
                    acc = [f.of(a + c * b) for a, b in zip(acc, dv)]
            row = tuple(acc)
        map_rows.append(tuple(row))
    map_rows = tuple(map_rows)

    # verify: homomorphism, kernel = C_V, surjective
    require_preserved(f, alg.table, (map_rows, map_rows), map_rows,
                      t.bracket, "canonical map fails to preserve the bracket")
    if preimage(t.zero_space(), [map_rows]) != c_v:
        raise ValidationError("kernel of the canonical map differs from "
                              "Z(L) cap L_0")
    if rank(f, map_rows) != t.dim:
        raise ValidationError("canonical map is not onto the TKK algebra")

    return AssociatedPair(pair, c_v, t, map_rows, plus_idx, minus_idx)


# ---------------------------------------------------------------------------
# semiprimeness / nondegeneracy


def _divisor_candidates(pair, budget):
    """The (sign, x), x a nonzero absolute zero divisor of TKK(V) of
    degree sign = 1 or -1, side V+ first.

    For x in V^sign, (ad x)^2 is -2 Q_x on V^-sign and 0 on the other two
    components, so these x are exactly the absolute zero divisors of the
    pair.  For p != 2 they lie in the Killing radical K of TKK(V), and so
    does every abelian ideal, in any characteristic.  Over Q, x runs over
    the canonical basis of A ∩ V^sign, A the abelian graded ideal that
    abelian_ideal_witness reads off K (none when K = 0).  Over F_p, x runs
    over the points of K ∩ V^sign with (ad x)^2 = 0 in the order of a
    scan of V^sign, whose projective points are charged to the budget
    before that side is walked.
    """
    from .analysis import abelian_ideal_witness, killing_radical
    from .enumeration import (check_budget, projective_count,
                              zero_divisor_points)

    f = pair.field
    hull = None
    for sign in (1, -1):
        if f.p is not None:
            check_budget(projective_count(f.p, pair.dim(sign)), budget)
        if hull is None:
            t = tkk(pair)
            hull = (killing_radical(t) if f.p is not None
                    else abelian_ideal_witness(t) or t.zero_space())
        comp = t.degree_component(sign)
        xs = (hull.intersect(comp).rows if f.p is None
              else zero_divisor_points(t, hull, comp))
        for x in xs:
            yield sign, x


def pair_absolute_zero_divisor(pair, budget=None):
    """A (sign, vector) with Q_x = 0, x != 0, or None: the first of
    _divisor_candidates, in the coordinates of V^sign.  Complete over Q
    too: K = 0 leaves none (a semisimple Lie algebra has none), and A
    meets V+ (+) V- because IDer(V) acts faithfully."""
    for sign, x in _divisor_candidates(pair, budget):
        data = tkk_data(pair)
        return sign, data.plus_part(x) if sign > 0 else data.minus_part(x)
    return None


def pair_is_strongly_nondegenerate(pair, budget=None):
    return pair_absolute_zero_divisor(pair, budget=budget) is None


def pair_semiprime_witness(pair, budget=None):
    """A nonzero pair ideal I with Q_I I = 0, or None: the outer parts of
    the TKK ideal generated by the first of _divisor_candidates whose
    ideal is abelian.

    The outer parts of a graded ideal form a pair ideal, and [I, I] = 0
    kills the products {a, b, c} = [[a, b], c] inside it.  Conversely, a
    tight 3-graded Lie algebra (L_0 = [L_1, L_-1], and no nonzero element
    of L_0 kills L_1 + L_-1; TKK(V) is tight by construction) with 2
    invertible is semiprime exactly when its Jordan pair is (Garcia and
    Neher, "Tits-Kantor-Koecher superalgebras of Jordan superpairs
    covered by grids", Comm. Algebra 31, 2003).  The top components of an
    abelian ideal span an abelian graded one, so a pair that is not
    semiprime has an abelian graded TKK ideal; it lies in K and meets
    V+ (+) V-, so it holds a candidate, whose ideal lies in it and is
    abelian.
    """
    f = pair.field
    for _sign, x in _divisor_candidates(pair, budget):
        data = tkk_data(pair)
        t = data.algebra
        ideal = t.ideal_generated([x])
        if not t.bracket_space(ideal, ideal).is_zero():
            continue
        cand = SubPair(
            span(f, pair.dim_plus, [data.plus_part(r) for r in ideal.rows]),
            span(f, pair.dim_minus, [data.minus_part(r) for r in ideal.rows]))
        if not is_pair_ideal(pair, cand):
            raise ValidationError("abelian witness failed ideal closure")
        return cand
    return None


def distinct_principal_pair_ideals(pair, budget=None):
    """All distinct ideals generated by a single element (F_p only); the
    oracle the tests check the pair predicates against."""
    from .enumeration import iter_projective, check_budget, projective_count

    f = pair.field
    if f.p is None:
        raise ValidationError("principal enumeration is the F_p path")
    check_budget(sum(projective_count(f.p, pair.dim(s)) for s in (1, -1)),
                 budget)
    seen = {}
    for sign in (1, -1):
        n = pair.dim(sign)
        for x in iter_projective(f.p, _basis(f, n)):
            gen = span(f, n, [x])
            other = Subspace.zero(f, pair.dim(-sign))
            sub = SubPair(gen, other) if sign > 0 else SubPair(other, gen)
            ideal = pair_ideal_generated(pair, sub)
            key = (ideal.plus.rows, ideal.minus.rows)
            if key not in seen and not ideal.is_zero():
                seen[key] = ideal
    return tuple(seen.values())


def pair_is_semiprime(pair, budget=None):
    return pair_semiprime_witness(pair, budget=budget) is None


# ---------------------------------------------------------------------------
# pairs of quotients


class PairEmbedding:
    """A subpair V of a Jordan pair W, with the induced small pair."""

    __slots__ = ("big", "sub", "small", "plus_rows", "minus_rows")

    def __init__(self, big, sub):
        for sign in (1, -1):
            mine, other = sub.part(sign), sub.part(-sign)
            for a in mine.rows:
                for y in other.rows:
                    for v in mine.rows:
                        if not mine.contains(big.triple(sign, a, y, v)):
                            raise ValidationError(
                                "subspaces are not closed under the "
                                "triple products")
        self.big = big
        self.sub = sub
        self.plus_rows = sub.plus.rows
        self.minus_rows = sub.minus.rows
        self.small = self._restrict()

    def _restrict(self):
        f = self.big.field
        np_, nm_ = self.sub.plus.dim, self.sub.minus.dim

        def build(sign):
            mine, other = self.sub.part(sign), self.sub.part(-sign)

            def g(i, j, l):
                co = mine.coords(self.big.triple(
                    sign, mine.rows[i], other.rows[j], mine.rows[l]))
                if co is None:
                    raise ValidationError("triple left the subpair")
                return tuple(co)

            return _trilinear_table(mine.dim, other.dim, g)

        names_p = tuple("v%d" % i for i in range(np_))
        names_m = tuple("w%d" % i for i in range(nm_))
        return JordanPair(f, names_p, names_m, build(1), build(-1))

    def is_reflexive(self):
        return (self.sub.plus.dim == self.big.dim_plus
                and self.sub.minus.dim == self.big.dim_minus)

    def small_subpair_of(self, big_subpair):
        """Convert a subpair given in big coordinates (inside V) to small
        coordinates."""
        f = self.big.field
        pr = [self.sub.plus.coords(r) for r in big_subpair.plus.rows]
        mr = [self.sub.minus.coords(r) for r in big_subpair.minus.rows]
        if any(c is None for c in pr) or any(c is None for c in mr):
            raise ValidationError("subpair is not inside V")
        return SubPair(span(f, self.sub.plus.dim, [tuple(c) for c in pr]),
                       span(f, self.sub.minus.dim, [tuple(c) for c in mr]))


def _absorber_sets(emb, sign, q):
    """S at q: the two subspaces of V collecting the absorption conditions
    of the quotients definition, computed with products of the big pair."""
    big = emb.big
    f = big.field
    v_same = emb.sub.part(sign)
    v_opp = emb.sub.part(-sign)
    basis_same = _basis(f, big.dim(sign))
    basis_opp = _basis(f, big.dim(-sign))

    # t in V-opp with {q, t, V-same} in V-same and {t, q, V-opp} in V-opp
    s_opp = preimage(v_same, [[big.triple(sign, q, e, v) for e in basis_opp]
                              for v in v_same.rows], within=v_opp)
    s_opp = preimage(v_opp, [[big.triple(-sign, e, q, u) for e in basis_opp]
                             for u in v_opp.rows], within=s_opp)

    # s in V-same with {q, V-opp, s} in V-same
    s_same = preimage(v_same, [[big.triple(sign, q, y, e) for e in basis_same]
                               for y in v_opp.rows], within=v_same)
    return s_same, s_opp


def largest_pair_ideal_inside(emb, bound):
    """Greatest pair ideal of V inside the bounding subpair (big coords).

    Shrinks the bound by the linear conditions "products fall back inside"
    until stable; every pair ideal of V inside the bound survives each
    step, so the fixpoint is the largest one.
    """
    big = emb.big
    f = big.field
    cur = bound
    while True:
        nxt = {}
        for sign in (1, -1):
            mine, other = cur.part(sign), cur.part(-sign)
            vs_same = emb.sub.part(sign).rows
            vs_opp = emb.sub.part(-sign).rows
            es = _basis(f, big.dim(sign))
            # x in mine with {x, V-opp, V-same} in mine ...
            res = preimage(mine, [[big.triple(sign, e, y, v) for e in es]
                                  for y in vs_opp for v in vs_same],
                           within=mine)
            # ... and {V-opp, x, V-opp} in the other part
            nxt[sign] = preimage(other,
                                 [[big.triple(-sign, y, e, w) for e in es]
                                  for y in vs_opp for w in vs_opp],
                                 within=res)
        nxt = SubPair(nxt[1], nxt[-1])
        if nxt == cur:
            return cur
        cur = nxt


def _q_verdict_at(emb, sign, q, ideal):
    """Check the annihilator and nonvanishing requirements of the
    definition at q with the candidate ideal (big coords)."""
    big = emb.big
    f = big.field
    small_ideal = emb.small_subpair_of(ideal)
    ann = pair_annihilator(emb.small, small_ideal)
    if not ann.is_zero():
        return False
    v_same = emb.sub.part(sign).rows
    v_opp = emb.sub.part(-sign).rows
    zero_same = big.zero(sign)
    zero_opp = big.zero(-sign)
    for t in ideal.part(-sign).rows:
        for v in v_same:
            if big.triple(sign, q, t, v) != zero_same:
                return True
    for y in v_opp:
        for s in ideal.part(sign).rows:
            if big.triple(sign, q, y, s) != zero_same:
                return True
    for t in ideal.part(-sign).rows:
        for u in v_opp:
            if big.triple(-sign, t, q, u) != zero_opp:
                return True
    return False


def is_pair_of_quotients(emb, budget=None):
    """Decide whether W is a pair of quotients of its semiprime subpair V.

    Per element q the canonical candidate D(q) (largest ideal inside the
    absorption sets) decides exactly.  A certificate ideal I0 inside the
    absorption sets of all basis elements covers every q at once when
    Ann_V(I0) = 0 and no nonzero q kills all three product families with
    I0 (those q form a subspace, so this is one kernel computation per
    sign); the absorption conditions are linear in q, which makes the
    certificate conclusive over any field.  Otherwise F_p elements are
    scanned exhaustively, while over Q failing basis elements give a
    conclusive false and passing ones only a sampled verdict.
    """
    from .derivations import Verdict
    from .enumeration import iter_projective, check_budget, projective_count

    big = emb.big
    f = big.field
    if not pair_is_semiprime(emb.small, budget=budget):
        raise NotSemiprime("the small pair must be semiprime")

    # certificate: one ideal absorbing at every basis element
    bound = SubPair(emb.sub.plus, emb.sub.minus)
    for sign in (1, -1):
        for qe in _basis(f, big.dim(sign)):
            s_same, s_opp = _absorber_sets(emb, sign, qe)
            add = SubPair(s_same, s_opp) if sign > 0 else \
                SubPair(s_opp, s_same)
            bound = bound.intersect(add)
    i0 = largest_pair_ideal_inside(emb, bound)
    if not i0.is_zero():
        small_i0 = emb.small_subpair_of(i0)
        if pair_annihilator(emb.small, small_i0).is_zero():
            ok = True
            for sign in (1, -1):
                if not _nonvanishing_kernel_zero(emb, sign, i0):
                    ok = False
                    break
            if ok:
                return Verdict("true",
                               reason="one ideal absorbs every element and "
                                      "nothing kills it",
                               data={"ideal_dims": i0.dims()})

    def examine(sign, q):
        s_same, s_opp = _absorber_sets(emb, sign, q)
        bound_q = SubPair(s_same, s_opp) if sign > 0 else \
            SubPair(s_opp, s_same)
        dq = largest_pair_ideal_inside(emb, bound_q)
        if dq.is_zero():
            return False
        return _q_verdict_at(emb, sign, q, dq)

    if f.p is not None:
        total = 0
        for sign in (1, -1):
            n = big.dim(sign)
            if n:
                total += projective_count(f.p, n)
        check_budget(total, budget)
        for sign in (1, -1):
            n = big.dim(sign)
            if n == 0:
                continue
            for q in iter_projective(f.p, _basis(f, n)):
                if not examine(sign, q):
                    return Verdict("false", witness=(sign, q),
                                   reason="no admissible ideal absorbs this "
                                          "element without dying")
        return Verdict("true", reason="exhaustive scan over both sides")

    for sign in (1, -1):
        for i, q in enumerate(_basis(f, big.dim(sign))):
            if not examine(sign, q):
                return Verdict("false", witness=(sign, q),
                               reason="basis element %s fails"
                                      % big.names(sign)[i])
    return Verdict("verified-on-witnesses",
                   reason="all basis elements pass; the per-element "
                          "condition is not linear over an infinite field")


def _nonvanishing_kernel_zero(emb, sign, ideal):
    """No nonzero q of this sign has all three product families with the
    ideal equal to zero (the failing set is a subspace of W)."""
    big = emb.big
    f = big.field
    basis_q = _basis(f, big.dim(sign))
    v_same = emb.sub.part(sign).rows
    v_opp = emb.sub.part(-sign).rows
    i_same = ideal.part(sign).rows
    i_opp = ideal.part(-sign).rows
    into_same = [[big.triple(sign, e, t, v) for e in basis_q]
                 for t in i_opp for v in v_same]
    into_same += [[big.triple(sign, e, y, s) for e in basis_q]
                  for y in v_opp for s in i_same]
    into_opp = [[big.triple(-sign, t, e, u) for e in basis_q]
                for t in i_opp for u in v_opp]
    kills_same = preimage(Subspace.zero(f, big.dim(sign)), into_same)
    return preimage(Subspace.zero(f, big.dim(-sign)), into_opp,
                    within=kills_same).is_zero()


def tkk_embedding(emb):
    """The Lie-side picture of a subpair: the subalgebra of tkk(W)
    generated by the outer blocks of V, as a quotient embedding."""
    from .derivations import QuotientEmbedding

    data = tkk_data(emb.big)
    f = emb.big.field
    rows = [data.embed_plus(r) for r in emb.sub.plus.rows]
    rows += [data.embed_minus(r) for r in emb.sub.minus.rows]
    sub = data.algebra.subalgebra_generated(rows)
    return QuotientEmbedding(data.algebra, sub)


# ---------------------------------------------------------------------------
# maximal quotients of pairs, triples, algebras


@dataclass
class MaximalPairQuotients:
    pair: object          # the enlarged pair
    plus_map: tuple       # V+ basis -> new plus coordinates
    minus_map: tuple
    lie: object           # MaximalQuotients of the TKK algebra
    verdict: object


def maximal_pair_quotients(pair, budget=None):
    """The outer components of the maximal quotients of the TKK algebra,
    as a Jordan pair extending the input.

    Requires strong nondegeneracy and invertible 6.  The resulting Lie
    algebra stays 3-graded here (checked), its outer components carry
    {x,y,z} = [[x,y],z], and the embedding through ad preserves all
    triple products; the quotients property of the result over the input
    is re-verified with the pair decider rather than assumed.
    """
    from .derivations import maximal_quotients

    f = pair.field
    if not pair_is_strongly_nondegenerate(pair, budget=budget):
        raise NotStronglyNondegenerate(
            "maximal pair quotients need strong nondegeneracy")
    data = tkk_data(pair)
    mq = maximal_quotients(data.algebra, graded=False, budget=budget)
    qm = mq.algebra
    if not set(qm.support()) <= {-1, 0, 1}:
        raise ValidationError("maximal quotients left the 3-graded world")
    plus_idx = tuple(i for i in range(qm.dim) if qm.degrees[i] == 1)
    minus_idx = tuple(i for i in range(qm.dim) if qm.degrees[i] == -1)
    big = pair_from_lie_blocks(qm, plus_idx, minus_idx)

    off = pair.dim_plus + data.ider.dim
    plus_map = tuple(_cut(f, plus_idx, mq.embedding[i],
                          "embedding is not graded")
                     for i in range(pair.dim_plus))
    minus_map = tuple(_cut(f, minus_idx, mq.embedding[off + j],
                           "embedding is not graded")
                      for j in range(pair.dim_minus))

    # products must be preserved through the embedding
    for sign, mymap, omap in ((1, plus_map, minus_map),
                              (-1, minus_map, plus_map)):
        require_preserved(
            f, pair.table(sign), (mymap, omap, mymap), mymap,
            lambda x, y, z, s=sign: big.triple(s, x, y, z),
            "embedding fails to preserve a triple product")

    sub = SubPair(span(f, big.dim_plus, list(plus_map)),
                  span(f, big.dim_minus, list(minus_map)))
    emb = PairEmbedding(big, sub)
    verdict = is_pair_of_quotients(emb, budget=budget)
    return MaximalPairQuotients(big, plus_map, minus_map, mq, verdict)


# triples


class JordanTriple:
    """One module with a trilinear product; axioms via the double pair."""

    __slots__ = ("field", "names", "table", "double")

    def __init__(self, field, names, table):
        self.field = field
        self.names = tuple(names)
        self.double = JordanPair(field, self.names, self.names, table, table)
        self.table = self.double.table_plus

    @property
    def dim(self):
        return len(self.names)

    def triple(self, x, y, z):
        return self.double.triple(1, x, y, z)


@dataclass
class MaximalTripleQuotients:
    triple: object
    embedding: tuple
    pairs: object         # the underlying MaximalPairQuotients


def _exchange_matrix(data):
    """The swap of the two outer blocks of the TKK algebra of a double
    pair, extended to inner derivations by conjugation; verified to be an
    involutive automorphism."""
    alg = data.algebra
    f = alg.field
    n = data.pair.dim_plus
    m = data.pair.dim_minus
    if n != m:
        raise ValidationError("exchange needs a double pair")
    d = data.ider.dim
    rows = []
    for i in range(n):
        v = [f.zero] * alg.dim
        v[n + d + i] = f.one
        rows.append(tuple(v))
    for a in range(d):
        flat = data.ider.basis[a]
        pm = data.ider.plus_matrix(flat)
        mm = data.ider.minus_matrix(flat)
        swapped = []
        for row in mm:
            swapped.extend(row)
        for row in pm:
            swapped.extend(row)
        co = data.ider.subspace.coords(tuple(swapped))
        if co is None:
            raise ValidationError("exchange does not preserve inner "
                                  "derivations")
        v = [f.zero] * alg.dim
        for b, c in enumerate(co):
            v[n + b] = c
        rows.append(tuple(v))
    for i in range(n):
        v = [f.zero] * alg.dim
        v[i] = f.one
        rows.append(tuple(v))
    mat = tuple(rows)
    # involutive automorphism
    if mat_mul(mat, mat, f) != tuple(_basis(f, alg.dim)):
        raise ValidationError("exchange squared is not the identity")
    require_preserved(f, alg.table, (mat, mat), mat, alg.bracket,
                      "exchange is not an automorphism")
    return mat


def maximal_triple_quotients(triple, budget=None):
    """First component of the maximal pair quotients of the double pair,
    with the triple product transported through the exchange symmetry."""
    f = triple.field
    v = triple.double
    mpq = maximal_pair_quotients(v, budget=budget)
    data = tkk_data(v)
    eta = _exchange_matrix(data)
    mq = mpq.lie
    qm = mq.algebra

    # conjugating derivations of E0 by the exchange map is an automorphism
    # of the quotients algebra; transport it to quotient coordinates
    e0 = mq.witness_ideal
    der = mq.derivations
    basis_space = span(f, e0.dim * data.algebra.dim, list(der.basis))
    h_rows = []
    n_l = data.algebra.dim
    for flat in der.basis:
        images = [flat[u * n_l:(u + 1) * n_l] for u in range(e0.dim)]
        new_flat = []
        for r in e0.rows:
            co = e0.coords(mat_vec(r, eta, f))
            if co is None:
                raise ValidationError("exchange moved the witness ideal")
            new_flat.extend(mat_vec(mat_vec(co, images, f), eta, f))
        co = basis_space.coords(tuple(new_flat))
        if co is None:
            raise ValidationError("exchange conjugation left the "
                                  "derivation space")
        h_rows.append(tuple(co))
    h = tuple(h_rows)

    plus_idx = tuple(i for i in range(qm.dim) if qm.degrees[i] == 1)
    minus_idx = tuple(i for i in range(qm.dim) if qm.degrees[i] == -1)
    nb = len(plus_idx)
    e = [qm.basis_vector(i) for i in plus_idx]
    swapped = [tuple(mat_vec(ej, h, f)) for ej in e]
    inner = [[qm.bracket(ei, yj) for yj in swapped] for ei in e]

    def g(i, j, l):
        return _cut(f, plus_idx, qm.bracket(inner[i][j], e[l]),
                    "triple product left the plus block")

    names = tuple("t%d" % i for i in range(nb))
    result = JordanTriple(f, names, _trilinear_table(nb, nb, g))

    embedding = mpq.plus_map
    require_preserved(f, triple.table, (embedding,) * 3, embedding,
                      result.triple,
                      "triple embedding fails to preserve the product")
    return MaximalTripleQuotients(result, embedding, mpq)


# Jordan algebras


class JordanAlgebra:
    """Commutative product with the Jordan identity, checked formally;
    cells is the cell tree of the table."""

    __slots__ = ("field", "names", "table", "cells")

    def __init__(self, field, names, table):
        if field.p in (2, 3):
            raise BadCharacteristic("Jordan algebras need invertible 2 "
                                    "and 3")
        self.field = field
        self.names = tuple(names)
        n = len(self.names)
        self.table = freeze(field, table, (n, n, n))
        self.cells = cell_tree(self.table, 2)
        self._validate()

    @property
    def dim(self):
        return len(self.names)

    def product(self, x, y):
        return bilinear(self.field, self.cells, x, y, self.dim)

    def _validate(self):
        f = self.field
        n = self.dim
        for i in range(n):
            for j in range(n):
                if self.table[i][j] != self.table[j][i]:
                    raise AxiomViolation("commutativity",
                                         " at (%d, %d)" % (i, j))

        _d, (tree,) = integral_trees(f, (self.cells,))

        def mul(a, b):
            return _poly_product(tree, (a, b), n)

        x, y = _formal(0, n), _formal(n, n)
        xx = mul(x, x)
        if not _agree(f, mul(mul(xx, y), x), mul(xx, mul(y, x))):
            raise AxiomViolation("(x.x . y) . x = x.x . (y . x)")

    def unit(self):
        """The unit element, or None."""
        f = self.field
        n = self.dim
        eqs = []
        rhs = []
        for j in range(n):
            target = tuple(f.one if k == j else f.zero for k in range(n))
            for k in range(n):
                eqs.append(tuple(self.table[i][j][k] for i in range(n)))
                rhs.append(target[k])
        sol = solve_linear(f, eqs, rhs, nunknowns=n)
        return None if sol is None else tuple(sol)

    def derived_triple(self):
        """The triple {x,y,z} = 2(x(zy) + z(xy) - (xz)y)."""
        f = self.field
        n = self.dim
        es, t = _basis(f, n), self.table
        two = f.of(2)

        def g(i, j, l):
            a = self.product(es[i], t[l][j])
            b = self.product(es[l], t[i][j])
            c = self.product(t[i][l], es[j])
            return tuple(f.of(two * (p + q - r)) for p, q, r in zip(a, b, c))

        return JordanTriple(f, self.names, _trilinear_table(n, n, g))


@dataclass
class MaximalJordanAlgebraQuotients:
    algebra: object
    embedding: tuple
    triples: object


def maximal_jordan_algebra_quotients(jalg, budget=None):
    """Maximal quotients of a unital Jordan algebra through its triple.

    The derived triple is extended maximally; the image of the unit then
    recovers a bilinear product on the big triple via x . y = half
    {x, e, y}.  Requires a unit (the recovery has nothing to anchor on
    otherwise) and strong nondegeneracy of the derived triple.
    """
    f = jalg.field
    e = jalg.unit()
    if e is None:
        raise ValidationError("quotients recovery needs a unital algebra")
    trip = jalg.derived_triple()
    mtq = maximal_triple_quotients(trip, budget=budget)
    big_t = mtq.triple
    emb = mtq.embedding
    nb = big_t.dim
    e_img = mat_vec(e, emb, f)
    half = f.inv(f.of(2))
    es = _basis(f, nb)
    table = []
    for i in range(nb):
        row = []
        for j in range(nb):
            t = big_t.triple(es[i], tuple(e_img), es[j])
            row.append(tuple(f.of(half * c) for c in t))
        table.append(tuple(row))
    result = JordanAlgebra(f, big_t.names, tuple(table))
    require_preserved(f, jalg.table, (emb, emb), emb, result.product,
                      "algebra embedding fails to preserve the product")
    return MaximalJordanAlgebraQuotients(result, emb, mtq)
