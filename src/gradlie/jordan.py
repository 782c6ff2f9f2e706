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
grows, so q has a witness ideal exactly when D(q) itself works.  For an
ideal I of V, let K^s be the z of W^s with {z, I, V}, {z, V, I} and
{V, z, I} all zero.  Then Ann_V(I) = V ∩ K, and I does not vanish at q
exactly when q lies outside K.  The certificate is one ideal I0 that
absorbs every basis element with K^+ = K^- = 0, which also gives
Ann_V(I0) = 0.  Every one of these subspaces is a preimage under the
matrices of z -> {z, y, v} and z -> {y, z, w} (_side_maps and
_cross_maps), and so are pair ideals and annihilators.

Semiprimeness and strong nondegeneracy of a pair are read off TKK(V),
over Q and F_p alike: both take their candidates from the absolute zero
divisors of TKK(V) of degree 1 or -1 (_divisor_candidates), which reads
them off analysis.zero_divisors, the walk the Lie predicates use, and no
pair ideal is scanned.  TKK(V) is built once per pair and memoized on it
(JordanPair.memo), like every result that analysis and derivations
memoize on an algebra.  Its table is antisymmetric
(tables.antisymmetric): each unordered pair of basis vectors is
bracketed once, reading only the blocks V+, IDer(V), V- that the two
touch.  A PairEmbedding is built once per marked file too: loading the
file builds it to check the mark, and the commands decide on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import require_three_graded, zero_divisors
from .derivations import QuotientEmbedding, Verdict, maximal_quotients
from .enumeration import check_budget, iter_projective, projective_count
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
    mat_identity,
    mat_mul,
    mat_vec,
    preimage,
    rank,
    solve_linear,
    span,
)
from .tables import (
    antisymmetric,
    bilinear,
    cell_tree,
    freeze,
    induced,
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


def _cut(f, idx, v):
    """The coordinates of v on the block idx, or None when v has a
    nonzero coordinate outside the block; the read of the tables
    induced on a block."""
    if any(c != f.zero for pos, c in enumerate(v) if pos not in idx):
        return None
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
                 "table_minus", "cells", "memo", "_key")

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
        self.cells = {1: cell_tree(self.table_plus, 3)}
        if table_minus is table_plus and n == m:
            # the double pair of a triple: one table, frozen once
            self.table_minus, self.cells[-1] = self.table_plus, self.cells[1]
        else:
            self.table_minus = freeze(field, table_minus, (m, n, m, m))
            self.cells[-1] = cell_tree(self.table_minus, 3)
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
                     for e in mat_identity(self.field, self.dim(sign)))

    def _validate(self):
        # with equal tables (the double pair of a triple) the sign -1
        # identities are the sign +1 ones over again
        signs = (1,) if self.table_minus == self.table_plus else (1, -1)
        for sign in signs:
            t = self.table(sign)
            n, m = self.dim(sign), self.dim(-sign)
            for i in range(n):
                for j in range(m):
                    for l in range(n):
                        if t[i][j][l] != t[l][j][i]:
                            raise AxiomViolation(
                                "outer symmetry",
                                " at (%d, %d, %d), sign %+d" % (i, j, l, sign))
        f = self.field
        _d, trees = integral_trees(f, (self.cells[1], self.cells[-1]))
        trees = dict(zip((1, -1), trees))

        def tri(sign, a, b, c):
            return _poly_product(trees[sign], (a, b, c), self.dim(sign))

        # Q_a b is half of {a, b, a}; q leaves the half out, which each
        # identity below carries to the same power on both sides
        def q(sign, a, b):
            return tri(sign, a, b, a)

        for sign in signs:
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

    def intersect(self, other):
        return SubPair(self.plus.intersect(other.plus),
                       self.minus.intersect(other.minus))


def full_subpair(pair):
    f = pair.field
    return SubPair(Subspace.full(f, pair.dim_plus),
                   Subspace.full(f, pair.dim_minus))


def _side_maps(pair, sign, ys, vs):
    """The matrices of z -> {z, y, v} on V^sign, for y in ys (on the
    opposite side) and v in vs (on the sign side)."""
    es = mat_identity(pair.field, pair.dim(sign))
    return [[pair.triple(sign, e, y, v) for e in es] for y in ys for v in vs]


def _cross_maps(pair, sign, ys, ws):
    """The matrices of z -> {y, z, w} from V^sign to V^-sign, for y in ys
    and w in ws (both on the opposite side)."""
    es = mat_identity(pair.field, pair.dim(sign))
    return [[pair.triple(-sign, y, e, w) for e in es] for y in ys for w in ws]


def _ideal_step(pair, cur, v):
    """One shrinking step of a subpair cur inside the subpair v: per side,
    the x of cur with {x, v, v} in cur and {v, x, v} in cur on the other
    side.  Every pair ideal of v inside cur survives it, and cur is one
    exactly when the step keeps it."""
    parts = {}
    for sign in (1, -1):
        mine, other = cur.part(sign), cur.part(-sign)
        same, opp = v.part(sign).rows, v.part(-sign).rows
        keep = preimage(mine, _side_maps(pair, sign, opp, same), within=mine)
        parts[sign] = preimage(other, _cross_maps(pair, sign, opp, opp),
                               within=keep)
    return SubPair(parts[1], parts[-1])


def _killers(pair, sign, x, v):
    """The z of the sign side with {z, x, v}, {z, v, x} and {v, z, x} all
    zero, for subpairs x and v; its meet with the sign part of v is the
    sign part of Ann_v(x)."""
    f = pair.field
    x_same, x_opp = x.part(sign).rows, x.part(-sign).rows
    v_same, v_opp = v.part(sign).rows, v.part(-sign).rows
    kills_same = preimage(Subspace.zero(f, pair.dim(sign)),
                          _side_maps(pair, sign, x_opp, v_same)
                          + _side_maps(pair, sign, v_opp, x_same))
    return preimage(Subspace.zero(f, pair.dim(-sign)),
                    _cross_maps(pair, sign, v_opp, x_opp), within=kills_same)


def is_pair_ideal(pair, sub):
    """Whether the subpair absorbs every product with the pair: the
    shrinking step inside the whole pair keeps it."""
    return _ideal_step(pair, sub, full_subpair(pair)) == sub


def pair_ideal_generated(pair, sub):
    """Smallest pair ideal containing the given subpair.

    A closure on W+ (+) W-: the generators and all their images lie on a
    single side, so the result is a direct sum, and its echelon basis is
    the union of the echelon bases of its two parts.
    """
    f = pair.field
    n, m = pair.dim_plus, pair.dim_minus
    basis = {1: mat_identity(f, n), -1: mat_identity(f, m)}

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
    """Ann of a subpair: per sign, the z killing {z, X, V}, {z, V, X} and
    {V, z, X} (_killers with V the whole pair)."""
    full = full_subpair(pair)
    return SubPair(_killers(pair, 1, sub, full), _killers(pair, -1, sub, full))


# ---------------------------------------------------------------------------
# inner derivations and TKK


@dataclass
class InnerDerivationSpace:
    pair: object
    basis: tuple       # flattened (plus-block | minus-block) rows
    subspace: object   # the same rows as a canonical Subspace
    deltas: tuple      # delta(e_i, e_j) flattened, at i * dim_minus + j

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
    deltas = tuple(_delta_flat(pair, x, y) for x in mat_identity(f, n)
                   for y in mat_identity(f, m))
    sub = span(f, n * n + m * m, deltas)
    return InnerDerivationSpace(pair, sub.rows, sub, deltas)


@dataclass
class TkkData:
    algebra: object
    ider: object
    pair: object

    def embed_plus(self, x):
        f = self.algebra.field
        return tuple(x) + (f.zero,) * (self.ider.dim + self.pair.dim_minus)

    def embed_minus(self, y):
        f = self.algebra.field
        return (f.zero,) * (self.pair.dim_plus + self.ider.dim) + tuple(y)

    def embed_delta(self, x, y):
        """delta(x, y) = [x+, y-]."""
        return self.algebra.bracket(self.embed_plus(x), self.embed_minus(y))

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
    names = tuple(nm + "+" for nm in pair.names_plus) + \
        tuple("d%d" % i for i in range(d)) + \
        tuple(nm + "-" for nm in pair.names_minus)
    degrees = (1,) * n + (0,) * d + (-1,) * m

    # the matrices (gamma+, gamma-) of each inner derivation in the row
    # convention v @ M, so row i of gamma+ is b+_i gamma+
    plus = [ider.plus_matrix(g) for g in ider.basis]
    minus = [ider.minus_matrix(g) for g in ider.basis]
    zero = (f.zero,) * (n + d + m)

    def middle(flat):
        co = ider.subspace.coords(flat)
        return None if co is None else zero[:n] + tuple(co) + zero[:m]

    def cell(i, j):
        # i < j, read on the blocks V+ | IDer(V) | V- that the two basis
        # vectors touch: [x+, gamma] = -(x gamma+), [x+, y-] = delta(x, y),
        # [gamma, y-] = y gamma-, [gamma, mu] the commutator of operators
        # (matrix M_mu M_gamma - M_gamma M_mu), and V+, V- are abelian
        if j < n or i >= n + d:
            return zero
        if i < n:
            if j < n + d:
                return tuple(map(f.neg, plus[j - n][i])) + zero[:d + m]
            return middle(ider.deltas[i * m + j - n - d])
        a = i - n
        if j >= n + d:
            return zero[:n + d] + minus[a][j - n - d]
        b = j - n
        return middle(tuple(
            f.of(x - y) for mats in (plus, minus)
            for r, t in zip(mat_mul(mats[b], mats[a], f),
                            mat_mul(mats[a], mats[b], f))
            for x, y in zip(r, t)))

    table = antisymmetric(f, cell, range(n + d + m), lambda c: c,
                          "bracket of basis {} and {} left the inner "
                          "derivations")
    alg = GradedLieAlgebra(f, names, table, GradingGroup.integers(), degrees)
    data = pair.memo["tkk"] = TkkData(alg, ider, pair)
    return data


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
        for y in mat_identity(f, pair.dim_minus):
            rows.append(data.embed_delta(r, y))
    for x in mat_identity(f, pair.dim_plus):
        for r in sub.minus.rows:
            rows.append(data.embed_delta(x, r))
    return span(f, data.algebra.dim, rows)


def _outer_indices(alg):
    """The indices of the basis vectors of degree 1 and of degree -1."""
    return tuple(tuple(i for i, d in enumerate(alg.degrees) if d == sign)
                 for sign in (1, -1))


def _block_triples(alg, idx, ys):
    """The table of {x, y, z} = [[x, y], z] for x, z the basis vectors of
    a Lie algebra at the positions idx and y in ys, in the coordinates of
    that block."""
    es = [alg.basis_vector(i) for i in idx]
    return induced(lambda x, y, z: alg.bracket(alg.bracket(x, y), z),
                   (es, ys, es), lambda v: _cut(alg.field, idx, v),
                   "triple product ({}, {}, {}) left its block")


def pair_from_lie_blocks(alg, plus_idx, minus_idx):
    """Jordan pair on two coordinate blocks of a Lie algebra via
    {x,y,z} = [[x,y],z]."""
    def build(idx_a, idx_b):
        return _block_triples(alg, idx_a, [alg.basis_vector(j) for j in idx_b])

    return JordanPair(alg.field, tuple(alg.names[i] for i in plus_idx),
                      tuple(alg.names[i] for i in minus_idx),
                      build(plus_idx, minus_idx), build(minus_idx, plus_idx))


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
    require_three_graded(alg)
    f = alg.field
    if f.p == 2:
        raise BadCharacteristic("associated pairs need invertible 2")
    plus_idx, minus_idx = _outer_indices(alg)
    l0 = alg.degree_component(0)
    lplus = alg.degree_component(1)
    lminus = alg.degree_component(-1)
    if alg.bracket_space(lplus, lminus) != l0:
        raise NotJordanThreeGraded("[L_1, L_-1] is a proper part of L_0")

    pair = pair_from_lie_blocks(alg, plus_idx, minus_idx)
    c_v = alg.center().intersect(l0)

    data = tkk_data(pair)
    t = data.algebra

    # the map takes [e_i+, e_j-] to delta(e_i, e_j), and these brackets
    # span L_0, a span of basis vectors; so in the canonical basis of the
    # rows [e_i+, e_j-] | delta(e_i, e_j) the row with pivot k < dim L is
    # b_k | its image, and a row with zero L-part is a relation of the
    # brackets that the deltas break
    n, d = len(plus_idx), data.ider.dim
    graph = span(f, alg.dim + t.dim, [
        alg.table[a][b] + t.table[i][n + d + j]
        for i, a in enumerate(plus_idx) for j, b in enumerate(minus_idx)])
    image = {}
    for k, row in zip(graph.pivots(), graph.rows):
        if k >= alg.dim:
            raise ValidationError("canonical map fails to preserve the "
                                  "bracket")
        image[k] = row[alg.dim:]
    image.update((a, t.basis_vector(i)) for i, a in enumerate(plus_idx))
    image.update((b, t.basis_vector(n + d + j))
                 for j, b in enumerate(minus_idx))
    map_rows = tuple(image[k] for k in range(alg.dim))

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
    pair.  They are the zero_divisors of TKK(V) in V^sign: over Q the
    canonical basis of A ∩ V^sign, A the abelian graded ideal read off the
    Killing radical K (none when K = 0); over F_p the points of
    K ∩ V^sign with (ad x)^2 = 0 in the order of a scan of V^sign, whose
    projective points are charged to the budget before that side is
    walked.
    """
    f = pair.field
    for sign in (1, -1):
        if f.p is not None:
            check_budget(projective_count(f.p, pair.dim(sign)), budget)
        t = tkk(pair)
        for x in zero_divisors(t, t.degree_component(sign)):
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
    f = pair.field
    if f.p is None:
        raise ValidationError("principal enumeration is the F_p path")
    check_budget(sum(projective_count(f.p, pair.dim(s)) for s in (1, -1)),
                 budget)
    seen = {}
    for sign in (1, -1):
        n = pair.dim(sign)
        for x in iter_projective(f.p, mat_identity(f, n)):
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
    """A subpair V of a Jordan pair W, with the induced small pair, whose
    tables raise ValidationError when a triple product leaves V."""

    __slots__ = ("big", "sub", "small")

    def __init__(self, big, sub):
        def build(sign):
            mine, other = sub.part(sign), sub.part(-sign)
            return induced(lambda x, y, z: big.triple(sign, x, y, z),
                           (mine.rows, other.rows, mine.rows), mine.coords,
                           "subspaces are not closed under the triple "
                           "products")

        self.big = big
        self.sub = sub
        self.small = JordanPair(
            big.field, tuple("v%d" % i for i in range(sub.plus.dim)),
            tuple("w%d" % i for i in range(sub.minus.dim)),
            build(1), build(-1))


def _absorber_sets(emb, sign, q):
    """S(q) for q in W^sign: the subpair of V collecting the absorption
    conditions of the quotients definition, computed with products of
    the big pair.  Its sign part holds the s with {q, V, s} in V, its
    other part the t with {q, t, V} and {t, q, V} in V."""
    big = emb.big
    same, opp = emb.sub.part(sign), emb.sub.part(-sign)
    # {q, y, s} = {s, y, q} by outer symmetry
    s_same = preimage(same, _side_maps(big, sign, opp.rows, [q]), within=same)
    s_opp = preimage(same, _cross_maps(big, -sign, [q], same.rows),
                     within=opp)
    s_opp = preimage(opp, _side_maps(big, -sign, [q], opp.rows), within=s_opp)
    return SubPair(s_same, s_opp) if sign > 0 else SubPair(s_opp, s_same)


def largest_pair_ideal_inside(emb, bound):
    """Greatest pair ideal of V inside the bounding subpair (big coords):
    _ideal_step repeated until it is stable.  Every pair ideal of V
    inside the bound survives each step, so the fixpoint is the largest
    one."""
    cur = bound
    while True:
        nxt = _ideal_step(emb.big, cur, emb.sub)
        if nxt == cur:
            return cur
        cur = nxt


def _certificate(emb):
    """I0, the largest pair ideal of V inside the absorption sets of every
    basis element of W, when K^+ = K^- = 0 for it; otherwise None.

    K^s is _killers(W, s, I0, V).  The absorption conditions are linear
    in q, so I0 absorbs every q, and K^s = 0 says that no nonzero q of W
    kills I0; it also gives Ann_V(I0)^s = V^s ∩ K^s = 0.
    """
    big, f = emb.big, emb.big.field
    bound = emb.sub
    for sign in (1, -1):
        for q in mat_identity(f, big.dim(sign)):
            bound = bound.intersect(_absorber_sets(emb, sign, q))
    i0 = largest_pair_ideal_inside(emb, bound)
    if i0.is_zero() or not all(_killers(big, s, i0, emb.sub).is_zero()
                               for s in (1, -1)):
        return None
    return i0


def is_pair_of_quotients(emb, budget=None):
    """Decide whether W is a pair of quotients of its semiprime subpair V.

    Per element q the canonical candidate D(q) (largest ideal inside the
    absorption sets) decides exactly.  With K^s = _killers(W, s, D(q), V),
    the z of W^s that D(q) cannot see, Ann_V(D(q)) is V ∩ K, and q
    passes when V^s ∩ K^s = 0 for both signs and q is not in K^sign.
    The certificate ideal I0 (_certificate) absorbs every q at once, since
    the absorption conditions are linear in q; when K^+ = K^- = 0 for I0,
    which implies Ann_V(I0) = 0, it covers every q over any field.
    Otherwise F_p elements are scanned exhaustively, while over Q failing
    basis elements give a conclusive false and passing ones only a
    sampled verdict.
    """
    big = emb.big
    f = big.field
    if not pair_is_semiprime(emb.small, budget=budget):
        raise NotSemiprime("the small pair must be semiprime")

    i0 = _certificate(emb)
    if i0 is not None:
        return Verdict("true",
                       reason="one ideal absorbs every element and "
                              "nothing kills it")

    def examine(sign, q):
        dq = largest_pair_ideal_inside(emb, _absorber_sets(emb, sign, q))
        kill = {s: _killers(big, s, dq, emb.sub) for s in (1, -1)}
        return (not kill[sign].contains(q)
                and all(emb.sub.part(s).intersect(kill[s]).is_zero()
                        for s in (1, -1)))

    if f.p is not None:
        check_budget(sum(projective_count(f.p, big.dim(s)) for s in (1, -1)),
                     budget)
        for sign in (1, -1):
            for q in iter_projective(f.p, mat_identity(f, big.dim(sign))):
                if not examine(sign, q):
                    return Verdict("false", witness=(sign, q),
                                   reason="no admissible ideal absorbs this "
                                          "element without dying")
        return Verdict("true", reason="exhaustive scan over both sides")

    for sign in (1, -1):
        for i, q in enumerate(mat_identity(f, big.dim(sign))):
            if not examine(sign, q):
                return Verdict("false", witness=(sign, q),
                               reason="basis element %s fails"
                                      % big.names(sign)[i])
    return Verdict("verified-on-witnesses",
                   reason="all basis elements pass; the per-element "
                          "condition is not linear over an infinite field")


def tkk_embedding(emb):
    """The Lie-side picture of a subpair: the subalgebra of tkk(W)
    generated by the outer blocks of V, as a quotient embedding."""
    data = tkk_data(emb.big)
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
    f = pair.field
    if not pair_is_strongly_nondegenerate(pair, budget=budget):
        raise NotStronglyNondegenerate(
            "maximal pair quotients need strong nondegeneracy")
    data = tkk_data(pair)
    mq = maximal_quotients(data.algebra, graded=False, budget=budget)
    qm = mq.algebra
    if not set(qm.support()) <= {-1, 0, 1}:
        raise ValidationError("maximal quotients left the 3-graded world")
    plus_idx, minus_idx = _outer_indices(qm)
    big = pair_from_lie_blocks(qm, plus_idx, minus_idx)

    def block_map(rows, idx):
        return induced(tuple, (rows,), lambda v: _cut(f, idx, v),
                       "embedding is not graded")

    plus_map = block_map(mq.embedding[:pair.dim_plus], plus_idx)
    minus_map = block_map(mq.embedding[pair.dim_plus + data.ider.dim:],
                          minus_idx)

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
    eye = mat_identity(f, alg.dim)
    zero = (f.zero,) * n
    middle = []
    for flat in data.ider.basis:
        # (gamma+, gamma-) goes to (gamma-, gamma+), blocks of n * n cells
        co = data.ider.subspace.coords(flat[n * n:] + flat[:n * n])
        if co is None:
            raise ValidationError("exchange does not preserve inner "
                                  "derivations")
        middle.append(zero + tuple(co) + zero)
    mat = eye[alg.dim - n:] + tuple(middle) + eye[:n]
    # involutive automorphism
    if mat_mul(mat, mat, f) != eye:
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
        co = der.space.coords(tuple(new_flat))
        if co is None:
            raise ValidationError("exchange conjugation left the "
                                  "derivation space")
        h_rows.append(tuple(co))
    h = tuple(h_rows)

    plus_idx, _ = _outer_indices(qm)
    swapped = [mat_vec(qm.basis_vector(i), h, f) for i in plus_idx]
    names = tuple("t%d" % i for i in range(len(plus_idx)))
    result = JordanTriple(f, names, _block_triples(qm, plus_idx, swapped))

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
        es = mat_identity(f, self.dim)
        two = f.of(2)
        mul = self.product

        def triple(x, y, z):
            return tuple(f.of(two * (p + q - r)) for p, q, r in zip(
                mul(x, mul(z, y)), mul(z, mul(x, y)), mul(mul(x, z), y)))

        return JordanTriple(f, self.names, induced(
            triple, (es, es, es), tuple, "unreachable: tuple is never None"))


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
    es = mat_identity(f, nb)
    table = induced(
        lambda x, y: tuple(f.of(half * c) for c in big_t.triple(x, e_img, y)),
        (es, es), tuple, "unreachable: tuple is never None")
    result = JordanAlgebra(f, big_t.names, table)
    require_preserved(f, jalg.table, (emb, emb), emb, result.product,
                      "algebra embedding fails to preserve the product")
    return MaximalJordanAlgebraQuotients(result, emb, mtq)
