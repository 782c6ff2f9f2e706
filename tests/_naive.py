"""Textbook oracles for subspace coordinates, the structure constants,
the ideal closures, the ideal predicates (quantified over the
principal-ideal scan), the Jordan pair axioms, the Jordan pair
predicates (the Q_x of every point and the principal pair-ideal scan)
and realizability in the axiomatic check, shared by several test
modules.  naive_bracket and naive_triple, the dense bilinear and
trilinear loops that call Field.of on every term, are the oracles of the
cell-tree products of gradlie.tables, through which every class
multiplies.  The Lie oracles read the dense table cell by cell, apart from
the library's sparse kernel; the associative and Jordan validators are
the dense loops and the formal identity check in field elements (ints
and Fractions over Q), apart from the library's scaled integer checks;
the realizability oracle solves one linear system per derivation on the
Leibniz solution space, apart from the library's one containment test
per degree and its inner-derivation certificate.  The pair-of-quotients
oracle tries every pair ideal of the small pair at every point of the big
one, apart from the library's one canonical candidate per point.  The TKK
oracle fills the table of TKK(V) block by block from the formulas for
each kind of basis pair, apart from the library's antisymmetric table
builder (gradlie.tables.antisymmetric) and its cell that picks a formula
per pair of basis indices.  The TKK ideal oracle spans I+, I- and the
brackets [a+, y-] and [x+, b-] of a pair ideal I explicitly, apart from
the library's ideal closure.  q_apply, q_matrix, derivation_matrix,
dump_path, zero_subpair, semiprime_witness and minimal_graded_ideals are
helpers that only tests call, built on the library's product path."""

import itertools

from hypothesis import assume, strategies as st

from gradlie.analysis import (
    _minimal_ideals,
    abelian_ideal_witness,
    graded_socle,
    socle,
)
from gradlie.derivations import _leibniz_space
from gradlie.enumeration import distinct_principal_ideals
from gradlie.errors import (
    AssociativityViolation,
    AxiomViolation,
    InvolutionViolation,
)
from gradlie.jordan import (
    SubPair,
    _delta_flat,
    distinct_principal_pair_ideals,
    inner_derivations,
    tkk_data,
)
from gradlie.lie import GradedLieAlgebra
from gradlie.serialize import serialize_algebra
from gradlie.linalg import (
    Subspace,
    mat_identity,
    mat_mul,
    mat_vec,
    rank,
    rref,
    solve_linear,
    span,
)


def _first_nonzero(row):
    return next((c for c, x in enumerate(row) if x), None)


def naive_coords(sub, vec):
    """Coefficients of vec in the RREF basis of sub, or None if not a
    member: find each row's pivot and subtract whole rows.  Over F_p a
    vector with entries that are nonzero multiples of p can be called a
    non-member when every coefficient is 0, and the first coefficient
    can come back unreduced."""
    res = list(vec)
    out = []
    p = sub.field.p
    for row in sub.rows:
        t = res[_first_nonzero(row)]
        out.append(t)
        if t:
            res = [x - t * y if p is None else (x - t * y) % p
                   for x, y in zip(res, row)]
    return None if any(res) else out


def naive_reduce(sub, vec):
    """Residual of vec after subtracting whole rows of sub's RREF basis,
    one per pivot (entries unreduced over F_p where no row was
    subtracted)."""
    res = list(vec)
    p = sub.field.p
    for row in sub.rows:
        t = res[_first_nonzero(row)]
        if t:
            res = [x - t * y if p is None else (x - t * y) % p
                   for x, y in zip(res, row)]
    return tuple(res)


def _basis(f, n):
    return [tuple(f.one if j == i else f.zero for j in range(n))
            for i in range(n)]


def naive_bracket(f, table, x, y):
    """[x, y] by bilinearity over every cell of a dense table; any
    bilinear product (associative, Jordan) reads its table alike."""
    n = len(table)
    zero = f.zero
    acc = [zero] * n
    for i, xi in enumerate(x):
        if xi == zero:
            continue
        ti = table[i]
        for j, yj in enumerate(y):
            if yj == zero:
                continue
            c = f.of(xi * yj)
            if c == zero:
                continue
            for k, t in enumerate(ti[j]):
                if t != zero:
                    acc[k] = f.of(acc[k] + c * t)
    return tuple(acc)


def naive_ad(alg, x):
    """ad x in row convention: row j is [x, b_j]."""
    return tuple(naive_bracket(alg.field, alg.table, x, b)
                 for b in _basis(alg.field, alg.dim))


def naive_killing(alg):
    """tr(ad b_i ad b_j) from products of dense ad matrices."""
    f, n = alg.field, alg.dim
    ads = [naive_ad(alg, b) for b in _basis(f, n)]
    return tuple(tuple(f.of(sum(prod[r][r] for r in range(n)))
                       for prod in (mat_mul(a, b, f) for b in ads))
                 for a in ads)


def naive_jacobi_sum(f, table, i, j, k):
    """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] over the
    dense table, in field elements."""
    basis = _basis(f, len(table))
    terms = (naive_bracket(f, table, table[a][b], basis[c])
             for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    return tuple(f.of(sum(cs)) for cs in zip(*terms))


def naive_jacobi_violation(f, table):
    """First i < j < k whose cyclic Jacobi sum over the dense table is
    nonzero, or None."""
    for i, j, k in itertools.combinations(range(len(table)), 3):
        if any(c != f.zero for c in naive_jacobi_sum(f, table, i, j, k)):
            return (i, j, k)
    return None


def _vec_mat(f, v, m):
    return tuple(f.of(sum(v[i] * m[i][k] for i in range(len(v))))
                 for k in range(len(m[0])))


def _coords_in(f, rows):
    """The map from old coordinates to coordinates in the basis rows."""
    n = len(rows)
    aug = rref(f, [list(r) + list(e) for r, e in zip(rows, _basis(f, n))])
    assert [tuple(r[:n]) for r in aug] == _basis(f, n), "rows not a basis"
    inverse = [r[n:] for r in aug]
    return lambda v: _vec_mat(f, v, inverse)


def change_basis(alg, rows):
    """The algebra in the basis given by rows (old coordinates), each row
    supported in one degree, which it keeps; the new structure constants
    are the dense brackets of the rows in new coordinates."""
    f = alg.field
    coords = _coords_in(f, rows)
    table = [[coords(naive_bracket(f, alg.table, a, b)) for b in rows]
             for a in rows]
    degrees = [alg.degrees[next(i for i, c in enumerate(r) if c != f.zero)]
               for r in rows]
    return GradedLieAlgebra(f, alg.names, table, alg.group, degrees)


def change_bilinear_basis(f, table, rows, involution=None):
    """(table, involution) of a bilinear product with the trivial grading
    in the basis rows: products by the dense loop (naive_bracket reads
    any bilinear table) and the optional involution carried along, both
    in new coordinates."""
    coords = _coords_in(f, rows)
    new = [[coords(naive_bracket(f, table, x, y)) for y in rows]
           for x in rows]
    if involution is not None:
        involution = [coords(_vec_mat(f, x, involution)) for x in rows]
    return new, involution


def naive_triple(f, table, x, y, z):
    """The trilinear product over every cell of a dense table."""
    out = [f.zero] * len(table)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for l, zl in enumerate(z):
                c = f.of(xi * yj * zl)
                if c != f.zero:
                    for k, t in enumerate(table[i][j][l]):
                        out[k] = f.of(out[k] + c * t)
    return tuple(out)


def change_pair_basis(f, tables, rows_plus, rows_minus):
    """(table_plus, table_minus) of a Jordan pair in the bases rows_plus
    and rows_minus, by the dense trilinear loop."""
    rows = {1: rows_plus, -1: rows_minus}
    out = []
    for sign, table in zip((1, -1), tables):
        coords = _coords_in(f, rows[sign])
        out.append([[[coords(naive_triple(f, table, a, b, c))
                      for c in rows[sign]] for b in rows[-sign]]
                    for a in rows[sign]])
    return tuple(out)


def naive_assoc_violation(f, table, involution):
    """The error the dense Fraction loops raise on an associative table
    with the trivial grading and an optional involution, or None:
    associativity at the first (i, j, k), then per basis vector the
    involution's order two and degrees, then the anti-homomorphism at
    the first (i, j)."""
    n = len(table)
    basis = _basis(f, n)

    def mul(x, y):
        return naive_bracket(f, table, x, y)

    for i, j, k in itertools.product(range(n), repeat=3):
        if mul(table[i][j], basis[k]) != mul(basis[i], table[j][k]):
            return AssociativityViolation(i, j, k)
    if involution is None:
        return None
    for i in range(n):
        if _vec_mat(f, involution[i], involution) != basis[i]:
            return InvolutionViolation(
                "involution applied twice moves basis vector %d" % i)
    for i, j in itertools.product(range(n), repeat=2):
        if _vec_mat(f, table[i][j], involution) != mul(involution[j],
                                                       involution[i]):
            return InvolutionViolation(
                "involution is not an anti-homomorphism at (%d, %d)"
                % (i, j))
    return None


# formal polynomials with field coefficients, monomials sorted tuples of
# variable tags


def _padd(f, a, b):
    out = dict(a)
    for m, c in b.items():
        v = f.of(out.get(m, f.zero) + c)
        if v == f.zero:
            out.pop(m, None)
        else:
            out[m] = v
    return out


def _pscale(f, a, c):
    if c == f.zero:
        return {}
    return {m: f.of(v * c) for m, v in a.items()}


def _pmul(f, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(sorted(ma + mb))
            v = f.of(out.get(m, f.zero) + ca * cb)
            if v == f.zero:
                out.pop(m, None)
            else:
                out[m] = v
    return out


def _formal(f, tag, dim):
    return [{((tag, i),): f.one} for i in range(dim)]


def _poly_product(f, table, args, out_dim):
    out = [{} for _ in range(out_dim)]

    def walk(cells, mono, rest):
        if not rest:
            for k, coeff in enumerate(cells):
                if coeff != f.zero:
                    out[k] = _padd(f, out[k], _pscale(f, mono, coeff))
            return
        for i, poly in enumerate(rest[0]):
            if poly:
                walk(cells[i], _pmul(f, mono, poly), rest[1:])

    walk(table, {(): f.one}, args)
    return out


def naive_jordan_violation(f, tables):
    """The AxiomViolation of the first Jordan identity that fails
    coefficientwise in formal coordinates, with field coefficients and
    Q_x y = half {x, y, x}, or None.  tables is (table_plus, table_minus)
    of a pair, checked in the constructor's order, or (table,) of a
    Jordan algebra."""
    if len(tables) == 1:
        (table,) = tables
        n = len(table)

        def mul(a, b):
            return _poly_product(f, table, (a, b), n)

        x, y = _formal(f, "x", n), _formal(f, "y", n)
        xx = mul(x, x)
        if mul(mul(xx, y), x) != mul(xx, mul(y, x)):
            return AxiomViolation("(x.x . y) . x = x.x . (y . x)")
        return None
    half = f.inv(f.of(2))
    by_sign = dict(zip((1, -1), tables))

    def tri(sign, a, b, c):
        return _poly_product(f, by_sign[sign], (a, b, c), len(by_sign[sign]))

    def q(sign, a, b):
        return [_pscale(f, p, half) for p in tri(sign, a, b, a)]

    for sign in (1, -1):
        n, m = len(by_sign[sign]), len(by_sign[-sign])
        x, z = _formal(f, "x", n), _formal(f, "z", n)
        y, w = _formal(f, "y", m), _formal(f, "w", m)
        side = " on the %+d side" % sign
        qxw = q(sign, x, w)
        if tri(sign, x, y, qxw) != q(sign, x, tri(-sign, y, x, w)):
            return AxiomViolation("D_{x,y} Q_x = Q_x D_{y,x}", side)
        qxy = q(sign, x, y)
        if tri(sign, qxy, y, z) != tri(sign, x, q(-sign, y, x), z):
            return AxiomViolation("D_{Q_x y, y} = D_{x, Q_y x}", side)
        if q(sign, qxy, w) != q(sign, x, q(-sign, y, qxw)):
            return AxiomViolation("Q_{Q_x y} = Q_x Q_y Q_x", side)
    return None


def _placed_blocks(alg, block):
    """Rows of a homogeneous basis of alg for change_basis: block(k) gives
    a k x k invertible matrix for each degree block of k basis vectors,
    drawn in ascending degree, and its rows are placed on that block's
    coordinates."""
    f, n = alg.field, alg.dim
    rows = [None] * n
    for d in sorted(set(alg.degrees)):
        idx = [i for i in range(n) if alg.degrees[i] == d]
        for i, brow in zip(idx, block(len(idx))):
            row = [f.zero] * n
            for c, x in zip(idx, brow):
                row[c] = x
            rows[i] = tuple(row)
    return rows


def seeded_homogeneous_basis(alg, dense, rng):
    """_placed_blocks drawn from a random.Random: a scaled permutation
    (sparse) or small integers (dense) of full rank per block, redrawn
    until it has full rank.  The corpus seeds its basis changes here."""
    f = alg.field

    def block(k):
        while True:
            if dense:
                out = [[f.of(rng.randint(-2, 2)) for _ in range(k)]
                       for _ in range(k)]
            else:
                perm = list(range(k))
                rng.shuffle(perm)
                out = [[f.of(rng.choice((1, -1, 2, -2))) if c == perm[r]
                        else f.zero for c in range(k)] for r in range(k)]
            if rank(f, out) == k:
                return out

    return _placed_blocks(alg, block)


@st.composite
def homogeneous_bases(draw, alg):
    """_placed_blocks drawn by hypothesis: a scaled permutation (sparse)
    or small integers of full rank (dense) per block."""
    f = alg.field
    dense = draw(st.booleans())

    def block(k):
        if dense:
            out = [[f.of(draw(st.integers(-2, 2))) for _ in range(k)]
                   for _ in range(k)]
            assume(rank(f, out) == k)
            return out
        perm = draw(st.permutations(range(k)))
        return [[f.of(draw(st.sampled_from([1, 2, -1, -2])))
                 if c == perm[r] else f.zero for c in range(k)]
                for r in range(k)]

    return _placed_blocks(alg, block)


def naive_zero_divisor(alg, graded):
    """First projective point x with mat_mul(ad x, ad x) = 0, or None."""
    for x in projective_points(alg, graded):
        ad = naive_ad(alg, x)
        if all(c == alg.field.zero for row in mat_mul(ad, ad, alg.field)
               for c in row):
            return x
    return None


def _nonzero_principal_ideals(alg, graded):
    """The scan's nonzero principal (graded) ideals, memoized on the
    algebra: the oracles below ask for them once per ideal tested."""
    key = ("naive_principal_ideals", graded)
    if key not in alg.memo:
        alg.memo[key] = [i for i in distinct_principal_ideals(
            alg, homogeneous_only=graded) if not i.is_zero()]
    return alg.memo[key]


def naive_is_prime(alg, graded):
    """Every ordered pair of nonzero principal (graded) ideals has a
    nonzero bracket."""
    ideals = _nonzero_principal_ideals(alg, graded)
    return all(not alg.bracket_space(a, b).is_zero()
               for a in ideals for b in ideals)


def naive_is_semiprime(alg, graded):
    """No nonzero principal (graded) ideal brackets itself to zero."""
    return not any(alg.bracket_space(i, i).is_zero()
                   for i in _nonzero_principal_ideals(alg, graded))


def naive_socle(alg, graded):
    """Sum of the principal (graded) ideals containing no smaller one."""
    ideals = _nonzero_principal_ideals(alg, graded)
    rows = [r for i in ideals
            if not any(o.dim < i.dim and i.contains_space(o) for o in ideals)
            for r in i.rows]
    return span(alg.field, alg.dim, rows)


def naive_is_essential(alg, ideal, graded):
    """The ideal meets every nonzero principal (graded) ideal."""
    return all(not ideal.intersect(i).is_zero()
               for i in _nonzero_principal_ideals(alg, graded))


def naive_ideal(alg, vectors):
    """Smallest ideal containing the vectors by the plain fixpoint
    cur = span(cur + {[b_i, r]}), repeated until the dimension stops."""
    f, n = alg.field, alg.dim
    basis = _basis(f, n)
    cur = rref(f, [list(v) for v in vectors])
    while True:
        nxt = rref(f, [list(r) for r in cur]
                   + [list(naive_bracket(f, alg.table, b, r))
                      for b in basis for r in cur])
        if len(nxt) == len(cur):
            return span(f, n, cur)
        cur = nxt


def _projective(p, n):
    """Nonzero vectors of F_p^n whose first nonzero entry is 1, by first
    nonzero position and then lexicographically."""
    points = []
    for coords in itertools.product(range(p), repeat=n):
        lead = next((k for k, x in enumerate(coords) if x), None)
        if lead is not None and coords[lead] == 1:
            points.append((lead, coords))
    points.sort(key=lambda pt: pt[0])
    return [coords for _, coords in points]


def projective_points(alg, graded):
    """Every projective point, one block of coordinates at a time (the
    degrees in increasing order when graded), in the order of
    _projective on each block."""
    p, n = alg.field.p, alg.dim
    if graded:
        blocks = [[i for i in range(n) if alg.degrees[i] == d]
                  for d in sorted(set(alg.degrees))]
    else:
        blocks = [list(range(n))]
    for block in blocks:
        for coords in _projective(p, len(block)):
            v = [0] * n
            for i, x in zip(block, coords):
                v[i] = x
            yield tuple(v)


def naive_principal_ideals(alg, graded):
    """Distinct ideals of naive_ideal over every projective point, in
    order of first appearance."""
    seen = {}
    for v in projective_points(alg, graded):
        ideal = naive_ideal(alg, [v])
        seen.setdefault(ideal.rows, ideal)
    return tuple(seen.values())


def naive_pair_zero_divisor(pair):
    """First (sign, x) with {x, y, x} = 0 for every basis vector y of the
    opposite side, over the projective points of V+ and then of V-, the
    products by the dense trilinear loop; or None."""
    f = pair.field
    for sign in (1, -1):
        opp = _basis(f, pair.dim(-sign))
        for x in _projective(f.p, pair.dim(sign)):
            if not any(any(naive_triple(f, pair.table(sign), x, y, x))
                       for y in opp):
                return sign, x
    return None


def naive_q_products_vanish(pair, sub):
    """{a, b, c} = 0 for a, c in one side of the subpair and b in the
    other, on bases, by the dense trilinear loop."""
    f = pair.field
    for sign in (1, -1):
        mine, opp = sub.part(sign).rows, sub.part(-sign).rows
        if any(any(naive_triple(f, pair.table(sign), a, b, c))
               for a in mine for b in opp for c in mine):
            return False
    return True


def q_apply(pair, sign, x, y):
    """Q_x y = half {x, y, x} for x on the sign side."""
    f = pair.field
    half = f.inv(f.of(2))
    return tuple(f.of(half * c) for c in pair.triple(sign, x, y, x))


def q_matrix(pair, sign, x):
    """Matrix of Q_x for x on the sign side: row j is Q_x b_j."""
    return tuple(q_apply(pair, sign, x, e)
                 for e in _basis(pair.field, pair.dim(-sign)))


def derivation_matrix(der, i):
    """Basis map i of a DerivationSpace as a (dim I) x (dim L) tuple of
    rows."""
    n = der.algebra.dim
    flat = der.basis[i]
    return tuple(tuple(flat[u * n + k] for k in range(n))
                 for u in range(der.domain.dim))


def dump_path(path, obj, subspace=None):
    """Write the canonical algebra file of obj (and its mark) to path."""
    text = serialize_algebra(obj, subspace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def zero_subpair(pair):
    f = pair.field
    return SubPair(Subspace.zero(f, pair.dim_plus),
                   Subspace.zero(f, pair.dim_minus))


def semiprime_witness(alg, graded=False):
    """A nonzero abelian (graded) ideal, or None when semiprime: over Q
    the library's abelian_ideal_witness, over F_p Soc ∩ Ann(Soc), the sum
    of the abelian minimal (graded) ideals."""
    if alg.field.p is None:
        return abelian_ideal_witness(alg)
    soc = (graded_socle if graded else socle)(alg)
    witness = soc.intersect(alg.annihilator(soc))
    return None if witness.is_zero() else witness


def minimal_graded_ideals(alg):
    """Minimal nonzero graded ideals: over F_p the minimal ideals
    generated by one homogeneous element, over Q (semiprime input only)
    the parts of the split of the minimal ideals, with the envelope taking
    the degree projections when a centroid cuts a part."""
    return _minimal_ideals(alg, True, None)


def naive_pair_semiprime_witness(pair):
    """First principal pair ideal of the pair scan with Q_I I = 0, or
    None: every nonzero pair ideal contains a principal one."""
    for ideal in distinct_principal_pair_ideals(pair):
        if naive_q_products_vanish(pair, ideal):
            return ideal
    return None


def pair_axioms_hold_at_points(pair):
    """The three Jordan pair identities as operator equations at every
    point (x, y) of F_p^n x F_p^m, on both sides.  Each entry is a
    polynomial of degree at most 4 in each coordinate, so for p >= 5 this
    decides the same identities as the formal check in the constructor."""
    f, p = pair.field, pair.field.p
    for sign in (1, -1):
        for x in itertools.product(range(p), repeat=pair.dim(sign)):
            qx = q_matrix(pair, sign, x)
            for y in itertools.product(range(p), repeat=pair.dim(-sign)):
                dxy = pair.d_matrix(sign, x, y)
                dyx = pair.d_matrix(-sign, y, x)
                qxy = q_apply(pair, sign, x, y)
                qyx = q_apply(pair, -sign, y, x)
                qy = q_matrix(pair, -sign, y)
                if (mat_mul(qx, dxy, f) != mat_mul(dyx, qx, f)
                        or pair.d_matrix(sign, qxy, y)
                        != pair.d_matrix(sign, x, qyx)
                        or q_matrix(pair, sign, qxy)
                        != mat_mul(mat_mul(qx, qy, f), qx, f)):
                    return False
    return True


def naive_realized(emb):
    """The first (sigma, flat) of Der(E0, L), in check_axiomatic's order,
    that no s of S of degree sigma realizes as r |-> [s, r] on the rows of
    E0, or None: one solve_linear per derivation, on [s, r_u] = delta(r_u)
    for every row r_u and s vanishing off degree sigma.  Der(E0, L) is
    the Leibniz solution space, never the inner-derivation certificate
    that check_axiomatic may take in its place."""
    big, f = emb.big, emb.big.field
    small_alg, small_rows = emb.small_alg, emb.small_rows
    e0_small = graded_socle(small_alg)
    e0_big = span(f, big.dim,
                  [mat_vec(c, small_rows, f) for c in e0_small.rows])
    der = _leibniz_space(small_alg, e0_small)
    comps = der.components if der.components is not None else {0: der.basis}
    n = small_alg.dim
    for sigma, rows in sorted(comps.items()):
        for flat in rows:
            eqs, rhs = [], []
            for u, r in enumerate(e0_big.rows):
                rr = big.right_matrix(r)
                target = mat_vec(tuple(flat[u * n + k] for k in range(n)),
                                 small_rows, f)
                for c in range(big.dim):
                    eqs.append(tuple(rr[j][c] for j in range(big.dim)))
                    rhs.append(target[c])
            for j in range(big.dim):
                if big.degrees[j] != big.group.canon(sigma):
                    eqs.append(tuple(f.one if i == j else f.zero
                                     for i in range(big.dim)))
                    rhs.append(f.zero)
            if solve_linear(f, eqs, rhs, nunknowns=big.dim) is None:
                return (sigma, flat)
    return None


def naive_subpair_generated(pair, gens_plus, gens_minus):
    """Smallest subpair holding the generators: the span of each side,
    grown by the products {a, b, c} of basis rows until neither grows."""
    f = pair.field
    cur = {1: span(f, pair.dim_plus, gens_plus),
           -1: span(f, pair.dim_minus, gens_minus)}
    while True:
        nxt = {s: span(f, pair.dim(s), list(cur[s].rows)
                       + [naive_triple(f, pair.table(s), a, b, c)
                          for a in cur[s].rows for b in cur[-s].rows
                          for c in cur[s].rows])
               for s in (1, -1)}
        if all(nxt[s].dim == cur[s].dim for s in (1, -1)):
            return SubPair(cur[1], cur[-1])
        cur = nxt


def naive_tkk_table(pair):
    """The table of TKK(V) = V+ (+) IDer(V) (+) V- on the basis of
    inner_derivations, one block of basis pairs at a time, each bracket
    computed once for i < j and negated for j > i: [x+, y-] =
    delta(x, y), [gamma, x+] = gamma+ x, [gamma, y-] = gamma- y, and
    [gamma, mu] the componentwise operator commutator, whose matrix in
    the row convention (v @ M) is Mmu Mgamma - Mgamma Mmu."""
    f = pair.field
    n, m = pair.dim_plus, pair.dim_minus
    ider = inner_derivations(pair)
    d = ider.dim
    dim = n + d + m
    plus_mats = [ider.plus_matrix(flat) for flat in ider.basis]
    minus_mats = [ider.minus_matrix(flat) for flat in ider.basis]

    def middle(flat):
        co = ider.subspace.coords(flat)
        assert co is not None, "left the inner derivations"
        return (f.zero,) * n + tuple(co) + (f.zero,) * m

    zero = (f.zero,) * dim
    table = [[zero] * dim for _ in range(dim)]

    def put(i, j, vec):
        table[i][j] = tuple(vec)
        table[j][i] = tuple(f.neg(c) for c in vec)

    ep, em = _basis(f, n), _basis(f, m)
    for i in range(n):
        for j in range(m):
            put(i, n + d + j, middle(_delta_flat(pair, ep[i], em[j])))
    for a in range(d):
        for i in range(n):
            put(n + a, i,
                tuple(mat_vec(ep[i], plus_mats[a], f)) + (f.zero,) * (d + m))
        for j in range(m):
            put(n + a, n + d + j,
                (f.zero,) * (n + d) + tuple(mat_vec(em[j], minus_mats[a], f)))
    for a in range(d):
        for b in range(a + 1, d):
            flat = []
            for mats in (plus_mats, minus_mats):
                ab = mat_mul(mats[b], mats[a], f)
                ba = mat_mul(mats[a], mats[b], f)
                flat += [f.of(x - y) for r1, r2 in zip(ab, ba)
                         for x, y in zip(r1, r2)]
            put(n + a, n + b, middle(tuple(flat)))
    return tuple(tuple(r) for r in table)


def naive_tkk_ideal(pair, sub):
    """I+ (+) ([I+,V-]+[V+,I-]) (+) I- in tkk(pair) for a pair ideal I, as
    the span of I+, I-, and delta(a, y) = [a+, y-] and delta(x, b) for a
    in I+, b in I- and x, y running over the bases of V+ and V-."""
    data = tkk_data(pair)
    t = data.algebra
    f = pair.field
    rows = []
    for r in sub.plus.rows:
        rows.append(data.embed_plus(r))
    for r in sub.minus.rows:
        rows.append(data.embed_minus(r))
    for r in sub.plus.rows:
        for y in mat_identity(f, pair.dim_minus):
            rows.append(t.bracket(data.embed_plus(r), data.embed_minus(y)))
    for x in mat_identity(f, pair.dim_plus):
        for r in sub.minus.rows:
            rows.append(t.bracket(data.embed_plus(x), data.embed_minus(r)))
    return span(f, t.dim, rows)


def _all_pair_ideals(pair):
    """Every pair ideal of a pair over F_p, as (plus rows, minus rows): the
    sums of the principal ones, and zero."""
    f = pair.field
    seen = {((), ()): None}
    for ideal in distinct_principal_pair_ideals(pair):
        for plus, minus in list(seen):
            seen.setdefault(
                (span(f, pair.dim_plus, plus + ideal.plus.rows).rows,
                 span(f, pair.dim_minus, minus + ideal.minus.rows).rows),
                None)
    return list(seen)


def naive_pair_of_quotients(emb):
    """("true", None) when W is a pair of quotients of V, else ("false",
    (sign, q)) for the first projective point q of W (W+ first) at which
    no pair ideal I of V has Ann_V(I) = 0, absorbs q and does not vanish.

    The ideals are the sums of the principal pair ideals of the small
    pair, in big coordinates.  I absorbs q in W^sign when {q, V, I^sign}
    lies in V^sign, and {q, I, V} and {I, q, V} lie in V.  Ann_V(I) = 0 is
    checked at every projective point of V, and I vanishes at z when
    {z, I, V}, {z, V, I} and {V, z, I} are all zero.  Every product is
    the dense trilinear loop on basis rows."""
    big, sub, f = emb.big, emb.sub, emb.big.field
    v = {s: sub.part(s).rows for s in (1, -1)}

    def tri(sign, x, y, z):
        return naive_triple(f, big.table(sign), x, y, z)

    def inside(sign, vecs):
        return all(naive_coords(sub.part(sign), x) is not None for x in vecs)

    def vanishes(sign, z, ideal):
        return not any(any(x) for x in
                       [tri(sign, z, t, u) for t in ideal[-sign]
                        for u in v[sign]]
                       + [tri(sign, z, y, a) for y in v[-sign]
                          for a in ideal[sign]]
                       + [tri(-sign, y, z, t) for y in v[-sign]
                          for t in ideal[-sign]])

    def absorbs(sign, q, ideal):
        return (inside(sign, [tri(sign, q, y, a) for y in v[-sign]
                              for a in ideal[sign]])
                and inside(sign, [tri(sign, q, t, u) for t in ideal[-sign]
                                  for u in v[sign]])
                and inside(-sign, [tri(-sign, t, q, u) for t in ideal[-sign]
                                   for u in v[-sign]]))

    admissible = []
    for plus, minus in _all_pair_ideals(emb.small):
        ideal = {1: [mat_vec(c, v[1], f) for c in plus],
                 -1: [mat_vec(c, v[-1], f) for c in minus]}
        if not any(vanishes(s, mat_vec(c, v[s], f), ideal)
                   for s in (1, -1) for c in _projective(f.p, len(v[s]))):
            admissible.append(ideal)
    for sign in (1, -1):
        for q in _projective(f.p, big.dim(sign)):
            if not any(absorbs(sign, q, ideal)
                       and not vanishes(sign, q, ideal)
                       for ideal in admissible):
                return "false", (sign, q)
    return "true", None
