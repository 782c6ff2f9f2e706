"""Textbook oracles for the structure constants, the ideal closures, the
ideal predicates and the Jordan pair axioms, shared by several test
modules.  The Lie oracles read the dense table cell by cell, apart from
the library's sparse kernel."""

import itertools

from hypothesis import assume, strategies as st

from gradlie.enumeration import distinct_principal_ideals
from gradlie.lie import GradedLieAlgebra
from gradlie.linalg import mat_mul, rank, rref, span


def _basis(f, n):
    return [tuple(f.one if j == i else f.zero for j in range(n))
            for i in range(n)]


def naive_bracket(f, table, x, y):
    """[x, y] by bilinearity over every cell of a dense table."""
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


def naive_jacobi_violation(f, table):
    """First i < j < k whose cyclic Jacobi sum over the dense table is
    nonzero, or None."""
    n = len(table)
    basis = _basis(f, n)
    for i, j, k in itertools.combinations(range(n), 3):
        terms = (naive_bracket(f, table, table[a][b], basis[c])
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
        if any(f.of(sum(cs)) != f.zero for cs in zip(*terms)):
            return (i, j, k)
    return None


def change_basis(alg, rows):
    """The algebra in the basis given by rows (old coordinates), each row
    supported in one degree, which it keeps; the new structure constants
    are the dense brackets of the rows in new coordinates."""
    f, n = alg.field, alg.dim
    aug = rref(f, [list(r) + list(e) for r, e in zip(rows, _basis(f, n))])
    assert [tuple(r[:n]) for r in aug] == _basis(f, n), "rows not a basis"
    inverse = [r[n:] for r in aug]

    def coords(v):
        return tuple(f.of(sum(v[i] * inverse[i][k] for i in range(n)))
                     for k in range(n))

    table = [[coords(naive_bracket(f, alg.table, a, b)) for b in rows]
             for a in rows]
    degrees = [alg.degrees[next(i for i, c in enumerate(r) if c != f.zero)]
               for r in rows]
    return GradedLieAlgebra(f, alg.names, table, alg.group, degrees)


@st.composite
def homogeneous_bases(draw, alg):
    """Rows of a basis of alg for change_basis, drawn degree block by
    degree block: a scaled permutation (sparse) or small integers of full
    rank (dense) in the coordinates of each block."""
    f, n = alg.field, alg.dim
    dense = draw(st.booleans())
    rows = [None] * n
    for d in sorted(set(alg.degrees)):
        idx = [i for i in range(n) if alg.degrees[i] == d]
        if dense:
            block = [[f.of(draw(st.integers(-2, 2))) for _ in idx]
                     for _ in idx]
            assume(rank(f, block) == len(idx))
        else:
            perm = draw(st.permutations(range(len(idx))))
            block = [[f.of(draw(st.sampled_from([1, 2, -1, -2])))
                      if c == perm[r] else f.zero for c in range(len(idx))]
                     for r in range(len(idx))]
        for i, brow in zip(idx, block):
            row = [f.zero] * n
            for c, x in zip(idx, brow):
                row[c] = x
            rows[i] = tuple(row)
    return rows


def naive_zero_divisor(alg, graded):
    """First projective point x with mat_mul(ad x, ad x) = 0, or None."""
    for x in projective_points(alg, graded):
        ad = naive_ad(alg, x)
        if all(c == alg.field.zero for row in mat_mul(ad, ad, alg.field)
               for c in row):
            return x
    return None


def naive_is_prime(alg, graded):
    """Every ordered pair of nonzero principal (graded) ideals has a
    nonzero bracket."""
    ideals = [i for i in distinct_principal_ideals(alg, homogeneous_only=graded)
              if not i.is_zero()]
    return all(not alg.bracket_space(a, b).is_zero()
               for a in ideals for b in ideals)


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


def projective_points(alg, graded):
    """Every projective point, one block of coordinates at a time (the
    degrees in increasing order when graded): nonzero vectors on the
    block whose first nonzero entry is 1, by first nonzero position and
    then lexicographically."""
    p, n = alg.field.p, alg.dim
    if graded:
        blocks = [[i for i in range(n) if alg.degrees[i] == d]
                  for d in sorted(set(alg.degrees))]
    else:
        blocks = [list(range(n))]
    for block in blocks:
        points = []
        for coords in itertools.product(range(p), repeat=len(block)):
            lead = next((k for k, x in enumerate(coords) if x), None)
            if lead is not None and coords[lead] == 1:
                points.append((lead, coords))
        points.sort(key=lambda pt: pt[0])
        for _, coords in points:
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


def pair_axioms_hold_at_points(pair):
    """The three Jordan pair identities as operator equations at every
    point (x, y) of F_p^n x F_p^m, on both sides.  Each entry is a
    polynomial of degree at most 4 in each coordinate, so for p >= 5 this
    decides the same identities as the formal check in the constructor."""
    f, p = pair.field, pair.field.p
    for sign in (1, -1):
        for x in itertools.product(range(p), repeat=pair.dim(sign)):
            qx = pair.q_matrix(sign, x)
            for y in itertools.product(range(p), repeat=pair.dim(-sign)):
                dxy = pair.d_matrix(sign, x, y)
                dyx = pair.d_matrix(-sign, y, x)
                qxy = pair.q_apply(sign, x, y)
                qyx = pair.q_apply(-sign, y, x)
                qy = pair.q_matrix(-sign, y)
                if (mat_mul(qx, dxy, f) != mat_mul(dyx, qx, f)
                        or pair.d_matrix(sign, qxy, y)
                        != pair.d_matrix(sign, x, qyx)
                        or pair.q_matrix(sign, qxy)
                        != mat_mul(mat_mul(qx, qy, f), qx, f)):
                    return False
    return True
