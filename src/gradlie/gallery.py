"""Worked examples: small graded Lie algebras, matrix algebras with
involution, and Jordan systems used across the tests, demos, and CLI."""

from __future__ import annotations

from .scalars import QQ
from .lie import GradedLieAlgebra, GradingGroup, direct_sum
from .linalg import span
from .jordan import JordanAlgebra, JordanPair, JordanTriple, SubPair
from .assoc import AssocAlgebra


def build_lie(field, names, degrees, sparse, group=None):
    """Lie algebra from a sparse upper bracket table; antisymmetry is
    filled in, Jacobi is checked by the constructor."""
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    table = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for (a, b), terms in sparse.items():
        i, j = idx[a], idx[b]
        for nm, c in terms.items():
            k = idx[nm]
            val = field.of(c)
            table[i][j][k] = field.of(table[i][j][k] + val)
            table[j][i][k] = field.of(table[j][i][k] - val)
    table = tuple(tuple(tuple(r) for r in row) for row in table)
    if group is None:
        group = GradingGroup.integers() if degrees else GradingGroup.trivial()
    return GradedLieAlgebra(field, tuple(names), table, group,
                            tuple(degrees) if degrees else None)


# [a, b] = k c in sl2, as (a, b) -> (c, k)
_SL2 = {("e", "f"): ("h", 1), ("h", "e"): ("e", 2), ("h", "f"): ("f", -2)}


def sl2(field=QQ):
    """Traceless 2x2 matrices; e, f, h with degrees +1, -1, 0."""
    return build_lie(field, ["e", "f", "h"], [1, -1, 0],
                     {ab: {c: k} for ab, (c, k) in _SL2.items()})


def sl2sum(field=QQ):
    """Two commuting copies of sl2; the first component is a graded ideal
    that is not essential."""
    return direct_sum(sl2(field), sl2(field))


def sl2_sqrt2(field=QQ):
    """sl2 over k[t]/(t^2 - 2) as a 6-dimensional algebra e, f, h, te, tf,
    th.  Over Q it is simple (prime, one minimal ideal) with centroid
    Q(sqrt 2) of dimension 2; over F5 it is sl2 over F25, over F7 sl2 + sl2."""
    sparse = {}
    for (a, b), (c, k) in _SL2.items():
        sparse[(a, b)] = {c: k}
        sparse[("t" + a, b)] = sparse[(a, "t" + b)] = {"t" + c: k}
        sparse[("t" + a, "t" + b)] = {c: 2 * k}
    return build_lie(field, ["e", "f", "h", "te", "tf", "th"],
                     [1, -1, 0] * 2, sparse)


def sl2sum_swap(field=QQ):
    """sl2 + sl2 in the basis u_b = b + b' (degree 0) and v_b = b - b'
    (degree 1 of Z/2), b in e, f, h: [u_a, u_b] = [v_a, v_b] = u_[a,b] and
    [u_a, v_b] = v_[a,b].  Every basis vector meets both summands, so none
    generates a proper ideal: not prime, two minimal ideals of dim 3.  The
    grading automorphism swaps the summands, so the only graded ideals
    are 0 and L: graded prime.  Needs p != 2."""
    sparse = {}
    for (a, b), (c, k) in _SL2.items():
        for x in "uv":
            for y in "uv":
                sparse[(x + a, y + b)] = {("u" if x == y else "v") + c: k}
    return build_lie(field, ["ue", "uf", "uh", "ve", "vf", "vh"],
                     [0, 0, 0, 1, 1, 1], sparse, GradingGroup.mod(2))


def heis3(field=QQ):
    """Heisenberg algebra [x, y] = z graded by x:+1, y:-1, z:0; its
    center is z, so quotient checks refuse it."""
    return build_lie(field, ["x", "y", "z"], [1, -1, 0],
                     {("x", "y"): {"z": 1}})


def sln_e11(n, field=QQ):
    """sl_n with the 3-grading cut by the (1,1) matrix idempotent: first
    row +1, first column -1, the rest 0."""
    f = field
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    names = ["E%d%d" % (i + 1, j + 1) for (i, j) in pairs] + \
        ["H%d" % (k + 1) for k in range(n - 1)]
    deg = [1 if i == 0 else (-1 if j == 0 else 0) for (i, j) in pairs] + \
        [0] * (n - 1)
    dim = len(names)

    def mat(i, j):
        m = [[f.zero] * n for _ in range(n)]
        m[i][j] = f.one
        return m

    basis_mats = [mat(i, j) for (i, j) in pairs]
    for k in range(n - 1):
        m = [[f.zero] * n for _ in range(n)]
        m[k][k] = f.one
        m[k + 1][k + 1] = f.of(-1)
        basis_mats.append(m)

    def mat_br(x, y):
        z = [[f.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                s = f.zero
                for k in range(n):
                    s = f.of(s + x[i][k] * y[k][j] - y[i][k] * x[k][j])
                z[i][j] = s
        return z

    def to_coords(m):
        # off-diagonal entries map straight through; the diagonal part is
        # traceless and h_k = e_kk - e_{k+1,k+1} has partial sums as duals
        v = [f.zero] * dim
        for a, (i, j) in enumerate(pairs):
            v[a] = m[i][j]
        acc = f.zero
        for k in range(n - 1):
            acc = f.of(acc + m[k][k])
            v[len(pairs) + k] = acc
        return tuple(v)

    table = []
    for x in basis_mats:
        row = []
        for y in basis_mats:
            row.append(to_coords(mat_br(x, y)))
        table.append(tuple(row))
    return GradedLieAlgebra(f, tuple(names), tuple(table),
                            GradingGroup.integers(), tuple(deg))


def p_mod_i(field=QQ):
    """Real form of C[t]/(t^4) with bracket [p, q] = i(p conj(q) -
    conj(p) q): basis 1, i, t, it, t2, it2, t3, it3, degree = t-power.
    The real polynomials form the graded subalgebra of interest; the
    brackets are [t^r, i t^s] = -2 i t^(r+s), everything else zero."""
    names = ["1", "i", "x", "ix", "x2", "ix2", "x3", "ix3"]
    deg = [0, 0, 1, 1, 2, 2, 3, 3]
    sparse = {}
    for r in range(4):
        for s in range(4):
            if r + s >= 4:
                continue
            re = names[2 * r]
            im = names[2 * s + 1]
            out = names[2 * (r + s) + 1]
            if re != im:
                sparse.setdefault((re, im), {}).setdefault(out, 0)
                sparse[(re, im)][out] -= 2
    return build_lie(field, names, deg, sparse)


def p_mod_i_small(alg):
    """The real-coefficient subalgebra 1, x, x2, x3 plus the imaginary
    units needed for closure (i, ix2, ix3): indices 0, 1, 4, 5, 6, 7."""
    return span(alg.field, alg.dim,
                [alg.basis_vector(i) for i in (0, 1, 4, 5, 6, 7)])


def first_component(alg, dim_first):
    """The first-summand subspace of a direct sum."""
    return span(alg.field, alg.dim,
                [alg.basis_vector(i) for i in range(dim_first)])


# -- associative --------------------------------------------------------


def m_n_transpose(n, field=QQ):
    """Full n x n matrix algebra with the transpose involution and the
    trivial grading."""
    f = field
    pairs = [(i, j) for i in range(n) for j in range(n)]
    idx = {p: a for a, p in enumerate(pairs)}
    names = ["e%d%d" % (i + 1, j + 1) for (i, j) in pairs]
    d = n * n
    table = []
    for (i, j) in pairs:
        row = []
        for (c, dd) in pairs:
            v = [f.zero] * d
            if j == c:
                v[idx[(i, dd)]] = f.one
            row.append(tuple(v))
        table.append(tuple(row))
    inv = []
    for (i, j) in pairs:
        v = [f.zero] * d
        v[idx[(j, i)]] = f.one
        inv.append(tuple(v))
    return AssocAlgebra(f, names, tuple(table), involution=tuple(inv))


# -- Jordan systems ------------------------------------------------------


def pair_field(field=QQ):
    """V = (k, k) with {x, y, z} = 2xyz, so Q_x y = x^2 y."""
    two = field.of(2)
    t = ((((two,),),),)
    return JordanPair(field, ("x",), ("y",), t, t)


def pair_rect(p, q, field=QQ):
    """Rectangular matrix pair (M_pq, M_qp), {x, y, z} = xyz + zyx."""
    f = field
    np_, nm_ = p * q, q * p
    names_p = tuple("e%d%d" % (r + 1, c + 1)
                    for r in range(p) for c in range(q))
    names_m = tuple("f%d%d" % (r + 1, c + 1)
                    for r in range(q) for c in range(p))

    def as_mat(v, rows, cols):
        return [[v[r * cols + c] for c in range(cols)] for r in range(rows)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def build(na, ra, ca):
        nb = ca * ra
        basis_a = []
        for i in range(na):
            v = [f.zero] * na
            v[i] = f.one
            basis_a.append(v)
        basis_b = []
        for j in range(nb):
            v = [f.zero] * nb
            v[j] = f.one
            basis_b.append(v)
        out = []
        for va in basis_a:
            plane = []
            for vb in basis_b:
                row = []
                for vc in basis_a:
                    A = as_mat(va, ra, ca)
                    B = as_mat(vb, ca, ra)
                    C = as_mat(vc, ra, ca)
                    s1, s2 = mul(mul(A, B), C), mul(mul(C, B), A)
                    row.append(tuple(f.of(x + y)
                                     for r1, r2 in zip(s1, s2)
                                     for x, y in zip(r1, r2)))
                plane.append(tuple(row))
            out.append(tuple(plane))
        return tuple(out)

    return JordanPair(f, names_p, names_m, build(np_, p, q), build(nm_, q, p))


def pair_zero(np_=1, nm_=1, field=QQ):
    """All triple products zero; not semiprime once nonzero."""
    f = field
    names_p = tuple("a%d" % i for i in range(np_))
    names_m = tuple("b%d" % i for i in range(nm_))
    zp = (f.zero,) * np_
    zm = (f.zero,) * nm_
    tp = tuple(tuple(tuple(zp for _ in range(np_)) for _ in range(nm_))
               for _ in range(np_))
    tm = tuple(tuple(tuple(zm for _ in range(nm_)) for _ in range(np_))
               for _ in range(nm_))
    return JordanPair(f, names_p, names_m, tp, tm)


def pair_padded(field=QQ):
    """pair_field padded with a second coordinate all of whose products
    vanish; the first coordinates form a semiprime subpair."""
    f = field
    two = f.of(2)
    zz = (f.zero, f.zero)

    def tbl():
        t = [[[zz, zz] for _ in range(2)] for _ in range(2)]
        t[0][0][0] = (two, f.zero)
        return tuple(tuple(tuple(r) for r in p) for p in t)

    return JordanPair(f, ("x", "p"), ("y", "q"), tbl(), tbl())


def padded_subpair(pair):
    f = pair.field
    line = [(f.one, f.zero)]
    return SubPair(span(f, 2, line), span(f, 2, line))


def triple_2xyz(field=QQ):
    """One-generator triple {x, y, z} = 2xyz."""
    return JordanTriple(field, ("t",), ((((field.of(2),),),),))


def jordan_rank1(field=QQ):
    """J = k with x . y = xy."""
    return JordanAlgebra(field, ("u",), (((field.one,),),))


def jordan_sym2(field=QQ):
    """Symmetric 2x2 matrices under x . y = (xy + yx) / 2."""
    f = field
    half = f.inv(f.of(2))
    names = ("s11", "s12", "s22")

    def as_mat(v):
        return [[v[0], v[1]], [v[1], v[2]]]

    def prod(a, b):
        A, B = as_mat(a), as_mat(b)
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                s = f.zero
                for k in range(2):
                    s = f.of(s + A[i][k] * B[k][j] + B[i][k] * A[k][j])
                row.append(f.of(half * s))
            out.append(row)
        return (out[0][0], out[0][1], out[1][1])

    basis = [(f.one, f.zero, f.zero), (f.zero, f.one, f.zero),
             (f.zero, f.zero, f.one)]
    tbl = tuple(tuple(prod(basis[i], basis[j]) for j in range(3))
                for i in range(3))
    return JordanAlgebra(f, names, tbl)


LIE_GALLERY = {
    "sl2": sl2,
    "sl2sum": sl2sum,
    "heis3": heis3,
    "sl3": lambda field=QQ: sln_e11(3, field),
    "sl4": lambda field=QQ: sln_e11(4, field),
    "p_mod_i": p_mod_i,
}
