"""Exact scalar fields and the canonical-echelon subspace calculus.

Every identity here is checked against an independent recomputation in the
test body (cofactor determinants, rank-nullity counts, direct membership
loops), not against the library's own helpers.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _naive import naive_coords, naive_reduce

from gradlie.errors import ParseError
from gradlie.gallery import heis3, sl2
from gradlie.linalg import (
    Subspace,
    _first_nonzero,
    closure,
    determinant,
    kernel_basis,
    mat_identity,
    mat_mul,
    mat_vec,
    rank,
    rref,
    solve_linear,
    span,
    sum_intersect,
)
from gradlie.scalars import GF, QQ

F5 = GF(5)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
f5_scalars = st.integers(min_value=0, max_value=4)


def q_matrix(nrows, ncols):
    return st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)


def f5_matrix(nrows, ncols):
    return st.lists(
        st.lists(f5_scalars, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)


# -- fields -------------------------------------------------------------


def test_rational_parse_format_roundtrip():
    for s in ("0", "-2", "3/4", "-7/3", "12"):
        assert QQ.format(QQ.parse(s)) == s
    assert QQ.parse("3/4") == Fraction(3, 4)


def test_rational_inverse_and_neg():
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.neg(Fraction(1, 2)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_reduces_representatives():
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.of(12) == 2
    # inverses by direct multiplication
    for a in range(1, 5):
        assert (a * F5.inv(a)) % 5 == 1


def test_gf_rejects_composite_moduli():
    for n in (1, 4, 6, 9):
        with pytest.raises(ParseError):
            GF(n)


# -- echelon form and spans ----------------------------------------------


@given(q_matrix(3, 4))
def test_rref_is_idempotent_q(rows):
    first = rref(QQ, [list(r) for r in rows])
    again = rref(QQ, [list(r) for r in first])
    assert first == again


@given(f5_matrix(3, 4))
def test_rref_is_idempotent_f5(rows):
    first = rref(F5, [list(r) for r in rows])
    assert first == rref(F5, [list(r) for r in first])


@given(q_matrix(3, 3), st.permutations([0, 1, 2]),
       st.lists(st.sampled_from([1, -1, 2, 3]), min_size=3, max_size=3))
def test_span_ignores_row_order_and_scaling(rows, perm, scales):
    shuffled = [[Fraction(scales[i]) * c for c in rows[perm[i]]]
                for i in range(3)]
    assert span(QQ, 3, rows) == span(QQ, 3, shuffled)


@given(f5_matrix(4, 5))
def test_rank_nullity_f5(rows):
    r = rank(F5, rows)
    ker = kernel_basis(F5, rows, 5)
    assert r + ker.dim == 5
    # kernel rows annihilate every equation row
    for x in ker.rows:
        for eq in rows:
            assert sum(a * b for a, b in zip(eq, x)) % 5 == 0


@given(q_matrix(3, 4))
def test_kernel_vectors_satisfy_equations_q(rows):
    ker = kernel_basis(QQ, rows, 4)
    assert rank(QQ, rows) + ker.dim == 4
    for x in ker.rows:
        for eq in rows:
            assert sum(a * b for a, b in zip(eq, x)) == 0


def test_kernel_of_difference_functional():
    # x - y = 0 on Q^2 cuts out the diagonal
    ker = kernel_basis(QQ, [(Fraction(1), Fraction(-1))], 2)
    assert ker.rows == ((Fraction(1), Fraction(1)),)


# -- subspace lattice ----------------------------------------------------


def test_intersection_of_plane_and_diagonal():
    u = span(QQ, 2, [(1, 0), (0, 1)])
    w = span(QQ, 2, [(1, 1)])
    assert u.intersect(w) == w
    assert w.contains((Fraction(2), Fraction(2)))
    assert not w.contains((Fraction(2), Fraction(3)))


@given(q_matrix(2, 4), q_matrix(2, 4))
def test_dimension_formula(rows_u, rows_w):
    u = span(QQ, 4, rows_u)
    w = span(QQ, 4, rows_w)
    s, i = sum_intersect(u, w)
    assert s.dim + i.dim == u.dim + w.dim
    assert u.contains_space(i) and w.contains_space(i)
    assert s.contains_space(u) and s.contains_space(w)


@given(f5_matrix(2, 4), f5_matrix(2, 4))
def test_dimension_formula_f5(rows_u, rows_w):
    u = span(F5, 4, rows_u)
    w = span(F5, 4, rows_w)
    assert u.add(w).dim + u.intersect(w).dim == u.dim + w.dim


@given(q_matrix(2, 3))
def test_coords_reconstruct_members(rows):
    sub = span(QQ, 3, rows)
    for r in sub.rows:
        coeffs = sub.coords(r)
        assert coeffs is not None
        rebuilt = [QQ.zero] * 3
        for c, row in zip(coeffs, sub.rows):
            rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
        assert tuple(rebuilt) == tuple(r)


@st.composite
def subspace_and_vector(draw, field):
    """A subspace of field^n spanned by random rows and a vector that is a
    combination of those rows about half the time.  Over F_p the entries
    are unreduced (negative or >= p), and so are the vector's."""
    p = field.p
    scalars = rationals if p is None else st.integers(-3 * p, 3 * p)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 4))
    vectors = st.lists(scalars, min_size=n, max_size=n)
    rows = draw(st.lists(vectors, min_size=k, max_size=k))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(scalars, min_size=k, max_size=k))
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        if p is not None:
            vec = [x + p * draw(st.integers(-2, 2)) for x in vec]
    else:
        vec = draw(vectors)
    return Subspace(field, n, rows), tuple(vec)


def _agrees_with_elimination_loop(sub, vec):
    p = sub.field.p
    got = sub.coords(vec)
    assert sub.contains(vec) == (got is not None)
    assert sub.pivots() == tuple(_first_nonzero(r) for r in sub.rows)
    if p is None:
        assert got == naive_coords(sub, vec)
        assert sub.reduce(vec) == naive_reduce(sub, vec)
        return got
    # the loop decides membership of the reduced vector; on the raw one
    # it agrees mod p wherever it finds coordinates
    want = naive_coords(sub, [x % p for x in vec])
    assert got == want
    raw = naive_coords(sub, vec)
    if raw is not None:
        assert got == [x % p for x in raw]
    assert sub.reduce(vec) == tuple(x % p for x in naive_reduce(sub, vec))
    return got


@given(subspace_and_vector(QQ))
def test_coords_reduce_contains_match_elimination_loop_q(case):
    _agrees_with_elimination_loop(*case)


@pytest.mark.parametrize("p", [5, 7])
@given(data=st.data())
def test_coords_reduce_contains_match_elimination_loop_fp(p, data):
    sub, vec = data.draw(subspace_and_vector(GF(p)))
    _agrees_with_elimination_loop(sub, vec)


def test_coords_of_unreduced_members_over_f5():
    # (5, 0) is 0 in F5: a member of every subspace, with coordinates 0,
    # which the elimination loop, subtracting nothing, calls a non-member
    line = span(F5, 2, [(0, 1)])
    assert line.coords((5, 0)) == [0]
    assert naive_coords(line, (5, 0)) is None
    assert line.coords((-4, 13)) is None
    assert line.coords((10, 13)) == [3]
    assert line.reduce((-4, 13)) == (1, 0)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_cached_pivots_of_canonical_subspaces(field):
    # bases that skip the elimination: pivots given or read lazily
    alg = heis3(field)
    for sub in (Subspace.zero(field, 3), Subspace.full(field, 3),
                closure(span(field, 3, [(1, 1, 0)]), alg.right_matrix),
                kernel_basis(field, [(1, 1, 0, 2)], 4),
                Subspace(field, 3, span(field, 3, [(0, 1, 1)]).rows,
                         _canonical=True)):
        assert sub.pivots() == tuple(_first_nonzero(r) for r in sub.rows)
        for r in sub.rows:
            assert sub.reduce(r) == tuple(field.zero for _ in r)


def test_zero_and_full_subspaces():
    z = Subspace.zero(QQ, 3)
    f = Subspace.full(QQ, 3)
    assert z.is_zero() and z.dim == 0
    assert f.dim == 3 and f.contains((Fraction(1), Fraction(2), Fraction(3)))
    assert f.intersect(z) == z
    assert f.add(z) == f


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_closure_stops_at_full_rank(field):
    # sl2 is simple, so the ideal of e is everything: the images of e
    # bring in h ([f, e] = -h) and those of h bring in f ([f, h] = 2f).
    # Two calls reach full rank; the images of f are never asked for
    alg = sl2(field)
    n = alg.dim
    calls = []

    def images(v):
        calls.append(v)
        return alg.right_matrix(v)

    full = Subspace.full(field, n)
    got = closure(span(field, n, [(1, 0, 0)]), images)
    assert got.rows == full.rows and got == full
    assert len(calls) < n  # fewer than n * n image vectors
    calls.clear()
    assert closure(full, images).rows == full.rows
    assert not calls


# -- solving and determinants ---------------------------------------------


@given(q_matrix(3, 3), st.lists(rationals, min_size=3, max_size=3))
def test_solve_linear_recovers_consistent_systems(eqs, x0):
    rhs = [sum(e * x for e, x in zip(eq, x0)) for eq in eqs]
    sol = solve_linear(QQ, eqs, rhs)
    assert sol is not None
    for eq, b in zip(eqs, rhs):
        assert sum(e * x for e, x in zip(eq, sol)) == b


def test_solve_linear_reports_inconsistency():
    eqs = [(Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))]
    assert solve_linear(QQ, eqs, [Fraction(1), Fraction(1)]) is None


def _det3(m):
    # cofactor expansion, written out independently
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@given(q_matrix(3, 3))
def test_determinant_matches_cofactor_expansion(m):
    det = determinant(QQ, m)
    assert det == _det3(m)
    # never a float; an int exactly when integral
    assert type(det) is (int if det.denominator == 1 else Fraction)


@given(f5_matrix(3, 3), f5_matrix(3, 3))
def test_determinant_is_multiplicative_f5(a, b):
    ab = mat_mul(a, b, F5)
    assert determinant(F5, ab) == (determinant(F5, a) * determinant(F5, b)) % 5


@given(q_matrix(2, 3), q_matrix(3, 2), q_matrix(2, 2))
def test_matrix_product_associates(a, b, c):
    assert mat_mul(mat_mul(a, b, QQ), c, QQ) == mat_mul(a, mat_mul(b, c, QQ), QQ)


@given(st.lists(rationals, min_size=3, max_size=3))
def test_identity_acts_trivially(v):
    eye = mat_identity(QQ, 3)
    assert mat_vec(tuple(v), eye, QQ) == tuple(v)
