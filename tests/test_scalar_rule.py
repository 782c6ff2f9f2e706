"""The scalar rule over Q: an integral rational is a Python int and only a
non-integral value is a Fraction (lowest terms, denominator 2 or more).
No Q code path returns a float, and no division on field values divides
two ints.

Inputs mix ints, integral Fractions such as Fraction(4, 2) and proper
Fractions, so every entry point sees both spellings of an integer.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from _naive import change_basis, homogeneous_bases
from gradlie.analysis import _quadratic_roots, structure_report
from gradlie.derivations import maximal_quotients
from gradlie.gallery import heis3, p_mod_i, sl2, sl2sum
from gradlie.jordan import JordanPair
from gradlie.lie import GradedLieAlgebra, GradingGroup
from gradlie.linalg import (
    Subspace,
    determinant,
    kernel_basis,
    rref,
    solve_linear,
)
from gradlie.scalars import QQ

integral = st.integers(-6, 6).flatmap(
    lambda n: st.sampled_from([n, Fraction(n), Fraction(2 * n, 2)]))
scalars = st.one_of(integral,
                    st.fractions(min_value=-6, max_value=6,
                                 max_denominator=4))


def matrices(nrows, ncols):
    return st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def canonical(x):
    """An int, or a Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def all_canonical(rows):
    return all(canonical(x) for row in rows for x in row)


# -- the field ------------------------------------------------------------


def test_field_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@given(scalars)
def test_field_of_reduce_and_inv_keep_the_rule(x):
    for y in (QQ.of(x), QQ.of(str(x)), -QQ.neg(QQ.of(x))):
        assert canonical(y) and y == x
    assert QQ.reduce([x, Fraction(x), 2 * x]) == (x, x, 2 * x)
    assert all(canonical(y) for y in QQ.reduce([x, Fraction(x), 2 * x]))
    if x:
        inv = QQ.inv(x)
        assert canonical(inv) and inv * x == 1


def test_inverse_of_units_is_an_int():
    for x in (1, -1, Fraction(1), Fraction(-2, 2)):
        assert type(QQ.inv(x)) is int and QQ.inv(x) * x == 1
    assert QQ.inv(2) == Fraction(1, 2)


# -- elimination ----------------------------------------------------------


@given(matrices(3, 4))
def test_rref_and_kernel_basis_keep_the_rule(m):
    assert all_canonical(rref(QQ, m))
    assert all_canonical(kernel_basis(QQ, m, 4).rows)


@given(matrices(3, 3), st.lists(scalars, min_size=3, max_size=3))
def test_solve_linear_and_determinant_keep_the_rule(m, rhs):
    x = solve_linear(QQ, m, rhs)
    if x is not None:
        assert all(canonical(v) for v in x)
    assert canonical(determinant(QQ, m))


def test_quadratic_roots_are_never_floats():
    # t = diag(1, 3): t^2 = 4 t - 3 I, roots 1 and 3; and diag(1/2, 3/2)
    for a, b in ((1, 3), (Fraction(1, 2), Fraction(3, 2))):
        roots = _quadratic_roots(QQ, ((a, 0), (0, b)))
        assert roots == (a, b) and all(canonical(r) for r in roots)


# -- structure ------------------------------------------------------------


@given(st.sampled_from([sl2, sl2sum, heis3, p_mod_i]).flatmap(
    lambda make: st.tuples(st.just(make()), homogeneous_bases(make()))),
    st.data())
def test_brackets_and_reports_keep_the_rule(alg_rows, data):
    alg = change_basis(*alg_rows)
    assert all_canonical(c for row in alg.table for c in row)
    x, y = (data.draw(st.lists(scalars, min_size=alg.dim,
                               max_size=alg.dim)) for _ in "xy")
    assert all(canonical(c) for c in alg.bracket(x, y))
    rep = structure_report(alg)
    assert canonical(rep.killing_det)
    if rep.socle is not None:
        assert all_canonical(rep.socle.rows)


def test_fraction_and_int_tables_build_one_algebra():
    # the same structure constants spelled as Fractions and as ints give
    # equal, hash-equal algebras, so a value-keyed memo answers both alike
    # whatever the process asked first
    def build(one, two):
        table = [[(0, 0, 0), (0, 0, one), (-two, 0, 0)],
                 [(0, 0, -one), (0, 0, 0), (0, two, 0)],
                 [(two, 0, 0), (0, -two, 0), (0, 0, 0)]]
        return GradedLieAlgebra(QQ, ("e", "f", "h"), table,
                                GradingGroup.integers(), (1, -1, 0))

    a, b = build(Fraction(1), Fraction(4, 2)), build(1, 2)
    assert a == b and hash(a) == hash(b) and a == sl2()
    assert all_canonical(c for row in a.table for c in row)
    assert maximal_quotients(b) is maximal_quotients(a)
    s = Subspace(QQ, 3, [(Fraction(2), 0, Fraction(4, 2))])
    t = Subspace(QQ, 3, [(1, 0, 1)], _canonical=True)
    assert s == t and hash(s) == hash(t)


def test_fraction_and_int_pair_tables_build_one_pair():
    def build(two):
        return JordanPair(QQ, ("x",), ("y",), ((((two,),),),),
                          ((((two,),),),))

    a, b = build(Fraction(2)), build(2)
    assert a == b and hash(a) == hash(b)
