"""The structure-constant table layer (gradlie.tables) that every class
shares: the shape check of freeze, the bilinear and trilinear
evaluators against the dense loops of _naive.py, on gallery objects and
basis changes of them over Q, F5 and F7, and the tables induced on new
bases."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from _naive import (
    change_basis,
    change_bilinear_basis,
    change_pair_basis,
    homogeneous_bases,
    naive_bracket,
    naive_triple,
)
from test_integral_validation import _nested
from test_scalar_rule import canonical
from gradlie.assoc import AssocAlgebra
from gradlie.errors import ValidationError
from gradlie.gallery import (
    heis3,
    jordan_rank1,
    jordan_sym2,
    m_n_transpose,
    p_mod_i,
    pair_field,
    pair_padded,
    pair_rect,
    sl2,
    sln_e11,
    triple_2xyz,
)
from gradlie.jordan import JordanAlgebra, JordanPair, JordanTriple
from gradlie.lie import GradedLieAlgebra
from gradlie.scalars import GF, QQ
from gradlie.linalg import span
from gradlie.tables import antisymmetric, induced

FIELDS = [QQ, GF(5), GF(7)]


def _first_cell(table, arity):
    for _ in range(arity):
        table = table[0]
    return table


def _defect(table, arity, kind):
    """The table with one shape defect: its first cell one entry longer
    or shorter, its first row one cell short, or one row too many."""
    t = _nested(table)
    if kind == "long cell":
        _first_cell(t, arity).append(0)
    elif kind == "short cell":
        _first_cell(t, arity).pop()
    elif kind == "short row":
        t[0].pop()
    else:
        t.append(t[0])
    return t


def _lie(kind):
    a = sl2()
    return GradedLieAlgebra(QQ, a.names, _defect(a.table, 2, kind), a.group,
                            a.degrees)


def _assoc(kind):
    a = m_n_transpose(2)
    return AssocAlgebra(QQ, a.names, _defect(a.table, 2, kind))


def _pair(kind):
    r = pair_rect(1, 2)
    return JordanPair(QQ, r.names_plus, r.names_minus,
                      _defect(r.table_plus, 3, kind), r.table_minus)


def _triple(kind):
    t = triple_2xyz()
    return JordanTriple(QQ, t.names, _defect(t.table, 3, kind))


def _jordan(kind):
    j = jordan_sym2()
    return JordanAlgebra(QQ, j.names, _defect(j.table, 2, kind))


@pytest.mark.parametrize("kind", ["long cell", "short cell", "short row",
                                  "extra row"])
@pytest.mark.parametrize("build", [_lie, _assoc, _pair, _triple, _jordan],
                         ids=["lie", "assoc", "pair", "triple", "jordan"])
def test_every_constructor_rejects_a_misshapen_table(build, kind):
    with pytest.raises(ValidationError) as err:
        build(kind)
    assert type(err.value) is ValidationError


def _bases(f, n):
    """Rows of a basis of f^n (homogeneous_bases with one degree)."""
    return homogeneous_bases(SimpleNamespace(field=f, dim=n,
                                             degrees=(0,) * n))


@st.composite
def _vectors(draw, f, n, count):
    """count vectors of length n: ints, and over Q also halves and
    thirds, so that some products are integral and some are not."""
    values = [-3, -2, -1, 0, 1, 2, 3]
    if f.p is None:
        values += [f.of("1/2"), f.of("-3/2"), f.of("2/3")]
    return [tuple(draw(st.lists(st.sampled_from(values), min_size=n,
                                max_size=n))) for _ in range(count)]


def _lie_case(draw, f):
    base = draw(st.sampled_from([sl2, heis3, p_mod_i]))(f)
    alg = change_basis(base, draw(homogeneous_bases(base)))
    x, y = draw(_vectors(f, alg.dim, 2))
    return alg.bracket(x, y), naive_bracket(f, alg.table, x, y)


def _assoc_case(draw, f):
    base = m_n_transpose(2, f)
    table, _ = change_bilinear_basis(f, base.table,
                                     draw(_bases(f, base.dim)))
    alg = AssocAlgebra(f, base.names, table)
    x, y = draw(_vectors(f, alg.dim, 2))
    return alg._mul_coords(x, y), naive_bracket(f, alg.table, x, y)


def _jordan_case(draw, f):
    base = draw(st.sampled_from([jordan_sym2, jordan_rank1]))(f)
    table, _ = change_bilinear_basis(f, base.table,
                                     draw(_bases(f, base.dim)))
    alg = JordanAlgebra(f, base.names, table)
    x, y = draw(_vectors(f, alg.dim, 2))
    return alg.product(x, y), naive_bracket(f, alg.table, x, y)


def _pair_case(draw, f):
    base = draw(st.sampled_from([pair_field, pair_padded,
                                 lambda f: pair_rect(1, 2, f)]))(f)
    tables = change_pair_basis(f, (base.table_plus, base.table_minus),
                               draw(_bases(f, base.dim_plus)),
                               draw(_bases(f, base.dim_minus)))
    pair = JordanPair(f, base.names_plus, base.names_minus, *tables)
    sign = draw(st.sampled_from([1, -1]))
    n, m = pair.dim(sign), pair.dim(-sign)
    (x, z), (y,) = draw(_vectors(f, n, 2)), draw(_vectors(f, m, 1))
    return (pair.triple(sign, x, y, z),
            naive_triple(f, pair.table(sign), x, y, z))


def _triple_case(draw, f):
    base = triple_2xyz(f)
    rows = draw(_bases(f, base.dim))
    table, _ = change_pair_basis(f, (base.table, base.table), rows, rows)
    trip = JordanTriple(f, base.names, table)
    x, y, z = draw(_vectors(f, trip.dim, 3))
    return trip.triple(x, y, z), naive_triple(f, trip.table, x, y, z)


@pytest.mark.parametrize("case", [_lie_case, _assoc_case, _jordan_case,
                                  _pair_case, _triple_case],
                         ids=["bracket", "assoc", "jordan", "pair", "triple"])
@given(data=st.data())
def test_evaluators_match_the_dense_loops(case, data):
    f = data.draw(st.sampled_from(FIELDS))
    got, want = case(data.draw, f)
    assert got == want
    if f.p is None:
        assert all(canonical(c) for c in got)
    else:
        assert all(type(c) is int and 0 <= c < f.p for c in got)


def _outcome(build):
    """The table build returns, or the class and message it raises."""
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


def test_induced_tables_stop_at_the_first_unreadable_cell():
    def read(v):
        return (v,) if v < 4 else None

    def product(*args):
        out = 1
        for a in args:
            out *= a
        return out

    assert induced(product, ([0, 1], [1, 3]), read, "") == (
        ((0,), (0,)), ((1,), (3,)))
    # row-major: (2, 0) reads 2, (2, 1) is the first product 4
    with pytest.raises(ValidationError, match=r"^cell \(2, 1\) is 4$"):
        induced(product, ([0, 1, 2, 3], [1, 2, 3]), read,
                "cell ({}, {}) is 4")
    # (0, 1, 1) is the first product 4 of three
    with pytest.raises(ValidationError, match=r"^cell \(0, 1, 1\)$"):
        induced(product, ([1, 2], [1, 2], [1, 2]), read, "cell ({}, {}, {})")

    # the antisymmetric builder multiplies once per unordered pair i < j,
    # never on the diagonal, and negates the mirror cell
    calls = []

    def wedge(x, y):
        calls.append((x, y))
        return x - y

    assert antisymmetric(QQ, wedge, [1, 2, 4], lambda v: (v, 0, 0), "") == (
        ((0, 0, 0), (-1, 0, 0), (-3, 0, 0)),
        ((1, 0, 0), (0, 0, 0), (-2, 0, 0)),
        ((3, 0, 0), (2, 0, 0), (0, 0, 0)))
    assert calls == [(1, 2), (1, 4), (2, 4)]
    # on every span of four basis vectors of sl3, closed or open, it
    # returns the table induced returns over the full square, or raises
    # the same class with the same message at the same first cell
    message = "bracket ({}, {}) left the subspace"
    for f in FIELDS:
        alg = sln_e11(3, f)
        for idx in itertools.combinations(range(alg.dim), 4):
            sub = span(f, alg.dim, [alg.basis_vector(i) for i in idx])
            rows = sub.rows
            want = _outcome(lambda: induced(alg.bracket, (rows, rows),
                                            sub.coords, message))
            assert _outcome(lambda: antisymmetric(
                f, alg.bracket, rows, sub.coords, message)) == want
