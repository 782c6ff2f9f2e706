"""The structure-constant table layer (gradlie.tables) that every class
shares: the shape check of freeze, and the bilinear and trilinear
evaluators against the dense loops of _naive.py, on gallery objects and
basis changes of them over Q, F5 and F7."""

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
    triple_2xyz,
)
from gradlie.jordan import JordanAlgebra, JordanPair, JordanTriple
from gradlie.lie import GradedLieAlgebra
from gradlie.scalars import GF, QQ

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
