"""Integer validation of structure constants against field-element
oracles: associativity and the involution of AssocAlgebra, and the Jordan
pair and Jordan algebra identities.

The constructors scale the constants to integers (Field.integral) and
reduce mod p only where two sides are compared.  The oracles in _naive.py
are the dense loops and the formal identity check in field elements
(Fractions over Q).  Every input is a basis change with entries of
denominator 2 or 3, so over Q the tables are not integral.  Then, in most
examples, one structure constant is perturbed, with its mirror where
commutativity or outer symmetry asks for one.  The constructor must raise
the oracle's error, with the same indices or identity, or both accept.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from _naive import (
    change_bilinear_basis,
    change_pair_basis,
    naive_assoc_violation,
    naive_jordan_violation,
)
from gradlie.assoc import AssocAlgebra, exchange_double
from gradlie.errors import AssociativityViolation, AxiomViolation
from gradlie.gallery import (
    jordan_sym2,
    m_n_transpose,
    pair_padded,
    pair_rect,
)
from gradlie.jordan import JordanAlgebra, JordanPair
from gradlie.scalars import GF, QQ

FIELDS = [QQ, GF(5), GF(7)]
ENTRIES = [0, 1, -1, 2, Fr(1, 2), Fr(-1, 3), Fr(3, 2)]
UNITS = [1, -1, 2, Fr(1, 2), Fr(-2, 3)]
DELTAS = [1, -1, Fr(1, 2), Fr(2, 3)]
# 2^31 - 1: residues near 2^31, so products of two or three constants
# pass 2^62, beyond a machine word
BIG = GF(2 ** 31 - 1)


@st.composite
def rational_bases(draw, f, n):
    """Rows of a basis: a diagonal of units times an upper unitriangular
    matrix with entries in ENTRIES, rows permuted.  Its determinant is a
    product of units, so it is a basis over every field used here."""
    rows = []
    for i in range(n):
        u = draw(st.sampled_from(UNITS))
        rows.append(tuple(f.zero if j < i else f.of(u) if j == i
                          else f.of(u * draw(st.sampled_from(ENTRIES)))
                          for j in range(n)))
    return draw(st.permutations(rows))


def _nested(table):
    """A copy of a table of cells in lists, down to the cells."""
    if not isinstance(table[0], (list, tuple)):
        return list(table)
    return [_nested(sub) for sub in table]


def _same_verdict(want, build):
    """build() raises an error equal to want (same class and message, so
    the same indices or identity), or want is None and build() accepts."""
    if want is None:
        build()
        return
    with pytest.raises(type(want)) as err:
        build()
    assert type(err.value) is type(want)
    assert str(err.value) == str(want)


ASSOC = {
    "m2": lambda f: m_n_transpose(2, f),
    "m2_double": lambda f: exchange_double(m_n_transpose(2, f)),
}


@pytest.mark.parametrize("name", sorted(ASSOC))
@given(data=st.data())
def test_assoc_validation_matches_the_fraction_loops(name, data):
    f = data.draw(st.sampled_from(FIELDS))
    a = ASSOC[name](f)
    n = a.dim
    table, inv = change_bilinear_basis(f, a.table, data.draw(
        rational_bases(f, n)), a.involution)
    table, inv = _nested(table), [list(r) for r in inv]
    where = data.draw(st.sampled_from(
        ["none", "table", "involution", "identity"]))
    delta = f.of(data.draw(st.sampled_from(DELTAS)))
    index = st.integers(0, n - 1)
    if where == "table":
        i, j, k = (data.draw(index) for _ in range(3))
        table[i][j][k] = f.of(table[i][j][k] + delta)
    elif where == "involution":
        i, k = (data.draw(index) for _ in range(2))
        inv[i][k] = f.of(inv[i][k] + delta)
    elif where == "identity":
        # an automorphism of order one: only the anti-homomorphism fails
        inv = [[f.one if r == c else f.zero for c in range(n)]
               for r in range(n)]
    _same_verdict(naive_assoc_violation(f, table, inv),
                  lambda: AssocAlgebra(f, a.names, table, involution=inv))


@given(data=st.data())
def test_jordan_algebra_validation_matches_the_field_identity_check(data):
    f = data.draw(st.sampled_from(FIELDS))
    jalg = jordan_sym2(f)
    n = jalg.dim
    table, _ = change_bilinear_basis(f, jalg.table,
                                     data.draw(rational_bases(f, n)))
    table = _nested(table)
    if data.draw(st.booleans()):
        index = st.integers(0, n - 1)
        i, j, k = (data.draw(index) for _ in range(3))
        delta = f.of(data.draw(st.sampled_from(DELTAS)))
        for a, b in {(i, j), (j, i)}:
            table[a][b][k] = f.of(table[a][b][k] + delta)
    _same_verdict(naive_jordan_violation(f, (table,)),
                  lambda: JordanAlgebra(f, jalg.names, table))


def _perturbed_pair_tables(f, pair, rows_plus, rows_minus, where):
    """The pair's tables in the given bases, with {b_i, b_j, b_l}_k and
    its outer mirror {b_l, b_j, b_i}_k moved by delta on one side when
    where = (sign, i, j, l, k, delta)."""
    tables = [_nested(t) for t in change_pair_basis(
        f, (pair.table_plus, pair.table_minus), rows_plus, rows_minus)]
    if where is not None:
        sign, i, j, l, k, delta = where
        t = tables[0 if sign > 0 else 1]
        for a, b in {(i, l), (l, i)}:
            t[a][j][b][k] = f.of(t[a][j][b][k] + delta)
    return tables


# in pair_padded the two tables have different denominators after a
# basis change, so a scale taken per table would show
PAIRS = {"pair_rect12": lambda f: pair_rect(1, 2, f), "pair_padded":
         pair_padded}


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(data=st.data())
def test_jordan_pair_validation_matches_the_field_identity_check(name,
                                                                 data):
    f = data.draw(st.sampled_from(FIELDS))
    pair = PAIRS[name](f)
    rows_plus = data.draw(rational_bases(f, pair.dim_plus))
    rows_minus = data.draw(rational_bases(f, pair.dim_minus))
    where = None
    if data.draw(st.booleans()):
        sign = data.draw(st.sampled_from([1, -1]))
        n, m = pair.dim(sign), pair.dim(-sign)
        i, l, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        j = data.draw(st.integers(0, m - 1))
        where = (sign, i, j, l, k, f.of(data.draw(st.sampled_from(DELTAS))))
    tables = _perturbed_pair_tables(f, pair, rows_plus, rows_minus, where)
    _same_verdict(naive_jordan_violation(f, tables),
                  lambda: JordanPair(f, pair.names_plus, pair.names_minus,
                                     *tables))


def _sparse_pair_tables(f, n, m, plus, minus):
    """Dense pair tables (plus dimension n, minus m) from {(i, j, l, k):
    c}, each entry also set at its outer mirror (l, j, i, k)."""
    tables = []
    for entries, a, b in ((plus, n, m), (minus, m, n)):
        t = [[[[f.zero] * a for _ in range(a)] for _ in range(b)]
             for _ in range(a)]
        for (i, j, l, k), c in entries.items():
            t[i][j][l][k] = t[l][j][i][k] = f.of(c)
        tables.append(t)
    return tables


# pairs whose first failure a perturbation rarely reaches: (dimensions,
# plus and minus entries, the identity and side that fail first)
FAILING_PAIRS = {
    "minus side": (2, 2, {}, {(0, 1, 0, 0): 1, (1, 1, 1, 0): 2},
                   "D_{x,y} Q_x = Q_x D_{y,x}", -1),
    "second identity": (2, 1, {(0, 0, 0, 0): 2, (1, 0, 1, 0): 2},
                        {(0, 0, 0, 0): 2}, "D_{Q_x y, y} = D_{x, Q_y x}", 1),
}


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5", "F7"])
@pytest.mark.parametrize("name", sorted(FAILING_PAIRS))
def test_jordan_pair_errors_name_the_oracles_identity_and_side(name,
                                                                field):
    n, m, plus, minus, identity, sign = FAILING_PAIRS[name]
    tables = change_pair_basis(
        field, _sparse_pair_tables(field, n, m, plus, minus),
        _fixed_basis(field, n), _fixed_basis(field, m))
    want = naive_jordan_violation(field, tables)
    assert str(want) == str(AxiomViolation(identity,
                                           " on the %+d side" % sign))
    _same_verdict(want, lambda: JordanPair(
        field, ["p%d" % i for i in range(n)], ["m%d" % j for j in range(m)],
        *tables))


def _fixed_basis(f, n):
    """A non-monomial basis with entries of denominator 2 and 3."""
    return [tuple(f.zero if j < i else f.of(Fr(-2, 3) if j == i else
                                            Fr(j + 1, 2 + i % 2))
                  for j in range(n)) for i in range(n)]


def test_assoc_validation_is_exact_at_a_large_prime():
    a = m_n_transpose(2, BIG)
    table, inv = change_bilinear_basis(BIG, a.table, _fixed_basis(BIG, 4),
                                       a.involution)
    AssocAlgebra(BIG, a.names, table, involution=inv)
    table = _nested(table)
    table[1][2][3] = BIG.of(table[1][2][3] + 1)
    want = naive_assoc_violation(BIG, table, inv)
    assert isinstance(want, AssociativityViolation)
    with pytest.raises(AssociativityViolation) as err:
        AssocAlgebra(BIG, a.names, table, involution=inv)
    assert err.value.indices == want.indices


def test_jordan_pair_validation_is_exact_at_a_large_prime():
    pair = pair_rect(1, 2, BIG)
    basis = _fixed_basis(BIG, 2)
    JordanPair(BIG, pair.names_plus, pair.names_minus,
               *_perturbed_pair_tables(BIG, pair, basis, basis, None))
    tables = _perturbed_pair_tables(BIG, pair, basis, basis,
                                    (1, 0, 1, 1, 0, BIG.one))
    want = naive_jordan_violation(BIG, tables)
    assert isinstance(want, AxiomViolation)
    with pytest.raises(AxiomViolation) as err:
        JordanPair(BIG, pair.names_plus, pair.names_minus, *tables)
    assert err.value.identity == want.identity
    assert str(err.value) == str(want)
