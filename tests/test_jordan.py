"""Jordan pairs, triples and algebras: axiom validation, ideals and
annihilators, inner derivations, the three-graded Lie envelope, the
quotient-pair decider, and the maximal quotient constructions.

Closed-form oracles: on V = (k, k) with {x,y,z} = 2xyz the operators are
Q_x y = x^2 y and D_{x,y} = 2xy, so every construction below has an exact
scalar prediction.
"""

import contextlib
from fractions import Fraction as Fr
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from _naive import (
    change_pair_basis,
    naive_tkk_table,
    naive_pair_of_quotients,
    naive_pair_semiprime_witness,
    naive_pair_zero_divisor,
    naive_q_products_vanish,
    naive_subpair_generated,
    pair_axioms_hold_at_points,
    q_apply,
    q_matrix,
    zero_subpair,
)
from gradlie import jordan as J
from gradlie.analysis import killing_radical
from gradlie.derivations import is_quotient
from gradlie.errors import (
    AxiomViolation,
    BadCharacteristic,
    DimensionTooLarge,
    NotAPairIdeal,
    NotJordanThreeGraded,
    NotSemiprime,
    NotStronglyNondegenerate,
    ValidationError,
)
from gradlie.gallery import (
    build_lie,
    heis3,
    jordan_rank1,
    jordan_sym2,
    pair_field,
    pair_padded,
    pair_rect,
    pair_zero,
    padded_subpair,
    sl2,
    triple_2xyz,
)
from gradlie.lie import GradingGroup
from gradlie.linalg import Subspace, rank, span
from gradlie.scalars import GF, QQ
from gradlie.tables import cell_tree

F5 = GF(5)


# -- pair construction and validation ----------------------------------------


def test_pair_field_operators_have_closed_forms():
    pf = pair_field()
    x, y, z = (Fr(3),), (Fr(5),), (Fr(7),)
    assert pf.triple(1, x, y, x) == (Fr(90),)       # 2 * 3 * 5 * 3
    qxy = q_apply(pf, 1, x, y)
    assert qxy == (Fr(45),)                          # x^2 y
    assert q_apply(pf, 1, qxy, z) == (Fr(45 * 45 * 7),)
    assert pf.d_matrix(1, x, y) == ((Fr(30),),)      # 2xy


def test_pair_axioms_hold_for_rectangular_matrices():
    r = pair_rect(1, 2)
    assert r.dims() == (2, 2)
    assert pair_rect(2, 2, F5).dims() == (4, 4)


def test_pair_axiom_violation_detected():
    r = pair_rect(1, 2)
    tp = [[[list(c) for c in row] for row in plane] for plane in r.table_plus]
    tp[0][0][1][1] = Fr(7)  # corrupt one structure constant
    tp = tuple(tuple(tuple(tuple(c) for c in row) for row in plane)
               for plane in tp)
    with pytest.raises(AxiomViolation):
        J.JordanPair(QQ, r.names_plus, r.names_minus, tp, r.table_minus)


def _symmetric_corruption(field):
    """pair_rect(1, 2) with table_plus[0][0][1] and [1][0][0] changed
    together: outer symmetry still holds, so only the identities can
    reject it."""
    r = pair_rect(1, 2, field)
    tp = [[[list(c) for c in row] for row in plane] for plane in r.table_plus]
    tp[0][0][1][1] = tp[1][0][0][1] = field.of(7)
    return r, tp


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_pair_identity_violation_detected_formally(field):
    r, tp = _symmetric_corruption(field)
    with pytest.raises(AxiomViolation) as err:
        J.JordanPair(field, r.names_plus, r.names_minus, tp, r.table_minus)
    assert err.value.identity == "D_{x,y} Q_x = Q_x D_{y,x}"


def test_small_characteristics_are_rejected():
    with pytest.raises(BadCharacteristic):
        pair_field(GF(2))
    with pytest.raises(BadCharacteristic):
        pair_field(GF(3))


def test_pair_axioms_survive_exhaustive_f5_scan():
    # the point scan is an oracle for the formal check: it passes on pairs
    # the constructor accepts and fails on the symmetric corruption, built
    # here without the constructor
    for pair in (pair_field(F5), pair_rect(1, 2, F5), pair_zero(2, 1, F5),
                 pair_padded(F5)):
        assert pair_axioms_hold_at_points(pair)
    r, tp = _symmetric_corruption(F5)
    bad = object.__new__(J.JordanPair)
    bad.field = F5
    bad.names_plus, bad.names_minus = r.names_plus, r.names_minus
    bad.table_plus, bad.table_minus = tp, r.table_minus
    bad.cells = {1: cell_tree(tp, 3), -1: cell_tree(r.table_minus, 3)}
    assert not pair_axioms_hold_at_points(bad)


# -- subpairs, ideals, annihilators -------------------------------------------


def test_pair_ideal_predicates():
    r = pair_rect(1, 2)
    assert J.is_pair_ideal(r, J.full_subpair(r))
    assert J.is_pair_ideal(r, zero_subpair(r))
    half = J.SubPair(span(QQ, 2, [(QQ.one, QQ.zero)]), Subspace.zero(QQ, 2))
    assert not J.is_pair_ideal(r, half)


def test_padded_pair_splits_into_ideals():
    pp = pair_padded()
    first = padded_subpair(pp)
    assert J.is_pair_ideal(pp, first)
    dead = J.SubPair(span(QQ, 2, [(QQ.zero, QQ.one)]),
                     span(QQ, 2, [(QQ.zero, QQ.one)]))
    assert J.is_pair_ideal(pp, dead)
    # the dead coordinate annihilates everything
    ann = J.pair_annihilator(pp, J.full_subpair(pp))
    assert ann.plus == span(QQ, 2, [(QQ.zero, QQ.one)])
    assert ann.minus == span(QQ, 2, [(QQ.zero, QQ.one)])


def test_pair_ideal_generated_closes_up():
    pp = pair_padded()
    seed = J.SubPair(span(QQ, 2, [(QQ.one, QQ.one)]), Subspace.zero(QQ, 2))
    ideal = J.pair_ideal_generated(pp, seed)
    assert J.is_pair_ideal(pp, ideal)
    assert ideal.plus.contains((QQ.one, QQ.one))


def test_annihilator_of_nondegenerate_pair_vanishes():
    pf = pair_field()
    assert J.pair_annihilator(pf, J.full_subpair(pf)).is_zero()
    assert J.pair_annihilator(pf, zero_subpair(pf)).dims() == (1, 1)
    zp = pair_zero()
    assert J.pair_annihilator(zp, J.full_subpair(zp)).dims() == (1, 1)


# -- inner derivations and the graded envelope --------------------------------


def test_inner_derivation_dimensions():
    assert J.inner_derivations(pair_field()).dim == 1
    assert J.inner_derivations(pair_zero()).dim == 0
    assert J.inner_derivations(pair_rect(1, 2)).dim == 4


def test_tkk_computes_each_delta_once(monkeypatch):
    # TKK(M_23, M_32): the 6 * 6 deltas span IDer(V) and fill the cells
    # [x+_i, y-_j] of the table
    calls = []

    def counted(pair, x, y, _inner=J._delta_flat):
        calls.append((x, y))
        return _inner(pair, x, y)

    monkeypatch.setattr(J, "_delta_flat", counted)
    J.tkk(pair_rect(2, 3))
    assert len(calls) == len(set(calls)) == 36


def test_tkk_dimensions_and_grading():
    t = J.tkk(pair_field())
    assert t.dim == 3
    assert t.support() == [-1, 0, 1]
    assert J.tkk(pair_zero()).dim == 2
    assert J.tkk(pair_rect(1, 2)).dim == 8


def test_tkk_of_pair_field_satisfies_sl2_relations():
    pf = pair_field()
    d = J.tkk_data(pf)
    t = d.algebra
    xp = d.embed_plus((QQ.one,))
    xm = d.embed_minus((QQ.one,))
    h = t.bracket(xp, xm)
    assert t.bracket(h, xp) == tuple(2 * c for c in xp)
    assert t.bracket(h, xm) == tuple(-2 * c for c in xm)


def test_tkk_brackets_realize_the_triple_product():
    # [[x+, y-], z+] = {x, y, z}+ for all basis choices
    for pair in (pair_rect(1, 2), pair_padded()):
        d = J.tkk_data(pair)
        t = d.algebra
        np_, nm_ = pair.dims()
        for i in range(np_):
            x = d.embed_plus(tuple(QQ.one if a == i else QQ.zero
                                   for a in range(np_)))
            for j in range(nm_):
                y = d.embed_minus(tuple(QQ.one if a == j else QQ.zero
                                        for a in range(nm_)))
                for l in range(np_):
                    z = d.embed_plus(tuple(QQ.one if a == l else QQ.zero
                                           for a in range(np_)))
                    got = t.bracket(t.bracket(x, y), z)
                    want = d.embed_plus(pair.table(1)[i][j][l])
                    assert got == want


def test_tkk_ideal_construction():
    r = pair_rect(1, 2)
    t = J.tkk(r)
    assert J.tkk_ideal(r, J.full_subpair(r)).dim == t.dim
    assert J.tkk_ideal(r, zero_subpair(r)).is_zero()
    pp = pair_padded()
    lifted = J.tkk_ideal(pp, padded_subpair(pp))
    assert lifted.dim == 3  # two outer lines plus one inner derivation
    assert J.tkk(pp).is_ideal(lifted)
    half = J.SubPair(span(QQ, 2, [(QQ.one, QQ.zero)]), Subspace.zero(QQ, 2))
    with pytest.raises(NotAPairIdeal):
        J.tkk_ideal(r, half)


# -- associated pairs ----------------------------------------------------------


def test_associated_pair_of_sl2():
    ap = J.associated_pair(sl2())
    assert ap.c_v.is_zero()
    assert ap.pair.dims() == (1, 1)
    assert q_apply(ap.pair, 1, (Fr(1),), (Fr(1),)) == (Fr(1),)  # Q_e f = e


def test_associated_pair_of_heisenberg_collapses():
    ap = J.associated_pair(heis3())
    assert ap.pair.dims() == (1, 1)
    assert ap.pair.table_plus[0][0][0] == (Fr(0),)
    assert ap.c_v.dim == 1
    assert ap.tkk_algebra.dim == 2


def test_associated_pair_requires_jordan_grading():
    # gl2 shape: [L1, L-1] = span h is proper inside L0 = span{h, u}
    gl2 = build_lie(QQ, ["e", "f", "h", "u"], [1, -1, 0, 0],
                    {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2},
                     ("h", "f"): {"f": -2}})
    with pytest.raises(NotJordanThreeGraded):
        J.associated_pair(gl2)


def test_associated_pair_inverts_tkk():
    for make in (pair_field, lambda: pair_rect(1, 2), pair_zero):
        pair = make()
        ap = J.associated_pair(J.tkk(pair))
        assert ap.c_v.is_zero()
        assert ap.pair.dims() == pair.dims()
        assert ap.pair.table_plus == pair.table_plus
        assert ap.pair.table_minus == pair.table_minus
        assert rank(QQ, ap.map_rows) == J.tkk(pair).dim


# -- semiprimeness --------------------------------------------------------------


def test_pair_semiprime_predicates():
    assert J.pair_is_semiprime(pair_field())
    assert J.pair_is_strongly_nondegenerate(pair_field())
    assert J.pair_is_semiprime(pair_rect(1, 2))
    assert not J.pair_is_semiprime(pair_zero())
    assert not J.pair_is_semiprime(pair_padded())
    w = J.pair_semiprime_witness(pair_zero())
    assert w is not None and not w.is_zero()
    azd = J.pair_absolute_zero_divisor(pair_zero())
    assert azd is not None


def pair_sum(a, b):
    """The direct sum of two Jordan pairs over one field: a's coordinates
    first on each side, and no product mixes the summands."""
    f = a.field

    def table(sign):
        n, m = a.dim(sign) + b.dim(sign), a.dim(-sign) + b.dim(-sign)
        out = [[[[f.zero] * n for _ in range(n)] for _ in range(m)]
               for _ in range(n)]
        for src, off, opp in ((a, 0, 0), (b, a.dim(sign), a.dim(-sign))):
            for i, plane in enumerate(src.table(sign)):
                for j, row in enumerate(plane):
                    for l, vec in enumerate(row):
                        out[off + i][opp + j][off + l][off:off + len(vec)] = vec
        return out

    return J.JordanPair(f, a.names_plus + b.names_plus,
                        a.names_minus + b.names_minus,
                        table(1), table(-1))


def _pairs_with_unequal_sides(f):
    return [pair_zero(2, 3, f), pair_zero(3, 1, f), pair_zero(1, 2, f),
            pair_sum(pair_field(f), pair_zero(1, 2, f)),
            pair_sum(pair_zero(2, 1, f), pair_rect(1, 2, f)),
            pair_sum(pair_padded(f), pair_zero(1, 2, f))]


def test_pair_sum_of_gallery_pairs_is_a_pair():
    s = pair_sum(pair_field(), pair_rect(1, 2))
    assert s.dims() == (3, 3)
    x, y = (Fr(3), Fr(0), Fr(0)), (Fr(5), Fr(0), Fr(0))
    assert s.triple(1, x, y, x) == (Fr(90), Fr(0), Fr(0))
    assert J.pair_is_semiprime(s) and J.pair_is_strongly_nondegenerate(s)


@pytest.mark.parametrize("field", [QQ, F5, GF(7)], ids=repr)
def test_zero_pair_with_unequal_sides_has_zero_divisors(field):
    # every product of pair_zero vanishes, so every x != 0 has Q_x = 0;
    # the F_p scan once compared the rows of Q_x with a zero row of the
    # opposite side's length and found none when the lengths differed
    pz = pair_zero(2, 3, field)
    sign, x = J.pair_absolute_zero_divisor(pz)
    assert len(x) == pz.dim(sign) and any(x)
    assert all(not any(r) for r in q_matrix(pz, sign, x))
    assert not J.pair_is_strongly_nondegenerate(pz)
    assert not J.pair_is_semiprime(pz)


def test_pair_semiprime_agrees_over_f5():
    for make in (pair_field, lambda f=F5: pair_rect(1, 2, f),
                 pair_zero, pair_padded):
        over_q = make() if make is not pair_zero else pair_zero()
        try:
            over_5 = make(F5)
        except TypeError:
            over_5 = pair_zero(1, 1, F5)
        assert J.pair_is_semiprime(over_q) == J.pair_is_semiprime(over_5)
        assert (J.pair_is_strongly_nondegenerate(over_q)
                == J.pair_is_strongly_nondegenerate(over_5))
    for over_q, over_5 in zip(_pairs_with_unequal_sides(QQ),
                              _pairs_with_unequal_sides(F5)):
        assert over_q.dims() == over_5.dims()
        assert over_q.dims()[0] != over_q.dims()[1]
        assert J.pair_is_semiprime(over_q) == J.pair_is_semiprime(over_5)
        assert (J.pair_is_strongly_nondegenerate(over_q)
                == J.pair_is_strongly_nondegenerate(over_5))


def truncated_pair(f):
    """The pair of k[t]/(t^3) with {x, y, z} = 2xyz: t is nilpotent but
    Q_t 1 = t^2, so t^2 spans the divisors of V+."""
    table = [[[[2 if k == i + j + l else 0 for k in range(3)]
               for l in range(3)] for j in range(3)] for i in range(3)]
    return J.JordanTriple(f, ("1", "t", "t2"), table).double


def _scan_pairs(f):
    """Pairs small enough for the pair-scan oracle over F7."""
    return [pair_field(f), pair_rect(1, 2, f), pair_zero(1, 1, f),
            pair_zero(2, 1, f), pair_zero(1, 2, f), pair_padded(f),
            truncated_pair(f)]


@pytest.mark.parametrize("field", [QQ, F5, GF(7)], ids=repr)
def test_pair_divisors_among_radical_elements_that_are_not_divisors(field):
    # the Killing radical of TKK(V) holds t as well as t^2
    pair = truncated_pair(field)
    assert J.pair_absolute_zero_divisor(pair) == (1, (0, 0, 1))
    assert not J.pair_is_semiprime(pair)
    minus_only = pair_sum(pair_field(field), pair_zero(0, 1, field))
    assert J.pair_absolute_zero_divisor(minus_only) == (-1, (0, 1))
    assert J.pair_semiprime_witness(minus_only).dims() == (0, 1)


@st.composite
def _bases(draw, f, n):
    rows = [tuple(f.of(draw(st.integers(-2, 2))) for _ in range(n))
            for _ in range(n)]
    assume(rank(f, rows) == n)
    return rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tkk_route_matches_the_pair_scan(data):
    # the pair predicates read candidates off the Killing radical of
    # TKK(V); the oracle scans the Q_x of every point and the principal
    # pair ideals of every point, and finds the same first divisor
    f = GF(data.draw(st.sampled_from([5, 7]), label="p"))
    pair = data.draw(st.sampled_from(_scan_pairs(f)))
    other = data.draw(st.sampled_from([None] + _scan_pairs(f)))
    if other is not None and max(pair.dim(s) + other.dim(s)
                                 for s in (1, -1)) <= 3:
        pair = pair_sum(pair, other)
    if data.draw(st.booleans(), label="change basis"):
        tables = change_pair_basis(
            f, (pair.table_plus, pair.table_minus),
            data.draw(_bases(f, pair.dim_plus)),
            data.draw(_bases(f, pair.dim_minus)))
        pair = J.JordanPair(f, pair.names_plus, pair.names_minus, *tables)
    assert J.pair_absolute_zero_divisor(pair) == naive_pair_zero_divisor(pair)
    got = J.pair_semiprime_witness(pair)
    assert (got is None) == (naive_pair_semiprime_witness(pair) is None)
    if got is not None:
        assert not got.is_zero() and J.is_pair_ideal(pair, got)
        assert naive_q_products_vanish(pair, got)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tkk_table_matches_the_blockwise_oracle(data):
    # the tkk goldens hold four pairs in their gallery bases
    f = data.draw(st.sampled_from([QQ, F5, GF(7)]), label="field")
    pair = data.draw(st.sampled_from([
        pair_field(f), pair_rect(1, 2, f), pair_rect(2, 2, f),
        pair_padded(f), pair_zero(1, 2, f), triple_2xyz(f).double,
        jordan_sym2(f).derived_triple().double]))
    if data.draw(st.booleans(), label="change basis"):
        tables = change_pair_basis(
            f, (pair.table_plus, pair.table_minus),
            data.draw(_bases(f, pair.dim_plus)),
            data.draw(_bases(f, pair.dim_minus)))
        pair = J.JordanPair(f, pair.names_plus, pair.names_minus, *tables)
    assert J.tkk(pair).table == naive_tkk_table(pair)


def test_pair_predicates_never_scan_pair_ideals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pair scan ran")

    monkeypatch.setattr(J, "distinct_principal_pair_ideals", refuse)
    monkeypatch.setattr(J, "pair_ideal_generated", refuse)
    cases = [(pair_field(F5), True, True), (pair_rect(1, 2, F5), True, True),
             (pair_padded(F5), False, False),
             (pair_zero(2, 3, GF(7)), False, False),
             (pair_sum(pair_rect(1, 2, GF(7)), pair_zero(1, 2, GF(7))),
              False, False),
             (pair_sum(pair_field(F5), pair_rect(1, 2, F5)), True, True)]
    for pair, semiprime, nondegenerate in cases:
        assert J.pair_is_semiprime(pair) is semiprime
        assert J.pair_is_strongly_nondegenerate(pair) is nondegenerate


def test_semiprime_witness_passes_over_candidates_with_nonabelian_ideals(
        monkeypatch):
    # in characteristic p an absolute zero divisor can generate a
    # non-abelian ideal (a simple Lie algebra may hold some); simulate one
    # with the x of pair_field, whose TKK ideal is sl2
    pair = pair_sum(pair_field(F5), pair_zero(1, 1, F5))
    fake = (1, J.tkk(pair).basis_vector(0))
    real = list(J._divisor_candidates(pair, None))
    monkeypatch.setattr(J, "_divisor_candidates",
                        lambda pair, budget: iter([fake] + real))
    witness = J.pair_semiprime_witness(pair)
    assert witness.dims() == (1, 0) and naive_q_products_vanish(pair, witness)
    monkeypatch.setattr(J, "_divisor_candidates",
                        lambda pair, budget: iter([fake]))
    assert J.pair_semiprime_witness(pair) is None


def test_pair_predicates_charge_each_side_before_walking_it():
    # V+ of pair_zero(1, 3) is one point and holds a divisor, so a budget
    # of 1 decides both predicates before V- (31 points) is charged
    lopsided = pair_zero(1, 3, F5)
    assert J.pair_absolute_zero_divisor(lopsided, budget=1) == (1, (1,))
    assert not J.pair_is_semiprime(lopsided, budget=1)
    with pytest.raises(DimensionTooLarge):
        J.pair_is_semiprime(pair_zero(3, 1, F5), budget=1)
    # each side of pair_rect(1, 2) has 6 points and no divisor
    rect = pair_rect(1, 2, F5)
    assert J.pair_is_semiprime(rect, budget=6)
    with pytest.raises(DimensionTooLarge):
        J.pair_is_strongly_nondegenerate(rect, budget=5)


def test_rectangular_pair_whose_tkk_radical_is_everything():
    # over F5 the Killing form of TKK(M_23, M_32) vanishes, so every
    # point of V+ and V- is a candidate and each is tested and refuted
    pair = pair_rect(2, 3, F5)
    t = J.tkk(pair)
    assert killing_radical(t).dim == t.dim == 23
    assert J.pair_is_semiprime(pair)
    assert J.pair_is_strongly_nondegenerate(pair)


def test_pair_sum_with_a_large_tkk_radical_is_degenerate():
    pair = pair_sum(pair_rect(2, 2, F5), pair_zero(1, 1, F5))
    t = J.tkk(pair)
    assert t.dim == 17 and killing_radical(t).dim == 2
    assert not J.pair_is_semiprime(pair)
    sign, x = J.pair_absolute_zero_divisor(pair)
    assert all(not any(r) for r in q_matrix(pair, sign, x))
    assert not J.pair_is_strongly_nondegenerate(pair)


# -- quotient-pair decider -------------------------------------------------------


def test_pair_embedding_rejects_an_open_subpair():
    # {e11, f12, e22} = e12 leaves plus = span(e11, e22)
    pair = pair_rect(2, 2)
    plus = span(QQ, 4, [(1, 0, 0, 0), (0, 0, 0, 1)])
    minus = span(QQ, 4, [(0, 1, 0, 0)])
    with pytest.raises(ValidationError):
        J.PairEmbedding(pair, J.SubPair(plus, minus))


def test_reflexive_pair_is_its_own_quotients():
    pf = pair_field()
    v = J.is_pair_of_quotients(J.PairEmbedding(pf, J.full_subpair(pf)))
    assert v.value == "true"
    assert "absorbs" in v.reason


def test_padded_pair_refutes_quotients_over_f5():
    pp = pair_padded(F5)
    emb = J.PairEmbedding(pp, padded_subpair(pp))
    v = J.is_pair_of_quotients(emb)
    assert v.value == "false"
    assert v.witness == (1, (0, 1))  # the dead plus coordinate


def test_padded_pair_refutes_quotients_over_q():
    pp = pair_padded()
    emb = J.PairEmbedding(pp, padded_subpair(pp))
    v = J.is_pair_of_quotients(emb)
    assert v.value == "false"
    assert v.witness == (1, (Fr(0), Fr(1)))


def test_decider_requires_semiprime_small_pair():
    zp = pair_zero(1, 1, F5)
    with pytest.raises(NotSemiprime):
        J.is_pair_of_quotients(J.PairEmbedding(zp, J.full_subpair(zp)))


def _oracle_pairs(f):
    return [pair_field(f), pair_rect(1, 2, f), pair_padded(f),
            pair_zero(1, 1, f), triple_2xyz(f).double]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotients_decider_matches_its_definition(data):
    # the oracle tries every pair ideal of V at every point q of W; the
    # decider tries one candidate D(q) per point, or the certificate for
    # all of them at once, which the draw "scan" switches off
    f = GF(data.draw(st.sampled_from([5, 7]), label="p"))
    pair = data.draw(st.sampled_from(_oracle_pairs(f)))
    other = data.draw(st.sampled_from([None] + _oracle_pairs(f)))
    if other is not None and max(pair.dim(s) + other.dim(s)
                                 for s in (1, -1)) <= 3:
        pair = pair_sum(pair, other)
    gens = {s: data.draw(st.lists(st.tuples(*[st.integers(0, f.p - 1)]
                                            * pair.dim(s)), max_size=2),
                         label="generators %+d" % s)
            for s in (1, -1)}
    sub = naive_subpair_generated(pair, gens[1], gens[-1])
    if data.draw(st.booleans(), label="ideal"):
        sub = J.pair_ideal_generated(pair, sub)
    emb = J.PairEmbedding(pair, sub)
    assume(J.pair_is_semiprime(emb.small))
    scan = data.draw(st.booleans(), label="scan")
    with (mock.patch.object(J, "_certificate", lambda emb: None) if scan
          else contextlib.nullcontext()):
        got = J.is_pair_of_quotients(emb)
    assert (got.value, got.witness) == naive_pair_of_quotients(emb)


@pytest.mark.parametrize("field", [F5, GF(7)], ids=repr)
def test_annihilator_requirement_refutes_a_point(field):
    # at q = (1, 0, 1) the candidate D(q) is the field summand of V and q
    # does not vanish on it, but the rectangle part (0, 1, 3) of V kills
    # it, so Ann_V(D(q)) != 0 refutes q; the points before it pass
    pair = pair_sum(pair_field(field), pair_rect(1, 2, field))
    sub = J.SubPair(span(field, 3, [(1, 0, 0), (0, 1, 3)]),
                    span(field, 3, [(1, 0, 0), (0, 0, 1)]))
    emb = J.PairEmbedding(pair, sub)
    got = J.is_pair_of_quotients(emb)
    assert ((got.value, got.witness) == naive_pair_of_quotients(emb)
            == ("false", (1, (1, 0, 1))))


def _gallery_embeddings(f):
    pp = pair_padded(f)
    out = [J.PairEmbedding(pp, padded_subpair(pp))]
    for pair in (pair_field(f), pair_rect(1, 2, f), triple_2xyz(f).double,
                 jordan_sym2(f).derived_triple().double,
                 pair_sum(pair_field(f), pair_rect(1, 2, f))):
        out.append(J.PairEmbedding(pair, J.full_subpair(pair)))
    return out


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_per_element_tails_agree_with_the_certificate(field, monkeypatch):
    # the certificate decides every true gallery case, so without it the
    # per-element tails must reach the same verdicts on their own
    embs = _gallery_embeddings(field)
    certified = [J.is_pair_of_quotients(emb) for emb in embs]
    assert {v.value for v in certified} == {"true", "false"}
    monkeypatch.setattr(J, "_certificate", lambda emb: None)
    for emb, cert in zip(embs, certified):
        got = J.is_pair_of_quotients(emb)
        if cert.value == "false":
            assert (got.value, got.witness) == ("false", cert.witness)
        elif field.p is None:
            assert got.value == "verified-on-witnesses"
        else:
            assert (got.value, got.reason) == (
                "true", "exhaustive scan over both sides")


def test_lie_side_agrees_on_the_padded_pair():
    pp = pair_padded(F5)
    emb = J.PairEmbedding(pp, padded_subpair(pp))
    qe = J.tkk_embedding(emb)
    assert qe.big.dim == 5 and qe.small.dim == 3
    assert is_quotient(qe).value == "false"


# -- maximal quotients ------------------------------------------------------------


def test_maximal_pair_quotients_fix_the_field_pair():
    mpq = J.maximal_pair_quotients(pair_field())
    assert mpq.pair.dims() == (1, 1)
    assert rank(QQ, mpq.plus_map) == 1 and rank(QQ, mpq.minus_map) == 1
    assert mpq.verdict.value == "true"


def test_maximal_pair_quotients_fix_the_rectangles():
    mpq = J.maximal_pair_quotients(pair_rect(1, 2))
    assert mpq.pair.dims() == (2, 2)
    assert rank(QQ, mpq.plus_map) == 2 and rank(QQ, mpq.minus_map) == 2


def test_maximal_pair_quotients_need_nondegeneracy():
    with pytest.raises(NotStronglyNondegenerate):
        J.maximal_pair_quotients(pair_zero())


def _counted_poly_products(monkeypatch):
    calls = []

    def counted(tree, args, out_dim, _inner=J._poly_product):
        calls.append(out_dim)
        return _inner(tree, args, out_dim)

    monkeypatch.setattr(J, "_poly_product", counted)
    return calls


def test_triple_proves_its_identities_once(monkeypatch):
    # the double pair of a triple has equal tables, so its sign -1
    # identities are the sign +1 ones: 11 products for one side
    trip = jordan_sym2().derived_triple()
    calls = _counted_poly_products(monkeypatch)
    J.JordanTriple(QQ, trip.names, trip.table)
    assert len(calls) == 11
    # a pair with unequal tables still proves both sides
    calls.clear()
    padded = pair_padded()
    J.JordanPair(QQ, padded.names_plus, padded.names_minus,
                 padded.table_plus, padded.table_minus)
    assert len(calls) == 22


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_failing_triple_raises_on_the_plus_side(field):
    trip = jordan_sym2(field).derived_triple()
    table = [[[list(c) for c in row] for row in plane]
             for plane in trip.table]
    table[0][0][1][1] = field.of(7)
    with pytest.raises(AxiomViolation) as err:
        J.JordanTriple(field, trip.names, table)
    assert str(err.value) == ("identity outer symmetry fails at (0, 0, 1), "
                              "sign +1")
    table[1][0][0][1] = field.of(7)
    with pytest.raises(AxiomViolation) as err:
        J.JordanTriple(field, trip.names, table)
    assert str(err.value) == ("identity D_{x,y} Q_x = Q_x D_{y,x} fails on "
                              "the +1 side")


def test_triple_constructions():
    trip = triple_2xyz()
    assert trip.triple((Fr(3),), (Fr(5),), (Fr(7),)) == (Fr(210),)
    mtq = J.maximal_triple_quotients(trip)
    assert mtq.triple.dim == 1
    assert rank(QQ, mtq.embedding) == 1
    e0 = mtq.embedding[0]
    # the embedding preserves {t, t, t} = 2t
    assert mtq.triple.triple(e0, e0, e0) == tuple(Fr(2) * c for c in e0)
    assert mtq.pairs.verdict.value == "true"


# -- Jordan algebras ---------------------------------------------------------------


def test_jordan_algebra_validation():
    for f in (QQ, F5):
        tbl = (((f.zero, f.one), (f.one, f.zero)),
               ((f.one, f.zero), (f.zero, f.zero)))
        with pytest.raises(AxiomViolation) as err:
            J.JordanAlgebra(f, ("u", "v"), tbl)
        assert err.value.identity == "(x.x . y) . x = x.x . (y . x)"
        lop = (((f.zero, f.one), (f.one, f.zero)),
               ((f.zero, f.zero), (f.zero, f.zero)))
        with pytest.raises(AxiomViolation) as err:
            J.JordanAlgebra(f, ("u", "v"), lop)
        assert err.value.identity == "commutativity"


def test_jordan_units():
    assert jordan_rank1().unit() == (QQ.one,)
    assert jordan_sym2().unit() == (Fr(1), Fr(0), Fr(1))
    zero_alg = J.JordanAlgebra(QQ, ("n",), (((QQ.zero,),),))
    assert zero_alg.unit() is None


def test_maximal_jordan_algebra_quotients_fix_rank_one():
    mjq = J.maximal_jordan_algebra_quotients(jordan_rank1())
    assert mjq.algebra.dim == 1
    assert rank(QQ, mjq.embedding) == 1
    u = mjq.embedding[0]
    assert mjq.algebra.product(u, u) == u


def test_maximal_jordan_algebra_quotients_fix_sym2():
    sym2 = jordan_sym2()
    mjq = J.maximal_jordan_algebra_quotients(sym2)
    assert mjq.algebra.dim == 3
    assert rank(QQ, mjq.embedding) == 3
    # the unit maps to the unit
    image = [QQ.zero] * 3
    for c, row in zip(sym2.unit(), mjq.embedding):
        image = [x + c * y for x, y in zip(image, row)]
    assert mjq.algebra.unit() == tuple(image)
    assert mjq.triples.pairs.verdict.value == "true"


def test_quotients_recovery_needs_a_unit():
    zero_alg = J.JordanAlgebra(QQ, ("n",), (((QQ.zero,),),))
    with pytest.raises(ValidationError):
        J.maximal_jordan_algebra_quotients(zero_alg)
