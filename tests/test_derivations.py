"""Derivation spaces, denominator ideals, quotient deciders and the
maximal quotients construction.

Leibniz identities and homomorphism properties are re-verified here by
direct loops over basis pairs rather than by trusting the construction
code's own internal checks.
"""

import pytest

from _naive import derivation_matrix, naive_realized
from gradlie.derivations import (
    QuotientEmbedding,
    check_axiomatic,
    denominator_ideal,
    derivation_space,
    envelope,
    graded_derivation_components,
    is_quotient,
    is_weak_quotient,
    maximal_quotients,
    maximal_quotients_match,
)
from gradlie.errors import (
    DecompositionIncomplete,
    DimensionTooLarge,
    NonzeroCenter,
    NotAnIdeal,
    NotSemiprime,
    ValidationError,
)
from gradlie.gallery import (
    first_component,
    heis3,
    p_mod_i,
    p_mod_i_small,
    sl2,
    sl2_sqrt2,
    sl2sum,
    sl2sum_swap,
    sln_e11,
)
from gradlie.lie import GradedLieAlgebra
from gradlie.linalg import mat_vec, rank, span
from gradlie.scalars import GF, QQ

F5 = GF(5)


def _check_leibniz(alg, der):
    """D[x, y] = [Dx, y] + [x, Dy] on all pairs of domain basis rows."""
    f = alg.field
    rows = der.domain.rows
    for i in range(der.dim):
        mat = derivation_matrix(der, i)

        def image(r):
            coords = der.domain.coords(r)
            out = [f.zero] * alg.dim
            for u, c in enumerate(coords):
                if c != f.zero:
                    out = [x + c * y for x, y in zip(out, mat[u])]
            return tuple(f.of(x) for x in out)

        for a in rows:
            for b in rows:
                lhs = image(alg.bracket(a, b))
                da_b = alg.bracket(image(a), b)
                a_db = alg.bracket(a, image(b))
                rhs = tuple(f.of(x + y) for x, y in zip(da_b, a_db))
                assert lhs == rhs


def test_derivations_of_sl2_are_inner():
    a = sl2()
    der = derivation_space(a, a.full_space())
    assert der.dim == 3
    _check_leibniz(a, der)
    assert graded_derivation_components(der) == {-1: 1, 0: 1, 1: 1}


def test_components_of_a_trivially_graded_or_non_graded_domain():
    # trivial grading: the whole space is the degree 0 component
    flat = sl2()
    flat = GradedLieAlgebra(QQ, flat.names, flat.table)
    der = derivation_space(flat, flat.full_space())
    assert der.components is None
    assert graded_derivation_components(der) == {0: 3}
    # Z-graded heis3 and its ideal span(x + y, z), which is not graded
    h = heis3()
    x, y, z = (h.basis_vector(i) for i in range(3))
    ideal = span(QQ, 3, [tuple(a + b for a, b in zip(x, y)), z])
    der = derivation_space(h, ideal)
    assert der.components is None
    with pytest.raises(DecompositionIncomplete):
        graded_derivation_components(der)


def test_derivations_of_heisenberg():
    # gl2 on the x, y plane plus two maps into the center: dimension 6
    h = heis3()
    der = derivation_space(h, h.full_space())
    assert der.dim == 6
    _check_leibniz(h, der)


def test_derivation_space_requires_an_ideal():
    a = sl2()
    with pytest.raises(NotAnIdeal):
        derivation_space(a, span(QQ, 3, [a.basis_vector(0)]))


def test_derivations_into_algebra_from_proper_ideal():
    s = sl2sum()
    comp = first_component(s, 3)
    der = derivation_space(s, comp)
    # maps vanish on nothing but may leave the component: ad of the second
    # summand restricted to the first is zero, so Der(I, L) is Der(I, I)
    assert der.dim == 3
    _check_leibniz(s, der)


def test_quotient_embedding_rejects_open_or_non_graded_spaces():
    a = sl2()
    e, f, h = (a.basis_vector(i) for i in range(3))
    # [e, f] = h leaves span(e, f)
    with pytest.raises(ValidationError):
        QuotientEmbedding(a, span(QQ, 3, [e, f]))
    # span(e + f) is closed, but not graded
    with pytest.raises(ValidationError):
        QuotientEmbedding(a, span(QQ, 3, [tuple(x + y for x, y in zip(e, f))]))


# -- envelopes and denominators ---------------------------------------------


def test_envelope_of_orthogonal_component_is_itself():
    s = sl2sum()
    emb = QuotientEmbedding(s, first_component(s, 3))
    e_prime = s.basis_vector(3)
    env = envelope(emb, e_prime)
    assert env == span(QQ, 6, [e_prime])
    # the whole small algebra absorbs it (all brackets vanish)
    assert denominator_ideal(emb, e_prime) == emb.small


def test_denominator_ideal_is_the_largest_absorber():
    a = p_mod_i()
    emb = QuotientEmbedding(a, p_mod_i_small(a))
    q = a.basis_vector(2)  # x, not in the small subalgebra
    assert not emb.small.contains(q)
    dq = denominator_ideal(emb, q)
    env = envelope(emb, q)
    small_alg, rows = emb.small_alg, emb.small_rows
    # absorbed: [dq, envelope] lands back in the small algebra
    for r in dq.rows:
        for w in env.rows:
            assert emb.small.contains(a.bracket(r, w))
    # largest: any small basis vector absorbing the envelope lies in dq
    for v in rows:
        if all(emb.small.contains(a.bracket(v, w)) for w in env.rows):
            assert dq.contains(v)
    # and it is an ideal of the small algebra
    coords = span(QQ, small_alg.dim,
                  [emb.small.coords(r) for r in dq.rows])
    assert small_alg.is_ideal(coords)


def test_denominator_of_inside_elements_is_everything():
    a = p_mod_i()
    emb = QuotientEmbedding(a, p_mod_i_small(a))
    for r in emb.small.rows:
        assert denominator_ideal(emb, r) == emb.small


# -- maximal quotients -------------------------------------------------------


def test_maximal_quotients_of_sl2():
    a = sl2()
    mq = maximal_quotients(a)
    assert mq.algebra.dim == 3
    assert rank(QQ, mq.embedding) == 3
    assert mq.witness_ideal == a.full_space()
    # the embedding is a homomorphism onto the derivation algebra
    qm = mq.algebra
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = qm.bracket(mq.embedding[i], mq.embedding[j])
            br = a.bracket(a.basis_vector(i), a.basis_vector(j))
            rhs = [QQ.zero] * qm.dim
            for k, c in enumerate(br):
                if c != QQ.zero:
                    rhs = [x + c * y for x, y in zip(rhs, mq.embedding[k])]
            assert lhs == tuple(rhs)


def test_maximal_quotients_needs_semiprimeness():
    with pytest.raises(NotSemiprime):
        maximal_quotients(heis3())


def test_maximal_quotients_results_are_cached():
    a = sl2()
    assert maximal_quotients(a) is maximal_quotients(a)


def test_memoized_maximal_quotients_still_respect_the_budget():
    a = sl2(F5)
    assert maximal_quotients(a).algebra.dim == 3
    with pytest.raises(DimensionTooLarge):
        maximal_quotients(a, budget=1)


def test_graded_and_plain_maximal_quotients_match():
    for alg in (sl2(), sl2sum()):
        plain, graded, report = maximal_quotients_match(alg)
        assert report["isomorphic"]
        assert report["dim"] == report["dim_graded"]
        assert report.get("core_matches", True)


# -- quotient deciders --------------------------------------------------------


def test_reflexive_embedding_is_a_quotient():
    a = sl2()
    emb = QuotientEmbedding(a, a.full_space())
    assert is_quotient(emb).value == "true"
    assert is_weak_quotient(emb).value == "true"
    assert is_quotient(emb, graded=True).value == "true"


def test_orthogonal_component_is_not_a_quotient():
    s = sl2sum()
    emb = QuotientEmbedding(s, first_component(s, 3))
    v = is_quotient(emb)
    assert v.value == "false"
    # the witness is the top-degree basis vector of the annihilator
    assert v.witness == s.basis_vector(3)
    assert s.names[3] == "e'"
    assert is_weak_quotient(emb).value == "false"
    # same verdicts after reducing mod 5
    s5 = sl2sum(F5)
    emb5 = QuotientEmbedding(s5, first_component(s5, 3))
    assert is_quotient(emb5).value == "false"
    assert is_weak_quotient(emb5).value == "false"


def test_polynomial_counterexample_embedding():
    a = p_mod_i()
    emb = QuotientEmbedding(a, p_mod_i_small(a))
    graded_strict = is_quotient(emb, graded=True)
    assert graded_strict.value == "false"
    assert graded_strict.witness == a.basis_vector(6)  # x3
    plain_strict = is_quotient(emb)
    assert plain_strict.value == "false"
    assert is_weak_quotient(emb, graded=True).value == "true"


def test_polynomial_counterexample_over_f5():
    a = p_mod_i(F5)
    emb = QuotientEmbedding(a, p_mod_i_small(a))
    assert is_quotient(emb, graded=True).value == "false"
    assert is_weak_quotient(emb, graded=True).value == "true"


def test_central_algebras_are_refused():
    h = heis3()
    emb = QuotientEmbedding(h, h.full_space())
    with pytest.raises(NonzeroCenter):
        is_weak_quotient(emb)
    with pytest.raises(NonzeroCenter):
        is_quotient(emb)


def test_annihilator_in_ambient():
    s = sl2sum()
    ann = s.annihilator(first_component(s, 3))
    assert ann == span(QQ, 6, [s.basis_vector(i) for i in (3, 4, 5)])


# -- axiomatic characterization ----------------------------------------------


def test_axiomatic_conditions_for_sl2_inside_its_quotients():
    a = sl2()
    mq = maximal_quotients(a, graded=True)
    emb = QuotientEmbedding(mq.algebra, list(mq.embedding))
    report = check_axiomatic(emb)
    assert report.absorption and report.faithful and report.realized
    assert report.passed


def test_axiomatic_check_requires_graded_semiprime_base():
    a = p_mod_i()
    emb = QuotientEmbedding(a, p_mod_i_small(a))
    with pytest.raises(NotSemiprime):
        check_axiomatic(emb)


def _gallery_embeddings(field):
    for alg in (sl2(field), sl2sum(field), sln_e11(3, field),
                sl2sum_swap(field), sl2_sqrt2(field)):
        yield QuotientEmbedding(alg, alg.full_space())
        for graded in (False, True):
            mq = maximal_quotients(alg, graded=graded)
            yield QuotientEmbedding(mq.algebra, list(mq.embedding))


def _psl3_f3():
    """sl3 modulo its center (the scalars, as 3 = 0) over F3: simple, with
    derivations that are not inner, so realizability fails."""
    a = sln_e11(3, GF(3))
    return a.quotient_by_ideal(a.center())[0]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_realizability_matches_one_solve_per_derivation(field):
    for emb in _gallery_embeddings(field):
        report = check_axiomatic(emb)
        assert report.realized and "realized" not in report.witnesses
        assert naive_realized(emb) is None


def test_unrealized_derivation_witness_matches_the_solve_loop():
    psl3 = _psl3_f3()
    trivial = GradedLieAlgebra(psl3.field, psl3.names, psl3.table)
    for alg in (psl3, trivial):
        emb = QuotientEmbedding(alg, alg.full_space())
        report = check_axiomatic(emb)
        witness = naive_realized(emb)
        assert witness is not None
        assert not report.realized
        assert report.witnesses["realized"] == witness
