"""Structural predicates: Killing form, semiprimeness, socles, essential
ideals, and the graded-core extraction for 3-graded algebras.

The sl2 Killing matrix is recomputed in-test from traces of adjoint
products, independent of the library's own accumulation order.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import corpus
from _naive import (
    change_basis,
    minimal_graded_ideals,
    naive_is_essential,
    naive_is_prime,
    naive_is_semiprime,
    naive_socle,
    seeded_homogeneous_basis,
    semiprime_witness,
)
from gradlie import analysis
from gradlie.analysis import (
    _apply_poly,
    _minpoly_factors,
    _quadratic_roots,
    abelian_ideal_witness,
    absolute_zero_divisor_witness,
    graded_core,
    is_essential_ideal,
    is_prime,
    is_semiprime,
    is_strongly_nondegenerate,
    killing_determinant,
    killing_matrix,
    killing_radical,
    minimal_ideals,
    require_three_graded,
    socle,
    graded_socle,
    structure_report,
    zero_divisors,
)
from gradlie.enumeration import (distinct_principal_ideals, iter_projective,
                                 projective_count, resolve_budget)
from gradlie.errors import (DimensionTooLarge, NotThreeGraded, ParseError,
                            UndecidedError)
from gradlie.gallery import (
    build_lie,
    first_component,
    heis3,
    p_mod_i,
    sl2,
    sl2_sqrt2,
    sl2sum,
    sl2sum_swap,
    sln_e11,
)
from gradlie.lie import GradedLieAlgebra, direct_sum
from gradlie.linalg import mat_mul, mat_vec, span
from gradlie.scalars import GF, QQ

F5 = GF(5)
F3 = GF(3)


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def test_killing_matrix_matches_trace_recomputation():
    a = sl2()
    k = killing_matrix(a)
    for i in range(3):
        for j in range(3):
            prod = mat_mul(a.ad_matrix(a.basis_vector(i)),
                           a.ad_matrix(a.basis_vector(j)), QQ)
            assert k[i][j] == _trace(prod)
    # classical values for e, f, h: K(e,f) = 4, K(h,h) = 8, rest zero
    assert k == ((Fraction(0), Fraction(4), Fraction(0)),
                 (Fraction(4), Fraction(0), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(8)))
    assert killing_determinant(a) == Fraction(-128)


def test_killing_form_of_nilpotent_algebra_vanishes():
    h = heis3()
    assert killing_determinant(h) == 0
    assert killing_radical(h).dim == 3


def test_semiprime_over_q():
    assert is_semiprime(sl2())
    assert is_semiprime(sl2sum())
    assert not is_semiprime(heis3())
    assert not is_semiprime(p_mod_i())
    assert is_semiprime(sln_e11(3))


def test_semiprime_witness_is_an_abelian_ideal():
    h = heis3()
    w = semiprime_witness(h)
    assert w is not None and not w.is_zero()
    assert h.is_ideal(w)
    assert h.bracket_space(w, w).is_zero()
    assert semiprime_witness(sl2()) is None


def test_semiprime_exhaustive_f5_agrees():
    for make in (sl2, sl2sum, heis3):
        assert is_semiprime(make(QQ)) == is_semiprime(make(F5))


def test_abelian_ideal_witness_is_graded():
    w = abelian_ideal_witness(p_mod_i())
    a = p_mod_i()
    assert w is not None
    assert a.is_graded_subspace(w)


def test_absolute_zero_divisors():
    h = heis3()
    w = absolute_zero_divisor_witness(h)
    assert w is not None
    ad = h.ad_matrix(w)
    assert all(c == QQ.zero for row in mat_mul(ad, ad, QQ) for c in row)
    assert absolute_zero_divisor_witness(sl2()) is None
    assert is_strongly_nondegenerate(sl2())
    assert not is_strongly_nondegenerate(heis3())
    # exhaustive check over F5 agrees
    assert is_strongly_nondegenerate(sl2(F5))
    assert not is_strongly_nondegenerate(heis3(F5))


@pytest.mark.parametrize("make", [lambda: heis3(F5), lambda: sl2sum(F5),
                                  lambda: heis3(GF(2)), lambda: sl2(GF(2)),
                                  lambda: sl2(GF(3))],
                         ids=["heis3@5", "sl2sum@5", "heis3@2", "sl2@2",
                              "sl2@3"])
def test_zero_divisors_over_fp_are_the_scan_hits_in_scan_order(make):
    # only the points of the Killing radical are walked (all of L when
    # p = 2), and they come in the order a scan of the block meets them
    alg = make()
    blocks = [alg.full_space()] + [alg.degree_component(d)
                                   for d in alg.support()]
    for block in blocks:
        hits = [x for x in iter_projective(alg.field.p, block.rows)
                if alg.is_in_quadratic_annihilator(x)]
        assert list(zero_divisors(alg, block)) == hits


@pytest.mark.parametrize("make", [heis3, p_mod_i, sl2sum],
                         ids=["heis3", "p_mod_i", "sl2sum"])
def test_zero_divisors_over_q_are_the_abelian_ideal_in_the_block(make):
    alg = make()
    ideal = abelian_ideal_witness(alg) or alg.zero_space()
    for d in alg.support():
        block = alg.degree_component(d)
        got = list(zero_divisors(alg, block))
        assert got == list(ideal.intersect(block).rows)
        for x in got:
            ad = alg.ad_matrix(x)
            assert not any(c for row in mat_mul(ad, ad, QQ) for c in row)
    # graded, the witness is the first row of the ideal's top degree
    top = max(ideal.rows, key=alg.degree_of, default=None)
    assert absolute_zero_divisor_witness(alg, graded=True) == top


def test_structure_report_over_q_builds_the_killing_form_once(monkeypatch):
    # the determinant and the radical read one Killing matrix memoized on
    # the algebra, and every predicate reads the memoized radical
    calls = []

    def counted(alg, _inner=analysis.killing_matrix):
        calls.append(alg)
        return _inner(alg)

    monkeypatch.setattr(analysis, "killing_matrix", counted)
    for make in (lambda: sln_e11(3), heis3, p_mod_i):
        calls.clear()
        structure_report(make())
        assert len(calls) == 1


def test_minimal_ideals_and_socle_of_a_sum():
    s = sl2sum()
    mins = minimal_ideals(s)
    assert sorted(m.dim for m in mins) == [3, 3]
    assert socle(s).dim == 6
    assert socle(sl2()).dim == 3
    assert graded_socle(s).dim == 6


def test_socle_of_heisenberg_over_f5():
    h = heis3(F5)
    soc = socle(h)
    assert soc == span(F5, 3, [(0, 0, 1)])
    assert graded_socle(h) == soc


def test_socle_of_heisenberg_over_q_is_its_center():
    # heis3 is not semiprime, so the Killing criterion does not give the
    # socle; the radical of its ad-envelope does
    h = heis3()
    assert socle(h) == span(QQ, 3, [(0, 0, 1)])
    assert graded_socle(h) == socle(h)


def test_envelope_over_the_budget_leaves_the_q_socle_undecided():
    # over Q there is no scan to fall back to
    rep = structure_report(heis3(), budget=1)
    assert rep.socle_dim is None
    assert rep.methods["socle"] == ("the envelope of dimension 3 is over "
                                    "the budget")
    assert not rep.semiprime


def test_structure_report_charges_the_q_prime_question_to_its_budget():
    # sl3 is simple, so no basis vector generates a proper ideal and only
    # its centroid can answer; sl2sum is split by a basis vector for free
    rep = structure_report(sln_e11(3), budget=1)
    assert rep.prime is None
    assert rep.methods["prime"] == ("the centroid of dimension 8 is over "
                                    "the budget")
    assert rep.semiprime and rep.socle_dim == 8
    rep = structure_report(sl2sum(), budget=1)
    assert rep.prime is False
    assert rep.methods["prime"] == "principal-ideal-probe"
    with pytest.raises(UndecidedError):
        is_prime(sln_e11(3), budget=1)


def test_essential_ideals():
    s = sl2sum()
    comp = first_component(s, 3)
    assert not is_essential_ideal(s, comp)
    assert is_essential_ideal(s, s.full_space())
    assert is_essential_ideal(sl2(), sl2().full_space())
    # every nonzero ideal of the Heisenberg algebra contains the center
    h = heis3(F5)
    assert is_essential_ideal(h, span(F5, 3, [(0, 0, 1)]))


def test_prime_predicates():
    assert is_prime(sl2())
    assert not is_prime(sl2sum())
    assert not is_prime(heis3())
    assert is_prime(sl2(F5))
    assert not is_prime(sl2sum(F5))
    assert not is_prime(heis3(F5))


@given(p=st.sampled_from([5, 7]), graded=st.booleans(),
       pieces=st.lists(st.sampled_from(["sl2", "heis3", "sln_e11(2)"]),
                       min_size=1, max_size=2))
def test_prime_over_fp_matches_all_pairs_oracle(p, graded, pieces):
    # is_prime reads the commutant of the envelope on the socle; the
    # oracle brackets every ordered pair of nonzero principal ideals.  A
    # plain scan of a 6-dimensional sum over F7 takes 1-2 s, so there
    # sums are graded.
    assume(p == 5 or graded or len(pieces) == 1)
    make = {"sl2": sl2, "heis3": heis3, "sln_e11(2)": lambda f: sln_e11(2, f)}
    algs = [make[name](GF(p)) for name in sorted(pieces)]
    alg = algs[0] if len(algs) == 1 else direct_sum(*algs)
    assert is_prime(alg, graded=graded) == naive_is_prime(alg, graded)


PIECES = {"sl2": sl2, "heis3": heis3, "sl2sum": sl2sum, "p_mod_i": p_mod_i,
          "sln_e11(2)": lambda f: sln_e11(2, f)}


@st.composite
def _sums_and_quotients(draw):
    """One or two gallery pieces over F5 or F7 summed, maybe divided by
    the ideal of a basis vector, and whether to ask graded: always when a
    plain scan would walk more than 4,000 points."""
    f = GF(draw(st.sampled_from([5, 7])))
    names = draw(st.lists(st.sampled_from(sorted(PIECES)), min_size=1,
                          max_size=2))
    algs = [PIECES[name](f) for name in names]
    alg = algs[0] if len(algs) == 1 else direct_sum(*algs)
    if draw(st.booleans()):
        b = alg.basis_vector(draw(st.integers(0, alg.dim - 1)))
        alg = alg.quotient_by_ideal(alg.ideal_generated([b]))[0]
    graded = draw(st.booleans()) or projective_count(f.p, alg.dim) > 4000
    return alg, graded


@given(case=_sums_and_quotients())
def test_envelope_radical_matches_the_principal_ideal_scan(case):
    alg, graded = case
    soc = (graded_socle if graded else socle)(alg)
    assert soc == naive_socle(alg, graded)
    semi = is_semiprime(alg, graded=graded)
    assert semi == naive_is_semiprime(alg, graded)
    assert is_prime(alg, graded=graded) == naive_is_prime(alg, graded)
    witness = semiprime_witness(alg, graded=graded)
    assert (witness is None) == semi
    if witness is not None:
        assert alg.is_ideal(witness)
        assert alg.bracket_space(witness, witness).is_zero()
        assert not graded or alg.is_graded_subspace(witness)
    for ideal in distinct_principal_ideals(alg, homogeneous_only=graded):
        if not ideal.is_zero():
            assert (is_essential_ideal(alg, ideal, graded=graded)
                    == naive_is_essential(alg, ideal, graded))


def test_certificate_failure_falls_back_to_the_scan():
    # abelian of dimension 5 over F5: the envelope is the scalars, and
    # tr(1) = 5 = 0 puts 1 in the trace radical, which is not nilpotent
    zero = (0,) * 5
    a = GradedLieAlgebra(F5, "abcde", [[zero] * 5 for _ in range(5)])
    rep = structure_report(a)
    assert rep.methods["socle"] == "exhaustive-Fp (certificate failed)"
    assert (rep.semiprime, rep.prime, rep.socle_dim) == (False, False, 5)
    for graded in (False, True):
        assert not is_semiprime(a, graded=graded)
        assert not is_prime(a, graded=graded)
        assert semiprime_witness(a, graded=graded) == a.full_space()
    line = span(F5, 5, [a.basis_vector(0)])
    assert not is_essential_ideal(a, line)
    assert is_essential_ideal(a, a.full_space())


def test_three_questions_over_fp_cost_one_scan(monkeypatch):
    # heis3 over F3 fails the envelope's certificate, so the scan decides
    # semiprime, prime and the socle from one memoized structure
    calls = []

    def counted(alg, graded, budget, _inner=analysis._scanned_minimal_ideals):
        calls.append(graded)
        return _inner(alg, graded, budget)

    monkeypatch.setattr(analysis, "_scanned_minimal_ideals", counted)
    h = heis3(F3)
    assert (is_semiprime(h), is_prime(h), socle(h).dim) == (False, False, 1)
    assert structure_report(h).methods["prime"] == (
        "exhaustive-Fp (certificate failed)")
    assert calls == [False]


@pytest.mark.parametrize("graded", [False, True])
def test_minimal_ideals_of_a_proven_prime_algebra_skip_the_scan(graded):
    # the plain scan of sl3 over F5 needs 97,656 points; the envelope
    # proves it prime at a charge of 8^4 * (8 + 3) = 45,056, and its socle
    # is then the one minimal ideal
    a = sln_e11(3, F5)
    assert analysis._decide(a, "prime", graded, 50000) == (
        True, "envelope-radical")
    got = analysis._minimal_ideals(a, graded, 50000)
    assert got == (a.full_space(),)
    if graded:
        assert got == analysis._scanned_minimal_ideals(a, graded, 50000)
    else:
        with pytest.raises(DimensionTooLarge):
            analysis._scanned_minimal_ideals(a, graded, 50000)


def test_a_refusal_moves_down_the_ladder_to_the_last_step():
    a = sl2sum(F5)
    charge = analysis._envelope_charge(a)
    assert analysis._decide(a, "prime", budget=charge) == (
        False, "envelope-radical")
    assert analysis._decide(a, "prime", budget=charge - 1) == (
        False, "exhaustive-Fp")
    with pytest.raises(DimensionTooLarge):  # the scan is the last step
        analysis._decide(a, "prime", budget=1)
    with pytest.raises(UndecidedError):  # over Q the envelope is
        analysis._decide(heis3(), "socle", budget=1)


def test_prime_with_a_commutant_bigger_than_the_field():
    # sl2 over F25 = F5[t]/(t^2 - 2) as a 6-dimensional F5-algebra: simple,
    # so prime, while End_A(L) = F25 has dimension 2 with a fixed line
    a = sl2_sqrt2(F5)
    for graded in (False, True):
        assert is_prime(a, graded=graded) and naive_is_prime(a, graded)
    assert structure_report(a).methods["prime"] == "envelope-radical"


def _psl3(field):
    a = sln_e11(3, field)
    return a.quotient_by_ideal(a.center())[0]


NORTON_BASES = {"sl2": sl2, "sln3": lambda f: sln_e11(3, f),
                "sln4": lambda f: sln_e11(4, f), "psl3": _psl3,
                "sl2sum": sl2sum, "sl2sum_swap": sl2sum_swap,
                "heis3": heis3, "p_mod_i": p_mod_i, "sl2_sqrt2": sl2_sqrt2}
NORTON_CASES = ([(name, p) for name in NORTON_BASES
                 if name not in ("sln4", "psl3") for p in (2, 3, 5, 7)]
                + [("sln4", 7), ("psl3", 3)])
# absolutely irreducible under ad L: the simple algebras whose centroid
# is F_p (psl3 over F3 has a degenerate Killing form); sl2_sqrt2 over F3
# and F5 is simple with centroid F_{p^2}, and over F7 a sum of two sl2
ABSOLUTELY_SIMPLE = {("sl2", 3), ("sl2", 5), ("sl2", 7), ("sln3", 2),
                     ("sln3", 5), ("sln3", 7), ("sln4", 7), ("psl3", 3)}


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("name, p", NORTON_CASES,
                         ids=["%s@F%d" % case for case in NORTON_CASES])
def test_norton_step_answers_as_the_envelope_or_not_at_all(name, p, dense):
    base = NORTON_BASES[name](GF(p))
    rng = random.Random("%s %d %s" % (name, p, dense))
    alg = change_basis(base, seeded_homogeneous_basis(base, dense, rng))
    for graded in (False, True):
        got = analysis._norton_step(alg, graded, None)
        # graded, the swap of sl2sum_swap's summands leaves no graded ideal
        if (name, p) in ABSOLUTELY_SIMPLE or (
                graded and name == "sl2sum_swap" and p != 2):
            assert got == analysis._envelope_step(alg, graded, None)
            assert got["socle"] == alg.full_space()
        else:
            assert got == {}


def test_sl4_over_f5_is_decided_without_spanning_the_envelope(monkeypatch):
    def spanned(*args):
        raise AssertionError("the envelope was spanned")

    monkeypatch.setattr(analysis, "_envelope", spanned)
    a = sln_e11(4, F5)
    assert analysis._norton_charge(a) <= resolve_budget()
    assert analysis._decide(a, "prime") == (True, "norton-irreducibility")
    assert is_semiprime(a) and is_prime(a)
    assert socle(a) == a.full_space()
    assert minimal_ideals(a) == (a.full_space(),)


def test_norton_step_is_charged_before_it_runs():
    a = sl2(F5)
    charge = analysis._norton_charge(a)
    assert analysis._decide(a, "prime", budget=charge) == (
        True, "norton-irreducibility")
    assert analysis._decide(a, "prime", budget=charge - 1) == (
        True, "envelope-radical")
    # the charge grows with p: over F_10007 the envelope decides
    assert analysis._decide(sl2(GF(10007)), "prime") == (
        True, "envelope-radical")


def test_the_envelope_generators_are_found_once(monkeypatch):
    # sl2sum leaves Norton's step for the envelope, and both read one
    # generating set, found by one greedy walk
    walks = []

    def counted(self, vectors, _inner=GradedLieAlgebra.subalgebra_generated):
        walks.append(len(vectors))
        return _inner(self, vectors)

    monkeypatch.setattr(GradedLieAlgebra, "subalgebra_generated", counted)
    a = sl2sum(F5)
    assert analysis._decide(a, "prime") == (False, "envelope-radical")
    gens = analysis._envelope_generators(a, False)
    assert walks == list(range(1, len(gens) + 1))


Q_CORPUS = ["%s@Q%s" % (base, var) for base in corpus.BASES
            for var in corpus.VARIANTS]
# simple over Q with centroid Q, so absolutely irreducible modulo the
# prime of the rule; graded, the swap of sl2sum_swap's summands leaves no
# graded ideal
NORTON_MOD_P_ANSWERS = {(ident, graded) for ident in Q_CORPUS
                        for graded in (False, True)
                        if ident.split("@")[0] in ("sl2", "sln3", "psl3")
                        or (graded and ident.startswith("sl2sum_swap@"))}


def test_norton_mod_p_answers_as_the_centroid_or_not_at_all():
    answered = set()
    for ident in Q_CORPUS:
        alg = corpus.build(ident)
        for graded in (False, True):
            got = analysis._norton_step(alg, graded, None)
            if got == {}:
                continue
            answered.add((ident, graded))
            assert got == dict(analysis._killing_step(alg, graded, None),
                               **analysis._centroid_step(alg, graded, None))
    assert answered == NORTON_MOD_P_ANSWERS


@pytest.mark.parametrize("make", [sl2_sqrt2, sl2sum, heis3],
                         ids=["sl2_sqrt2", "sl2sum", "heis3"])
def test_norton_mod_p_leaves_what_it_cannot_prove_to_the_centroid(make):
    # sl2 over Q(sqrt 2) is simple, but its centroid is larger than Q, so
    # no reduction is absolutely irreducible; sl2sum has proper ideals;
    # heis3 has det kappa = 0, so no prime applies and nothing is charged
    a = make()
    for graded in (False, True):
        assert analysis._norton_step(a, graded, None) == {}
    assert (analysis._norton_prime(a) is None) == (make is heis3)
    assert (analysis._norton_charge(a) == 0) == (make is heis3)


def test_the_prime_of_norton_mod_p_divides_no_denominator():
    # det kappa of sl2 is -128, so the rule picks 3; the basis (e/3, f,
    # 3h) keeps det kappa but puts [e/3, f] = (3h) / 9 in the table,
    # which has no reduction mod 3, and the rule moves on to 5
    a = sl2()
    assert analysis._norton_prime(a) == 3
    b = change_basis(a, [(Fraction(1, 3), 0, 0), (0, 1, 0), (0, 0, 3)])
    assert killing_determinant(b) == -128
    assert Fraction(1, 9) in b.table[0][1]
    with pytest.raises(ParseError):
        F3.of(Fraction(1, 9))
    assert analysis._norton_prime(b) == 5
    assert analysis._decide(b, "prime") == (True, "norton-mod-p")
    # sl5: det kappa = 2^24 5^25
    assert analysis._norton_prime(sln_e11(5)) == 3


def test_sl5_over_q_is_decided_without_the_commutant(monkeypatch):
    def solved(*args):
        raise AssertionError("the commutant was solved for")

    monkeypatch.setattr(analysis, "_commutant", solved)
    a = sln_e11(5)
    charge = analysis._norton_charge(a)
    assert analysis._decide(a, "prime", budget=charge) == (
        True, "norton-mod-p")
    assert analysis._decide(a, "minimal", budget=charge) == (
        (a.full_space(),), "norton-mod-p")
    assert is_prime(a, budget=charge)
    assert minimal_ideals(a, budget=charge) == (a.full_space(),)


def test_norton_mod_p_is_charged_before_any_reduction(monkeypatch):
    a = sln_e11(3)
    charge = analysis._norton_charge(a)
    assert charge == 71680  # 8^3 (16 (5 + 1) + 4 (8 + 3)), p = 5
    assert analysis._decide(a, "prime", budget=charge - 1) == (
        True, "centroid")

    def reduced(*args):
        raise AssertionError("the generators were reduced")

    monkeypatch.setattr(analysis, "_envelope_generators", reduced)
    with pytest.raises(UndecidedError):
        analysis._answers(a, analysis._NORTON_MOD_P, False, charge - 1)
    monkeypatch.undo()
    assert analysis._decide(a, "prime", budget=charge) == (
        True, "norton-mod-p")


def test_the_killing_determinant_is_found_once(monkeypatch):
    # the report's field and the choice of Norton's prime share it
    calls = []

    def counted(field, m, _inner=analysis.determinant):
        calls.append(len(m))
        return _inner(field, m)

    monkeypatch.setattr(analysis, "determinant", counted)
    a = sln_e11(3)
    assert structure_report(a).methods["prime"] == "norton-mod-p"
    assert is_prime(a) and is_prime(a, graded=True)
    assert calls == [8]


def test_sl2_over_q_sqrt2_is_prime_with_one_minimal_ideal():
    # the centroid Q(sqrt 2) has dimension 2 and is a field: the primitive
    # element's minimal polynomial has a discriminant that is no rational
    # square
    a = sl2_sqrt2()
    for graded in (False, True):
        assert is_prime(a, graded=graded)
    assert minimal_ideals(a) == (a.full_space(),)
    assert minimal_graded_ideals(a) == (a.full_space(),)
    # over F7, t^2 - 2 splits and so does the algebra
    assert not is_prime(sl2_sqrt2(GF(7)))


@pytest.mark.parametrize("make, dims", [
    (sl2sum, [3, 3]), (lambda: direct_sum(sl2sum(), sln_e11(3)), [3, 3, 8])],
    ids=["sl2sum", "sl2sum+sl3"])
def test_q_ideal_lattice_of_a_z_graded_sum_matches_its_plain_copy(make,
                                                                  dims):
    # the parts the Q splitter restricts to are ideals generated by a
    # basis vector and their annihilators, graded under any grading
    alg = make()
    plain = GradedLieAlgebra(QQ, alg.names, alg.table)
    assert alg.group.kind == "Z" and plain.group.kind == "trivial"
    assert minimal_ideals(alg) == minimal_ideals(plain)
    for graded in (False, True):
        assert (analysis._minimal_ideals(alg, graded, None)
                == analysis._minimal_ideals(plain, graded, None))
        assert is_prime(alg, graded=graded) is is_prime(plain, graded=graded)
    assert sorted(m.dim for m in minimal_ideals(alg)) == dims


def test_swap_graded_sl2sum_over_q():
    # no basis vector generates a proper ideal, so the plain answer comes
    # from factoring the 2-dimensional centroid; the degree projections
    # cut the graded centroid down to the scalars
    a = sl2sum_swap()
    assert is_prime(a, graded=True) and not is_prime(a)
    assert [m.dim for m in minimal_graded_ideals(a)] == [6]
    plain = minimal_ideals(a)
    assert sorted(m.dim for m in plain) == [3, 3]
    for m in plain:
        assert a.is_ideal(m) and not a.is_graded_subspace(m)
    assert a.bracket_space(*plain).is_zero()
    assert structure_report(a).methods["prime"] == "centroid"
    for p in (5, 7):
        ap = sl2sum_swap(GF(p))
        assert is_prime(ap, graded=True) and not is_prime(ap)
    a5 = sl2sum_swap(F5)
    assert naive_is_prime(a5, True) and not naive_is_prime(a5, False)
    assert [m.dim for m in minimal_graded_ideals(a5)] == [6]
    assert sorted(m.dim for m in minimal_ideals(a5)) == [3, 3]


def _unitriangular_product_basis(alg, entries):
    """Rows of lower times upper unitriangular integer blocks, one block
    per degree, off-diagonal entries taken from entries in turn: a basis
    of determinant 1, so it stays a basis mod every prime."""
    f, n = alg.field, alg.dim
    entries = iter(entries)
    rows = [None] * n
    for d in sorted(set(alg.degrees)):
        idx = [i for i in range(n) if alg.degrees[i] == d]
        b = len(idx)
        lo = [[1 if r == c else next(entries) if r > c else 0
               for c in range(b)] for r in range(b)]
        up = [[1 if r == c else next(entries) if r < c else 0
               for c in range(b)] for r in range(b)]
        for r, i in enumerate(idx):
            row = [f.zero] * n
            for c, j in enumerate(idx):
                row[j] = f.of(sum(lo[r][k] * up[k][c] for k in range(b)))
            rows[i] = tuple(row)
    return rows


@given(graded=st.booleans(), quotient=st.booleans(), data=st.data(),
       pieces=st.lists(st.sampled_from(["sl2", "sln_e11(2)", "heis3"]),
                       min_size=2, max_size=2),
       entries=st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=36,
                        max_size=36))
def test_q_and_f7_agree_on_semiprime_and_prime(graded, quotient, data,
                                               pieces, entries):
    # integer structure constants with good reduction at 7: the ideal
    # lattices over Q and F7 match, so the two decision paths must agree.
    # Below dimension 7 the F7 certificate cannot fail (no module
    # multiplicity reaches 7), so no question falls back to a scan.  The
    # basis change mixes the summands within each degree, so that over Q
    # the basis vectors of a sum rarely split it and its centroid is
    # factored instead.
    make = {"sl2": sl2, "heis3": heis3, "sln_e11(2)": lambda f: sln_e11(2, f)}
    index = data.draw(st.integers(0, 5))
    verdicts = []
    for f in (QQ, GF(7)):
        alg = direct_sum(*[make[name](f) for name in pieces])
        if quotient:
            ideal = alg.ideal_generated([alg.basis_vector(index)])
            alg = alg.quotient_by_ideal(ideal)[0]
        alg = change_basis(alg, _unitriangular_product_basis(alg, entries))
        verdicts.append((is_semiprime(alg, graded=graded),
                         is_prime(alg, graded=graded)))
    assert verdicts[0] == verdicts[1]


def test_sl3_sum_splits_at_a_basis_vector_within_the_default_budget():
    # each summand is left to the centroid, charged at dimension 8
    a = direct_sum(sln_e11(3), sln_e11(3))
    assert [m.dim for m in minimal_ideals(a)] == [8, 8]
    assert [m.dim for m in minimal_graded_ideals(a)] == [8, 8]
    assert not is_prime(a)
    b = direct_sum(a, sl2())
    assert sorted(m.dim for m in minimal_ideals(b)) == [3, 8, 8]


def _qmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_commutant_splitter_factors_and_evaluates_polynomials():
    # the sympy helpers behind a centroid of dimension > 2, pinned on
    # small diagonal and block inputs
    d = _qmat([(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    factors = {str(f): f for f in _minpoly_factors(QQ, d)}
    assert sorted(factors) == ["x - 1", "x - 2"]
    assert _apply_poly(QQ, factors["x - 1"], d) == [[0, 0, 0], [0, 0, 0],
                                                    [0, 0, 1]]
    assert _apply_poly(QQ, factors["x - 2"], d) == [[-1, 0, 0], [0, -1, 0],
                                                    [0, 0, 0]]
    # a factor irreducible over Q: charpoly (x^2 - 2)(x - 1)
    r = _qmat([(0, 2, 0), (1, 0, 0), (0, 0, 1)])
    factors = {str(f): f for f in _minpoly_factors(QQ, r)}
    assert sorted(factors) == ["x - 1", "x**2 - 2"]
    assert _apply_poly(QQ, factors["x**2 - 2"], r) == [[0, 0, 0], [0, 0, 0],
                                                       [0, 0, -1]]


def test_quadratic_roots_split_exactly_on_rational_square_discriminants():
    # t^2 = b t + c I read off the matrix; roots ascending, or None
    cases = [
        (_qmat([(1, 0, 0), (0, 1, 0), (0, 0, 2)]), (1, 2)),  # (x-1)(x-2)
        (_qmat([(0, 2), (1, 0)]), None),  # x^2 - 2
        (_qmat([(-3, 0), (0, 0)]), (-3, 0)),  # x^2 + 3x
        (_qmat([(Fraction(1, 2), 0), (0, -3)]), (-3, Fraction(1, 2))),
        (_qmat([(0, Fraction(4, 9)), (1, 0)]), (Fraction(-2, 3),
                                                Fraction(2, 3))),
        # discriminant 2: a square numerator is not enough
        (_qmat([(0, Fraction(1, 2)), (1, 0)]), None),
        # discriminant 1/2: nor a square denominator
        (_qmat([(0, Fraction(1, 8)), (1, 0)]), None),
        (_qmat([(0, -1), (1, 0)]), None),  # x^2 + 1, negative
    ]
    for t, roots in cases:
        assert _quadratic_roots(QQ, t) == roots


def test_three_dimensional_centroid_is_factored_by_sympy(monkeypatch):
    # sl2 + sl2 + sl2 with basis v_j = sum_k (k + 1)^j b^(k) in each
    # degree: every basis vector meets all three summands, so none splits
    # the algebra and the centroid Q x Q x Q is factored
    base = direct_sum(direct_sum(sl2(), sl2()), sl2())
    rows = [None] * 9
    for d in (1, -1, 0):
        idx = [i for i in range(9) if base.degrees[i] == d]
        for j, i in enumerate(idx):
            rows[i] = tuple(QQ.of((idx.index(c) + 1) ** j if c in idx else 0)
                            for c in range(9))
    a = change_basis(base, rows)
    assert all(a.ideal_generated([a.basis_vector(i)]).dim == 9
               for i in range(9))
    calls = []
    factor = analysis._minpoly_factors
    monkeypatch.setattr(analysis, "_minpoly_factors",
                        lambda f, m: calls.append(m) or factor(f, m))
    assert [m.dim for m in minimal_ideals(a)] == [3, 3, 3]
    assert calls
    assert not is_prime(a) and not is_prime(a, graded=True)
    assert structure_report(a).methods["prime"] == "centroid"


# -- graded core -----------------------------------------------------------


def test_require_three_graded():
    require_three_graded(sl2())
    with pytest.raises(NotThreeGraded):
        require_three_graded(build_lie(QQ, ["a"], [2], {}))
    with pytest.raises(NotThreeGraded):
        require_three_graded(p_mod_i())


def test_graded_core_of_full_and_component_ideals():
    a = sl2()
    assert graded_core(a, a.full_space()) == a.full_space()
    s = sl2sum()
    comp = first_component(s, 3)
    assert graded_core(s, comp) == comp


def test_graded_core_collapses_central_line():
    h = heis3()
    zline = span(QQ, 3, [(0, 0, 1)])
    core = graded_core(h, zline)
    assert core.is_zero()


def test_grading_derivation_absorbs_inner_brackets():
    # delta = pi_1 - pi_-1 maps [I, I] back into I for every tested ideal
    for alg, ideal in ((sl2(), sl2().full_space()),
                       (sl2sum(), first_component(sl2sum(), 3)),
                       (heis3(), span(QQ, 3, [(0, 0, 1)]))):
        inner = alg.bracket_space(ideal, ideal)
        for r in inner.rows:
            parts = alg.homogeneous_decompose(r)
            img = [QQ.zero] * alg.dim
            for d, w in parts.items():
                if d == 1:
                    img = [x + y for x, y in zip(img, w)]
                elif d == -1:
                    img = [x - y for x, y in zip(img, w)]
            assert ideal.contains(tuple(img))


def test_structure_report_fields():
    rep = structure_report(sl2())
    assert rep.center_dim == 0
    assert rep.killing_det == Fraction(-128)
    assert rep.semiprime and rep.prime and rep.strongly_nondegenerate
    assert rep.socle_dim == 3
    assert rep.methods["semiprime"] == "killing-criterion"
    rep_h = structure_report(heis3())
    assert rep_h.center_dim == 1
    assert not rep_h.semiprime
    assert rep_h.prime is False
    assert rep_h.socle_dim == 1
    rep_h5 = structure_report(heis3(F5))
    assert rep_h5.socle_dim == 1
    assert rep_h5.methods["socle"] == "envelope-radical"


def test_budget_is_checked_even_when_the_scan_is_memoized():
    # the same question must get the same answer whatever ran before it
    s5 = sl2sum(F5)
    assert is_semiprime(s5)
    with pytest.raises(DimensionTooLarge):
        is_semiprime(s5, budget=10)


def test_budget_refusal_comes_before_work_linear_in_p():
    big_p = GF(1000003)
    h = heis3(big_p)
    start = time.perf_counter()
    with pytest.raises(DimensionTooLarge):
        distinct_principal_ideals(h)
    assert time.perf_counter() - start < 0.5


def test_semiprimeness_over_a_large_prime_takes_no_scan():
    # the principal-ideal scan of heis3 over this field is refused above;
    # the radical of the ad-envelope does not depend on p
    h = heis3(GF(1000003))
    start = time.perf_counter()
    assert is_semiprime(h) is False
    assert time.perf_counter() - start < 0.5
