"""Structural predicates: Killing form, semiprimeness, socles, essential
ideals, and the graded-core extraction for 3-graded algebras.

The sl2 Killing matrix is recomputed in-test from traces of adjoint
products, independent of the library's own accumulation order.
"""

import time
from fractions import Fraction

import pytest

from gradlie.analysis import (
    _apply_poly,
    _minpoly_factors,
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
    semiprime_witness,
    socle,
    graded_socle,
    structure_report,
)
from gradlie.errors import DimensionTooLarge, NotThreeGraded, UndecidedError
from gradlie.gallery import (
    build_lie,
    first_component,
    heis3,
    p_mod_i,
    sl2,
    sl2sum,
    sln_e11,
)
from gradlie.linalg import mat_mul, mat_vec, span
from gradlie.scalars import GF, QQ

F5 = GF(5)


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


def test_socle_of_heisenberg_over_q_is_refused():
    with pytest.raises(UndecidedError):
        socle(heis3())


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


def _qmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_commutant_splitter_factors_and_evaluates_polynomials():
    # the gallery only reaches the splitter with a one dimensional
    # commutant, so this is the one test that runs its sympy helpers
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
    assert rep_h.socle_dim is None  # socle needs the exhaustive field
    rep_h5 = structure_report(heis3(F5))
    assert rep_h5.socle_dim == 1
    assert rep_h5.methods["socle"] == "exhaustive-Fp"


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
        is_semiprime(h)
    assert time.perf_counter() - start < 0.5
