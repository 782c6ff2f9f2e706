"""Structure-constant Lie algebras: validation, bracket calculus, grading,
subspace operations, quotients and sums.

Hand oracles: sl2 with [e,f]=h, [h,e]=2e, [h,f]=-2f and the Heisenberg
algebra [x,y]=z carry small enough tables to check every claim by hand.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from _naive import (
    change_basis,
    homogeneous_bases,
    naive_ad,
    naive_bracket,
    naive_ideal,
    naive_jacobi_sum,
    naive_jacobi_violation,
    naive_killing,
)
from gradlie.analysis import killing_matrix
from gradlie.errors import (
    AntisymmetryViolation,
    GradingViolation,
    JacobiViolation,
    NotAnIdeal,
    NotGraded,
    ValidationError,
)
from gradlie.gallery import (
    build_lie,
    first_component,
    heis3,
    p_mod_i,
    sl2,
    sl2sum,
    sln_e11,
)
from gradlie.lie import GradedLieAlgebra, GradingGroup, direct_sum
from gradlie.linalg import span
from gradlie.scalars import GF, QQ

F5 = GF(5)
f5_scalars = st.integers(min_value=0, max_value=4)

# the gallery algebras of the sparse-kernel tests, and their fields
KERNEL_ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "sl2sum": sl2sum,
    "sl2+heis3": lambda f: direct_sum(sl2(f), heis3(f)),
    "p_mod_i": p_mod_i,
}
fields = st.sampled_from([QQ, F5, GF(7)])


def vec(alg, **coords):
    v = [alg.field.zero] * alg.dim
    for nm, c in coords.items():
        v[alg.names.index(nm)] = alg.field.of(c)
    return tuple(v)


# -- construction and validation ------------------------------------------


def test_sl2_bracket_table():
    a = sl2()
    e, f, h = a.basis_vector(0), a.basis_vector(1), a.basis_vector(2)
    assert a.bracket(e, f) == h
    assert a.bracket(h, e) == vec(a, e=2)
    assert a.bracket(h, f) == vec(a, f=-2)
    assert a.bracket(e, e) == a.zero_vector()


def test_antisymmetry_violation_detected():
    # table that forgets to negate the mirror entry
    bad = [
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))],
        [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))],
    ]
    with pytest.raises(AntisymmetryViolation):
        GradedLieAlgebra(QQ, ("a", "b"), bad)


def test_jacobi_violation_detected():
    # sl2 with the sign of [h, e] flipped: the (e, f, h) cycle sums to -4h
    bad = build_lie  # alias to keep the corruption local
    with pytest.raises(JacobiViolation):
        bad(QQ, ["e", "f", "h"], [],
            {("e", "f"): {"h": 1}, ("h", "e"): {"e": -2},
             ("h", "f"): {"f": -2}})


def test_grading_violation_detected():
    # degree bookkeeping: [e, f] = h needs deg e + deg f = deg h
    with pytest.raises(GradingViolation):
        build_lie(QQ, ["e", "f", "h"], [1, -1, 1],
                  {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2},
                   ("h", "f"): {"f": -2}})


@given(st.lists(f5_scalars, min_size=3, max_size=3),
       st.lists(f5_scalars, min_size=3, max_size=3),
       st.lists(f5_scalars, min_size=3, max_size=3),
       f5_scalars, f5_scalars)
def test_bracket_is_bilinear(xs, ys, zs, a, b):
    alg = sl2(F5)
    x, y, z = tuple(xs), tuple(ys), tuple(zs)
    ax_by = tuple((a * u + b * v) % 5 for u, v in zip(x, y))
    left = alg.bracket(ax_by, z)
    right = tuple((a * u + b * v) % 5 for u, v in
                  zip(alg.bracket(x, z), alg.bracket(y, z)))
    assert left == right


def test_ad_and_right_matrices_follow_row_convention():
    for alg in (sl2(), heis3(), sln_e11(3)):
        for i in range(alg.dim):
            x = alg.basis_vector(i)
            ad = alg.ad_matrix(x)
            rm = alg.right_matrix(x)
            for j in range(alg.dim):
                v = alg.basis_vector(j)
                from gradlie.linalg import mat_vec
                assert mat_vec(v, ad, alg.field) == alg.bracket(x, v)
                assert mat_vec(v, rm, alg.field) == alg.bracket(v, x)


@pytest.mark.parametrize("name", list(KERNEL_ALGEBRAS))
@given(data=st.data())
def test_sparse_kernel_matches_dense_loop(name, data):
    # bracket, ad, right multiplication and the Killing form read the
    # nonzero view; the oracle reads every cell of the dense table
    base = KERNEL_ALGEBRAS[name](data.draw(fields))
    alg = change_basis(base, data.draw(homogeneous_bases(base)))
    f, n = alg.field, alg.dim
    x, y = (tuple(f.of(c) for c in data.draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        for _ in range(2))
    assert alg.bracket(x, y) == naive_bracket(f, alg.table, x, y)
    assert alg.ad_matrix(x) == naive_ad(alg, x)
    assert alg.right_matrix(y) == tuple(
        naive_bracket(f, alg.table, alg.basis_vector(i), y) for i in range(n))
    assert killing_matrix(alg) == naive_killing(alg)


@pytest.mark.parametrize("name", ["sl2", "sl2+heis3", "p_mod_i"])
@given(data=st.data())
def test_jacobi_violation_names_the_dense_first_triple(name, data):
    # a grading-compatible change of one bracket and its mirror keeps
    # antisymmetry and the grading, so only Jacobi can fail
    base = KERNEL_ALGEBRAS[name](data.draw(fields))
    alg = change_basis(base, data.draw(homogeneous_bases(base)))
    f, n = alg.field, alg.dim
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                     max_size=2, unique=True)))
    want = alg.group.add(alg.degrees[i], alg.degrees[j])
    k = data.draw(st.sampled_from(
        [k for k in range(n) if alg.degrees[k] == want] or [None]))
    assume(k is not None)
    table = [[list(cell) for cell in row] for row in alg.table]
    table[i][j][k] = f.of(table[i][j][k] + 1)
    table[j][i][k] = f.of(table[j][i][k] - 1)
    first = naive_jacobi_violation(f, table)
    assume(first is not None)
    with pytest.raises(JacobiViolation) as err:
        GradedLieAlgebra(f, alg.names, table, alg.group, alg.degrees)
    assert err.value.indices == first
    assert err.value.residue == naive_jacobi_sum(f, table, *first)


def test_jacobi_residue_is_exact_over_q():
    # sl2 with the trivial grading in a basis with entries of denominator
    # 2 and 3, then [b_0, b_1] moved by 1/3 along b_0: the check runs on
    # the constants scaled to integers and divides the residue back
    plain = GradedLieAlgebra(QQ, sl2().names, sl2().table)
    half, third = Fraction(1, 2), Fraction(1, 3)
    alg = change_basis(plain, [(1, half, 0), (third, 1, -half),
                               (0, 2 * third, 1)])
    assert any(c.denominator > 1 for row in alg.table for cell in row
               for c in cell)
    table = [[list(cell) for cell in row] for row in alg.table]
    table[0][1][0] += third
    table[1][0][0] -= third
    assert naive_jacobi_violation(QQ, table) == (0, 1, 2)
    want = naive_jacobi_sum(QQ, table, 0, 1, 2)
    assert any(c.denominator > 1 for c in want)
    with pytest.raises(JacobiViolation) as err:
        GradedLieAlgebra(QQ, alg.names, table)
    assert err.value.indices == (0, 1, 2)
    assert err.value.residue == want


# -- grading --------------------------------------------------------------


def test_support_and_components():
    a = sl2()
    assert a.support() == [-1, 0, 1]
    for d in (-1, 0, 1):
        assert a.degree_component(d).dim == 1
    assert a.degree_component(2).is_zero()


def test_homogeneous_decompose_reassembles():
    a = sl2()
    v = vec(a, e=1, f=2, h=3)
    parts = a.homogeneous_decompose(v)
    assert set(parts) == {-1, 0, 1}
    total = [QQ.zero] * 3
    for w in parts.values():
        total = [x + y for x, y in zip(total, w)]
    assert tuple(total) == v
    assert a.degree_of(vec(a, e=1)) == 1
    with pytest.raises(ValidationError):
        a.degree_of(v)


def test_mod2_grading_of_sl2():
    a = build_lie(QQ, ["e", "f", "h"], [1, 1, 0],
                  {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2},
                   ("h", "f"): {"f": -2}}, group=GradingGroup.mod(2))
    assert a.support() == [0, 1]
    assert a.degree_component(1).dim == 2


def test_graded_subspace_detection():
    a = sl2()
    assert a.is_graded_subspace(span(QQ, 3, [vec(a, e=1), vec(a, f=1)]))
    assert not a.is_graded_subspace(span(QQ, 3, [vec(a, e=1, f=1)]))


# -- centers, annihilators, ideals -----------------------------------------


def test_centers():
    assert sl2().center().is_zero()
    h = heis3()
    assert h.center() == span(QQ, 3, [vec(h, z=1)])


def test_annihilator_in_heisenberg():
    h = heis3()
    # [v, x] = 0 forces no y component
    ann = h.annihilator(span(QQ, 3, [vec(h, x=1)]))
    assert ann == span(QQ, 3, [vec(h, x=1), vec(h, z=1)])


def test_quadratic_annihilator_membership():
    h = heis3()
    assert h.is_in_quadratic_annihilator(vec(h, x=1))
    a = sl2()
    assert not a.is_in_quadratic_annihilator(vec(a, h=1))
    # (ad e)^2 kills e, f, h except f: [e,[e,f]] = [e,h] = -2e
    assert not a.is_in_quadratic_annihilator(vec(a, e=1))


def test_ideal_generated():
    a = sl2()
    assert a.ideal_generated([vec(a, e=1)]).dim == 3
    h = heis3()
    assert h.ideal_generated([vec(h, x=1)]) == \
        span(QQ, 3, [vec(h, x=1), vec(h, z=1)])


@pytest.mark.parametrize("make", [sl2, heis3, sl2sum, p_mod_i],
                         ids=["sl2", "heis3", "sl2sum", "p_mod_i"])
@given(data=st.data())
def test_ideal_generated_agrees_with_numpy_closure(make, data):
    # both entries of the closure (ideal_generated and principal_ideal_np,
    # the per-point entry of the F_p scans, once a numpy fixpoint) against
    # the plain fixpoint cur = span(cur + {[b_i, r]}) on the dense table
    from gradlie.enumeration import principal_ideal_np

    alg = make(F5)
    v = tuple(data.draw(st.lists(f5_scalars, min_size=alg.dim,
                                 max_size=alg.dim)))
    want = naive_ideal(alg, [v])
    assert alg.ideal_generated([v]) == want
    assert principal_ideal_np(alg, v) == want


def test_subalgebra_generated():
    a = sl2()
    assert a.subalgebra_generated([vec(a, e=1), vec(a, f=1)]).dim == 3
    h = heis3()
    assert h.subalgebra_generated([vec(h, x=1)]).dim == 1


def test_ideal_predicates():
    h = heis3()
    zline = span(QQ, 3, [vec(h, z=1)])
    assert h.is_ideal(zline)
    xline = span(QQ, 3, [vec(h, x=1)])
    assert not h.is_ideal(xline)
    with pytest.raises(NotAnIdeal):
        h.require_ideal(xline)


def test_derived_spaces():
    a = sl2()
    assert a.derived_space(a.full_space()).dim == 3
    h = heis3()
    d1 = h.derived_space(h.full_space())
    assert d1 == span(QQ, 3, [vec(h, z=1)])
    assert h.derived_space(d1).is_zero()


def test_bracket_space_of_outer_components():
    a = sl2()
    out = a.bracket_space(a.degree_component(1), a.degree_component(-1))
    assert out == span(QQ, 3, [vec(a, h=1)])


# -- quotients, restriction, sums ------------------------------------------


def test_quotient_by_center_of_heisenberg():
    h = heis3()
    quo, proj, section = h.quotient_by_ideal(h.center())
    assert quo.dim == 2
    assert all(all(c == QQ.zero for c in cell)
               for row in quo.table for cell in row)
    assert sorted(quo.degrees) == [-1, 1]
    # section then projection is the identity on the quotient
    from gradlie.linalg import mat_mul, mat_identity
    assert mat_mul(section, proj, QQ) == tuple(
        tuple(r) for r in mat_identity(QQ, 2))


def test_quotient_requires_an_ideal():
    h = heis3()
    with pytest.raises(NotAnIdeal):
        h.quotient_by_ideal(span(QQ, 3, [vec(h, x=1)]))


def test_restrict_recovers_component_table():
    s = sl2sum()
    comp, rows = s.restrict(first_component(s, 3))
    base = sl2()
    assert comp.table == base.table
    assert comp.degrees == base.degrees
    assert rows == tuple(s.basis_vector(i) for i in range(3))


def test_restrict_rejects_non_subalgebras():
    a = sl2()
    # not bracket closed: [e, f] = h escapes
    with pytest.raises(ValidationError):
        a.restrict(span(QQ, 3, [vec(a, e=1), vec(a, f=1)]))
    # closed but not graded
    with pytest.raises(NotGraded):
        a.restrict(span(QQ, 3, [vec(a, e=1, f=1)]))


def test_direct_sum_structure():
    s = direct_sum(sl2(), heis3())
    assert s.dim == 6
    assert s.support() == [-1, 0, 1]
    left = vec(s, e=1)
    right = [QQ.zero] * 6
    right[3] = QQ.one  # x of the second summand
    assert s.bracket(left, tuple(right)) == s.zero_vector()
    assert s.center().dim == 1  # z of the Heisenberg summand survives


def test_p_mod_i_is_a_graded_nilpotent_style_algebra():
    a = p_mod_i()
    assert a.dim == 8
    assert set(a.support()) <= {0, 1, 2, 3}
    # [x^r, i x^s] = -2 i x^(r+s); a spot check at r = s = 1
    x = vec(a, x=1)
    ix = vec(a, ix=1)
    assert a.bracket(x, ix) == vec(a, ix2=-2)
    assert a.bracket(x, vec(a, x2=1)) == a.zero_vector()
