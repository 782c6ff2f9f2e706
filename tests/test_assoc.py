"""Associative matrix algebras with involutions: skew parts, commutator
algebras, the exchange double, and the central-quotient comparison.

Oracle values are classical matrix facts, rechecked by direct loops over
elementary matrix units E_ij E_kl = [j = k] E_il.
"""

import time

import pytest

from _naive import change_bilinear_basis
from gradlie.assoc import (
    AssocAlgebra,
    central_quotient,
    check_central_quotients,
    exchange_double,
    exchange_skew_iso,
)
from gradlie.errors import (
    AssociativityViolation,
    InvolutionViolation,
    NoInvolution,
)
from gradlie.gallery import m_n_transpose
from gradlie.linalg import rank
from gradlie.scalars import GF, QQ

F5 = GF(5)


def test_matrix_units_multiply_correctly():
    a = m_n_transpose(3)
    n = 3
    pairs = [(i, j) for i in range(n) for j in range(n)]
    idx = {p: k for k, p in enumerate(pairs)}
    for (i, j) in pairs:
        for (c, d) in pairs:
            got = a._mul_coords(a.basis_vector(idx[(i, j)]),
                                a.basis_vector(idx[(c, d)]))
            want = [QQ.zero] * a.dim
            if j == c:
                want[idx[(i, d)]] = QQ.one
            assert got == tuple(want)


def test_transpose_involution_fixed_and_skew_parts():
    # symmetric matrices have dimension n(n+1)/2, skew n(n-1)/2
    assert m_n_transpose(2).skew_elements().dim == 1
    assert m_n_transpose(3).skew_elements().dim == 3
    a = m_n_transpose(2)
    e12 = a.basis_vector(a.names.index("e12"))
    assert a.star(e12) == a.basis_vector(a.names.index("e21"))


def test_associativity_violation_detected():
    # 2-dim algebra with u*u = v, u*v = u, v*anything = 0 fails at (u,u,v)
    z = (QQ.zero, QQ.zero)
    table = (
        ((QQ.zero, QQ.one), (QQ.one, QQ.zero)),
        (z, z),
    )
    with pytest.raises(AssociativityViolation):
        AssocAlgebra(QQ, ("u", "v"), table)


def test_involution_violations_detected():
    a = m_n_transpose(2)
    # identity map is an automorphism, not an anti-automorphism, on M2
    eye = tuple(a.basis_vector(i) for i in range(a.dim))
    with pytest.raises(InvolutionViolation):
        AssocAlgebra(a.field, a.names, a.table, involution=eye)
    # a map of order four cannot be an involution
    perm = list(eye)
    i12, i21 = a.names.index("e12"), a.names.index("e21")
    i11, i22 = a.names.index("e11"), a.names.index("e22")
    perm[i11] = a.basis_vector(i12)
    perm[i12] = a.basis_vector(i22)
    perm[i22] = a.basis_vector(i21)
    perm[i21] = a.basis_vector(i11)
    with pytest.raises(InvolutionViolation):
        AssocAlgebra(a.field, a.names, a.table, involution=tuple(perm))


def test_skew_elements_need_an_involution():
    a = m_n_transpose(2)
    bare = AssocAlgebra(a.field, a.names, a.table)
    with pytest.raises(NoInvolution):
        bare.skew_elements()


def test_minus_algebra_is_the_commutator_bracket():
    a = m_n_transpose(2)
    am = a.minus_algebra()
    for i in range(a.dim):
        for j in range(a.dim):
            xy = a._mul_coords(a.basis_vector(i), a.basis_vector(j))
            yx = a._mul_coords(a.basis_vector(j), a.basis_vector(i))
            comm = tuple(x - y for x, y in zip(xy, yx))
            assert am.bracket(am.basis_vector(i), am.basis_vector(j)) == comm
    # gl2 minus has the scalar matrices as its center
    assert am.center().dim == 1


def test_central_quotient_dimensions():
    # gl2 minus the scalars is 3-dimensional (pgl2)
    assert central_quotient(m_n_transpose(2), "minus").dim == 3
    # skew part of (M3, transpose) is so3, centerless already
    assert central_quotient(m_n_transpose(3), "K").dim == 3
    # [M2-, M2-] = sl2, centerless
    assert central_quotient(m_n_transpose(2), "AA").dim == 3


def test_exchange_double_structure():
    a = m_n_transpose(2)
    dbl = exchange_double(a)
    assert dbl.dim == 8
    f = a.field
    # (x, 0)(0, y) = 0 and the exchange star swaps the blocks
    left = dbl.basis_vector(0)
    right = dbl.basis_vector(4)
    assert dbl._mul_coords(left, right) == (f.zero,) * 8
    assert dbl.star(left) == right
    # second block multiplies in the opposite order
    i12, i21 = a.names.index("e12"), a.names.index("e21")
    prod = dbl._mul_coords(dbl.basis_vector(4 + i12),
                           dbl.basis_vector(4 + i21))
    want = [f.zero] * 8
    want[4 + a.names.index("e22")] = f.one  # e21 e12 = e22 in A
    assert prod == tuple(want)


def test_exchange_skew_copy_of_the_commutator_algebra():
    a = m_n_transpose(2)
    dbl, rows = exchange_skew_iso(a)
    assert len(rows) == a.dim
    assert rank(a.field, list(rows)) == a.dim


def test_central_quotient_comparison_transpose_variant():
    report = check_central_quotients(m_n_transpose(3), variant="K")
    assert report.verdict.value == "true"
    assert not report.exchange_checked
    assert report.asserted_overring


def test_central_quotient_comparison_exchange_variant():
    report = check_central_quotients(m_n_transpose(2), variant="minus")
    assert report.verdict.value == "true"
    assert report.exchange_checked


@pytest.mark.parametrize("variant, builds", [("K", 1), ("minus", 3)])
def test_the_default_q_reuses_the_a_side(monkeypatch, variant, builds):
    # Q = A builds the minus algebra, the variant subalgebra, its
    # restriction and its center once: K builds A minus alone, and the
    # commutator variants build A minus and the double's minus algebra
    # in the exchange check and the double's again for the comparison
    calls = []

    def counted(self, _inner=AssocAlgebra.minus_algebra):
        calls.append(self.dim)
        return _inner(self)

    monkeypatch.setattr(AssocAlgebra, "minus_algebra", counted)
    size = 3 if variant == "K" else 2
    report = check_central_quotients(m_n_transpose(size), variant=variant)
    assert len(calls) == builds
    calls.clear()
    # an equal but distinct Q takes the general route to the same report
    other = check_central_quotients(m_n_transpose(size),
                                    q=m_n_transpose(size), variant=variant)
    assert len(calls) == 2 * builds
    assert (other.verdict, other.dims, other.exchange_checked) == (
        report.verdict, report.dims, report.exchange_checked)


def test_central_quotient_comparison_over_f5():
    report = check_central_quotients(m_n_transpose(3, F5), variant="K")
    assert report.verdict.value == "true"


def test_dense_m4_validates_within_ten_seconds():
    # rows of L U, L lower and U upper unitriangular with small integer
    # entries: every one of the 16^3 structure constants is nonzero and
    # they reach 2 * 10^11; validating them in Fractions took about 24 s
    a = m_n_transpose(4)
    n = a.dim

    def entry(i, j):
        return (i + 2 * j) % 3 + 1

    lo = [[1 if r == c else entry(r, c) if r > c else 0 for c in range(n)]
          for r in range(n)]
    up = [[1 if r == c else entry(r, c) if r < c else 0 for c in range(n)]
          for r in range(n)]
    rows = [tuple(QQ.of(sum(lo[r][t] * up[t][c] for t in range(n)))
                  for c in range(n)) for r in range(n)]
    table, inv = change_bilinear_basis(QQ, a.table, rows, a.involution)
    assert all(c for row in table for cell in row for c in cell)
    start = time.perf_counter()
    AssocAlgebra(QQ, a.names, table, involution=inv)
    assert time.perf_counter() - start < 10.0
