"""The brute-force F_p scans against textbook scans.

distinct_principal_ideals closes each projective point through
GradedLieAlgebra.ideal_generated (the sparse structure constants and a
full-rank stop); the oracle walks the same points in its own code and
closes each one by the plain fixpoint of tests/_naive.py.  Both must list
the same ideals in the same order.  find_absolute_zero_divisor must stop
at the same first point as a scan squaring dense ad matrices.
"""

import pytest
from hypothesis import given, strategies as st

from _naive import (
    change_basis,
    homogeneous_bases,
    naive_principal_ideals,
    naive_zero_divisor,
)
from gradlie import enumeration
from gradlie.errors import ValidationError
from gradlie.gallery import heis3, p_mod_i, sl2, sl2sum
from gradlie.lie import GradedLieAlgebra, direct_sum
from gradlie.scalars import GF, QQ

ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "sl2sum": sl2sum,
    "sl2+heis3": lambda f: direct_sum(sl2(f), heis3(f)),
}


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_scan_matches_naive_fixpoint_scan(name, p, graded):
    alg = ALGEBRAS[name](GF(p))
    got = enumeration.distinct_principal_ideals(alg, homogeneous_only=graded)
    assert got == naive_principal_ideals(alg, graded)


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_zero_divisor_scan_matches_dense_scan(name, p, graded):
    alg = ALGEBRAS[name](GF(p))
    assert (enumeration.find_absolute_zero_divisor(alg, homogeneous_only=graded)
            == naive_zero_divisor(alg, graded))


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@given(data=st.data())
def test_zero_divisor_scan_matches_dense_scan_in_other_bases(graded, data):
    # p_mod_i only graded: its plain scan walks 78k points before a hit
    make = data.draw(st.sampled_from(
        [sl2, heis3] + ([p_mod_i] if graded else [])))
    base = make(GF(data.draw(st.sampled_from([5, 7]))))
    alg = change_basis(base, data.draw(homogeneous_bases(base)))
    assert (enumeration.find_absolute_zero_divisor(alg, homogeneous_only=graded)
            == naive_zero_divisor(alg, graded))


def test_zero_divisor_scan_is_exact_past_int64():
    # heis3 in a non-monomial basis over F_(2^31 - 1): n p^2 > 2^63, so a
    # fixed-width int64 scan would wrap.  Every element of heis3 is an
    # absolute zero divisor, so the exact answer is the first point.
    f = GF(2147483647)
    plain = GradedLieAlgebra(f, ("x", "y", "z"), heis3(f).table)
    alg = change_basis(plain, [tuple(f.of(c) for c in row)
                               for row in ((1, 2, 3), (4, 5, 6), (7, 8, 10))])
    assert alg.dim * f.p ** 2 > 2 ** 63
    assert max(c for nz in alg.nonzero for _, _, c in nz) > 2 ** 30
    assert enumeration.find_absolute_zero_divisor(
        alg, budget=10 ** 19) == (1, 0, 0)


@pytest.mark.parametrize("scan", [enumeration.distinct_principal_ideals,
                                  enumeration.find_absolute_zero_divisor])
def test_scans_refuse_the_rationals(scan):
    with pytest.raises(ValidationError):
        scan(heis3(QQ))
