"""The brute-force principal-ideal scan over F_p against a textbook scan.

distinct_principal_ideals closes each projective point through
linalg.closure with a sparse bracket table and a full-rank stop; the
oracle walks the same points in its own code and closes each one by the
plain fixpoint of tests/_naive.py.  Both must list the same ideals in
the same order.
"""

import pytest

from _naive import naive_principal_ideals
from gradlie import enumeration
from gradlie.gallery import heis3, sl2, sl2sum
from gradlie.lie import direct_sum
from gradlie.scalars import GF

ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "sl2sum": sl2sum,
    "sl2+heis3": lambda f: direct_sum(sl2(f), heis3(f)),
}


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_scan_matches_naive_fixpoint_scan(monkeypatch, name, p, graded):
    # a fresh memo, so the scan really runs even if another test ran it
    monkeypatch.setattr(enumeration, "_ideal_cache", {})
    alg = ALGEBRAS[name](GF(p))
    got = enumeration.distinct_principal_ideals(alg, homogeneous_only=graded)
    assert got == naive_principal_ideals(alg, graded)
