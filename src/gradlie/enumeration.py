"""Exhaustive scans over small prime fields.

Brute force decision procedures over F_p walk projective points (first
nonzero coordinate normalized to 1), so a d-dimensional space costs
(p^d - 1)/(p - 1) points.  Every public scan checks that count against an
element budget first and raises DimensionTooLarge beyond it; the default
of 10**6 can be overridden by the GRADLIE_BUDGET environment variable or a
per-call argument.

Both scans are exact Python integer arithmetic on the sparse structure
constants of the algebra (GradedLieAlgebra.nonzero), so no prime is too
large for them and no value wraps around: the principal-ideal scan closes
one point at a time through GradedLieAlgebra.ideal_generated, and the
absolute-zero-divisor scan returns the first point passing
GradedLieAlgebra.is_in_quadratic_annihilator, testing only the points of
the Killing radical, where every absolute zero divisor lies when p != 2.
"""

from __future__ import annotations

import os

from .errors import DimensionTooLarge, ValidationError
from .linalg import span

DEFAULT_BUDGET = 10 ** 6

_ideal_cache = {}


def resolve_budget(budget=None):
    if budget is not None:
        return int(budget)
    env = os.environ.get("GRADLIE_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


def projective_count(p, dim):
    if dim <= 0:
        return 0
    return (p ** dim - 1) // (p - 1)


def check_budget(npoints, budget=None):
    cap = resolve_budget(budget)
    if npoints > cap:
        raise DimensionTooLarge(npoints, cap)
    return cap


def iter_projective(p, rows):
    """Projective points of the span of independent rows, in scan order.

    The point with coefficients c is the sum of c_t rows[t]: the first
    nonzero coefficient is 1 and the later ones count up like an
    odometer, the last one fastest.  A step adds the rows of the digits
    it moves to the current point (a digit wrapping from p - 1 to 0 adds
    its row once more), so nothing of size p is materialized.  For unit
    vectors these are the points whose first nonzero entry among their
    positions is 1, in lexicographic order.
    """
    sparse = [[(k, c) for k, c in enumerate(r) if c] for r in rows]
    for lead, first in enumerate(sparse):
        v = [0] * len(rows[lead])
        for k, c in first:
            v[k] = c
        tail = sparse[lead + 1:][::-1]
        digits = [0] * len(tail)
        while True:
            yield tuple(v)
            for t, row in enumerate(tail):
                for k, c in row:
                    v[k] = (v[k] + c) % p
                if digits[t] < p - 1:
                    digits[t] += 1
                    break
                digits[t] = 0
            else:
                break


def scan_blocks(alg, homogeneous_only=False, budget=None):
    """Coordinate blocks of a scan, all positions or those of each degree
    in support order, once their projective points fit the budget."""
    if alg.field.p is None:
        raise ValidationError("exhaustive scans are the F_p path")
    if homogeneous_only:
        out = {}
        for i, d in enumerate(alg.degrees):
            out.setdefault(d, []).append(i)
        blocks = [out[d] for d in sorted(out)]
    else:
        blocks = [list(range(alg.dim))]
    check_budget(sum(projective_count(alg.field.p, len(b)) for b in blocks),
                 budget)
    return blocks


def scan_points(alg, homogeneous_only=False, budget=None):
    """All projective points of the algebra, optionally degree by degree."""
    for b in scan_blocks(alg, homogeneous_only, budget):
        yield from iter_projective(alg.field.p,
                                   [alg.basis_vector(i) for i in b])


def principal_ideal_np(alg, v):
    """Smallest ideal of a mod-p algebra containing v.

    The per-point entry of distinct_principal_ideals; perfbench counts
    scan closures by wrapping this name."""
    return alg.ideal_generated([v])


def distinct_principal_ideals(alg, homogeneous_only=False, budget=None):
    """All distinct ideals generated by a single (homogeneous) element.

    Every nonzero (graded) ideal contains one of these, which is what the
    exhaustive semiprimeness / essentiality / socle oracles need.  Results
    are cached per algebra since the scan can take seconds in dimension 8;
    the budget is checked first, so a cached answer is refused exactly
    when a fresh scan would be.
    """
    scan_blocks(alg, homogeneous_only, budget)
    key = (alg, bool(homogeneous_only))
    got = _ideal_cache.get(key)
    if got is not None:
        return got
    seen = {}
    for v in scan_points(alg, homogeneous_only=homogeneous_only, budget=budget):
        ideal = principal_ideal_np(alg, v)
        seen.setdefault(ideal.rows, ideal)
    out = tuple(seen.values())
    _ideal_cache[key] = out
    return out


def find_absolute_zero_divisor(alg, homogeneous_only=False, budget=None):
    """First projective point x with (ad x)^2 = 0, or None, in the order
    of scan_points.

    Quadratic in the argument, so projective representatives suffice.
    For p != 2 every such x lies in the radical K of the Killing form:
    with a = ad x, a^2 = 0 gives 0 = ad [x, [x, y]] = -2 a (ad y) a, so
    (a ad y)^2 = 0 and tr(a ad y) = 0.  So only the points of K inside
    each scanned block are tested; their scan order is the order of their
    coordinates in the canonical basis of that part of K, so the first
    hit is the same.  The budget is charged for the whole scan.
    """
    from .analysis import killing_radical  # analysis imports this module

    p, n = alg.field.p, alg.dim
    blocks = scan_blocks(alg, homogeneous_only, budget)
    rad = alg.full_space() if p == 2 else killing_radical(alg)
    for b in blocks:
        part = rad.intersect(span(alg.field, n, [alg.basis_vector(i)
                                                 for i in b]))
        for x in iter_projective(p, part.rows):
            if alg.is_in_quadratic_annihilator(x):
                return x
    return None
