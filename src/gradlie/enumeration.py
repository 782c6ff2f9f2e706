"""Exhaustive scans over small prime fields.

Brute force decision procedures over F_p walk projective points (first
nonzero coordinate normalized to 1), so a d-dimensional space costs
(p^d - 1)/(p - 1) points.  Every public scan checks that count against an
element budget first and raises DimensionTooLarge beyond it; the default
of 10**6 can be overridden by the GRADLIE_BUDGET environment variable or a
per-call argument.

The ideal predicates of analysis read the radical of the ad-envelope
instead; the principal-ideal scan is their fallback, where the envelope
is over the budget or its nilpotence certificate fails, the listing of
minimal ideals, and the oracle the tests check them against.

Both scans are exact Python integer arithmetic on the sparse structure
constants of the algebra (GradedLieAlgebra.nonzero), so no prime is too
large for them and no value wraps around: the principal-ideal scan closes
one point at a time through GradedLieAlgebra.ideal_generated, and the
absolute-zero-divisor scan (zero_divisor_points) yields the points passing
GradedLieAlgebra.is_in_quadratic_annihilator, testing only the points of
the Killing radical, where every absolute zero divisor lies when p != 2.
The Jordan pair predicates walk the same points, in the outer components
of the TKK algebra of the pair, and charge their own budget per side.
"""

from __future__ import annotations

import os

from .errors import DimensionTooLarge, GradlieError, ValidationError
from .linalg import span

DEFAULT_BUDGET = 10 ** 6


def resolve_budget(budget=None):
    """The budget given, else GRADLIE_BUDGET, else DEFAULT_BUDGET; a
    value that is not a nonnegative integer raises GradlieError naming
    where it came from."""
    source = "--budget"
    if budget is None:
        budget, source = os.environ.get("GRADLIE_BUDGET"), "GRADLIE_BUDGET"
        if not budget:
            return DEFAULT_BUDGET
    try:
        cap = int(budget)
    except ValueError:
        cap = -1
    if cap < 0:
        raise GradlieError("%s must be a nonnegative integer, not %r"
                           % (source, budget))
    return cap


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
    exhaustive minimal-ideal listing and the predicate oracles need.  Results
    are memoized on the algebra (alg.memo) since the scan can take seconds
    in dimension 8; the budget is checked first, so a memoized answer is
    refused exactly when a fresh scan would be.
    """
    scan_blocks(alg, homogeneous_only, budget)
    key = ("principal_ideals", bool(homogeneous_only))
    got = alg.memo.get(key)
    if got is not None:
        return got
    seen = {}
    for v in scan_points(alg, homogeneous_only=homogeneous_only, budget=budget):
        ideal = principal_ideal_np(alg, v)
        seen.setdefault(ideal.rows, ideal)
    out = alg.memo[key] = tuple(seen.values())
    return out


def zero_divisor_points(alg, rad, block):
    """The projective points x of rad ∩ block with (ad x)^2 = 0, in scan
    order.

    The points of the intersection are walked in the order of their
    coordinates in its canonical basis, which is the order in which a
    scan of the whole block meets them, so the first hit is the same.
    The caller charges the budget.
    """
    for x in iter_projective(alg.field.p, rad.intersect(block).rows):
        if alg.is_in_quadratic_annihilator(x):
            yield x


def find_absolute_zero_divisor(alg, homogeneous_only=False, budget=None):
    """First projective point x with (ad x)^2 = 0, or None, in the order
    of scan_points.

    Quadratic in the argument, so projective representatives suffice.
    For p != 2 every such x lies in the radical K of the Killing form:
    with a = ad x, a^2 = 0 gives 0 = ad [x, [x, y]] = -2 a (ad y) a, so
    (a ad y)^2 = 0 and tr(a ad y) = 0.  So only the points of K inside
    each scanned block are tested (zero_divisor_points).  The budget is
    charged for the whole scan.
    """
    from .analysis import killing_radical  # analysis imports this module

    p, n = alg.field.p, alg.dim
    blocks = scan_blocks(alg, homogeneous_only, budget)
    rad = alg.full_space() if p == 2 else killing_radical(alg)
    for b in blocks:
        block = span(alg.field, n, [alg.basis_vector(i) for i in b])
        for x in zero_divisor_points(alg, rad, block):
            return x
    return None
