"""Exhaustive scans over small prime fields.

Brute force decision procedures over F_p walk projective points (first
nonzero coordinate normalized to 1), so a d-dimensional space costs
(p^d - 1)/(p - 1) points.  Every public scan checks that count against an
element budget first and raises DimensionTooLarge beyond it; the default
of 10**6 can be overridden by the GRADLIE_BUDGET environment variable or a
per-call argument.

The principal-ideal scan closes one point at a time in exact integer
arithmetic through linalg.closure, reading brackets off a sparse table of
the structure constants.  Only the batched absolute-zero-divisor scan uses
numpy: int64 arithmetic on the structure tensor T[i, j, k] = [b_i, b_j]_k,
with the hit converted back to an exact tuple, so callers never see raw
arrays.  numpy is imported inside the functions that use it, so it is
loaded only when that scan runs: ``import gradlie``, the CLI commands over
Q and the principal-ideal scans never pay for it (sympy, used by the
commutant splitter over Q in analysis, is deferred the same way).
"""

from __future__ import annotations

import itertools
import os

from .errors import DimensionTooLarge, ValidationError
from .linalg import closure, span

DEFAULT_BUDGET = 10 ** 6

_tensor_cache = {}
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


def structure_tensor(alg):
    """Structure constants of a mod-p algebra as an int64 (n, n, n) array."""
    import numpy as np

    key = alg
    t = _tensor_cache.get(key)
    if t is None:
        p = alg.field.p
        if p is None:
            raise ValidationError("structure_tensor needs a prime field algebra")
        n = alg.dim
        t = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                t[i, j] = alg.table[i][j]
        t %= p
        t.setflags(write=False)
        _tensor_cache[key] = t
    return t


def iter_projective(p, positions, ambient):
    """Projective points supported on the given coordinate positions.

    Yields int tuples of length ambient whose first nonzero entry (within
    positions, scanned in order) equals 1.
    """
    d = len(positions)
    for lead in range(d):
        tail = positions[lead + 1:]
        for rest in itertools.product(range(p), repeat=len(tail)):
            v = [0] * ambient
            v[positions[lead]] = 1
            for pos, c in zip(tail, rest):
                v[pos] = c
            yield tuple(v)


def homogeneous_positions(alg):
    """Coordinate positions of each degree, in support order."""
    out = {}
    for i, d in enumerate(alg.degrees):
        out.setdefault(d, []).append(i)
    return [out[d] for d in sorted(out)]


def scan_points(alg, homogeneous_only=False, budget=None):
    """All projective points of the algebra, optionally degree by degree."""
    p = alg.field.p
    if homogeneous_only:
        blocks = homogeneous_positions(alg)
    else:
        blocks = [list(range(alg.dim))]
    total = sum(projective_count(p, len(b)) for b in blocks)
    check_budget(total, budget)
    for b in blocks:
        yield from iter_projective(p, b, alg.dim)


def _bracket_columns(alg):
    """Sparse structure constants by column: entry j lists the nonzero
    (k, t, c) with [b_k, b_j]_t = c."""
    n = alg.dim
    return [[(k, t, c) for k in range(n)
             for t, c in enumerate(alg.table[k][j]) if c]
            for j in range(n)]


def principal_ideal_np(alg, v, columns=None):
    """Smallest ideal of a mod-p algebra containing v: the closure of v
    under every ad(b_k), with [b_k, w] read off the sparse columns.

    The per-point entry of distinct_principal_ideals, which passes the
    columns it builds once per scan; perfbench counts scan closures by
    wrapping this name."""
    n = alg.dim
    cols = _bracket_columns(alg) if columns is None else columns

    def images(w):
        out = [[0] * n for _ in range(n)]
        for j, wj in enumerate(w):
            if wj:
                for k, t, c in cols[j]:
                    out[k][t] += wj * c
        return [row for row in out if any(row)]

    return closure(span(alg.field, n, [v]), images)


def distinct_principal_ideals(alg, homogeneous_only=False, budget=None):
    """All distinct ideals generated by a single (homogeneous) element.

    Every nonzero (graded) ideal contains one of these, which is what the
    exhaustive semiprimeness / essentiality / socle oracles need.  Results
    are cached per algebra since the scan can take seconds in dimension 8;
    the budget is checked first, so a cached answer is refused exactly
    when a fresh scan would be.
    """
    p = alg.field.p
    if homogeneous_only:
        blocks = homogeneous_positions(alg)
    else:
        blocks = [range(alg.dim)]
    check_budget(sum(projective_count(p, len(b)) for b in blocks), budget)
    key = (alg, bool(homogeneous_only))
    got = _ideal_cache.get(key)
    if got is not None:
        return got
    cols = _bracket_columns(alg)
    seen = {}
    for v in scan_points(alg, homogeneous_only=homogeneous_only, budget=budget):
        ideal = principal_ideal_np(alg, v, columns=cols)
        seen.setdefault(ideal.rows, ideal)
    out = tuple(seen.values())
    _ideal_cache[key] = out
    return out


def find_absolute_zero_divisor(alg, homogeneous_only=False, budget=None,
                               chunk=4096):
    """First projective point x with (ad x)^2 = 0, or None.

    Quadratic in the argument, so projective representatives suffice.
    Batched: ad matrices for a whole chunk of points come from one einsum.
    """
    import numpy as np

    p = alg.field.p
    t = structure_tensor(alg)
    n = alg.dim
    points = scan_points(alg, homogeneous_only=homogeneous_only, budget=budget)
    while True:
        block = list(itertools.islice(points, chunk))
        if not block:
            return None
        v = np.array(block, dtype=np.int64)
        ads = np.einsum("bi,ijk->bjk", v, t) % p
        sq = np.matmul(ads, ads) % p
        flat = np.all(sq.reshape(sq.shape[0], -1) == 0, axis=1)
        hits = np.nonzero(flat)[0]
        if hits.size:
            return tuple(int(x) for x in block[hits[0]])
