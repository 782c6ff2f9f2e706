"""Textbook oracles for the ideal closures, shared by several test modules."""

import itertools

from gradlie.linalg import rref, span


def naive_ideal(alg, vectors):
    """Smallest ideal containing the vectors by the plain fixpoint
    cur = span(cur + {[b_i, r]}), repeated until the dimension stops."""
    f, n = alg.field, alg.dim
    basis = [tuple(f.one if j == i else f.zero for j in range(n))
             for i in range(n)]
    cur = rref(f, [list(v) for v in vectors])
    while True:
        nxt = rref(f, [list(r) for r in cur]
                   + [list(alg.bracket(b, r)) for b in basis for r in cur])
        if len(nxt) == len(cur):
            return span(f, n, cur)
        cur = nxt


def projective_points(alg, graded):
    """Every projective point, one block of coordinates at a time (the
    degrees in increasing order when graded): nonzero vectors on the
    block whose first nonzero entry is 1, by first nonzero position and
    then lexicographically."""
    p, n = alg.field.p, alg.dim
    if graded:
        blocks = [[i for i in range(n) if alg.degrees[i] == d]
                  for d in sorted(set(alg.degrees))]
    else:
        blocks = [list(range(n))]
    for block in blocks:
        points = []
        for coords in itertools.product(range(p), repeat=len(block)):
            lead = next((k for k, x in enumerate(coords) if x), None)
            if lead is not None and coords[lead] == 1:
                points.append((lead, coords))
        points.sort(key=lambda pt: pt[0])
        for _, coords in points:
            v = [0] * n
            for i, x in zip(block, coords):
                v[i] = x
            yield tuple(v)


def naive_principal_ideals(alg, graded):
    """Distinct ideals of naive_ideal over every projective point, in
    order of first appearance."""
    seen = {}
    for v in projective_points(alg, graded):
        ideal = naive_ideal(alg, [v])
        seen.setdefault(ideal.rows, ideal)
    return tuple(seen.values())
