"""Structure-constant tables: freezing, cell trees, and products.

A table holds one cell per tuple of basis indices, one index per argument
of a multilinear product: table[i][j][k] is coordinate k of b_i b_j for a
bilinear product, table[i][j][l][k] of {b_i, b_j, b_l} for a trilinear
one.  The Lie, associative and Jordan classes all freeze their tables,
build their sparse views, scale them to ints for validation, check the
grading, multiply, and check that a map preserves a product through the
helpers here.  Every table induced on new bases is built here too (the
restriction to a subalgebra or subpair, a quotient, the commutator on
derivations, TKK(V), the pair and triple read off a Lie algebra, the
derived triple), and building it is its closure check.  So is every table
given by a product on a basis: the commutator algebra, direct sums, the
exchange double, and the examples of gallery (sl_n, M_n, the rectangular
pair, the symmetric 2x2 matrices and the sparse bracket tables).  The Lie
tables among them are antisymmetric and built by antisymmetric, which
computes each unordered pair of basis vectors once and leaves the
diagonal zero; the others by induced.

A cell tree is the sparse view of a table: tree[i][j]... holds one dict
level per argument, keyed by the indices whose cells are not zero, and
ends in the (k, c) of each cell's nonzero entries.  The products walk it,
accumulate exactly and reduce once per result through Field.reduce, so
over Q an integral result is an int.  cells lists its nonzero cells in
index order; algebra files are written from that list.
"""

from __future__ import annotations

import itertools

from .errors import GradingViolation, ValidationError
from .linalg import mat_vec


def freeze(field, table, shape):
    """table, nested len(shape) deep, as tuples of field elements
    (Field.of).  Level t must have length shape[t] at every index; the
    first entry in row-major order that does not raises ValidationError
    with its index."""
    last = len(shape) - 1

    def walk(node, level, idx):
        if len(node) != shape[level]:
            raise ValidationError("length %d at index %s, expected %d"
                                  % (len(node), list(idx), shape[level]))
        if level == last:
            return tuple(map(field.of, node))
        return tuple(walk(sub, level + 1, idx + (i,))
                     for i, sub in enumerate(node))

    return walk(table, 0, ())


def cell_tree(table, arity):
    """The cell tree of a table whose cells sit arity >= 1 indices deep."""
    tree = {}
    for i, sub in enumerate(table):
        node = (cell_tree(sub, arity - 1) if arity > 1
                else [(k, c) for k, c in enumerate(sub) if c])
        if node:
            tree[i] = node
    return tree


def cells(tree, idx=()):
    """(indices, [(k, c), ...]) of each nonzero cell of a cell tree, in
    index order."""
    for i, sub in tree.items():
        if isinstance(sub, list):
            yield idx + (i,), sub
        else:
            yield from cells(sub, idx + (i,))


def integral_trees(field, trees):
    """(d, trees): the cell trees with every entry multiplied by d, the
    one factor common to all of them that makes them ints
    (Field.integral).  An identity homogeneous in the tables can then be
    checked on ints, both sides carrying the same power of d.  With d = 1
    (always over F_p) the trees come back unchanged."""
    d, ints = field.integral(c for t in trees for _, cell in cells(t)
                             for _, c in cell)
    if d == 1:
        return d, trees
    ints = iter(ints)

    def scale(node):
        if isinstance(node, list):
            return [(k, next(ints)) for k, _ in node]
        return {i: scale(sub) for i, sub in node.items()}

    return d, [scale(t) for t in trees]


def require_graded(tree, degrees, add):
    """Raises GradingViolation(i, j, k) at the first nonzero coordinate k
    of a b_i b_j, in row-major order, whose degree is not deg i + deg j;
    tree is the cell tree of a bilinear table."""
    for i, row in tree.items():
        for j, cell in row.items():
            for k, _ in cell:
                if degrees[k] != add(degrees[i], degrees[j]):
                    raise GradingViolation(i, j, k)


def bilinear(field, tree, x, y, dim):
    """The product of x and y over a cell tree of a bilinear table."""
    acc = [0] * dim
    for i, row in tree.items():
        a = x[i]
        if a:
            for j, cell in row.items():
                b = y[j]
                if b:
                    ab = a * b
                    for k, c in cell:
                        acc[k] += ab * c
    return field.reduce(acc)


def trilinear(field, tree, x, y, z, dim):
    """The product of x, y and z over a cell tree of a trilinear table."""
    acc = [0] * dim
    for i, plane in tree.items():
        a = x[i]
        if a:
            for j, row in plane.items():
                b = y[j]
                if b:
                    ab = a * b
                    for l, cell in row.items():
                        c = z[l]
                        if c:
                            abc = ab * c
                            for k, v in cell:
                                acc[k] += abc * v
    return field.reduce(acc)


def require_preserved(field, table, maps, out_map, product, message):
    """Raises ValidationError(message) unless maps carry the product whose
    structure constants are the table to product: out_map takes the cell
    at indices (i, j, ...) to product(maps[0][i], maps[1][j], ...).  Each
    map is a matrix whose row i is the image of basis vector i; {} fields
    in message are filled with the first failing indices."""
    for idx in itertools.product(*(range(len(m)) for m in maps)):
        cell = table
        for i in idx:
            cell = cell[i]
        if mat_vec(cell, out_map, field) != tuple(
                product(*(m[i] for m, i in zip(maps, idx)))):
            raise ValidationError(message.format(*idx))


def induced(product, ins, read, message):
    """The table of a product moved onto new bases, the converse of
    require_preserved: its cell at (i, j, ...) is read(product(ins[0][i],
    ins[1][j], ...)), read giving the coordinates of a value in the output
    basis.  At the first cell in row-major order where read returns None
    it raises ValidationError(message) with {} fields filled with the
    cell's indices."""
    def build(args, idx):
        if len(args) == len(ins):
            cell = read(product(*args))
            if cell is None:
                raise ValidationError(message.format(*idx))
            return tuple(cell)
        return tuple(build(args + (x,), idx + (i,))
                     for i, x in enumerate(ins[len(args)]))

    return build((), ())


def antisymmetric(field, product, basis, read, message):
    """The table of an antisymmetric bilinear product moved onto a new
    basis, as induced(product, (basis, basis), read, message) builds it:
    product runs once per unordered pair i < j, cell (j, i) is the
    negated cell (i, j), and the diagonal is zero.  The cells that read
    returns None for are symmetric, so the first of them in row-major
    order has i < j, and the same ValidationError is raised there."""
    n = len(basis)
    zero = (field.zero,) * n
    table = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cell = read(product(basis[i], basis[j]))
            if cell is None:
                raise ValidationError(message.format(i, j))
            table[i][j] = tuple(cell)
            table[j][i] = tuple(map(field.neg, cell))
    return tuple(map(tuple, table))
