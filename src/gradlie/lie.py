"""Graded Lie algebras over exact scalar fields.

An algebra is stored as a dense table of structure constants
table[i][j][k] = coefficient of basis vector k in the bracket of basis
vectors i and j, together with a grading (trivial, Z, or Z/n) assigning a
degree to every basis vector.  All axioms (antisymmetry, the Jacobi
identity, compatibility of the bracket with the grading) are checked at
construction time; downstream code may therefore assume they hold.

The dense table is what the serializers read and what equality compares.
Every computation reads the sparse views built once next to it (see
tables): the cell tree cells[i][j], which the bracket walks, and
nonzero[i], the (j, k, c) with [b_i, b_j]_k = c != 0.  Ad matrices, ideal
closures, (ad x)^2 and the Killing form of analysis loop over nonzero,
accumulate exactly and reduce mod p once per output row.  The Jacobi
check runs on a cell tree scaled to ints (Field.integral): the cyclic sum
is quadratic in the constants.

Vectors are plain tuples of field elements in the fixed basis, matrices
are tuples of row vectors, and the row-vector convention of linalg is
used throughout: ``v @ ad_matrix(L, x)`` is the bracket ``[x, v]``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    AntisymmetryViolation,
    JacobiViolation,
    NotAnIdeal,
    NotGraded,
    ValidationError,
)
from .linalg import Subspace, closure, mat_identity, preimage, span
from .scalars import Field
from .tables import (antisymmetric, bilinear, cell_tree, freeze,
                     integral_trees, require_graded)


class GradingGroup:
    """Trivial group, the integers, or the integers mod n.

    Degrees are always plain ints (0 for the trivial group, any int for Z,
    ints in [0, n) for Z/n); canon() brings an int into normal form.
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind, n=None):
        if kind not in ("trivial", "Z", "Zn"):
            raise ValueError("unknown grading group kind %r" % (kind,))
        if kind == "Zn":
            if not isinstance(n, int) or n < 1:
                raise ValueError("Zn grading needs a positive modulus")
        else:
            n = None
        self.kind = kind
        self.n = n

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def integers(cls):
        return cls("Z")

    @classmethod
    def mod(cls, n):
        return cls("Zn", n)

    @property
    def zero(self):
        return 0

    def canon(self, d):
        d = int(d)
        if self.kind == "trivial":
            return 0
        if self.kind == "Zn":
            return d % self.n
        return d

    def add(self, a, b):
        return self.canon(a + b)

    def __eq__(self, other):
        return (isinstance(other, GradingGroup)
                and self.kind == other.kind and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        if self.kind == "Zn":
            return "GradingGroup.mod(%d)" % self.n
        return "GradingGroup(%r)" % self.kind


class GradedLieAlgebra:
    """Finite dimensional Lie algebra with a group grading.

    table[i][j] is the coordinate tuple of [b_i, b_j], cells its cell
    tree, and nonzero[i] the (j, k, c) with table[i][j][k] = c != 0.
    memo holds what analysis, enumeration and derivations derive about
    this algebra (the Killing radical and its abelian ideal, ideal
    lattices, principal ideals, maximal quotients), keyed by the function
    and its graded flag where it has one; it takes no part in equality.
    Construction checks the shape of the table, then antisymmetry, the
    grading compatibility, and Jacobi, in that order, raising the
    matching ValidationError subclass on failure.
    """

    __slots__ = ("field", "names", "table", "cells", "nonzero", "group",
                 "degrees", "memo", "_hash")

    def __init__(self, field, names, table, group=None, degrees=None):
        if not isinstance(field, Field):
            raise ValidationError("field must be a Field instance")
        self.field = field
        self.names = tuple(str(s) for s in names)
        n = len(self.names)
        if group is None:
            group = GradingGroup.trivial()
        self.group = group
        if degrees is None:
            degrees = (0,) * n
        degrees = tuple(group.canon(d) for d in degrees)
        if len(degrees) != n:
            raise ValidationError("need one degree per basis vector")
        self.degrees = degrees

        self.table = freeze(field, table, (n, n, n))
        self.cells = cell_tree(self.table, 2)
        self.nonzero = tuple(tuple((j, k, c) for j, cell in
                                   self.cells.get(i, {}).items()
                                   for k, c in cell) for i in range(n))

        self._check_antisymmetry()
        # the first failure has j > i: (j, i) fails with (i, j)
        require_graded(self.cells, self.degrees, group.add)
        self._check_jacobi()
        self._hash = hash((field.p, self.names, self.degrees,
                           self.group, self.table))
        self.memo = {}

    # -- validation -------------------------------------------------

    def _check_antisymmetry(self):
        zero = self.field.zero
        n = self.dim
        for i in range(n):
            if any(c != zero for c in self.table[i][i]):
                raise AntisymmetryViolation(i, i, "[b_i, b_i] != 0")
            for j in range(i + 1, n):
                neg = tuple(self.field.neg(c) for c in self.table[j][i])
                if self.table[i][j] != neg:
                    raise AntisymmetryViolation(i, j, "[b_i,b_j] != -[b_j,b_i]")

    def _check_jacobi(self):
        """First triple i < j < k whose cyclic sum [[b_i, b_j], b_k] +
        [[b_j, b_k], b_i] + [[b_k, b_i], b_j] is nonzero.

        The sum is quadratic in the structure constants, so it runs on
        the constants times d (Field.integral) and is d^2 times the true
        sum; the residue is divided back only when a triple fails."""
        n = self.dim
        f = self.field
        d, (tree,) = integral_trees(f, (self.cells,))
        # cells[i][j]: the (k, c) of [b_i, b_j], times d
        cells = [tree.get(i, {}) for i in range(n)]

        def add(acc, u, b):
            for m, a in u:
                for t, c in cells[m].get(b, ()):
                    acc[t] += a * c

        for i in range(n):
            for j in range(i + 1, n):
                tij = cells[i].get(j, ())
                for k in range(j + 1, n):
                    tjk, tki = cells[j].get(k, ()), cells[k].get(i, ())
                    if not (tij or tjk or tki):
                        continue
                    acc = [0] * n
                    add(acc, tij, k)
                    add(acc, tjk, i)
                    add(acc, tki, j)
                    if not f.vanishes(acc):
                        raise JacobiViolation(i, j, k, residue=tuple(
                            f.of(Fraction(a, d * d)) for a in acc))

    # -- basics -----------------------------------------------------

    @property
    def dim(self):
        return len(self.names)

    def basis_vector(self, i):
        z = self.field.zero
        return tuple(self.field.one if j == i else z for j in range(self.dim))

    def zero_vector(self):
        return (self.field.zero,) * self.dim

    def vec(self, coords):
        return freeze(self.field, coords, (self.dim,))

    def _ad_rows(self, x):
        """Rows of ad x before reduction mod p: row j is [x, b_j]."""
        n = self.dim
        zero = self.field.zero
        rows = [[zero] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if xi:
                for j, k, c in self.nonzero[i]:
                    rows[j][k] += xi * c
        return rows

    def bracket(self, x, y):
        """[x, y] by bilinearity over the nonzero structure constants."""
        return bilinear(self.field, self.cells, x, y, self.dim)

    def ad_matrix(self, x):
        """Matrix of ad x in row convention: v @ M = [x, v]."""
        return tuple(self.field.reduce(r) for r in self._ad_rows(x))

    def right_matrix(self, y):
        """Matrix of right bracketing: v @ R(y) = [v, y].  By antisymmetry,
        checked at construction, R(y) = -ad y."""
        return tuple(self.field.reduce([-a for a in r])
                     for r in self._ad_rows(y))

    def __eq__(self, other):
        return (isinstance(other, GradedLieAlgebra)
                and self.field == other.field
                and self.names == other.names
                and self.degrees == other.degrees
                and self.group == other.group
                and self.table == other.table)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "GradedLieAlgebra(dim=%d, field=%r, group=%r)" % (
            self.dim, self.field, self.group)

    # -- grading helpers --------------------------------------------

    def support(self):
        """Sorted list of degrees carrying a nonzero piece of L."""
        return sorted(set(self.degrees))

    def degree_component(self, d):
        d = self.group.canon(d)
        rows = [self.basis_vector(i) for i in range(self.dim)
                if self.degrees[i] == d]
        return span(self.field, self.dim, rows)

    def homogeneous_decompose(self, v):
        """Split v into its homogeneous pieces; returns {degree: vector}."""
        v = self.vec(v)
        zero = self.field.zero
        out = {}
        for i, c in enumerate(v):
            if c == zero:
                continue
            d = self.degrees[i]
            if d not in out:
                out[d] = [zero] * self.dim
            out[d][i] = c
        return {d: tuple(w) for d, w in out.items()}

    def is_homogeneous(self, v):
        return len(self.homogeneous_decompose(v)) <= 1

    def degree_of(self, v):
        """Degree of a nonzero homogeneous vector; None for v = 0."""
        parts = self.homogeneous_decompose(v)
        if not parts:
            return None
        if len(parts) > 1:
            raise ValidationError("vector is not homogeneous")
        return next(iter(parts))

    def is_graded_subspace(self, sub):
        """A subspace is graded iff every canonical basis row is homogeneous.

        The reduced echelon basis of a graded subspace is automatically
        homogeneous (projecting a basis row to the degree of its pivot
        column keeps the pivot and stays inside the subspace, so row and
        projection coincide), hence this check is exact.
        """
        return all(self.is_homogeneous(r) for r in sub.rows)

    def graded_closure_check(self, sub):
        if not self.is_graded_subspace(sub):
            raise NotGraded("subspace is not graded")

    # -- subspace calculus -------------------------------------------

    def full_space(self):
        return Subspace.full(self.field, self.dim)

    def zero_space(self):
        return Subspace.zero(self.field, self.dim)

    def bracket_space(self, u, w):
        """Span of [u_r, w_s] over basis rows of two subspaces."""
        rows = [self.bracket(a, b) for a in u.rows for b in w.rows]
        return span(self.field, self.dim, rows)

    def is_subalgebra(self, s):
        return all(s.contains(self.bracket(a, b))
                   for a, b in itertools.combinations(s.rows, 2))

    def is_ideal(self, s):
        return all(s.contains(self.bracket(self.basis_vector(i), r))
                   for i in range(self.dim) for r in s.rows)

    def require_ideal(self, s, what="subspace"):
        if not self.is_ideal(s):
            raise NotAnIdeal("%s is not an ideal" % what)

    def ideal_generated(self, vectors):
        """Smallest ideal containing the given vectors: the closure under
        every ad(b_k).  The rows [w, b_k] of ad w span the same images as
        the [b_k, w]; only the nonzero ones go to the echelon, unreduced
        (it reduces mod p itself)."""
        return closure(span(self.field, self.dim, list(vectors)),
                       lambda w: [r for r in self._ad_rows(w) if any(r)])

    def subalgebra_generated(self, vectors):
        """Smallest subalgebra containing the given vectors: the closure
        of their span under ad of each of them, since right-normed
        brackets of generators span the subalgebra they generate."""
        gens = list(vectors)
        return closure(span(self.field, self.dim, gens),
                       lambda w: [self.bracket(g, w) for g in gens])

    def annihilator(self, s):
        """Ann_L(S) = {x in L : [x, S] = 0} as a subspace.

        For S an ideal this is again an ideal; computed as the preimage of
        zero under right multiplication by each basis row of S.
        """
        return preimage(self.zero_space(),
                        [self.right_matrix(r) for r in s.rows])

    def center(self):
        return self.annihilator(self.full_space())

    def is_in_quadratic_annihilator(self, x):
        """True iff [x, [x, L]] = 0, i.e. ad(x)^2 vanishes.

        u_m = sum of x_i c e_k over the (i, k, c) of nonzero[m] is
        [b_m, x] = -[x, b_m], so [x, [x, b_j]] is the sum of (u_j)_m u_m.
        Each u_m is built when first needed, and the test stops at the
        first j with [x, [x, b_j]] != 0.
        """
        n, zero = self.dim, self.field.zero
        nonzero = self.nonzero
        cols = [None] * n

        def col(m):
            u = cols[m] = [zero] * n
            for i, k, c in nonzero[m]:
                xi = x[i]
                if xi:
                    u[k] += xi * c
            return u

        for j in range(n):
            acc = None
            for m, a in enumerate(cols[j] or col(j)):
                if a:
                    u = cols[m] or col(m)
                    acc = ([a * b for b in u] if acc is None
                           else [s + a * b for s, b in zip(acc, u)])
            if acc is not None and not self.field.vanishes(acc):
                return False
        return True

    def derived_space(self, s):
        """[S, S] for a subspace S."""
        return self.bracket_space(s, s)

    # -- quotients and restrictions ----------------------------------

    def quotient_by_ideal(self, ideal):
        """Quotient algebra L/I with projection and section matrices.

        Representatives are the standard basis vectors at the non pivot
        columns of the canonical basis of I, so the projection of v is
        "reduce v by the echelon rows of I, read off the kept columns".
        I must be an ideal, and graded whenever the grading is nontrivial.
        Returns (Q, proj, section) with proj of shape dim(L) x dim(Q) and
        section of shape dim(Q) x dim(L); both are tuples of rows and
        satisfy section @ proj = identity on Q.
        """
        self.require_ideal(ideal, "quotient kernel")
        if self.group.kind != "trivial":
            self.graded_closure_check(ideal)
        f = self.field
        pivots = ideal.pivots()
        kept = [c for c in range(self.dim) if c not in pivots]

        def project(v):
            red = ideal.reduce(v)
            return tuple(red[c] for c in kept)

        proj = tuple(project(self.basis_vector(i)) for i in range(self.dim))
        section = tuple(self.basis_vector(c) for c in kept)
        names = tuple(self.names[c] for c in kept)
        table = antisymmetric(f, self.bracket, section, project,
                              "unreachable: project is never None")
        degrees = tuple(self.degrees[c] for c in kept)
        quo = GradedLieAlgebra(f, names, table, self.group, degrees)
        return quo, proj, section

    def restrict(self, sub):
        """Lie algebra structure on a bracket closed graded subspace.

        Returns (A, rows) where rows are the canonical basis of the
        subspace; coordinates of A refer to that basis.  Building the table
        is the closure check: a bracket of two rows outside the subspace
        raises ValidationError.  The subspace must then be graded (its
        canonical rows are homogeneous and carry well defined degrees),
        which every subspace is under the trivial grading.
        """
        rows = sub.rows
        table = antisymmetric(self.field, self.bracket, rows, sub.coords,
                              "subspace is not closed under the bracket")
        self.graded_closure_check(sub)
        names = tuple("u%d" % a for a in range(sub.dim))
        alg = GradedLieAlgebra(self.field, names, table, self.group,
                               tuple(map(self.degree_of, rows)))
        return alg, rows


def direct_sum(a, b, sep="'"):
    """External direct sum of two algebras over the same field and group."""
    if a.field != b.field:
        raise ValidationError("direct sum needs a common scalar field")
    if a.group != b.group:
        raise ValidationError("direct sum needs a common grading group")
    f, n = a.field, a.dim
    table = antisymmetric(
        f, lambda x, y: a.bracket(x[:n], y[:n]) + b.bracket(x[n:], y[n:]),
        mat_identity(f, n + b.dim), tuple, "")
    return GradedLieAlgebra(f, a.names + tuple(s + sep for s in b.names),
                            table, a.group, a.degrees + b.degrees)
