"""Graded associative algebras with involution and their derived Lie objects.

The Lie side of an associative algebra A enters through the commutator
algebra (written A with a minus here), the skew elements of an involution,
and their central quotients.  The double A (+) A-opposite with the
exchange involution turns commutator statements into skew-element
statements: its skew part is exactly {(a, -a)} and bracketing there copies
the commutator of A, which this module constructs and verifies.

Construction checks associativity and the involution on cell trees of
the table in Python ints.  Over Q the table is multiplied by the lcm
d of its denominators, and the involution by its own lcm e
(tables.integral_trees).  (b_i b_j) b_k - b_i (b_j b_k) is quadratic in the
table, so the scaled difference is d^2 times the true one.  (b_i b_j)* is
scaled by d e, and b_j* b_i* by d e^2, so the former is multiplied by e
once more before the two are compared.  A scaled difference vanishes
exactly when the true one does, so the integer check is still the proof;
over F_p, d = e = 1 and values are reduced mod p only when compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .derivations import QuotientEmbedding, is_quotient
from .errors import (
    AssociativityViolation,
    InvolutionViolation,
    NoInvolution,
    ValidationError,
)
from .lie import GradedLieAlgebra, GradingGroup
from .linalg import (Subspace, mat_add, mat_identity, mat_sub, mat_vec,
                     preimage, span)
from .tables import (
    antisymmetric,
    bilinear,
    cell_tree,
    freeze,
    induced,
    integral_trees,
    require_graded,
    require_preserved,
)


class AssocAlgebra:
    """Finite dimensional graded associative algebra, optional involution.

    table[i][j] is the coordinate tuple of b_i * b_j, and cells its cell
    tree.  The involution, when present, is a matrix whose row i gives the
    coordinates of b_i* and must be a degree-preserving anti-automorphism
    of order at most two.
    """

    __slots__ = ("field", "names", "table", "cells", "group", "degrees",
                 "involution")

    def __init__(self, field, names, table, group=None, degrees=None,
                 involution=None):
        self.field = field
        self.names = tuple(names)
        n = len(self.names)
        self.table = freeze(field, table, (n, n, n))
        self.cells = cell_tree(self.table, 2)
        if group is None:
            group = GradingGroup.trivial()
        self.group = group
        if degrees is None:
            degrees = (group.zero,) * n
        self.degrees = tuple(group.canon(d) for d in degrees)
        if involution is not None:
            try:
                involution = freeze(field, involution, (n, n))
            except ValidationError:
                raise InvolutionViolation(
                    "the matrix has the wrong shape") from None
        self.involution = involution
        self._validate()

    @property
    def dim(self):
        return len(self.names)

    def _validate(self):
        n = self.dim
        f = self.field
        deg = self.degrees
        require_graded(self.cells, deg, self.group.add)
        # cells[i][j]: the (k, c) of b_i b_j times d, an int
        _, (tree,) = integral_trees(f, (self.cells,))
        cells = [[tree.get(i, {}).get(j, ()) for j in range(n)]
                 for i in range(n)]
        for i in range(n):
            for j in range(n):
                ij = cells[i][j]
                for k in range(n):
                    # (b_i b_j) b_k - b_i (b_j b_k), times d^2
                    acc = [0] * n
                    for m, a in ij:
                        for t, c in cells[m][k]:
                            acc[t] += a * c
                    for m, a in cells[j][k]:
                        for t, c in cells[i][m]:
                            acc[t] -= a * c
                    if not f.vanishes(acc):
                        raise AssociativityViolation(i, j, k)
        if self.involution is None:
            return
        # stars[i]: the (k, c) of b_i* times e, an int
        e, (tree,) = integral_trees(f, (cell_tree(self.involution, 1),))
        stars = [tree.get(i, ()) for i in range(n)]
        for i in range(n):
            # order two: b_i** - b_i, times e^2
            acc = [0] * n
            acc[i] = -e * e
            for m, a in stars[i]:
                for t, c in stars[m]:
                    acc[t] += a * c
            if not f.vanishes(acc):
                raise InvolutionViolation(
                    "involution applied twice moves basis vector %d" % i)
            # degree preserving
            if any(deg[k] != deg[i] for k, _ in stars[i]):
                raise InvolutionViolation(
                    "involution mixes degrees at basis vector %d" % i)
        for i in range(n):
            for j in range(n):
                # (b_i b_j)* - b_j* b_i*, both sides times d e^2
                acc = [0] * n
                for m, a in cells[i][j]:
                    for t, c in stars[m]:
                        acc[t] += e * a * c
                for r, u in stars[j]:
                    for s, v in stars[i]:
                        for t, c in cells[r][s]:
                            acc[t] -= u * v * c
                if not f.vanishes(acc):
                    raise InvolutionViolation(
                        "involution is not an anti-homomorphism at "
                        "(%d, %d)" % (i, j))

    def _mul_coords(self, x, y):
        return bilinear(self.field, self.cells, x, y, self.dim)

    def basis_vector(self, i):
        f = self.field
        return tuple(f.one if j == i else f.zero for j in range(self.dim))

    def vec(self, coords):
        return freeze(self.field, coords, (self.dim,))

    def star(self, x):
        if self.involution is None:
            raise NoInvolution("no involution on this algebra")
        return tuple(mat_vec(self.vec(x), self.involution, self.field))

    def minus_algebra(self):
        """Same module with the commutator bracket; grading carries over."""
        f, t = self.field, self.table
        table = antisymmetric(
            f, lambda i, j: [f.of(a - b) for a, b in zip(t[i][j], t[j][i])],
            range(self.dim), tuple, "")
        return GradedLieAlgebra(f, self.names, table, self.group,
                                self.degrees)

    def skew_elements(self):
        """The subspace {x : x* = -x}, a graded Lie subalgebra of A minus."""
        if self.involution is None:
            raise NoInvolution("skew elements need an involution")
        f = self.field
        n = self.dim
        # x* + x = x @ (involution + identity)
        star_plus_one = mat_add(self.involution, mat_identity(f, n), f)
        return preimage(Subspace.zero(f, n), [star_plus_one])


def exchange_double(a):
    """A (+) A-opposite with the exchange involution (x, y)* = (y, x).

    The product is (x, y)(z, w) = (xz, wy), so the second block multiplies
    in the opposite order and the exchange map is an anti-automorphism.
    Its table is induced on the 2n unit vectors of the two blocks.
    """
    f = a.field
    n = a.dim
    names = tuple("(%s,0)" % nm for nm in a.names) + \
            tuple("(0,%s)" % nm for nm in a.names)
    unit = mat_identity(f, 2 * n)
    table = induced(lambda x, y: a._mul_coords(x[:n], y[:n])
                    + a._mul_coords(y[n:], x[n:]), (unit, unit), tuple, "")
    return AssocAlgebra(f, names, table, a.group, a.degrees + a.degrees,
                        unit[n:] + unit[:n])


def exchange_skew_iso(a):
    """Verify that a |-> (a, -a) is a graded bracket isomorphism onto the
    skew part of the exchange double; returns (double, map rows)."""
    f = a.field
    n = a.dim
    dbl = exchange_double(a)
    skew = dbl.skew_elements()
    unit = mat_identity(f, 2 * n)
    rows = mat_sub(unit[:n], unit[n:], f)
    image = span(f, 2 * n, rows)
    if image != skew:
        raise ValidationError("skew part of the double is not the "
                              "anti-diagonal copy")
    aminus = a.minus_algebra()
    dminus = dbl.minus_algebra()
    require_preserved(f, aminus.table, (rows, rows), rows, dminus.bracket,
                      "exchange map fails to preserve the bracket at "
                      "({}, {})")
    if aminus.degrees != dminus.degrees[:n]:
        raise ValidationError("exchange map moves degrees")
    return dbl, tuple(rows)


VARIANTS = ("K", "KK", "minus", "AA")


def _variant_subspace(a, variant):
    """The requested Lie subalgebra of A minus, as a subspace of A."""
    aminus = a.minus_algebra()
    full = aminus.full_space()
    if variant == "minus":
        return aminus, full
    if variant == "AA":
        return aminus, aminus.bracket_space(full, full)
    if variant in ("K", "KK"):
        k = a.skew_elements()
        if variant == "K":
            return aminus, k
        return aminus, aminus.bracket_space(k, k)
    raise ValidationError("unknown variant %r" % (variant,))


def central_quotient(a, variant="K"):
    """Build the requested Lie algebra from A and quotient by its center."""
    if variant not in VARIANTS:
        raise ValidationError("variant must be one of %s" % (VARIANTS,))
    aminus, sub = _variant_subspace(a, variant)
    small, _rows = aminus.restrict(sub)
    quot, _proj, _section = small.quotient_by_ideal(small.center())
    return quot


@dataclass
class CentralQuotientReport:
    verdict: object
    variant: str
    dims: dict = dc_field(default_factory=dict)
    exchange_checked: bool = False
    asserted_overring: bool = True


def check_central_quotients(a, q=None, inclusion=None, variant="K"):
    """Exercise the central-quotient comparison for an embedding A in Q.

    Builds the variant Lie algebra on both sides, quotients each by its
    center, checks that the inclusion descends (the center of the small
    side must map into the center of the big side), and runs the graded
    quotient decider on the induced embedding.  The commutator variants
    are first rerouted through the exchange double, whose skew part is
    verified to copy A minus.  That Q sits inside the symmetric overring
    of A is the caller's assertion, recorded in the report.
    """
    if variant not in VARIANTS:
        raise ValidationError("variant must be one of %s" % (VARIANTS,))
    if q is None:
        q = a
    if inclusion is None:
        if a.dim != q.dim:
            raise ValidationError("an inclusion matrix is required when "
                                  "A and Q differ")
        inclusion = tuple(q.basis_vector(i) for i in range(q.dim))
    f = a.field
    report = CentralQuotientReport(None, variant)

    if variant in ("minus", "AA"):
        # reroute through the double: skew of the double copies A minus
        dbl_a, _ = exchange_skew_iso(a)
        dbl_q = dbl_a if q is a else exchange_skew_iso(q)[0]
        report.exchange_checked = True
        inner = "K" if variant == "minus" else "KK"
        dbl_inc = []
        for row in inclusion:
            dbl_inc.append(tuple(row) + (f.zero,) * q.dim)
        for row in inclusion:
            dbl_inc.append((f.zero,) * q.dim + tuple(row))
        return _run_check(dbl_a, dbl_q, tuple(dbl_inc), inner, report)
    return _run_check(a, q, tuple(inclusion), variant, report)


def _run_check(a, q, inclusion, variant, report):
    f = a.field
    # the inclusion must respect products and stars on basis vectors
    require_preserved(f, a.table, (inclusion, inclusion), inclusion,
                      q._mul_coords, "inclusion is not multiplicative")
    if a.involution is not None and q.involution is not None:
        require_preserved(f, a.involution, (inclusion,), inclusion, q.star,
                          "inclusion does not commute with *")

    aminus, sub_a = _variant_subspace(a, variant)
    small_a, rows_a = aminus.restrict(sub_a)
    za = small_a.center()
    if q is a:  # the default: the big side is the small one
        sub_q, small_q, zq = sub_a, small_a, za
    else:
        qminus, sub_q = _variant_subspace(q, variant)
        small_q, _ = qminus.restrict(sub_q)
        zq = small_q.center()
    quot_q, proj_q, _ = small_q.quotient_by_ideal(zq)
    report.dims = {
        "lie_small": small_a.dim, "lie_big": small_q.dim,
        "center_small": za.dim, "center_big": zq.dim,
        "quotient_big": quot_q.dim,
    }

    # push the small Lie algebra through: A-sub rows -> Q coords ->
    # K_Q coordinates -> central quotient
    image_rows = []
    for r in rows_a:
        in_q = mat_vec(r, inclusion, f)
        co = sub_q.coords(in_q)
        if co is None:
            raise ValidationError("variant subalgebra of A does not land "
                                  "inside the variant subalgebra of Q")
        image_rows.append(tuple(mat_vec(tuple(co), proj_q, f)))
    # the kernel of the composite must be exactly the center of the small
    # side, otherwise the induced map on central quotients is not injective
    if preimage(quot_q.zero_space(), [image_rows]) != za:
        raise ValidationError("center mismatch: the induced map on central "
                              "quotients is not injective")
    image = span(f, quot_q.dim, image_rows)
    emb = QuotientEmbedding(quot_q, image)
    report.dims["quotient_small"] = image.dim
    report.verdict = is_quotient(emb, graded=True)
    return report
