"""Dense exact linear algebra over Q and F_p.

Vectors are rows (tuples of field elements); a linear map is a matrix M of
shape (domain, target) acting on the right, image = v @ M.  Subspaces are
kept in reduced row-echelon form, which is unique per row space, so two
subspaces are equal iff their stored bases are equal entry for entry.
Each subspace keeps its pivot columns, so membership, coordinates and
residuals are read off them: the coefficient of a basis row is the
vector's entry at that row's pivot, and arithmetic is done only at the
other columns.

The rational elimination path is fraction-free: rows are scaled to integers
(Field.integral), gcd-normalized after every combination, and divided by
their pivot only at the very end, exactly (an int) where the pivot
divides the entry and as a Fraction only where it does not.  Structure
constants in this package are integers almost always, so this keeps the
inner loops, and the canonical rows they produce, in small ints.  The
matrix helpers (mat_vec, mat_mul, mat_scale, mat_add, mat_sub) end in
Field.reduce, so an integral result over Q is an int there too.

Two constructions serve the rest of the package.  ``preimage`` gives the
vectors that every map of a family sends into a subspace (annihilators,
denominator ideals, absorbers, kernels), and ``closure`` gives the
smallest subspace that contains a start and is stable under a family of
maps (ideals generated by elements, envelopes, pair ideals).
"""

from fractions import Fraction
from math import gcd

from .scalars import QQ


# ---------------------------------------------------------------------------
# elimination cores


def _int_row(row):
    """Scale a row of Fractions/ints to coprime integers."""
    return _reduce_gcd(QQ.integral(row)[1])


def _reduce_gcd(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _first_nonzero(row):
    for c, x in enumerate(row):
        if x:
            return c
    return None


def _echelon_q(rows, piv=None):
    """Insertion echelon over Z (row space over Q). Returns {pivot_col: row}.

    Rows are inserted one at a time into piv, which may be given to
    continue an earlier echelon.
    """
    if piv is None:
        piv = {}
    for raw in rows:
        row = _int_row(raw)
        while True:
            c = _first_nonzero(row)
            if c is None:
                break
            if c in piv:
                q = piv[c]
                a, b = q[c], row[c]
                g = gcd(a, b)
                ka, kb = b // g, a // g
                row = _reduce_gcd([kb * x - ka * y for x, y in zip(row, q)])
            else:
                if row[c] < 0:
                    row = [-x for x in row]
                piv[c] = row
                break
    return piv


def _echelon_p(rows, p, piv=None):
    """Insertion echelon mod p, rows normalized to leading 1. {pivot_col: row}.

    A row is reduced once by each pivot row, in column order (a pivot
    row vanishes left of its pivot), and taken mod p at the end.  Rows
    are inserted one at a time into piv, which may be given to continue
    an earlier echelon.
    """
    if piv is None:
        piv = {}
    for row in rows:
        for c in sorted(piv):
            t = row[c] % p
            if t:
                row = [x - t * y for x, y in zip(row, piv[c])]
        row = [x % p for x in row]
        c = _first_nonzero(row)
        if c is not None:
            inv = pow(row[c], -1, p)
            piv[c] = [x * inv % p for x in row]
    return piv


def _back_eliminate_q(piv):
    """(pivot columns, canonical RREF rows) of an echelon from _echelon_q:
    eliminate above each pivot, still in integers, then divide each row
    by its pivot."""
    cols = sorted(piv)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        q = piv[c]
        for c2 in cols[:i]:
            r = piv[c2]
            if r[c]:
                a, b = q[c], r[c]
                g = gcd(a, b)
                ka, kb = b // g, a // g
                r = _reduce_gcd([kb * x - ka * y for x, y in zip(r, q)])
                if r[c2] < 0:
                    r = [-x for x in r]
                piv[c2] = r
    out = []
    for c in cols:
        r = piv[c]
        lead = r[c]
        out.append(tuple(Fraction(x, lead) if x % lead else x // lead
                         for x in r))
    return tuple(cols), out


def _back_eliminate_p(piv, p):
    """(pivot columns, canonical RREF rows) of an echelon from _echelon_p."""
    cols = sorted(piv)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        q = piv[c]
        for c2 in cols[:i]:
            r = piv[c2]
            if r[c]:
                b = r[c]
                piv[c2] = [(x - b * y) % p for x, y in zip(r, q)]
    return tuple(cols), [tuple(piv[c]) for c in cols]


def _rref(field, rows):
    """(pivot columns, canonical reduced row-echelon basis)."""
    p = field.p
    if p is None:
        return _back_eliminate_q(_echelon_q(rows))
    return _back_eliminate_p(_echelon_p(rows, p), p)


def rref(field, rows):
    """Canonical reduced row-echelon basis of the row space. List of tuples."""
    return _rref(field, rows)[1]


def rank(field, rows):
    if field.p is None:
        return len(_echelon_q(rows))
    return len(_echelon_p(rows, field.p))


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of field^ambient, stored as a canonical RREF row basis.

    The pivot column of each row is handed over by the elimination, or
    found on first use for a basis built elsewhere; for every other
    column the rows that are nonzero there are listed on first use.
    """

    __slots__ = ("field", "ambient", "rows", "_pivots", "_columns")

    def __init__(self, field, ambient, rows, *, _canonical=False,
                 _pivots=None):
        self.field = field
        self.ambient = ambient
        if _canonical:
            self.rows = tuple(rows)
        else:
            _pivots, rows = _rref(field, [list(r) for r in rows])
            self.rows = tuple(rows)
        self._pivots = _pivots
        self._columns = None

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), _canonical=True, _pivots=())

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, mat_identity(field, ambient),
                   _canonical=True, _pivots=tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def pivots(self):
        """The pivot column of each basis row."""
        if self._pivots is None:
            self._pivots = tuple(_first_nonzero(r) for r in self.rows)
        return self._pivots

    def _free_columns(self):
        """(c, ((i, rows[i][c]), ...)) for each non-pivot column c, with
        the rows i that are nonzero at c."""
        if self._columns is None:
            pivots = set(self.pivots())
            self._columns = tuple(
                (c, tuple((i, r[c]) for i, r in enumerate(self.rows) if r[c]))
                for c in range(self.ambient) if c not in pivots)
        return self._columns

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def coords(self, vec):
        """Coefficients of vec in the RREF basis, or None if not a member.

        Row i is the only basis row that is nonzero at its pivot column,
        so its coefficient is vec there (reduced mod p over F_p); vec is a
        member iff that combination also matches vec at every non-pivot
        column.
        """
        p = self.field.p
        out = [vec[c] for c in self.pivots()]
        if p is not None:
            out = [x % p for x in out]
        for c, entries in self._free_columns():
            s = vec[c]
            for i, e in entries:
                t = out[i]
                if t:
                    s -= t * e
            if s if p is None else s % p:
                return None
        return out

    def reduce(self, vec):
        """Residual of vec after eliminating this basis' pivot coordinates:
        zero at the pivot columns, vec minus the combination with the
        coefficients of coords at the others."""
        p = self.field.p
        pivots = self.pivots()
        res = list(vec)
        for c in pivots:
            res[c] = self.field.zero
        for c, entries in self._free_columns():
            s = vec[c]
            for i, e in entries:
                t = vec[pivots[i]]
                if t:
                    s -= t * e
            res[c] = s
        if p is not None:
            return tuple(x % p for x in res)
        return tuple(res)

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def contains_space(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def equations(self):
        """Functionals cutting out this subspace, one per non-pivot
        coordinate c: x is a member iff x[c] = sum of x[pc] * row[c] over
        the echelon rows, pc the row's pivot."""
        f = self.field
        pivots = self.pivots()
        eqs = []
        for c, entries in self._free_columns():
            eq = [f.zero] * self.ambient
            eq[c] = f.one
            for i, e in entries:
                eq[pivots[i]] = f.neg(e)
            eqs.append(tuple(eq))
        return eqs

    def add(self, other):
        assert self.ambient == other.ambient
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other):
        return sum_intersect(self, other)[1]


def span(field, ambient, vectors):
    return Subspace(field, ambient, [list(v) for v in vectors])


def sum_intersect(u, w):
    """Zassenhaus: one elimination yields (u + w, u ∩ w)."""
    assert u.ambient == w.ambient and u.field == w.field
    n = u.ambient
    f = u.field
    z = f.zero
    block = [list(r) + list(r) for r in u.rows] + [list(r) + [z] * n for r in w.rows]
    if f.p is None:
        piv = _echelon_q(block)
    else:
        piv = _echelon_p(block, f.p)
    sum_rows, int_rows = [], []
    for c in sorted(piv):
        row = piv[c]
        if c < n:
            sum_rows.append(row[:n])
        else:
            int_rows.append(row[n:])
    return (
        Subspace(f, n, sum_rows),
        Subspace(f, n, int_rows),
    )


def kernel_basis(field, rows, ncols):
    """Canonical basis of {x : rows-as-matrix @ x = 0}, x of length ncols.

    Rows are the equations: each row r imposes sum_j r[j] x[j] = 0.
    """
    pivots, red = _rref(field, [list(r) for r in rows])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    one, z = field.one, field.zero
    basis = []
    for fcol in free:
        v = [z] * ncols
        v[fcol] = one
        for r, pc in zip(red, pivots):
            # x[pc] = -sum over free columns of r[c] * x[c]
            if r[fcol]:
                v[pc] = field.neg(r[fcol])
        basis.append(v)
    return Subspace(field, ncols, basis)


def preimage(target, maps, within=None):
    """{x in within : x @ M in target for every M} as a Subspace.

    Each map M is a matrix with one row per coordinate of x and one column
    per coordinate of target's ambient space.  x @ M lies in target iff
    its residual after reduction by target's echelon rows vanishes, and
    that residual is x times the matrix of reduced rows, so every column
    of that matrix is one linear equation on x.  within defaults to the
    whole space of the maps' row count (of target's ambient when there
    are no maps).
    """
    field = target.field
    if within is not None:
        n = within.ambient
        eqs = within.equations()
    else:
        n = len(maps[0]) if maps else target.ambient
        eqs = []
    for m in maps:
        if target.rows:
            m = [target.reduce(row) for row in m]
        eqs.extend(eq for eq in zip(*m) if any(eq))
    return kernel_basis(field, eqs, n)


def closure(start, images):
    """Smallest subspace containing start and stable under a family of
    linear maps, given by images(v): the values of all the maps at v.

    Worklist over vectors: a vector's images are computed once, when the
    vector enters the echelon as a new dimension, so the generators of
    the result all have their images inside it and it is stable.  Once
    the echelon has full rank the whole space is stable, and the
    worklist stops there.
    """
    field = start.field
    n = start.ambient
    p = field.p
    piv = {}

    def grows(v):
        before = len(piv)
        if p is None:
            _echelon_q([v], piv)
        else:
            _echelon_p([v], p, piv)
        return len(piv) > before

    todo = [v for v in start.rows if grows(v)]
    while todo and len(piv) < n:
        for w in images(todo.pop()):
            if grows(w):
                todo.append(w)
                if len(piv) == n:
                    break
    if len(piv) == n:
        return Subspace.full(field, n)
    if p is None:
        pivots, rows = _back_eliminate_q(piv)
    else:
        pivots, rows = _back_eliminate_p(piv, p)
    return Subspace(field, n, rows, _canonical=True, _pivots=pivots)


# ---------------------------------------------------------------------------
# matrices as list-of-rows


def mat_vec(v, m, field):
    """Row vector times matrix: (v @ m)."""
    cols = len(m[0]) if m else 0
    out = [field.zero] * cols
    for vi, row in zip(v, m):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] = out[j] + vi * x
    return field.reduce(out)


def mat_mul(a, b, field):
    if not a:
        return ()
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [field.zero] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(field.reduce(acc))
    return tuple(out)


def mat_identity(field, n):
    """The n x n identity: its rows are the unit vectors of field^n."""
    one, z = field.one, field.zero
    return tuple(tuple(one if i == j else z for j in range(n))
                 for i in range(n))


def mat_scale(m, c, field):
    return [field.reduce(x * c for x in row) for row in m]


def mat_add(a, b, field):
    return [field.reduce(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)]


def mat_sub(a, b, field):
    return [field.reduce(x - y for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)]


def determinant(field, m):
    """Exact determinant; Bareiss over Q (integerized), elimination mod p."""
    n = len(m)
    if n == 0:
        return field.one
    if field.p is None:
        # scale every row to integers, track the denominators
        den = 1
        a = []
        for row in m:
            d, ints = field.integral(row)
            den *= d
            a.append(ints)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return field.of(Fraction(sign * a[n - 1][n - 1], den))
    p = field.p
    a = [[x % p for x in row] for row in m]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def solve_linear(field, equations, rhs, nunknowns=None):
    """One solution x of equations @ x = rhs, or None.

    equations: list of rows (each of length n); rhs: list of scalars.
    Free unknowns are set to zero.
    """
    n = nunknowns if nunknowns is not None else (len(equations[0]) if equations else 0)
    aug = [list(r) + [b] for r, b in zip(equations, rhs)]
    pivots, red = _rref(field, aug)
    x = [field.zero] * n
    for row, c in zip(red, pivots):
        if c == n:
            return None  # inconsistent: 0 = 1 row
        x[c] = row[n]
    # with free unknowns at zero, x[pivot] = row[n] solves each RREF row;
    # re-check against the original system as cheap insurance
    p = field.p
    for r, b in zip(equations, rhs):
        s = sum(a * v for a, v in zip(r, x))
        if p is not None:
            s %= p
            b %= p
        if s != b:
            return None
    return x
