"""Structural predicates: semiprime, prime, essential, socle, graded core.

Two decision tiers.  Over Q a finite dimensional Lie algebra is semiprime
(no nonzero abelian ideal) iff its Killing form is nondegenerate, and then
it is a direct sum of simple ideals, which settles the socle and strong
nondegeneracy in both directions.  Everything else about the ideal
lattice is read off the radical of the ad-envelope A, the associative
algebra generated by ad L (plus the degree projections for graded
ideals): the (graded) ideals are the A-submodules of L, so the socle is
the part of L killed by the Jacobson radical J(A), and semiprime, prime
and essential follow from the socle.  J(A) is the radical of the trace
form; in characteristic p that radical is certified nilpotent, and where
the certificate fails the answers come from the exhaustive scan of
principal ideals within the element budget instead (every nonzero
(graded) ideal contains an ideal generated by one (homogeneous) element,
so quantifying over those is complete).

"Undecided" is a first class outcome (UndecidedError), never a guess: it
is raised over Q when a predicate genuinely needs a decomposition the
splitter could not certify, or an envelope over the budget.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from .enumeration import (
    distinct_principal_ideals,
    find_absolute_zero_divisor,
    resolve_budget,
)
from .errors import NotThreeGraded, UndecidedError, ValidationError
from .linalg import (
    closure,
    determinant,
    kernel_basis,
    mat_mul,
    mat_vec,
    preimage,
    rank,
    span,
)

# The commutant splitter solves an n^2-unknown linear system in exact
# arithmetic; past this dimension it would dominate every caller, and no
# supported workflow needs simplicity certificates that large.
COMMUTANT_DIM_CAP = 10


def killing_matrix(alg):
    """Gram matrix of the trace form (x, y) -> tr(ad x ad y).

    With (ad b_i)[r][s] = [b_i, b_r]_s the entry at (i, j) is the sum of
    [b_i, b_r]_s [b_j, b_s]_r over the nonzero structure constants of b_i.
    """
    p = alg.field.p
    n = alg.dim
    ads = [{(r, s): c for r, s, c in nz} for nz in alg.nonzero]
    out = [[alg.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = alg.field.zero
            adj = ads[j]
            for r, s, c in alg.nonzero[i]:
                d = adj.get((s, r))
                if d:
                    acc += c * d
            out[i][j] = out[j][i] = acc if p is None else acc % p
    return tuple(tuple(row) for row in out)


def killing_determinant(alg):
    return determinant(alg.field, killing_matrix(alg))


def killing_radical(alg):
    """Kernel of the Killing form; over Q this is the solvable radical."""
    k = killing_matrix(alg)
    return kernel_basis(alg.field, k, alg.dim)


def _last_derived_term(alg, sub):
    """Last nonzero term of the derived series of a subspace (an abelian
    ideal when the input is the radical: it is a characteristic chain)."""
    cur = sub
    while True:
        nxt = alg.bracket_space(cur, cur)
        if nxt.is_zero():
            return cur
        cur = nxt


def abelian_ideal_witness(alg):
    """A nonzero abelian ideal over Q, or None when semiprime.

    The Killing radical is a graded ideal (the grading acts by trace form
    isometries on homogeneous components), and the last nonzero term of
    its derived series is abelian and still graded, so the returned
    subspace has a homogeneous canonical basis.
    """
    if alg.field.p is not None:
        raise ValidationError("abelian_ideal_witness is the char-0 path")
    rad = killing_radical(alg)
    if rad.is_zero():
        return None
    return _last_derived_term(alg, rad)


# ---------------------------------------------------------------------------
# the ideal lattice from the radical of the ad-envelope


ENVELOPE_RADICAL = "envelope-radical"
CERTIFICATE_FAILED = "exhaustive-Fp (certificate failed)"
EXHAUSTIVE = "exhaustive-Fp"

_Structure = namedtuple("_Structure", "socle semiprime prime method")


def _lie_generators(alg):
    """Basis vectors generating L as a Lie algebra, chosen greedily in
    basis order.  The ad of a bracket is a commutator of ads, so their ads
    generate the whole envelope, with fewer image rows than all of ad L."""
    gens, sub = [], alg.zero_space()
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        if not sub.contains(b):
            gens.append(b)
            # right-normed brackets of generators span what they generate
            sub = closure(span(alg.field, alg.dim, gens),
                          lambda w: [alg.bracket(g, w) for g in gens])
    return gens


def _envelope(field, n, gens):
    """The unital algebra generated by n x n matrices, as a subspace of
    flattened matrices (entry (r, c) at r * n + c): the closure of the
    identity under right multiplication by each generator."""
    sparse = [[[(c, x) for c, x in enumerate(row) if x] for row in g]
              for g in gens]

    def images(v):
        out = []
        for g in sparse:
            w = [field.zero] * (n * n)
            for idx, a in enumerate(v):
                if a:
                    base = idx - idx % n
                    for c, x in g[idx % n]:
                        w[base + c] += a * x
            out.append(w)
        return out

    one = [field.zero] * (n * n)
    for i in range(n):
        one[i * n + i] = field.one
    return closure(span(field, n * n, [one]), images)


def _trace_radical(field, n, env):
    """Radical of the trace form (a, b) -> tr(ab) on an envelope, as n x n
    matrices.  tr(ab) is the entrywise sum of a[r][s] b[s][r]."""
    p = field.p
    rows = env.rows
    support = [[(k, a) for k, a in enumerate(r) if a] for r in rows]
    transposed = [[r[(k % n) * n + k // n] for k in range(n * n)]
                  for r in rows]
    gram = [[field.zero] * len(rows) for _ in rows]
    for i, nz in enumerate(support):
        for j in range(i, len(rows)):
            t = transposed[j]
            acc = sum(a * t[k] for k, a in nz)
            gram[i][j] = gram[j][i] = acc if p is None else acc % p
    rad = kernel_basis(field, gram, len(rows))
    return [_square(mat_vec(c, rows, field), n) for c in rad.rows]


def _is_nilpotent(alg, mats):
    """Whether L @ R^k reaches 0, R the span of the matrices: the chain
    only shrinks, so it does within dim L steps or stalls above 0."""
    cur = alg.full_space()
    while cur.rows:
        nxt = span(alg.field, alg.dim,
                   [mat_vec(v, m, alg.field) for v in cur.rows for m in mats])
        if nxt.dim == cur.dim:
            return False
        cur = nxt
    return True


def _commutant(field, mats, n):
    """The n x n matrices commuting with each of the given ones, flattened
    row-major (T[r][c] at r * n + c), as a subspace."""
    equations = []
    for a in mats:
        for r in range(n):
            for c in range(n):
                # (T a - a T)[r][c] = sum_k T[r][k] a[k][c] - a[r][k] T[k][c]
                coeff = [field.zero] * (n * n)
                for k in range(n):
                    coeff[r * n + k] = field.of(coeff[r * n + k] + a[k][c])
                    coeff[k * n + c] = field.of(coeff[k * n + c] - a[r][k])
                equations.append(tuple(coeff))
    return kernel_basis(field, equations, n * n)


def _square(flat, n):
    return tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n))


def _mat_pow(m, e, field):
    out = None
    while e:
        if e & 1:
            out = m if out is None else mat_mul(out, m, field)
        e >>= 1
        if e:
            m = mat_mul(m, m, field)
    return out


def _endomorphisms_form_a_field(field, socle, gens):
    """Whether the maps of the socle of a semiprime algebra commuting with
    the generators of its envelope form a field.  A module map from a
    minimal ideal I to another J commutes with ad I, so it kills
    [I, I] = I: these maps are the product of the finite fields End(I),
    x -> x^p is linear on it and fixes one line per factor (Berlekamp's
    count of simple factors)."""
    n = socle.dim
    flat = _commutant(field, [[socle.coords(mat_vec(r, g, field))
                               for r in socle.rows] for g in gens], n)
    frobenius_minus_one = []
    for i, row in enumerate(flat.rows):
        power = _mat_pow(_square(row, n), field.p, field)
        image = flat.coords(sum(power, ()))
        image[i] -= field.one
        frobenius_minus_one.append(image)
    return len(flat.rows) - rank(field, frobenius_minus_one) == 1


def _from_envelope(alg, graded):
    """The _Structure from the radical of the envelope A of ad L
    (with the degree projections when graded), or None when the trace
    radical of A fails its nilpotence certificate in characteristic p.

    The (graded) ideals are the A-submodules of L, so Soc(L) = {v :
    v J(A) = 0}.  A minimal ideal is abelian or perfect and distinct ones
    bracket to zero, so L is semiprime iff [Soc, Soc] = Soc; it is prime
    iff moreover Soc is the only minimal ideal, i.e. End_A(Soc) is a
    field (only decided over F_p here).  J(A) lies inside the radical of
    the trace form, and equals it over Q (Dickson) or when that radical
    is nilpotent.  A = End(L) makes L simple as a module, J(A) = 0, and
    End_A(L) the scalars, with no trace form needed.
    """
    f, n = alg.field, alg.dim
    gens = [alg.ad_matrix(g) for g in _lie_generators(alg)]
    if graded and len(alg.support()) > 1:
        gens += [_degree_projector(alg, d) for d in alg.support()]
    env = _envelope(f, n, gens)
    if env.dim == n * n:
        semi = alg.bracket_space(alg.full_space(), alg.full_space()).dim == n
        return _Structure(alg.full_space(), semi, semi, ENVELOPE_RADICAL)
    rad = _trace_radical(f, n, env)
    if f.p is not None and not _is_nilpotent(alg, rad):
        return None
    soc = preimage(alg.zero_space(), rad) if rad else alg.full_space()
    semi = alg.bracket_space(soc, soc) == soc
    prime = semi and (None if f.p is None
                      else _endomorphisms_form_a_field(f, soc, gens))
    return _Structure(soc, semi, prime, ENVELOPE_RADICAL)


def _from_scan(alg, graded, budget, method):
    """The _Structure from the minimal ideals of the exhaustive scan:
    L is prime iff no two minimal ideals, or one with itself, bracket to
    zero (every nonzero ideal contains a minimal one)."""
    minimal = (minimal_graded_ideals(alg, budget=budget) if graded
               else minimal_ideals(alg, budget=budget))
    soc = alg.zero_space()
    for m in minimal:
        soc = soc.add(m)
    prime = not any(alg.bracket_space(a, b).is_zero()
                    for a, b in itertools.combinations_with_replacement(
                        minimal, 2))
    return _Structure(soc, alg.bracket_space(soc, soc) == soc, prime, method)


def _ideal_structure(alg, graded=False, budget=None):
    """Socle, semiprimeness and primeness of the (graded) ideal lattice,
    and the method that decided them.

    The a-priori cost of the envelope, dim A <= n^2 rows of n^2 cells for
    each of at most n + (number of degrees) generators, is charged to the
    budget before any work, also when the answer is memoized on the
    algebra.  Over budget, or where the certificate fails, F_p falls back
    to the exhaustive scan, which checks its own budget; Q is refused.
    Over Q, prime is None for semiprime input.
    """
    f, n = alg.field, alg.dim
    if n ** 4 * (n + len(alg.support())) > resolve_budget(budget):
        if f.p is None:
            raise UndecidedError("the envelope of dimension %d is over "
                                 "the budget" % n)
        return _from_scan(alg, graded, budget, EXHAUSTIVE)
    memo = alg.ideal_memo
    if graded not in memo:
        memo[graded] = _from_envelope(alg, graded)
    if memo[graded] is None:
        return _from_scan(alg, graded, budget, CERTIFICATE_FAILED)
    return memo[graded]


def is_semiprime(alg, graded=False, budget=None):
    """No nonzero (graded) ideal with zero self-bracket.

    Over Q decided by the Killing criterion; in characteristic zero a
    nonzero radical always contains a nonzero abelian ideal, and abelian
    ideals sit inside the radical, so graded and ungraded agree (the
    radical is graded).  Over F_p: [Soc, Soc] = Soc (_ideal_structure).
    """
    if alg.field.p is None:
        return killing_radical(alg).is_zero()
    return _ideal_structure(alg, graded, budget).semiprime


def semiprime_witness(alg, graded=False, budget=None):
    """A nonzero abelian (graded) ideal, or None when semiprime.

    Over F_p this is Soc ∩ Ann(Soc), the sum of the abelian minimal
    (graded) ideals."""
    if alg.field.p is None:
        return abelian_ideal_witness(alg)
    soc = _ideal_structure(alg, graded, budget).socle
    witness = soc.intersect(alg.annihilator(soc))
    return None if witness.is_zero() else witness


def absolute_zero_divisor_witness(alg, graded=False, budget=None):
    """A nonzero (homogeneous) x with (ad x)^2 = 0, or None.

    Over Q this is decided in both directions: a semisimple algebra has no
    nonzero absolute zero divisors at all (such an element would embed in
    an sl2 triple with impossible weights), while any nonzero abelian
    ideal consists of them.  Over F_p: exhaustive scan.
    """
    if alg.field.p is not None:
        return find_absolute_zero_divisor(alg, homogeneous_only=graded,
                                          budget=budget)
    witness = abelian_ideal_witness(alg)
    if witness is None:
        return None
    # every row is homogeneous and kills the algebra twice over
    row = max(witness.rows, key=lambda r: _row_degree(alg, r))
    if not graded:
        row = witness.rows[0]
    return row


def _row_degree(alg, row):
    d = alg.degree_of(row)
    return 0 if d is None else d


def is_strongly_nondegenerate(alg, graded=False, budget=None):
    return absolute_zero_divisor_witness(alg, graded=graded,
                                         budget=budget) is None


def killing_complement(alg, sub):
    """Orthogonal complement of a subspace under the Killing form."""
    k = killing_matrix(alg)
    f = alg.field
    equations = []
    for r in sub.rows:
        equations.append(tuple(
            f.of(sum(k[i][j] * r[j] for j in range(alg.dim)))
            for i in range(alg.dim)))
    return kernel_basis(f, equations, alg.dim)


def _minpoly_factors(field, mat):
    """Distinct irreducible factors of the char poly over Q, via sympy."""
    import sympy  # deferred: only the commutant splitter needs it

    x = sympy.Symbol("x")
    m = sympy.Matrix([[sympy.Rational(c) for c in row] for row in mat])
    poly = m.charpoly(x)
    _, factors = sympy.factor_list(poly.as_expr())
    return [f for f, _mult in factors if f.has(x)]


def _apply_poly(field, expr, mat):
    """Evaluate a rational-coefficient sympy polynomial at a matrix (Horner)."""
    import sympy

    from .linalg import mat_add, mat_identity, mat_mul, mat_scale

    x = sympy.Symbol("x")
    poly = sympy.Poly(expr, x)
    n = len(mat)
    coeffs = [field.of(str(c)) for c in poly.all_coeffs()]
    acc = [[field.zero] * n for _ in range(n)]
    for c in coeffs:
        acc = mat_mul(acc, mat, field)
        acc = mat_add(acc, mat_scale(mat_identity(field, n), c, field), field)
    return acc


def _splitting_ideal_from_commutant(alg):
    """A proper nonzero ideal found through the commutant, or None.

    The commutant of ad(L) in a semisimple algebra is the product of the
    centroids of the simple summands: one dimensional means central
    simple, and any element whose characteristic polynomial has two
    distinct irreducible factors splits the algebra through a primary
    kernel (the kernel of f1(T) is ad-invariant because T is).
    """
    f = alg.field
    mats = [_square(row, alg.dim) for row in _commutant(
        f, [alg.ad_matrix(alg.basis_vector(i)) for i in range(alg.dim)],
        alg.dim).rows]
    if len(mats) == 1:
        return None  # centroid is the base field: simple
    candidates = list(mats)
    candidates += [tuple(tuple(f.of(a + b) for a, b in zip(ra, rb))
                         for ra, rb in zip(ma, mb))
                   for ma, mb in itertools.combinations(mats, 2)]
    for j in range(2, 6):
        mixed = None
        for idx, m in enumerate(mats):
            scaled = tuple(tuple(f.of(c * (j ** idx)) for c in row) for row in m)
            if mixed is None:
                mixed = scaled
            else:
                mixed = tuple(tuple(f.of(a + b) for a, b in zip(ra, rb))
                              for ra, rb in zip(mixed, scaled))
        candidates.append(mixed)
    for t in candidates:
        factors = _minpoly_factors(f, t)
        if len(factors) < 2:
            continue
        # T acts on row vectors as v @ T: the kernel is {v : v @ f1(T) = 0}
        ker = preimage(alg.zero_space(), [_apply_poly(f, factors[0], t)])
        if 0 < ker.dim < alg.dim:
            return ker
    raise UndecidedError(
        "commutant has dimension %d but no splitting element was found"
        % len(mats))


def minimal_ideals(alg, budget=None):
    """All minimal nonzero ideals.

    Over F_p these are the minimal elements among ideals generated by one
    element (complete: every nonzero ideal contains such an ideal).  Over
    Q the algebra must be semiprime; it is then split into simple ideals
    by principal-ideal probes and, when those all come out full, by a
    commutant element with a reducible characteristic polynomial.
    """
    if alg.dim == 0:
        return ()
    f = alg.field
    if f.p is not None:
        ideals = [i for i in distinct_principal_ideals(alg, budget=budget)
                  if not i.is_zero()]
        out = [i for i in ideals
               if not any(o.dim < i.dim and i.contains_space(o)
                          for o in ideals)]
        return tuple(out)
    if not is_semiprime(alg):
        raise UndecidedError("minimal ideals over Q need a semiprime algebra")
    return tuple(_split_simple(alg))


def _split_simple(alg):
    """Simple summands of a semiprime algebra over Q, in ambient coords."""
    if alg.dim == 0:
        return []
    proper = None
    for i in range(alg.dim):
        ideal = alg.ideal_generated([alg.basis_vector(i)])
        if 0 < ideal.dim < alg.dim:
            if proper is None or ideal.dim < proper.dim:
                proper = ideal
    if proper is None:
        if alg.dim > COMMUTANT_DIM_CAP:
            raise UndecidedError(
                "no principal split in dimension %d and the commutant "
                "probe is capped at %d" % (alg.dim, COMMUTANT_DIM_CAP))
        proper = _splitting_ideal_from_commutant(alg)
        if proper is None:
            return [alg.full_space()]
    comp = killing_complement(alg, proper)
    if not proper.intersect(comp).is_zero() or proper.dim + comp.dim != alg.dim:
        raise UndecidedError("Killing complement failed to split the algebra")
    out = []
    for part in (proper, comp):
        sub_alg, rows = alg.restrict(part, require_graded=False)
        for piece in _split_simple(sub_alg):
            lifted = [mat_vec(r, rows, alg.field) for r in piece.rows]
            out.append(span(alg.field, alg.dim, lifted))
    return out


def socle(alg, budget=None):
    """Sum of all minimal ideals; the minimum essential ideal.

    Over Q, semiprime means semisimple in finite dimension, so the socle
    is everything (Killing criterion); other input, and F_p, read it off
    the radical of the ad-envelope.
    """
    if alg.field.p is None and is_semiprime(alg):
        return alg.full_space()
    return _ideal_structure(alg, False, budget).socle


def minimal_graded_ideals(alg, budget=None):
    """Minimal nonzero graded ideals (F_p: homogeneous-principal poset)."""
    if alg.field.p is None:
        if not is_semiprime(alg):
            raise UndecidedError("graded socle over Q needs semiprime input")
        # Killing-orthogonal splitting by graded ideals keeps everything
        # graded, so the graded socle is the whole algebra, but the
        # individual minimal graded ideals are not needed on this path.
        raise UndecidedError("minimal graded ideals are only enumerated "
                             "over prime fields")
    ideals = [i for i in distinct_principal_ideals(alg, homogeneous_only=True,
                                                   budget=budget)
              if not i.is_zero()]
    return tuple(i for i in ideals
                 if not any(o.dim < i.dim and i.contains_space(o)
                            for o in ideals))


def graded_socle(alg, budget=None):
    """Sum of all minimal graded ideals; the minimum graded essential ideal.

    Every graded essential ideal meets, hence contains, every minimal
    graded ideal, and in finite dimension any nonzero graded ideal
    contains a minimal one, so this sum is graded essential and minimum.
    Over Q a semiprime algebra splits into graded pieces under the Killing
    form, making the graded socle the whole algebra.
    """
    if alg.field.p is None and is_semiprime(alg):
        return alg.full_space()
    return _ideal_structure(alg, True, budget).socle


def is_essential_ideal(alg, ideal, graded=False, budget=None):
    """Nonzero intersection with every nonzero (graded) ideal, that is,
    the ideal contains every minimal (graded) ideal: I contains the
    (graded) socle."""
    alg.require_ideal(ideal)
    if graded:
        alg.graded_closure_check(ideal)
    soc = (graded_socle if graded else socle)(alg, budget=budget)
    return ideal.contains_space(soc)


def is_prime(alg, graded=False, budget=None):
    """[I, J] != 0 for all nonzero (graded) ideals I, J.

    Over F_p: semiprime with a single minimal (graded) ideal
    (_ideal_structure).  Over Q: semiprime algebras are prime iff simple
    here (one minimal ideal); others are refused.
    """
    if alg.field.p is not None:
        return _ideal_structure(alg, graded, budget).prime
    if alg.dim == 0:
        return True
    if not is_semiprime(alg):
        return False  # an abelian ideal brackets itself to zero
    return len(minimal_ideals(alg)) == 1


# ---------------------------------------------------------------------------
# graded core of an ideal in a 3-graded algebra


def _degree_projector(alg, d):
    """Diagonal matrix of the projection onto the degree-d component."""
    f = alg.field
    return tuple(tuple(
        (f.one if (i == j and alg.degrees[i] == d) else f.zero)
        for j in range(alg.dim)) for i in range(alg.dim))


def require_three_graded(alg):
    if alg.group.kind != "Z" or not set(alg.support()) <= {-1, 0, 1}:
        raise NotThreeGraded(
            "need a Z-grading supported in {-1, 0, 1}, got %r over %r"
            % (alg.support(), alg.group))


def graded_core(alg, ideal):
    """Largest-by-construction graded ideal J + pi_{-1}(J) + pi_1(J) with
    J = [[I,I],[I,I]], carved out of an arbitrary ideal I of a 3-graded
    algebra.

    The result is graded, contained in I, and (for semiprime algebras)
    essential exactly when I is.  The grading derivation delta = pi_1 -
    pi_{-1} satisfies 2 pi_1 = delta^2 + delta and 2 pi_{-1} = delta^2 -
    delta as matrices; both identities are asserted here because the
    projections rely on them.
    """
    require_three_graded(alg)
    alg.require_ideal(ideal)
    f = alg.field
    from .linalg import mat_add, mat_eq_zero, mat_mul, mat_scale, mat_sub

    p1 = _degree_projector(alg, 1)
    pm1 = _degree_projector(alg, -1)
    delta = mat_sub(p1, pm1, f)
    d2 = mat_mul(delta, delta, f)
    two = f.of(2)
    if not mat_eq_zero(mat_sub(mat_scale(p1, two, f),
                               mat_add(d2, delta, f), f)):
        raise ValidationError("projection identity 2*pi_1 = d^2 + d failed")
    if not mat_eq_zero(mat_sub(mat_scale(pm1, two, f),
                               mat_sub(d2, delta, f), f)):
        raise ValidationError("projection identity 2*pi_-1 = d^2 - d failed")

    inner = alg.bracket_space(ideal, ideal)
    j = alg.bracket_space(inner, inner)
    rows = list(j.rows)
    for r in j.rows:
        parts = alg.homogeneous_decompose(r)
        for d in (-1, 1):
            if d in parts:
                rows.append(parts[d])
    core = span(f, alg.dim, rows)
    if not alg.is_graded_subspace(core):
        raise ValidationError("graded core came out non-graded")
    if not ideal.contains_space(core):
        raise ValidationError("graded core escaped the ideal")
    if not alg.is_ideal(core):
        raise ValidationError("graded core is not an ideal")
    return core


# ---------------------------------------------------------------------------
# aggregate report


@dataclass
class StructureReport:
    center_dim: int
    killing_det: object
    semiprime: bool
    prime: object
    strongly_nondegenerate: object
    socle_dim: object
    socle: object
    methods: dict = dc_field(default_factory=dict)


def structure_report(alg, budget=None):
    """One-stop summary used by the command line analyze output."""
    f = alg.field
    center = alg.center()
    soc = None
    if f.p is None:
        kd = killing_determinant(alg)
        semi = is_semiprime(alg)
        methods = {"semiprime": "killing-criterion",
                   "strongly-nondegenerate": "killing-criterion"}
        try:
            prime = is_prime(alg)
            methods["prime"] = methods["semiprime"]
        except UndecidedError:
            prime = None
            methods["prime"] = "undecided"
        try:
            soc = socle(alg, budget=budget)
            methods["socle"] = ("semisimple-identity" if semi
                                else ENVELOPE_RADICAL)
        except UndecidedError:
            methods["socle"] = "undecided"
    else:
        kd = None
        st = _ideal_structure(alg, budget=budget)
        semi, prime, soc = st.semiprime, st.prime, st.socle
        methods = {"semiprime": st.method, "prime": st.method,
                   "socle": st.method, "strongly-nondegenerate": EXHAUSTIVE}
    snd = is_strongly_nondegenerate(alg, budget=budget)
    return StructureReport(
        center_dim=center.dim,
        killing_det=kd,
        semiprime=semi,
        prime=prime,
        strongly_nondegenerate=snd,
        socle_dim=None if soc is None else soc.dim,
        socle=soc,
        methods=methods,
    )
