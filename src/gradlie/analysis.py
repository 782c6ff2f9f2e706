"""Structural predicates: semiprime, prime, essential, socle, graded core.

Two decision tiers.  Over Q everything routes through the Killing form: in
characteristic zero a finite dimensional Lie algebra is semiprime (no
nonzero abelian ideal) iff its Killing form is nondegenerate, and then it
is a direct sum of simple ideals, which settles the socle, essentiality
(via annihilators), and strong nondegeneracy in both directions.  Over a
prime field the same questions are answered by exhaustive enumeration of
principal ideals within a configurable element budget; every nonzero
(graded) ideal contains an ideal generated by one (homogeneous) element,
so quantifying over those is complete.

"Undecided" is a first class outcome (UndecidedError), never a guess: it
is raised over Q when a predicate genuinely needs a decomposition the
splitter could not certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .enumeration import distinct_principal_ideals, find_absolute_zero_divisor
from .errors import NotAnIdeal, NotThreeGraded, UndecidedError, ValidationError
from .lie import GradedLieAlgebra
from .linalg import determinant, kernel_basis, mat_vec, preimage, span

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


def is_semiprime(alg, graded=False, budget=None):
    """No nonzero (graded) ideal with zero self-bracket.

    Over Q decided by the Killing criterion; in characteristic zero a
    nonzero radical always contains a nonzero abelian ideal, and abelian
    ideals sit inside the radical, so graded and ungraded agree (the
    radical is graded).  Over F_p decided exhaustively.
    """
    if alg.field.p is None:
        return killing_radical(alg).is_zero()
    for ideal in distinct_principal_ideals(alg, homogeneous_only=graded,
                                           budget=budget):
        if not ideal.is_zero() and alg.bracket_space(ideal, ideal).is_zero():
            return False
    return True


def semiprime_witness(alg, graded=False, budget=None):
    """A nonzero abelian (graded) ideal, or None when semiprime."""
    if alg.field.p is None:
        return abelian_ideal_witness(alg)
    for ideal in distinct_principal_ideals(alg, homogeneous_only=graded,
                                           budget=budget):
        if not ideal.is_zero() and alg.bracket_space(ideal, ideal).is_zero():
            return ideal
    return None


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


def _commutant(alg):
    """Matrices commuting with every ad(b_i), as a list of n x n tuples."""
    n = alg.dim
    f = alg.field
    ads = [alg.ad_matrix(alg.basis_vector(i)) for i in range(n)]
    # unknown T flattened row-major: T[r][c] = t[r * n + c]
    equations = []
    for a in ads:
        for r in range(n):
            for c in range(n):
                # (T a - a T)[r][c] = sum_k T[r][k] a[k][c] - a[r][k] T[k][c]
                coeff = [f.zero] * (n * n)
                for k in range(n):
                    coeff[r * n + k] = f.of(coeff[r * n + k] + a[k][c])
                    coeff[k * n + c] = f.of(coeff[k * n + c] - a[r][k])
                equations.append(tuple(coeff))
    sol = kernel_basis(f, equations, n * n)
    mats = []
    for row in sol.rows:
        mats.append(tuple(tuple(row[r * n + c] for c in range(n))
                          for r in range(n)))
    return mats


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
    mats = _commutant(alg)
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
    """Sum of all minimal ideals.

    Over Q, semiprime means semisimple in finite dimension, so the socle
    is everything; non-semiprime input is refused rather than guessed.
    """
    if alg.field.p is None:
        if not is_semiprime(alg):
            raise UndecidedError("socle over Q needs a semiprime algebra")
        return alg.full_space()
    parts = minimal_ideals(alg, budget=budget)
    out = alg.zero_space()
    for p in parts:
        out = out.add(p)
    return out


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
    if alg.field.p is None:
        if not is_semiprime(alg):
            raise UndecidedError("graded socle over Q needs semiprime input")
        return alg.full_space()
    parts = minimal_graded_ideals(alg, budget=budget)
    out = alg.zero_space()
    for p in parts:
        out = out.add(p)
    return out


def is_essential_ideal(alg, ideal, graded=False, budget=None):
    """Nonzero intersection with every nonzero (graded) ideal.

    For (graded) semiprime algebras this is the annihilator criterion;
    otherwise over F_p the exhaustive principal-ideal oracle runs, and
    over Q the question is refused.
    """
    alg.require_ideal(ideal)
    if graded:
        alg.graded_closure_check(ideal)
    if is_semiprime(alg, graded=graded, budget=budget):
        return alg.annihilator(ideal).is_zero()
    if alg.field.p is None:
        raise UndecidedError("essentiality over Q needs a semiprime algebra")
    for other in distinct_principal_ideals(alg, homogeneous_only=graded,
                                           budget=budget):
        if not other.is_zero() and ideal.intersect(other).is_zero():
            return False
    return True


def is_prime(alg, graded=False, budget=None):
    """[I, J] != 0 for all nonzero (graded) ideals I, J.

    Over F_p it suffices to bracket the minimal (graded) ideals pairwise,
    each with itself too: if [I, J] = 0 then any minimal I' inside I and
    J' inside J also bracket to zero, and every minimal ideal is
    principal, so the scan finds it.  Over Q: semiprime algebras are
    prime iff simple here (one minimal ideal); others are refused.
    """
    if alg.dim == 0:
        return True
    if alg.field.p is not None:
        minimal = (minimal_graded_ideals(alg, budget=budget) if graded
                   else minimal_ideals(alg, budget=budget))
        return not any(alg.bracket_space(a, b).is_zero()
                       for a, b in itertools.combinations_with_replacement(
                           minimal, 2))
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
    methods = {}
    center = alg.center()
    if f.p is None:
        kd = killing_determinant(alg)
        methods["semiprime"] = "killing-criterion"
        methods["strongly-nondegenerate"] = "killing-criterion"
    else:
        kd = None
        methods["semiprime"] = "exhaustive-Fp"
        methods["strongly-nondegenerate"] = "exhaustive-Fp"
    semi = is_semiprime(alg, budget=budget)
    try:
        prime = is_prime(alg, budget=budget)
        methods["prime"] = methods["semiprime"]
    except UndecidedError:
        prime = None
        methods["prime"] = "undecided"
    snd = is_strongly_nondegenerate(alg, budget=budget)
    try:
        soc = socle(alg, budget=budget)
        soc_dim = soc.dim
        methods["socle"] = ("semisimple-identity" if f.p is None
                            else "exhaustive-Fp")
    except UndecidedError:
        soc = None
        soc_dim = None
        methods["socle"] = "undecided"
    return StructureReport(
        center_dim=center.dim,
        killing_det=kd,
        semiprime=semi,
        prime=prime,
        strongly_nondegenerate=snd,
        socle_dim=soc_dim,
        socle=soc,
        methods=methods,
    )
