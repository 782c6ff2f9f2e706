"""Structural predicates: semiprime, prime, essential, socle, graded core.

One driver, _decide, answers whether L is semiprime or prime and what its
socle is, plain or graded: it walks the field's ladder of steps and
returns the first answer with its method.  A step returns None where its
certificate does not apply; one over the budget refuses before any work,
and only the last step's refusal reaches the caller.  Over Q, L is
semiprime iff its Killing form is nondegenerate, and then a direct sum of
simple ideals with Soc = L; a basis vector generating a proper ideal
proves it not prime, and otherwise its centroid is factored.  Elsewhere
the answers are read off the ad-envelope A generated by ad L (and the
degree projections when graded): the (graded) ideals are its submodules,
Soc is killed by the Jacobson radical J(A), semiprime means [Soc, Soc] =
Soc, and prime that the centroid End_A(Soc), a product of fields, one per
minimal ideal, is a field.  J(A) is the radical of the trace form; over
F_p that radical is certified nilpotent, and where the certificate fails
or the envelope is over the budget the exhaustive scan of principal
ideals decides (every nonzero (graded) ideal contains one generated by a
(homogeneous) element, so quantifying over those is complete).

"Undecided" is a first class outcome (UndecidedError), never a guess: it
is raised over Q when a question needs an envelope or a centroid over
the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .enumeration import (
    distinct_principal_ideals,
    find_absolute_zero_divisor,
    iter_projective,
    resolve_budget,
    scan_blocks,
)
from .errors import NotThreeGraded, UndecidedError, ValidationError
from .linalg import (
    Subspace,
    closure,
    determinant,
    kernel_basis,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    preimage,
    rank,
    solve_linear,
    span,
)

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


def _memo(alg, key, compute):
    """alg.memo[key], filled by compute() on the first call."""
    if key not in alg.memo:
        alg.memo[key] = compute()
    return alg.memo[key]


def _killing(alg):
    return _memo(alg, "killing_matrix", lambda: killing_matrix(alg))


def killing_determinant(alg):
    return determinant(alg.field, _killing(alg))


def killing_radical(alg):
    """Kernel of the Killing form; over Q this is the solvable radical.
    Memoized on the algebra, as the matrix is."""
    return _memo(alg, "killing_radical",
                 lambda: kernel_basis(alg.field, _killing(alg), alg.dim))


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
    subspace has a homogeneous canonical basis.  Memoized on the algebra.
    """
    if alg.field.p is not None:
        raise ValidationError("abelian_ideal_witness is the char-0 path")
    rad = killing_radical(alg)
    if rad.is_zero():
        return None
    return _memo(alg, "abelian_ideal", lambda: _last_derived_term(alg, rad))


def zero_divisors(alg, block):
    """The candidates for nonzero absolute zero divisors inside a subspace
    block, charging no budget: each caller charges its own.

    Over F_p, the projective points x of K ∩ block with (ad x)^2 = 0, in
    the order of their coordinates in its canonical basis, which is the
    order in which a scan of the block meets them.  K is all of L when
    p = 2 and the Killing radical otherwise: with a = ad x, a^2 = 0 gives
    0 = ad [x, [x, y]] = -2 a (ad y) a, so (a ad y)^2 = 0 and
    tr(a ad y) = 0.  Over Q, the canonical basis of A ∩ block, A the
    abelian ideal of abelian_ideal_witness, whose elements all are
    absolute zero divisors; a semisimple algebra has none at all (such an
    element would embed in an sl2 triple with impossible weights).
    """
    f = alg.field
    if f.p is None:
        witness = abelian_ideal_witness(alg)
        if witness is not None:
            yield from witness.intersect(block).rows
        return
    rad = alg.full_space() if f.p == 2 else killing_radical(alg)
    for x in iter_projective(f.p, rad.intersect(block).rows):
        if alg.is_in_quadratic_annihilator(x):
            yield x


# ---------------------------------------------------------------------------
# the ideal lattice from the radical of the ad-envelope


def _envelope_generators(alg, graded):
    """Matrices generating the envelope A, so End_A(L) is their commutant:
    the ads of basis vectors generating L as a Lie algebra, chosen
    greedily in basis order (the ad of a bracket is a commutator of ads,
    so they generate A with fewer image rows than all of ad L), and the
    degree projections when graded."""
    f, n = alg.field, alg.dim
    gens, sub = [], alg.zero_space()
    for i in range(n):
        b = alg.basis_vector(i)
        if not sub.contains(b):
            gens.append(b)
            sub = alg.subalgebra_generated(gens)
    mats = [alg.ad_matrix(g) for g in gens]
    if graded and len(alg.support()) > 1:
        mats += [tuple(tuple(f.one if i == j and alg.degrees[i] == d
                             else f.zero for j in range(n)) for i in range(n))
                 for d in alg.support()]
    return mats


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
        # (T a - a T)[r][c] = sum_k T[r][k] a[k][c] - a[r][k] T[k][c], so
        # a[i][j] enters the equations (m, j) and (i, m), left unreduced
        eqs = [[0] * (n * n) for _ in range(n * n)]
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if x:
                    for m in range(n):
                        eqs[m * n + j][m * n + i] += x
                        eqs[i * n + m][j * n + m] -= x
        equations += eqs
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


def _frobenius_fixed_dim(field, flat, n):
    """Dimension of the subspace fixed by x -> x^p, which is linear on a
    product of finite fields and fixes one line per factor (Berlekamp's
    count of simple factors)."""
    frobenius_minus_one = []
    for i, row in enumerate(flat.rows):
        power = _mat_pow(_square(row, n), field.p, field)
        image = flat.coords(sum(power, ()))
        image[i] -= field.one
        frobenius_minus_one.append(image)
    return len(flat.rows) - rank(field, frobenius_minus_one)


def _primitive_element(field, mats):
    """t_j = sum_k j^k c_k for the first j = 1, 2, ... with I, t, ...,
    t^(D-1) independent, D the number of c_k, so that the c_k span Q[t].
    The elements that are not primitive lie in finitely many proper
    subalgebras, and this curve meets each one at fewer than D values of
    j (a functional vanishing there is a nonzero polynomial in j of
    degree below D), so the walk ends."""
    n, d = len(mats[0]), len(mats)
    for j in itertools.count(1):
        t = tuple(tuple(field.of(sum(j ** k * m[r][c]
                                     for k, m in enumerate(mats)))
                        for c in range(n)) for r in range(n))
        power, powers = mat_identity(field, n), []
        for _ in range(d):
            powers.append([x for row in power for x in row])
            power = mat_mul(power, t, field)
        if rank(field, powers) == d:
            return t


def _components(field, flat, n):
    """The summands cut out by the factor fields of a centroid: the
    kernels of the irreducible factors of a primitive element (t acts on
    row vectors as v @ t).  A centroid of dimension 2 is factored by
    _quadratic_roots; sympy factors larger ones."""
    if flat.dim == 1:
        return [Subspace.full(field, n)]
    t = _primitive_element(field, [_square(row, n) for row in flat.rows])
    zero = Subspace.zero(field, n)
    if flat.dim == 2:
        roots = _quadratic_roots(field, t)
        if roots is None:
            return [Subspace.full(field, n)]
        eye = mat_identity(field, n)
        return [preimage(zero, [mat_sub(t, mat_scale(eye, r, field), field)])
                for r in roots]
    return [preimage(zero, [_apply_poly(field, f, t)])
            for f in _minpoly_factors(field, t)]


def _quadratic_roots(field, t):
    """The roots, ascending, of the minimal polynomial x^2 - b x - c of a
    primitive element t of a 2-dimensional centroid over Q, read off
    t^2 = b t + c I; None when it is irreducible.  The centroid is a
    product of fields, so the polynomial is squarefree and it splits iff
    its discriminant b^2 + 4c is the square of a rational, that is, its
    numerator and denominator (in lowest terms) are squares."""
    n = len(t)
    sq = mat_mul(t, t, field)
    c, b = solve_linear(field,
                        [(int(i == j), t[i][j])
                         for i in range(n) for j in range(n)],
                        [x for row in sq for x in row])
    disc = b * b + 4 * c
    num, den = disc.numerator, disc.denominator
    if num < 0 or math.isqrt(num) ** 2 != num or math.isqrt(den) ** 2 != den:
        return None
    root = Fraction(math.isqrt(num), math.isqrt(den))
    return field.of((b - root) / 2), field.of((b + root) / 2)


def _minpoly_factors(field, mat):
    """Distinct irreducible factors of the char poly over Q, via sympy."""
    import sympy  # deferred: only a centroid of dimension > 2 needs it

    x = sympy.Symbol("x")
    m = sympy.Matrix([[sympy.Rational(c) for c in row] for row in mat])
    poly = m.charpoly(x)
    _, factors = sympy.factor_list(poly.as_expr())
    return [f for f, _mult in factors if f.has(x)]


def _apply_poly(field, expr, mat):
    """A rational-coefficient sympy polynomial at a matrix (Horner)."""
    import sympy

    n = len(mat)
    acc = [[field.zero] * n for _ in range(n)]
    for c in sympy.Poly(expr, sympy.Symbol("x")).all_coeffs():
        acc = [list(row) for row in mat_mul(acc, mat, field)]
        for i in range(n):
            acc[i][i] += field.of(str(c))
    return acc


def _from_envelope(alg, graded):
    """{question: answer} from the radical of the envelope A of ad L
    (with the degree projections when graded), or None when the trace
    radical of A fails its nilpotence certificate in characteristic p.

    The (graded) ideals are the A-submodules of L, so Soc(L) = {v :
    v J(A) = 0}.  A minimal ideal is abelian or perfect and distinct ones
    bracket to zero, so L is semiprime iff [Soc, Soc] = Soc; it is prime
    iff moreover Soc is the only minimal ideal, i.e. the centroid
    End_A(Soc) is a field.  That centroid is a product of fields, one per
    minimal ideal: a module map from a minimal ideal I to another J
    commutes with ad I, so it kills [I, I] = I, and End_A(I) lies in the
    centroid of the perfect algebra I, which is commutative.  J(A) lies
    inside the radical of the trace form, and equals it over Q (Dickson)
    or when that radical is nilpotent.  A = End(L) makes L simple as a
    module, J(A) = 0, and End_A(L) the scalars, with no trace form
    needed.  Over Q only the socle of non-semiprime input is asked for.
    """
    f, n = alg.field, alg.dim
    gens = _envelope_generators(alg, graded)
    env = _envelope(f, n, gens)
    if env.dim == n * n:
        full = alg.full_space()
        semi = alg.bracket_space(full, full).dim == n
        return dict(socle=full, semiprime=semi, prime=semi)
    rad = _trace_radical(f, n, env)
    if f.p is not None and not _is_nilpotent(alg, rad):
        return None
    soc = preimage(alg.zero_space(), rad) if rad else alg.full_space()
    if alg.bracket_space(soc, soc) != soc:
        return dict(socle=soc, semiprime=False, prime=False)
    flat = _commutant(f, [[soc.coords(mat_vec(r, g, f)) for r in soc.rows]
                          for g in gens], soc.dim)
    return dict(socle=soc, semiprime=True,
                prime=_frobenius_fixed_dim(f, flat, soc.dim) == 1)


def _centroid_summands(alg, graded, budget):
    """The minimal (graded) ideals of a semiprime algebra over Q, where
    Soc = L: the components of End_A(L), the commutant of the envelope's
    generators.  Solving for it, n^2 unknowns in n^2 equations for each
    generator, is charged to the budget first."""
    f, n = alg.field, alg.dim
    if n == 0:
        return ()
    gens = _envelope_generators(alg, graded)
    if len(gens) * n ** 4 > resolve_budget(budget):
        raise UndecidedError("the centroid of dimension %d is over the "
                             "budget" % n)
    return _components(f, _commutant(f, gens, n), n)


def _splitting_ideal(alg):
    """A proper ideal generated by one basis vector, or None."""
    for i in range(alg.dim):
        ideal = alg.ideal_generated([alg.basis_vector(i)])
        if ideal.dim < alg.dim:
            return ideal
    return None


def _summands(alg, graded, budget):
    """The minimal (graded) ideals of a semiprime algebra over Q.  It is
    the direct sum of its simple ideals, so a proper ideal I is the sum of
    some of them and Ann(I) the sum of the rest; when a basis vector
    generates I, both are graded (the vector is homogeneous).  Each part
    splits on its own, its ideals being ideals of L; a part that no basis
    vector splits is cut by its centroid."""
    f, n = alg.field, alg.dim
    ideal = _splitting_ideal(alg)
    if ideal is None:
        return tuple(_centroid_summands(alg, graded, budget))
    out = []
    for part in (ideal, alg.annihilator(ideal)):
        sub, rows = alg.restrict(part)
        out += [span(f, n, [mat_vec(r, rows, f) for r in piece.rows])
                for piece in _summands(sub, graded, budget)]
    return tuple(out)


# ---------------------------------------------------------------------------
# the decision ladder: a step takes (alg, graded, budget, question) and
# returns (answer, method), or None where its certificate does not apply


def _killing_step(alg, graded, budget, question):
    """Over Q, L is semiprime iff its Killing form is nondegenerate, and
    then Soc = L; else its radical, a graded ideal, holds a nonzero
    abelian ideal, so L is neither semiprime nor prime, graded or not."""
    semi = killing_radical(alg).is_zero()
    if question == "semiprime":
        return semi, "killing-criterion"
    if question == "socle":
        return (alg.full_space(), "semisimple-identity") if semi else None
    return None if semi else (False, "killing-criterion")


def _probe_step(alg, graded, budget, question):
    """A proper ideal generated by a basis vector and its annihilator are
    nonzero graded ideals of a semisimple L bracketing to zero
    (_summands): not prime, with no centroid and no budget."""
    return None if _splitting_ideal(alg) is None else (
        False, "principal-ideal-probe")


def _centroid_step(alg, graded, budget, question):
    """A semisimple L that no basis vector splits is prime iff its
    centroid is a field."""
    return len(_centroid_summands(alg, graded, budget)) <= 1, "centroid"


def _envelope_charge(alg):
    # dim A <= n^2 rows of n^2 cells for each of n + #degrees generators
    return alg.dim ** 4 * (alg.dim + len(alg.support()))


def _envelope_step(alg, graded, budget, question):
    """_from_envelope, memoized on the algebra; its a-priori charge is
    checked first, also on a memo hit."""
    if _envelope_charge(alg) > resolve_budget(budget):
        raise UndecidedError("the envelope of dimension %d is over the "
                             "budget" % alg.dim)
    st = _memo(alg, ("envelope", graded),
               lambda: _from_envelope(alg, graded))
    return None if st is None else (st[question], "envelope-radical")


def _scan_step(alg, graded, budget, question):
    """The minimal ideals of the exhaustive scan, memoized on the algebra
    after its budget check: L is prime iff no two of them, or one with
    itself, bracket to zero (every nonzero ideal contains a minimal one)."""
    scan_blocks(alg, graded, budget)
    key = ("scan", graded)
    if key not in alg.memo:
        minimal = _minimal_ideals(alg, graded, budget)
        soc = alg.zero_space()
        for m in minimal:
            soc = soc.add(m)
        alg.memo[key] = dict(
            socle=soc, semiprime=alg.bracket_space(soc, soc) == soc,
            prime=not any(alg.bracket_space(a, b).is_zero() for a, b in
                          itertools.combinations_with_replacement(minimal, 2)))
    over = _envelope_charge(alg) > resolve_budget(budget)
    return alg.memo[key][question], (
        "exhaustive-Fp" if over else "exhaustive-Fp (certificate failed)")


# the steps of each question over Q (True) and over F_p (False)
_LADDERS = {
    True: {"semiprime": (_killing_step,),
           "prime": (_killing_step, _probe_step, _centroid_step),
           "socle": (_killing_step, _envelope_step)},
    False: dict.fromkeys(("semiprime", "prime", "socle"),
                         (_envelope_step, _scan_step)),
}


def _decide(alg, question, graded=False, budget=None):
    """(answer, method) of "semiprime", "prime" or "socle" for the
    (graded) ideal lattice: the first answer on the field's ladder.  A
    step over the budget raises UndecidedError before any work, and the
    driver moves on; only the last step's refusal reaches the caller."""
    *steps, last = _LADDERS[alg.field.p is None][question]
    for step in steps:
        try:
            got = step(alg, graded, budget, question)
        except UndecidedError:
            continue
        if got is not None:
            return got
    return last(alg, graded, budget, question)


def is_semiprime(alg, graded=False, budget=None):
    """No nonzero (graded) ideal with zero self-bracket: [Soc, Soc] = Soc,
    or over Q the Killing criterion (_decide)."""
    return _decide(alg, "semiprime", graded, budget)[0]


def absolute_zero_divisor_witness(alg, graded=False, budget=None):
    """A nonzero (homogeneous) x with (ad x)^2 = 0, or None: the first of
    zero_divisors.  Over F_p the scan charges the budget first
    (find_absolute_zero_divisor); over Q the walk is free, and graded it
    takes the degree components from the top degree down.
    """
    if alg.field.p is not None:
        return find_absolute_zero_divisor(alg, homogeneous_only=graded,
                                          budget=budget)
    blocks = ([alg.degree_component(d) for d in reversed(alg.support())]
              if graded else [alg.full_space()])
    return next((x for b in blocks for x in zero_divisors(alg, b)), None)


def is_strongly_nondegenerate(alg, graded=False, budget=None):
    return absolute_zero_divisor_witness(alg, graded=graded,
                                         budget=budget) is None


def _minimal_ideals(alg, graded, budget):
    if alg.dim == 0:
        return ()
    if alg.field.p is None:
        if not is_semiprime(alg):
            raise UndecidedError("minimal ideals over Q need semiprime input")
        return _summands(alg, graded, budget)
    ideals = [i for i in distinct_principal_ideals(
        alg, homogeneous_only=graded, budget=budget) if not i.is_zero()]
    return tuple(i for i in ideals
                 if not any(o.dim < i.dim and i.contains_space(o)
                            for o in ideals))


def minimal_ideals(alg, budget=None):
    """All minimal nonzero ideals.

    Over F_p these are the minimal elements among ideals generated by one
    element (complete: every nonzero ideal contains such an ideal).  Over
    Q the algebra must be semiprime; it is split at the proper ideals that
    basis vectors generate, and what no basis vector splits is cut by the
    factor fields of its centroid End_A(L) (_summands).
    """
    return _minimal_ideals(alg, False, budget)


def socle(alg, budget=None):
    """Sum of all minimal ideals; the minimum essential ideal (_decide)."""
    return _decide(alg, "socle", False, budget)[0]


def graded_socle(alg, budget=None):
    """Sum of all minimal graded ideals; the minimum graded essential ideal.

    Every graded essential ideal meets, hence contains, every minimal
    graded ideal, and in finite dimension any nonzero graded ideal
    contains a minimal one, so this sum is graded essential and minimum
    (_decide).
    """
    return _decide(alg, "socle", True, budget)[0]


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
    """[I, J] != 0 for all nonzero (graded) ideals I, J: semiprime with a
    single minimal (graded) ideal, i.e. the centroid End_A(Soc) is a
    field (_decide)."""
    return _decide(alg, "prime", graded, budget)[0]


# ---------------------------------------------------------------------------
# graded core of an ideal in a 3-graded algebra


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
    essential exactly when I is.
    """
    require_three_graded(alg)
    alg.require_ideal(ideal)
    f = alg.field
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
    """One-stop summary used by the command line analyze output: the
    semiprime, prime and socle answers and methods of _decide; a refused
    question has answer None and the refusal's message as its method."""
    q = alg.field.p is None
    center_dim = alg.center().dim
    kd = killing_determinant(alg) if q else None
    got, methods = {}, {}
    for question in ("semiprime", "prime", "socle"):
        try:
            got[question], methods[question] = _decide(alg, question,
                                                       budget=budget)
        except UndecidedError as exc:
            got[question], methods[question] = None, str(exc)
    methods["strongly-nondegenerate"] = ("killing-criterion" if q
                                         else "exhaustive-Fp")
    snd = is_strongly_nondegenerate(alg, budget=budget)
    soc = got["socle"]
    return StructureReport(
        center_dim=center_dim,
        killing_det=kd,
        semiprime=got["semiprime"],
        prime=got["prime"],
        strongly_nondegenerate=snd,
        socle_dim=None if soc is None else soc.dim,
        socle=soc,
        methods=methods,
    )
