"""Structural predicates: semiprime, prime, essential, socle, graded core.

One driver, _decide, answers five questions on the (graded) ideal
lattice, semiprime, prime, the socle, the minimal ideals and an absolute
zero divisor, from one table of ladders (_LADDERS): the first step of
the field's ladder to answer gives the answer and its method.  A step
over the budget refuses in its charge, before any work, and only the
last refusal reaches the caller; the driver memoizes every step's
answers, on the algebra, and charges it again on a memo hit.  Over Q, L
is semiprime iff its Killing form is nondegenerate, and then a direct
sum of simple ideals (Soc = L) split by basis vectors and the factor
fields of its centroid; the abelian ideal in its Killing radical holds
its zero divisors.  Elsewhere the answers are read off the ad-envelope A
of ad L (with the degree projections when graded): the (graded) ideals
are its submodules, Soc is killed by the Jacobson radical J(A), the
radical of the trace form, semiprime means [Soc, Soc] = Soc, and prime
that the centroid End_A(Soc), a product of fields, one per minimal
ideal, is a field.  Over F_p the ladder first tries Norton's
irreducibility test (the MeatAxe's: Parker 1984; Holt and Rees 1994),
which proves A = End(L) from spins of two vectors of L, without
spanning A; where it cannot, the envelope decides.  Over Q the same
test, run on the reductions of A's generators modulo one prime fixed
by the table and the Killing determinant, proves L simple (a Z_(p)
lattice carries every ideal to a subspace mod p of its dimension)
before the centroid is solved for.  Where J(A) fails its
nilpotence certificate or A is over the budget, the principal-ideal scan
decides.  The zero divisors are scanned over F_p (enumeration) and
walked for free over Q.

"Undecided" is a first class outcome (UndecidedError), never a guess: it
is raised over Q when a question needs an envelope or a centroid over
the budget.
"""

from __future__ import annotations

import itertools
import math
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
    mat_add,
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
from .scalars import GF

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
    """det of the Killing matrix, memoized on the algebra, as the matrix
    and its radical are."""
    return _memo(alg, "killing_determinant",
                 lambda: determinant(alg.field, _killing(alg)))


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
    degree projections when graded.  Memoized on the algebra; the greedy
    walk runs once for both gradings."""
    f, n = alg.field, alg.dim

    def ads():
        gens, sub = [], alg.zero_space()
        for i in range(n):
            b = alg.basis_vector(i)
            if not sub.contains(b):
                gens.append(b)
                sub = alg.subalgebra_generated(gens)
        return tuple(alg.ad_matrix(g) for g in gens)

    mats = _memo(alg, ("envelope_generators", False), ads)
    if not graded or len(alg.support()) == 1:
        return mats
    return _memo(alg, ("envelope_generators", True), lambda: mats + tuple(
        tuple(tuple(f.one if i == j and alg.degrees[i] == d else f.zero
                    for j in range(n)) for i in range(n))
        for d in alg.support()))


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


def _norton_prime(alg):
    """The prime Norton's test runs at: the field's own over F_p; over Q
    the smallest prime dividing no denominator of the table and neither
    the numerator nor the denominator of det kappa, or None when det
    kappa = 0.  A reduction at a prime dividing det kappa has a
    degenerate Killing form (sl_5 has det kappa = 2^24 5^25, and the
    rule gives 3).  The prime follows from the table alone, so a
    question gets the same answer in any process."""
    if alg.field.p is not None:
        return alg.field.p
    det = killing_determinant(alg)
    if det == 0:
        return None
    bad = det.numerator * det.denominator * math.lcm(
        1, *(c.denominator for nz in alg.nonzero for _, _, c in nz))
    return next(q for q in itertools.count(2) if bad % q and all(
        q % d for d in range(2, math.isqrt(q) + 1)))


def _norton_walk(f, n, gens):
    """Whether Norton's test proves F_p^n an absolutely irreducible
    module of the n x n matrices gens over F_p (acting as v @ g).

    The words are a_0 = s = sum (i + 1) G_i and a_j = a_(j-1) G_(j mod g)
    + s in the G_i.  For the first word theta with some lambda in F_p at
    which theta - lambda has a 1-dimensional kernel, v spans its left
    kernel and w its right one.  Take a proper nonzero submodule U.
    theta - lambda is singular on U or on F_p^n / U: then U holds v, or
    the annihilator of U in the dual, which the transposed G_i keep,
    holds w, so v or w spins to a proper subspace (Norton).  If both
    spin to all of F_p^n, it is simple, its endomorphisms form a field D
    by Schur, and the kernel, a D-space of dimension 1 over F_p, makes
    D = F_p; Burnside's theorem (Jacobson density) then says the G_i
    generate all of End(F_p^n).  A proper spin, or a walk that finds no
    such word (as for a simple module whose endomorphisms are a larger
    field), gives False, so True is a proof and only the run time
    depends on the words.
    """
    def spins_to_all(v, mats):  # the least mats-stable space holding v
        return closure(span(f, n, [v]), lambda x: [
            mat_vec(x, m, f) for m in mats]).dim == n

    word = s = [f.reduce(sum(k * g[r][c] for k, g in enumerate(gens, 1))
                         for c in range(n)) for r in range(n)]
    for j in range(_NORTON_WORDS):
        if j:
            word = mat_add(mat_mul(word, gens[j % len(gens)], f), s, f)
        for lam in range(f.p):
            shifted = [f.reduce(x - lam * (r == c) for c, x in enumerate(row))
                       for r, row in enumerate(word)]
            if rank(f, shifted) == n - 1:
                break
        else:
            continue
        v = kernel_basis(f, list(zip(*shifted)), n).rows[0]
        w = kernel_basis(f, shifted, n).rows[0]
        return spins_to_all(v, gens) and spins_to_all(
            w, [tuple(zip(*g)) for g in gens])
    return False


def _norton_step(alg, graded, budget):
    """The answers of _envelope_step for A = End(L) when Norton's test
    (_norton_walk) certifies L, acted on by the envelope's generators
    G_i, at _norton_prime; {} when it cannot.

    Over F_p the test runs on the G_i themselves: A = End(L) makes L
    simple, J(A) = 0 and Soc = L.  Over Q it runs on their reductions
    mod p, and certifies that L has no proper nonzero (graded) ideal.  p
    divides no denominator of the structure constants, so the G_i (ads
    and degree projections) map the lattice Z_(p)^n into itself.  A
    (graded) ideal U, an A-submodule of Q^n, meets it in a pure
    G-stable sublattice of rank dim U, whose reduction is a subspace of
    F_p^n of the same dimension stable under the reduced G_i.  So if
    F_p^n is irreducible under them, U is 0 or L.  A proper spin, no
    qualifying word, no prime or dimension 0 give {}, and the next step
    decides; over Q a simple L whose centroid is larger than Q (sl2
    over Q(sqrt 2)) never certifies.
    """
    n, p = alg.dim, _norton_prime(alg)
    if n == 0 or p is None:
        return {}
    f, gens = GF(p), _envelope_generators(alg, graded)
    if f != alg.field:  # over Q, the reductions mod p
        gens = [[[f.of(x) for x in row] for row in g] for g in gens]
    if not _norton_walk(f, n, gens):
        return {}
    # [L, L] is a (graded) ideal, so it is L unless L is abelian
    full, prime = alg.full_space(), any(alg.nonzero)
    return dict(socle=full, semiprime=prime, prime=prime,
                minimal=(full,) if prime else None)


def _envelope_step(alg, graded, budget):
    """{question: answer} from the radical of the envelope A of ad L
    (with the degree projections when graded), or None when the trace
    radical of A fails its nilpotence certificate in characteristic p;
    _envelope_charge is charged to the budget.

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
    needed.  A prime L != 0 has Soc as its one minimal ideal (two would
    bracket into their intersection, 0).  Over Q only the socle of
    non-semiprime input is asked for.
    """
    f, n = alg.field, alg.dim
    gens = _envelope_generators(alg, graded)
    env = _envelope(f, n, gens)
    rad = [] if env.dim == n * n else _trace_radical(f, n, env)
    if f.p is not None and not _is_nilpotent(alg, rad):
        return None
    soc = preimage(alg.zero_space(), rad) if rad else alg.full_space()
    semi = prime = alg.bracket_space(soc, soc) == soc
    if semi and env.dim < n * n:
        flat = _commutant(f, [[soc.coords(mat_vec(r, g, f)) for r in soc.rows]
                              for g in gens], soc.dim)
        prime = _frobenius_fixed_dim(f, flat, soc.dim) == 1
    return dict(socle=soc, semiprime=semi, prime=prime,
                minimal=((soc,) if soc.dim else ()) if prime else None)


def _splitting_ideal(alg):
    """A proper ideal generated by one basis vector, or None; memoized."""
    return _memo(alg, "splitting_ideal", lambda: next(
        (ideal for ideal in (alg.ideal_generated([alg.basis_vector(i)])
                             for i in range(alg.dim))
         if ideal.dim < alg.dim), None))


def _summands(alg):
    """The summands of a semiprime algebra over Q that no basis vector
    splits, as (algebra, its basis in L), memoized.  L is the direct sum
    of its simple ideals, so a proper ideal I is the sum of some and
    Ann(I) of the rest, both graded when a basis vector, which is
    homogeneous, generates I (_splitting_ideal).  Each part splits on its
    own, its ideals being ideals of L."""
    def compute():
        ideal = _splitting_ideal(alg)
        if ideal is None:
            return ((alg, mat_identity(alg.field, alg.dim)),)
        return tuple((piece, mat_mul(inner, rows, alg.field))
                     for sub, rows in map(alg.restrict,
                                          (ideal, alg.annihilator(ideal)))
                     for piece, inner in _summands(sub))

    return _memo(alg, "summands", compute)


# ---------------------------------------------------------------------------
# the decision ladder.  A step is (charge, run, method): charge(alg, graded,
# budget) refuses over the budget before any work, or is None for a free
# step; run(alg, graded, budget) returns {question: answer} for what it
# decides, or None if its certificate fails.  A run reads the budget only
# to pass it on to a scan, which repeats its charge's check


def _killing_step(alg, graded, budget):
    """Over Q, L is semiprime iff its Killing form is nondegenerate, and
    then Soc = L; else its radical, a graded ideal, holds a nonzero
    abelian ideal, so L is neither semiprime nor prime, graded or not."""
    if killing_radical(alg).is_zero():
        return dict(semiprime=True, socle=alg.full_space())
    return dict(semiprime=False, prime=False)


def _probe_step(alg, graded, budget):
    """A proper ideal generated by a basis vector and its annihilator are
    nonzero graded ideals of a semisimple L bracketing to zero
    (_summands): not prime, with no centroid and no budget."""
    return {} if _splitting_ideal(alg) is None else dict(prime=False)


def _centroid_step(alg, graded, budget):
    """The minimal (graded) ideals of a semiprime L over Q: in each
    summand (_summands), the components of its centroid End_A, the
    commutant of its envelope's generators; L is prime iff there is at
    most one."""
    f, n = alg.field, alg.dim
    minimal = tuple(
        span(f, n, [mat_vec(r, rows, f) for r in piece.rows])
        for sub, rows in _summands(alg) if sub.dim
        for piece in _components(f, _commutant(
            f, _envelope_generators(sub, graded), sub.dim), sub.dim))
    return dict(prime=len(minimal) <= 1, minimal=minimal)


def _centroid_charge(alg, graded, budget):
    """Semiprime input, then for each summand in order (_summands) the
    solve for its centroid: n^2 unknowns in n^2 equations per generator."""
    if not is_semiprime(alg):
        raise UndecidedError("minimal ideals over Q need semiprime input")
    limit = resolve_budget(budget)
    for sub, _ in _summands(alg):
        if len(_envelope_generators(sub, graded)) * sub.dim ** 4 > limit:
            raise UndecidedError("the centroid of dimension %d is over the "
                                 "budget" % sub.dim)


def _walk_step(alg, graded, budget):
    """The first of zero_divisors over Q, a free walk; graded, it takes
    the degree components from the top degree down."""
    blocks = ([alg.degree_component(d) for d in reversed(alg.support())]
              if graded else [alg.full_space()])
    return {"zero-divisor": next(
        (x for b in blocks for x in zero_divisors(alg, b)), None)}


def _envelope_charge(alg):
    # dim A <= n^2 rows of n^2 cells for each of n + #degrees generators
    return alg.dim ** 4 * (alg.dim + len(alg.support()))


_NORTON_WORDS = 16


def _norton_charge(alg):
    # each word: one product and up to p ranks of n x n; then two spins
    # of at most n vectors, n^2 per image for n + #degrees generators;
    # nothing where no prime applies
    n, p = alg.dim, _norton_prime(alg)
    if p is None:
        return 0
    return n ** 3 * (_NORTON_WORDS * (p + 1) + 4 * (n + len(alg.support())))


def _up_front(charge, what):
    """A ladder charge that refuses when charge(alg) is over the budget."""
    def check(alg, graded, budget):
        if charge(alg) > resolve_budget(budget):
            raise UndecidedError("%s of dimension %d is over the budget"
                                 % (what, alg.dim))
    return check


def _scan_step(alg, graded, budget):
    """The minimal ideals of the exhaustive scan: L is prime iff no two
    of them, or one with itself, bracket to zero (every nonzero ideal
    contains a minimal one)."""
    minimal = _scanned_minimal_ideals(alg, graded, budget)
    soc = alg.zero_space()
    for m in minimal:
        soc = soc.add(m)
    return dict(
        minimal=minimal, socle=soc,
        semiprime=alg.bracket_space(soc, soc) == soc,
        prime=not any(alg.bracket_space(a, b).is_zero() for a, b in
                      itertools.combinations_with_replacement(minimal, 2)))


def _zero_divisor_scan_step(alg, graded, budget):
    return {"zero-divisor": find_absolute_zero_divisor(alg, graded, budget)}


# the steps of each question over Q (True) and over F_p (False)
_ENVELOPE = (_up_front(_envelope_charge, "the envelope"), _envelope_step,
             "envelope-radical")
# one step on both fields: over Q it runs modulo _norton_prime
_NORTON = (_up_front(_norton_charge, "Norton's test"), _norton_step,
           "norton-irreducibility")
_NORTON_MOD_P = (_NORTON[0], _norton_step, "norton-mod-p")
_CENTROID = (_centroid_charge, _centroid_step, "centroid")
_LADDERS = {
    True: {"semiprime": ((None, _killing_step, "killing-criterion"),),
           "prime": ((None, _killing_step, "killing-criterion"),
                     (None, _probe_step, "principal-ideal-probe"),
                     _NORTON_MOD_P, _CENTROID),
           "socle": ((None, _killing_step, "semisimple-identity"), _ENVELOPE),
           "minimal": (_NORTON_MOD_P, _CENTROID),
           "zero-divisor": ((None, _walk_step, "killing-criterion"),)},
    False: {**dict.fromkeys(("semiprime", "prime", "socle", "minimal"), (
                _NORTON, _ENVELOPE,
                (scan_blocks, _scan_step, "exhaustive-Fp"))),
            "zero-divisor": ((scan_blocks, _zero_divisor_scan_step,
                              "exhaustive-Fp"),)},
}


def _answers(alg, step, graded, budget):
    """A step's answers, memoized on the algebra; its charge, if it has
    one, is checked first, also on a memo hit."""
    charge, run, _ = step
    if charge is not None:
        charge(alg, graded, budget)
    return _memo(alg, (run.__name__, graded),
                 lambda: run(alg, graded, budget))


def _decide(alg, question, graded=False, budget=None):
    """(answer, method) of "semiprime", "prime", "socle", "minimal" or
    "zero-divisor" on the (graded) ideal lattice: the first answer on the
    field's ladder.  A step over the budget refuses, and the driver moves
    on; the last step's refusal, or its answer as is (a witness None
    too), reaches the caller.  A method past a failed certificate says
    so."""
    *steps, last = _LADDERS[alg.field.p is None][question]
    note = ""
    for step in steps:
        try:
            got = _answers(alg, step, graded, budget)
        except UndecidedError:
            continue
        if got is None:
            note = " (certificate failed)"
        elif got.get(question) is not None:
            return got[question], step[2] + note
    return _answers(alg, last, graded, budget)[question], last[2] + note


def is_semiprime(alg, graded=False, budget=None):
    """No nonzero (graded) ideal with zero self-bracket: [Soc, Soc] = Soc,
    or over Q the Killing criterion (_decide)."""
    return _decide(alg, "semiprime", graded, budget)[0]


def absolute_zero_divisor_witness(alg, graded=False, budget=None):
    """A nonzero (homogeneous) x with (ad x)^2 = 0, or None: the first of
    zero_divisors (_decide): over F_p the scan charges the budget first
    (find_absolute_zero_divisor), over Q the walk is free."""
    return _decide(alg, "zero-divisor", graded, budget)[0]


def is_strongly_nondegenerate(alg, graded=False, budget=None):
    return absolute_zero_divisor_witness(alg, graded, budget) is None


def _minimal_ideals(alg, graded, budget):
    """The minimal (graded) ideals (_decide; see minimal_ideals)."""
    return _decide(alg, "minimal", graded, budget)[0]


def _scanned_minimal_ideals(alg, graded, budget):
    """Over F_p, the minimal elements among the ideals generated by one
    (homogeneous) element: every nonzero ideal contains one of them."""
    ideals = [i for i in distinct_principal_ideals(
        alg, homogeneous_only=graded, budget=budget) if not i.is_zero()]
    return tuple(i for i in ideals
                 if not any(o.dim < i.dim and i.contains_space(o)
                            for o in ideals))


def minimal_ideals(alg, budget=None):
    """All minimal nonzero ideals: over F_p the socle alone when Norton's
    test or the envelope proves the algebra prime, else the minimal
    principal ideals of the scan; over Q, of semiprime input only, the
    summands that basis vectors and the centroid End_A(L) cut out
    (_centroid_step)."""
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


class StructureReport:
    __slots__ = ("center_dim", "killing_det", "semiprime", "prime",
                 "strongly_nondegenerate", "socle_dim", "socle", "methods")

    def __init__(self, center_dim, killing_det, semiprime, prime,
                 strongly_nondegenerate, socle_dim, socle, methods=None):
        self.center_dim = center_dim
        self.killing_det = killing_det
        self.semiprime = semiprime
        self.prime = prime
        self.strongly_nondegenerate = strongly_nondegenerate
        self.socle_dim = socle_dim
        self.socle = socle
        self.methods = {} if methods is None else methods


def structure_report(alg, budget=None):
    """One-stop summary used by the command line analyze output: the
    answers and methods of _decide; a question refused with UndecidedError
    has answer None and the refusal as its method (DimensionTooLarge
    propagates)."""
    got, methods = {}, {}
    for question, key in (("semiprime", "semiprime"), ("prime", "prime"),
                          ("socle", "socle"),
                          ("zero-divisor", "strongly-nondegenerate")):
        try:
            got[question], methods[key] = _decide(alg, question,
                                                  budget=budget)
        except UndecidedError as exc:
            methods[key] = str(exc)
    soc = got.get("socle")
    return StructureReport(
        center_dim=alg.center().dim,
        killing_det=killing_determinant(alg) if alg.field.p is None else None,
        semiprime=got.get("semiprime"),
        prime=got.get("prime"),
        strongly_nondegenerate=got["zero-divisor"] is None,
        socle_dim=None if soc is None else soc.dim,
        socle=soc,
        methods=methods,
    )
