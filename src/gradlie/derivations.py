"""Derivation spaces, maximal algebras of quotients, and quotient deciders.

The maximal (graded) algebra of quotients of a finite dimensional
semiprime algebra L is realized concretely: the intersection of two
essential ideals is essential, so a minimum essential ideal exists and
equals the socle E0 (every essential ideal contains every minimal ideal,
and the socle is essential); all derivation spaces Der(I, L) restrict
injectively to Der(E0, L), so the direct limit collapses to Der(E0, L).
Since E0 = [E0, E0] in the semiprime case, derivations map E0 into E0 and
the commutator closes on Der(E0, L), which therefore carries the Lie
structure returned here.

Der(E0, L) is read off a theorem where one applies: when E0 = L and the
Killing form is nondegenerate every derivation is inner, so Q_m(L) = ad L
and its commutator table is L's own; only otherwise is the Leibniz
system solved.

Deciders return a Verdict rather than a bare boolean: the quantifier "for
all nonzero q" is only fully decidable when linear algebra or exhaustive
enumeration covers it, and the outcome vocabulary {true, false(witness),
verified-on-witnesses, undecided} keeps honest track of which happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .analysis import (graded_core, graded_socle, is_essential_ideal,
                       is_semiprime, killing_radical, socle)
from .enumeration import scan_points
from .errors import (
    DecompositionIncomplete,
    NonzeroCenter,
    NotAnIdeal,
    NotSemiprime,
    ValidationError,
)
from .lie import GradedLieAlgebra, GradingGroup
from .linalg import (
    Subspace,
    closure,
    kernel_basis,
    mat_mul,
    mat_vec,
    preimage,
    span,
)
from .tables import antisymmetric


@dataclass
class Verdict:
    value: str  # true | false | verified-on-witnesses | undecided
    witness: object = None
    reason: str = ""

    def __bool__(self):
        return self.value == "true"


# ---------------------------------------------------------------------------
# embeddings


class QuotientEmbedding:
    """A graded subalgebra L sitting inside a graded algebra Q.

    small is a subspace of big's coordinate space; it must be closed under
    the bracket, which restrict checks as it builds the induced algebra
    structure on small (coordinates in its canonical basis), and spanned
    by homogeneous vectors.  That structure is exposed as small_alg
    together with the basis rows used to build it.
    """

    __slots__ = ("big", "small", "small_alg", "small_rows")

    def __init__(self, big, small):
        if not isinstance(small, Subspace):
            small = span(big.field, big.dim, list(small))
        if small.ambient != big.dim:
            raise ValidationError("subalgebra lives in the wrong ambient space")
        if big.group.kind != "trivial" and not big.is_graded_subspace(small):
            raise ValidationError("small space is not graded")
        self.big = big
        self.small = small
        self.small_alg, self.small_rows = big.restrict(small)

    def center_is_zero(self):
        return self.small_alg.center().is_zero()

    def require_zero_center(self):
        if not self.center_is_zero():
            raise NonzeroCenter("the small algebra has nonzero center")

    def is_reflexive(self):
        return self.small.dim == self.big.dim


def envelope(emb, q):
    """Smallest subspace of Q containing q and closed under bracketing by L."""
    big = emb.big
    return closure(span(big.field, big.dim, [big.vec(q)]),
                   lambda w: [big.bracket(x, w) for x in emb.small.rows])


def denominator_ideal(emb, q):
    """(L : q) = {x in L : [x, envelope of q] stays in L}.

    This is the largest ideal of L that brackets q (and its whole
    L-envelope) into L: absorbing q forces absorbing the envelope by the
    Jacobi identity, so nothing larger can work and the result needs no
    ideal-closure pass.  Graded whenever q is homogeneous.
    """
    big = emb.big
    return preimage(emb.small,
                    [big.right_matrix(w) for w in envelope(emb, q).rows],
                    within=emb.small)


# ---------------------------------------------------------------------------
# derivation spaces


@dataclass
class DerivationSpace:
    algebra: object          # the target L
    domain: object           # Subspace: the ideal I
    space: object            # Subspace of the flattened maps
    degrees: tuple           # degree of each basis map; None when the
                             # domain is not graded
    method: str = "leibniz"  # or inner-derivations
    preimages: tuple = None  # the x_i with d_i = ad x_i (inner-derivations)

    @property
    def basis(self):
        return self.space.rows

    @property
    def dim(self):
        return self.space.dim

    @property
    def components(self):
        """dict degree -> tuple of flattened maps, or None."""
        if self.degrees is None:
            return None
        comps = {}
        for sigma, row in zip(self.degrees, self.basis):
            comps.setdefault(sigma, []).append(row)
        return {sigma: tuple(rows) for sigma, rows in comps.items()}


def derivation_space(alg, ideal):
    """All linear maps I -> L satisfying the Leibniz rule on I, as the
    canonical basis of the (dim I) x (dim L) matrices D, row u the image of
    the canonical row r_u, flattened row-major.  When I = L and the Killing
    form is nondegenerate every derivation is inner, in any characteristic
    (Zassenhaus; README proves it), and the space is the span of the ad b_i
    (method inner-derivations); otherwise the Leibniz system is solved
    (_leibniz_space, method leibniz).
    """
    alg.require_ideal(ideal)
    if ideal.dim == alg.dim and killing_radical(alg).is_zero():
        return _inner_space(alg, ideal)
    return _leibniz_space(alg, ideal)


def _inner_space(alg, full):
    """Der L = ad L: one elimination of the flattened ad b_i, each with
    the unit vector e_i appended.  ad is injective (the center lies in the
    Killing radical), so every pivot lies in the ad part and each row is a
    canonical d_j followed by the x_j with d_j = ad x_j.  d_j has the
    degree deg b_k - deg b_u of its pivot cell (u, k)."""
    f, n = alg.field, alg.dim
    both = span(f, n * n + n, [
        tuple(x for r in alg.ad_matrix(e) for x in r) + e for e in full.rows])
    pivots = both.pivots()
    space = Subspace(f, n * n, [r[:n * n] for r in both.rows],
                     _canonical=True, _pivots=pivots)
    degrees = (tuple(alg.group.canon(alg.degrees[p % n] - alg.degrees[p // n])
                     for p in pivots) if alg.group.kind != "trivial" else None)
    return DerivationSpace(alg, full, space, degrees, "inner-derivations",
                           tuple(r[n * n:] for r in both.rows))


def _leibniz_space(alg, ideal):
    """The solution space of the Leibniz system of an ideal I of L.

    For every pair s < t of canonical rows of I the constraint is
    D(coords of [r_s, r_t]) = D[s] @ R(r_t) - D[t] @ R(r_s).  When I is
    graded (homogeneous canonical rows) the equation at column k only
    touches cells (u, j) of the map degree deg b_k - deg r_s - deg r_t =
    deg b_j - deg r_u, so the system splits into independent degree
    blocks and the solution space is the direct sum of its graded
    components.  The blocks occupy disjoint cells, each listed in the
    row-major flattening, so their canonical kernels, sorted by pivot,
    are the canonical basis of the whole space.  Otherwise all cells
    form one block and degrees is None.
    """
    f = alg.field
    rows = ideal.rows
    m, n = len(rows), alg.dim
    if m == 0:
        return DerivationSpace(alg, ideal, Subspace.zero(f, 0), ())
    rmats = [alg.right_matrix(r) for r in rows]
    graded = alg.group.kind != "trivial" and alg.is_graded_subspace(ideal)
    canon = (alg.group if graded else GradingGroup.trivial()).canon
    dom_deg = tuple(alg.degree_of(r) for r in rows) if graded else (0,) * m

    # cells (u, k) of the map matrix, grouped by map degree in flat
    # order; pos gives each cell's position inside its block
    cells = {}
    pos = {}
    for u in range(m):
        for k in range(n):
            block = cells.setdefault(canon(alg.degrees[k] - dom_deg[u]), [])
            pos[u, k] = len(block)
            block.append((u, k))

    block_eqs = {sigma: set() for sigma in cells}
    for s in range(m):
        for t in range(s + 1, m):
            a = ideal.coords(alg.bracket(rows[s], rows[t]))
            if a is None:
                raise NotAnIdeal("bracket of ideal rows left the ideal")
            for k in range(n):
                terms = [((u, k), a[u]) for u in range(m) if a[u] != f.zero]
                for j in range(n):
                    c = rmats[t][j][k]
                    if c != f.zero:
                        terms.append(((s, j), f.neg(c)))
                    c = rmats[s][j][k]
                    if c != f.zero:
                        terms.append(((t, j), c))
                if not terms:
                    continue
                sigma = canon(alg.degrees[k] - dom_deg[s] - dom_deg[t])
                eq = [f.zero] * len(cells[sigma])
                for cell, c in terms:
                    eq[pos[cell]] = f.of(eq[pos[cell]] + c)
                if any(x != f.zero for x in eq):
                    block_eqs[sigma].add(tuple(eq))

    found = []
    for sigma, block in cells.items():
        sol = kernel_basis(f, block_eqs[sigma], len(block))
        for p, row in zip(sol.pivots(), sol.rows):
            flat = [f.zero] * (m * n)
            for (u, k), c in zip(block, row):
                flat[u * n + k] = c
            pu, pk = block[p]
            found.append((pu * n + pk, tuple(flat), sigma))
    found.sort(key=lambda x: x[0])
    space = Subspace(f, m * n, [row for _, row, _ in found],
                     _canonical=True,
                     _pivots=tuple(p for p, _, _ in found))
    return DerivationSpace(alg, ideal, space,
                           tuple(sigma for _, _, sigma in found)
                           if graded else None)


def graded_derivation_components(der):
    """Dimensions of the degree components of a derivation space: the
    Leibniz system of a graded domain splits exactly; otherwise all of it
    has degree 0 under a trivial grading, and under a nontrivial one the
    domain has no homogeneous basis (DecompositionIncomplete)."""
    if der.components is not None:
        return {sigma: len(rows) for sigma, rows in der.components.items()}
    if der.algebra.group.kind != "trivial":
        raise DecompositionIncomplete("domain ideal has no homogeneous basis")
    return {0: der.dim} if der.dim else {}


# ---------------------------------------------------------------------------
# the maximal algebra of quotients


@dataclass
class MaximalQuotients:
    algebra: object        # GradedLieAlgebra on the derivation basis
    embedding: tuple       # dim L x dim Q_m matrix, x |-> ad x restricted
    witness_ideal: object  # the minimum (graded) essential ideal E0
    derivations: object    # the underlying DerivationSpace


def maximal_quotients(alg, graded=False, budget=None):
    """Der(E0, L) with the commutator bracket, E0 the minimum (graded)
    essential ideal, together with the embedding x |-> ad x.

    Requires a (graded) semiprime algebra: semiprimeness makes the socle
    essential and perfect, which closes the bracket and makes the
    embedding injective (an element killing an essential ideal is zero).
    The result is memoized on the algebra (alg.memo).
    """
    # charges the budget of the socle computation, also on a memo hit
    if not is_semiprime(alg, graded=graded, budget=budget):
        raise NotSemiprime("maximal quotients need a (graded) semiprime algebra")
    key = ("maximal_quotients", bool(graded))
    got = alg.memo.get(key)
    if got is not None:
        return got
    e0 = graded_socle(alg, budget=budget) if graded else socle(alg, budget=budget)
    der = derivation_space(alg, e0)
    f = alg.field
    m, n = e0.dim, alg.dim
    d = der.dim

    embedding = []
    for i in range(n):
        x = alg.basis_vector(i)
        flat = []
        for r in e0.rows:
            flat.extend(alg.bracket(x, r))
        coords = der.space.coords(tuple(flat))
        if coords is None:
            raise ValidationError("ad x is not in the derivation space")
        embedding.append(tuple(coords))
    embedding = tuple(embedding)

    if der.method == "inner-derivations":
        # [ad x, ad y] = ad [x, y], read in d-coordinates by the embedding
        table = antisymmetric(f, alg.bracket, der.preimages,
                              lambda v: mat_vec(v, embedding, f),
                              "commutator left the derivation space")
    else:
        # per derivation: the images of E0's rows, and the same images in
        # E0-coordinates, which exist because derivations map E0 into E0
        values = [[flat[u * n:(u + 1) * n] for u in range(m)]
                  for flat in der.basis]
        coords = [[e0.coords(v) for v in vs] for vs in values]
        if any(None in cs for cs in coords):
            raise ValidationError("derivation image left the essential ideal")

        def commutator(i, j):
            # the coordinates of [d_i, d_j], None outside the span; a o b
            # takes r_s to row s of coords[b] @ values[a]
            ab = mat_mul(coords[j], values[i], f)
            ba = mat_mul(coords[i], values[j], f)
            return der.space.coords(tuple(
                f.of(x - y) for r, t in zip(ab, ba) for x, y in zip(r, t)))

        table = antisymmetric(f, commutator, range(d), lambda c: c,
                              "commutator left the derivation space")

    group, degrees = ((alg.group, der.degrees) if der.degrees is not None
                      else (GradingGroup.trivial(), (0,) * d))
    names = tuple("d%d" % i for i in range(d))
    qm = GradedLieAlgebra(f, names, table, group, degrees)

    if not preimage(qm.zero_space(), [embedding]).is_zero():
        raise ValidationError("ad-embedding unexpectedly has a kernel")

    result = alg.memo[key] = MaximalQuotients(qm, embedding, e0, der)
    return result


def maximal_quotients_match(alg, budget=None):
    """Both versions of the maximal quotients with the matching map checked.

    For a 3-graded semiprime algebra the graded and ungraded constructions
    share their domain: the graded core of E0 is a graded essential ideal
    below E0, the graded socle is essential, and minimality squeezes all
    three ideals together, after which restriction of derivations is the
    identity matching.  Verified here rather than assumed.
    """
    plain = maximal_quotients(alg, graded=False, budget=budget)
    graded = maximal_quotients(alg, graded=True, budget=budget)
    report = {
        "e0": plain.witness_ideal,
        "e0_graded": graded.witness_ideal,
        "dim": plain.algebra.dim,
        "dim_graded": graded.algebra.dim,
    }
    if plain.witness_ideal != graded.witness_ideal:
        raise ValidationError(
            "minimum essential ideal differs between graded and ungraded runs")
    if alg.group.kind == "Z" and set(alg.support()) <= {-1, 0, 1}:
        core = graded_core(alg, plain.witness_ideal)
        report["core_matches"] = core == plain.witness_ideal
        if not report["core_matches"]:
            raise ValidationError("graded core does not recover the socle")
    same_table = plain.algebra.table == graded.algebra.table
    same_grading = (plain.algebra.degrees == graded.algebra.degrees
                    and plain.algebra.group == graded.algebra.group)
    if not (same_table and same_grading):
        raise ValidationError(
            "graded and ungraded maximal quotients fail to match identically")
    report["isomorphic"] = True
    return plain, graded, report


# ---------------------------------------------------------------------------
# deciders


def _max_degree_witness(alg, sub):
    """Witness selection: a nonzero element of sub of maximal degree.

    Scans coordinate basis vectors lying in sub first (reported in basis
    order among those of maximal degree), falling back to canonical rows.
    Degrees compare as canonical integers.
    """
    candidates = []
    for i in range(alg.dim):
        v = alg.basis_vector(i)
        if sub.contains(v):
            candidates.append((alg.degrees[i], i, v))
    if candidates:
        top = max(d for d, _, _ in candidates)
        for d, _, v in candidates:
            if d == top:
                return v
    rows = [r for r in sub.rows if alg.is_homogeneous(r)]
    if rows:
        top = max(_safe_deg(alg, r) for r in rows)
        for r in rows:
            if _safe_deg(alg, r) == top:
                return r
    return sub.rows[0] if sub.rows else None


def _safe_deg(alg, r):
    d = alg.degree_of(r)
    return 0 if d is None else d


def is_quotient(emb, graded=False, budget=None):
    """Decide whether Q is a (graded) algebra of quotients of L.

    Strategy: the denominator ideals of the coordinate basis of Q meet in
    a single ideal I of L that absorbs all of Q; if its annihilator in Q
    vanishes, every nonzero q satisfies 0 != [I, q] with [I, q] inside L,
    which is ideal absorption, and the verdict is true outright.  When the
    annihilator is nonzero and L is (graded) semiprime this is conclusive
    in the other direction.  For non-semiprime L the element condition is
    checked directly: a pair (q, p) of basis vectors with [(L:q), p] = 0
    refutes it, the scan being exhaustive over F_p and witness-only over Q.
    """
    big = emb.big
    f = big.field
    emb.require_zero_center()

    dens = [denominator_ideal(emb, big.basis_vector(i))
            for i in range(big.dim)]
    inter = big.full_space()
    for dq in dens:
        inter = inter.intersect(dq)
    ann = big.annihilator(inter)
    if ann.is_zero():
        return Verdict("true", reason="absorbing ideal has zero annihilator")

    semi = is_semiprime(emb.small_alg, graded=graded, budget=budget)
    if semi:
        witness = _max_degree_witness(big, ann)
        return Verdict(
            "false", witness=witness,
            reason="nonzero annihilator of the absorbing ideal refutes "
                   "absorption over a semiprime base")

    # basis pair scan: q runs over coordinate vectors, and any nonzero
    # annihilator of (L:q) yields a refuting element p
    for i, dq in enumerate(dens):
        aq = big.annihilator(dq)
        if not aq.is_zero():
            witness = _max_degree_witness(big, aq)
            return Verdict(
                "false", witness=witness,
                reason="no element of L brackets this witness out of zero "
                       "while absorbing the envelope of %s" % big.names[i])

    if f.p is not None:
        for q in scan_points(big, homogeneous_only=graded, budget=budget):
            dq = denominator_ideal(emb, q)
            aq = big.annihilator(dq)
            if not aq.is_zero():
                witness = _max_degree_witness(big, aq)
                return Verdict("false", witness=witness,
                               reason="exhaustive scan found a refuting pair")
        return Verdict("true",
                       reason="exhaustive scan over all denominators passed")
    return Verdict("undecided",
                   reason="all basis denominators pass but the field is "
                          "infinite and the annihilator certificate failed")


def _weak_ok_at(emb, p):
    """Does some x in L satisfy 0 != [x, p] in L?"""
    big = emb.big
    f = big.field
    rp = big.right_matrix(big.vec(p))
    k_p = preimage(emb.small, [rp], within=emb.small)
    for x in k_p.rows:
        if any(v != f.zero for v in mat_vec(x, rp, f)):
            return True
    return False


def is_weak_quotient(emb, graded=False, budget=None):
    """Decide whether Q is a (graded) weak algebra of quotients of L.

    Over F_p the scan over nonzero (homogeneous) p is exhaustive.  Over Q
    a conclusive true needs a certificate covering infinitely many p: per
    degree s, the uniform absorber K_s = {x in L : [x, Q_s] inside L} is
    graded, and if no nonzero vector of Q_s annihilates it, every p of
    degree s has some homogeneous x in K_s with 0 != [x, p] in L (the
    bracket lands in L because x absorbs the whole component, and
    homogeneous components of a bracket in L stay in L).  Failing the
    certificate, basis vectors are checked individually.
    """
    big = emb.big
    f = big.field
    emb.require_zero_center()

    if emb.is_reflexive():
        return Verdict("true", reason="reflexive embedding with zero center")

    # uniform absorber certificate, sound over any field: if no nonzero
    # vector of a component annihilates that component's absorber, every
    # p of the component has a witness inside the absorber
    if graded:
        blocks = [big.degree_component(d) for d in big.support()]
    else:
        blocks = [big.full_space()]
    certified = True
    for comp in blocks:
        absorber = preimage(emb.small,
                            [big.right_matrix(w) for w in comp.rows],
                            within=emb.small)
        bad = comp.intersect(big.annihilator(absorber))
        if not bad.is_zero():
            certified = False
            break
    if certified:
        return Verdict("true", reason="uniform absorbers certify every "
                                      "component" if graded else
                                      "uniform absorber certifies all of Q")

    if f.p is not None:
        for p_vec in scan_points(big, homogeneous_only=graded, budget=budget):
            if not _weak_ok_at(emb, p_vec):
                return Verdict("false", witness=tuple(p_vec),
                               reason="no element of L brackets the witness "
                                      "into L without killing it")
        return Verdict("true", reason="exhaustive scan over nonzero elements")

    for i in range(big.dim):
        p_vec = big.basis_vector(i)
        if not _weak_ok_at(emb, p_vec):
            return Verdict("false", witness=p_vec,
                           reason="basis vector %s refutes the condition"
                                  % big.names[i])
    return Verdict("verified-on-witnesses",
                   reason="all basis vectors pass; the failure set is not "
                          "linear, so sampling cannot prove more over Q")


# ---------------------------------------------------------------------------
# axiomatic characterization of the maximal quotients


@dataclass
class AxiomaticReport:
    absorption: bool        # every homogeneous s has an essential (L:s)
    faithful: bool          # Ann_S(E0) = 0
    realized: bool          # every graded derivation of E0 is ad(s)
    witnesses: dict = dc_field(default_factory=dict)

    @property
    def passed(self):
        return self.absorption and self.faithful and self.realized


def check_axiomatic(emb, budget=None):
    """Three conditions pinning S as the maximal graded quotients of L.

    (i) every homogeneous basis vector s of S has a graded essential ideal
    of L bracketing s into L (the denominator ideal is the largest
    candidate, so it decides); (ii) nothing in S annihilates the minimum
    graded essential ideal E0; (iii) every degree component of Der(E0, L)
    is realized by bracketing with an element of S of that degree.  E0
    suffices as the single test ideal: every graded essential ideal
    contains it and restriction of derivations is injective.
    """
    big = emb.big
    f = big.field
    small_alg, small_rows = emb.small_alg, emb.small_rows
    if not is_semiprime(small_alg, graded=True, budget=budget):
        raise NotSemiprime("the axiomatic check needs graded semiprime L")

    report = AxiomaticReport(True, True, True)

    # (i) holds outright for a reflexive embedding: (L : s) = L
    for i in range(0 if emb.is_reflexive() else big.dim):
        s_vec = big.basis_vector(i)
        # (L : s) lies in L and is an ideal of L by Jacobi, so only its
        # essentiality is in question
        ideal_small = span(f, small_alg.dim, [
            emb.small.coords(r)
            for r in denominator_ideal(emb, s_vec).rows])
        if not is_essential_ideal(small_alg, ideal_small, graded=True,
                                  budget=budget):
            report.absorption = False
            report.witnesses["absorption"] = s_vec
            break

    e0_small = graded_socle(small_alg, budget=budget)
    e0_big = span(f, big.dim,
                  [mat_vec(c, small_rows, f) for c in e0_small.rows])
    ann_s = big.annihilator(e0_big)
    if not ann_s.is_zero():
        report.faithful = False
        report.witnesses["faithful"] = _max_degree_witness(big, ann_s)

    der = derivation_space(small_alg, e0_small)
    if der.method == "inner-derivations":
        # (iii) holds outright: d = ad x is realized by s = x, same degree
        return report
    degrees = der.degrees if der.degrees is not None else (0,) * der.dim
    n = small_alg.dim
    # row j of R(r_u) is [b_j, r_u]: the values of ad b_j on E0's rows
    rmats = [big.right_matrix(r) for r in e0_big.rows]
    for sigma in sorted(set(degrees)):
        # a derivation of degree sigma is realized iff its values, read in
        # S, lie in the span of ([b_j, r_u])_u over the basis vectors b_j
        # of degree sigma: one subspace per degree, one containment test
        # per derivation
        deg = big.group.canon(sigma)
        ad_sigma = span(f, len(rmats) * big.dim,
                        [tuple(x for rr in rmats for x in rr[j])
                         for j in range(big.dim) if big.degrees[j] == deg])
        for flat in (r for d, r in zip(degrees, der.basis) if d == sigma):
            values = tuple(x for u in range(len(rmats)) for x in mat_vec(
                flat[u * n:(u + 1) * n], small_rows, f))
            if not ad_sigma.contains(values):
                report.realized = False
                report.witnesses["realized"] = (sigma, flat)
                return report
    return report
