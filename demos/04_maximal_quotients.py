"""Quotient embeddings and the maximal algebra of quotients.

An embedding L <= Q is "of quotients" when every nonzero element of Q
can be pushed into L by bracketing: for each 0 != q in Q there is some
x in L with 0 != [x, q] and [x, envelope(q)] (the elements needed to
express q) staying inside L.  Dropping the envelope condition gives the
weak variant; restricting the quantifiers to homogeneous elements gives
the graded variants.

The maximal graded algebra of quotients is computed concretely as the
derivation algebra Der(E0, L) of the minimum graded essential ideal E0
(the graded socle), with L embedded by x |-> ad x.
"""

from gradlie.derivations import (
    QuotientEmbedding,
    check_axiomatic,
    is_quotient,
    is_weak_quotient,
    maximal_quotients,
    maximal_quotients_match,
)
from gradlie.gallery import p_mod_i, p_mod_i_small, sl2, sl2sum
from gradlie.scalars import QQ

from _show import show

# reflexive case: sl2 inside itself is trivially of quotients
a = sl2()
refl = QuotientEmbedding(a, a.full_space())
print("sl2 <= sl2 quotient verdict:", is_quotient(refl).value)

# one summand inside a direct sum is not: nothing brackets the other
# summand into the first
s = sl2sum()
comp = QuotientEmbedding(s, s.ideal_generated([s.basis_vector(0)]))
v = is_quotient(comp)
print("sl2 <= sl2 (+) sl2 verdict:", v.value,
      "witness:", show(QQ, v.witness), "(a basis vector of the other summand)")
print("  weak variant agrees:", is_weak_quotient(comp).value)

# the separating example: an 8-dim algebra where the graded WEAK
# variant holds but the graded strict variant fails
p = p_mod_i()
emb = QuotientEmbedding(p, p_mod_i_small(p))
print("\ntruncated polynomial pair, graded weak:",
      is_weak_quotient(emb, graded=True).value)
strict = is_quotient(emb, graded=True)
print("graded strict:", strict.value, "witness:", show(QQ, strict.witness))
print("reason:", strict.reason)

# the maximal quotients of sl2: again sl2, now on a derivation basis
mq = maximal_quotients(sl2(), graded=True)
print("\nmaximal graded quotients of sl2: dim", mq.algebra.dim,
      "socle dim", mq.witness_ideal.dim)
print("embedding rows:", show(QQ, mq.embedding))

# three axioms pin the result: absorption into L, faithfulness on E0,
# and realization of every graded derivation of E0
report = check_axiomatic(QuotientEmbedding(mq.algebra, list(mq.embedding)))
print("axiomatic check: absorption", report.absorption,
      "faithful", report.faithful, "realized", report.realized)

# graded and ungraded constructions agree on 3-graded semiprime input
plain, graded, rep = maximal_quotients_match(sl2sum())
print("\nsl2 (+) sl2: plain dim", rep["dim"], "graded dim",
      rep["dim_graded"], "isomorphic:", rep["isomorphic"])
