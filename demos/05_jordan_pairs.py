"""Jordan pairs, their graded envelopes, and quotients on the pair side.

A Jordan pair is two spaces acting on each other through a triple
product {x, y, z}.  The envelope construction puts V+ and V- in degrees
1 and -1 around the inner derivations, producing a 3-graded Lie algebra;
the associated-pair construction inverts it.  Pair-level quotient
questions reduce to Lie-level ones through this bridge, and the package
checks both sides against each other.
"""

from gradlie import jordan as J
from gradlie.gallery import (
    jordan_sym2,
    pair_field,
    pair_padded,
    pair_rect,
    padded_subpair,
    triple_2xyz,
)
from gradlie.scalars import QQ

from _show import show

# the pair of rank one: both sides are the field, {x, y, z} = 2xyz
pf = pair_field()
x, y, z = (QQ.of(3),), (QQ.of(5),), (QQ.of(7),)
print("{3, 5, 3} =", show(QQ, pf.triple(1, x, y, x)), " (2 x^2 y = 90)")

# rectangular matrix pairs: 1x2 blocks against 2x1 blocks
rc = pair_rect(1, 2)
print("rect(1,2) dims", rc.dims())

# the graded envelope of rect(1,2) is 8 dimensional (gl2 in the middle)
lie = J.tkk(rc)
print("envelope dim", lie.dim, "support", lie.support())

# and the associated pair recovers the input tables on the nose
ap = J.associated_pair(lie)
print("roundtrip recovers tables:",
      ap.pair.table_plus == rc.table_plus and
      ap.pair.table_minus == rc.table_minus,
      "| central obstruction dim:", ap.c_v.dim)

# a padded pair: a dead coordinate that no triple product can reach
pp = pair_padded()
sub = padded_subpair(pp)
emb = J.PairEmbedding(pp, sub)
verdict = J.is_pair_of_quotients(emb)
print("\npadded pair, live part as subpair: quotient verdict",
      verdict.value, "witness", show(QQ, verdict.witness))

# the Lie-side decider through the envelope returns the same answer
from gradlie.derivations import is_quotient

lie_verdict = is_quotient(J.tkk_embedding(emb))
print("Lie decider agrees:", lie_verdict.value == verdict.value)

# maximal pair quotients of a nondegenerate pair give the pair back
mpq = J.maximal_pair_quotients(pair_field())
print("\nmaximal quotients of the field pair: dims", mpq.pair.dims(),
      "verdict", mpq.verdict.value)

# triples fold the two sides into one space; algebras add a bilinear
# product whose quotients pass through the triple {x,y,z} = (xy)z+... ;
# both "are their own maximal quotients" on nondegenerate input
mtq = J.maximal_triple_quotients(triple_2xyz())
print("triple 2xyz: dim", mtq.triple.dim,
      "pair verdict", mtq.pairs.verdict.value)

sym = jordan_sym2()
mjq = J.maximal_jordan_algebra_quotients(sym)
print("symmetric 2x2 matrices: dim", mjq.algebra.dim,
      "unit", show(QQ, sym.unit()), "verdict", mjq.triples.pairs.verdict.value)
