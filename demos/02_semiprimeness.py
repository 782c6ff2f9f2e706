"""Semiprimeness, witnesses and the structure report.

Over Q the decision runs through the Killing form (finite dimensional,
characteristic zero: semiprime = semisimple = nondegenerate Killing
form).  Over F_p the package instead reads the socle off the radical of
the associative envelope of ad L and asks whether [Soc, Soc] = Soc, so
the two routes cross-validate each other on small instances.
"""

from gradlie.analysis import (
    abelian_ideal_witness,
    is_essential_ideal,
    is_prime,
    is_semiprime,
    is_strongly_nondegenerate,
    killing_matrix,
    minimal_ideals,
    socle,
    structure_report,
)
from gradlie.gallery import heis3, p_mod_i, sl2, sl2sum
from gradlie.scalars import GF, QQ

F5 = GF(5)

for make in (sl2, sl2sum, heis3, p_mod_i):
    a = make()
    print(a.names[:4], "... semiprime over Q:", is_semiprime(a),
          "| mod 5:", is_semiprime(make(F5)))

# the witness for a failure is an abelian ideal you can inspect
n = heis3()
w = abelian_ideal_witness(n)
print("\nheis3 abelian ideal witness rows:", w.rows)
print("it is an ideal:", n.is_ideal(w),
      "and abelian:", n.bracket_space(w, w).is_zero())

# Killing matrix of sl2, exact
print("\nKilling(sl2) =", killing_matrix(sl2()))

# strongly nondegenerate = no absolute zero divisors; in characteristic
# zero this agrees with semiprimeness, and the package decides both ways
print("sl2 strongly nondegenerate:", is_strongly_nondegenerate(sl2()))
print("heis3 strongly nondegenerate:", is_strongly_nondegenerate(heis3()))

# the socle of a semiprime algebra is the sum of its minimal ideals and
# the smallest essential ideal; for sl2 (+) sl2 there are two summands
s = sl2sum()
print("\nminimal ideal dims of sl2 (+) sl2:",
      [m.dim for m in minimal_ideals(s)])
e0 = socle(s)
print("socle dim", e0.dim, "essential:", is_essential_ideal(s, e0))

comp = s.ideal_generated([s.basis_vector(0)])
print("one summand essential:", is_essential_ideal(s, comp))

# primeness separates the two semisimple examples
print("\nsl2 prime:", is_prime(sl2()), "| sl2sum prime:", is_prime(sl2sum()))

# everything above, bundled
rep = structure_report(heis3(F5))
print("\nreport for heis3 mod 5:")
print("  semiprime =", rep.semiprime, "via", rep.methods["semiprime"])
print("  prime =", rep.prime)
print("  socle_dim =", rep.socle_dim)
print("  strongly_nondegenerate =", rep.strongly_nondegenerate)
