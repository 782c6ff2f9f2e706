"""Tour of the core object: finite dimensional graded Lie algebras with
exact scalars.

Everything is a structure-constant table over Q or F_p.  The constructor
re-derives antisymmetry, Jacobi and grading compatibility from the table,
so an algebra that exists is an algebra that is correct.
"""

from gradlie.gallery import heis3, p_mod_i, sl2
from gradlie.lie import direct_sum
from gradlie.scalars import GF, QQ

from _show import show

a = sl2()
print("sl2 over", a.field, "dim", a.dim)
print("basis", a.names, "degrees", a.degrees)
print("support", a.support())

# brackets come back as coordinate tuples in the ambient basis
e, f, h = (a.basis_vector(i) for i in range(3))
print("[e, f] =", show(QQ, a.bracket(e, f)), " (this is h)")
print("[h, e] =", show(QQ, a.bracket(h, e)), " (2e)")

# the grading splits any vector into homogeneous pieces
v = a.vec([3, QQ.of(-2), 1])
for deg, part in sorted(a.homogeneous_decompose(v).items()):
    print("degree", deg, "part", show(QQ, part))

# degree components are honest subspaces
one = a.degree_component(1)
minus = a.degree_component(-1)
zero = a.degree_component(0)
print("[L_1, L_-1] == L_0:", a.bracket_space(one, minus) == zero)

# the same table works over a prime field
a5 = sl2(GF(5))
print("sl2 mod 5 bracket [e, f] =",
      show(a5.field, a5.bracket(a5.basis_vector(0), a5.basis_vector(1))))

# a non-semisimple example: the Heisenberg algebra, graded by -1, 1, 0
n = heis3()
print("\nheis3 center:", show(QQ, n.center().rows))
print("heis3 annihilator of the whole:",
      show(QQ, n.annihilator(n.full_space()).rows))

# quotient by the center collapses it to a 2-dim abelian algebra
quo, proj, section = n.quotient_by_ideal(n.center())
print("heis3 / center dim", quo.dim, "derived space dim",
      quo.derived_space(quo.full_space()).dim)

# restriction to a graded subalgebra keeps names and degrees
s = direct_sum(sl2(), sl2())
comp = s.ideal_generated([s.basis_vector(0)])
sub, rows = s.restrict(comp)
print("\nfirst summand of sl2 (+) sl2:", sub.names, "dim", sub.dim)

# an 8 dimensional algebra with support 0..3: polynomials times a
# quadratic extension, truncated at degree 3
p = p_mod_i()
print("\npolynomial example support", p.support())
x = p.basis_vector(2)
ix = p.basis_vector(3)
print("[x, ix] lands in degree 2:", show(QQ, p.bracket(x, ix)))
