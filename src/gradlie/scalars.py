"""Exact scalar arithmetic: the rationals and prime fields.

A rational is a Python int when it is integral and a fractions.Fraction
(lowest terms, positive denominator 2 or more) only otherwise; Field.of,
Field.reduce and Field.inv keep that rule, and Fraction(2) == 2 with equal
hashes, so values compare and key memos alike whichever form they arrive
in.  Prime-field elements are plain ints reduced to [0, p).  Everything
downstream is pure linear algebra over one of these two kinds of field;
no floats exist anywhere in the package.
"""

from fractions import Fraction
from math import lcm

from .errors import ParseError


def _rational(x):
    """x (an int or a Fraction) as an int when it is integral."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (p is None) or the prime field of size p."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def char(self):
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- element construction ------------------------------------------------

    def of(self, x):
        """Coerce an int, Fraction, or scalar string into a field element."""
        if isinstance(x, str):
            return self.parse(x)
        if self.p is None:
            if type(x) is int:
                return x
            return _rational(x if isinstance(x, Fraction) else Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ParseError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def parse(self, s):
        """Parse 'num' or 'num/den' exactly; rejects zero denominators."""
        s = s.strip()
        try:
            if "/" in s:
                num_s, den_s = s.split("/")
                num, den = int(num_s), int(den_s)
                if den == 0:
                    raise ParseError(f"zero denominator in scalar {s!r}")
                value = Fraction(num, den)
            else:
                value = Fraction(int(s))
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar literal {s!r}") from exc
        return self.of(value)

    def format(self, x) -> str:
        return str(x)

    # -- arithmetic (generic code paths; hot loops specialize on self.p) -----

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return _rational(Fraction(1, a))
        return pow(a, -1, self.p)

    # -- exact int accumulation (validators, sparse kernels) -----------------

    def integral(self, values):
        """(d, ints): the values times one common d >= 1, as Python ints.

        Over Q, d is the lcm of their denominators; over F_p the values are
        ints already and d is 1.  A validator checking an identity that is
        homogeneous in the constants can run on ints and compare with
        vanishes(), since both sides carry the same power of d.
        """
        values = list(values)
        if self.p is not None:
            return 1, values
        d = lcm(1, *(v.denominator for v in values))
        return d, [v.numerator * (d // v.denominator) for v in values]

    def reduce(self, acc):
        """An exactly accumulated vector as a tuple of field elements."""
        p = self.p
        if p is None:
            return tuple(map(_rational, acc))
        return tuple([a % p for a in acc])

    def vanishes(self, acc):
        """Whether every exactly accumulated value is zero in this field;
        over F_p this is where the values are reduced."""
        p = self.p
        return not any(acc) if p is None else all(a % p == 0 for a in acc)

    def invertible_int(self, n) -> bool:
        """Whether the integer n is invertible as a scalar (2, 3, 6 checks)."""
        if self.p is None:
            return n != 0
        return n % self.p != 0


QQ = Field()


def GF(p):
    return Field(p)
