"""Exact scalar arithmetic: the rationals and prime fields.

Rationals are fractions.Fraction (always lowest terms, positive denominator).
Prime-field elements are plain ints reduced to [0, p).  Everything downstream
is pure linear algebra over one of these two kinds of field; no floats exist
anywhere in the package.
"""

from fractions import Fraction

from .errors import ParseError


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
        # immutable values, so one instance of each serves every caller
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

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
            return Fraction(x)
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
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def invertible_int(self, n) -> bool:
        """Whether the integer n is invertible as a scalar (2, 3, 6 checks)."""
        if self.p is None:
            return n != 0
        return n % self.p != 0


QQ = Field()


def GF(p):
    return Field(p)
