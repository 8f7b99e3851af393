"""Finite prime fields, their extensions, and rational function fields.

All three classes expose the same field-object protocol consumed by polys:
attributes ``zero`` and ``one`` plus methods add, sub, mul, neg, inv,
from_int.  Elements are plain immutable values (ints for PrimeField, int
tuples for ExtField, RatFunc for RatFuncField), so structural equality is
element equality.
"""

from dataclasses import dataclass

from . import ZomoError, polys


class FieldError(ZomoError, ArithmeticError):
    pass


class PrimeField:
    def __init__(self, q):
        if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
            raise FieldError("%d is not prime" % q)
        self.q = q
        self.order = q
        self.zero = 0
        self.one = 1 % q

    def from_int(self, n):
        return n % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.q)
        return pow(a, self.q - 2, self.q)

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return "F_%d" % self.q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))


def _least_irreducible(base: PrimeField, k):
    """The monic degree-k irreducible over F_q whose low-coefficient vector
    (c0, c1, ..., c_{k-1}) is smallest in the integer encoding sum ci q^i."""
    q = base.q
    for code in range(q ** k):
        coeffs = []
        n = code
        for _ in range(k):
            coeffs.append(n % q)
            n //= q
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(base, poly):
            return poly
    raise FieldError("no irreducible found (unreachable)")


def _is_irreducible(F: PrimeField, poly):
    k = polys.pdeg(poly)
    if k < 1:
        return False
    x = (0, 1)
    # x^(q^k) == x mod poly, and x^(q^d) != x for proper divisors d of k
    xq = polys.ppow_mod(F, x, F.q ** k, poly)
    if xq != polys.pmod(F, x, poly):
        return False
    for d in range(1, k):
        if k % d == 0:
            xqd = polys.ppow_mod(F, x, F.q ** d, poly)
            g = polys.pgcd(F, polys.psub(F, xqd, x), poly)
            if polys.pdeg(g) > 0:
                return False
    return True


class ExtField:
    """F_{q^k} as F_q[t]/(modulus); elements are length-k int tuples."""

    def __init__(self, base: PrimeField, k):
        if k < 1:
            raise FieldError("extension degree must be positive")
        self.base = base
        self.k = k
        self.q = base.q
        self.order = base.q ** k
        self.modulus = _least_irreducible(base, k)
        self.zero = (0,) * k
        self.one = tuple([1 % base.q] + [0] * (k - 1))

    def from_int(self, n):
        return tuple([n % self.q] + [0] * (self.k - 1))

    def from_base(self, a):
        return tuple([a % self.q] + [0] * (self.k - 1))

    def _wrap(self, poly):
        return tuple(poly[i] if i < len(poly) else 0 for i in range(self.k))

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def mul(self, a, b):
        F = self.base
        prod = polys.pmod(F, polys.pmul(F, polys.ptrim(F, a),
                                        polys.ptrim(F, b)), self.modulus)
        return self._wrap(prod)

    def inv(self, a):
        F = self.base
        pa = polys.ptrim(F, a)
        if not pa:
            raise ZeroDivisionError("inverse of 0 in F_%d^%d" % (self.q, self.k))
        g, u, _ = polys.pxgcd(F, pa, self.modulus)
        if polys.pdeg(g) != 0:
            raise FieldError("modulus not irreducible")
        return self._wrap(polys.pscale(F, u, F.inv(g[0])))

    def elements(self):
        from itertools import product
        for tup in product(range(self.q), repeat=self.k):
            yield tup

    def __repr__(self):
        return "F_%d^%d" % (self.q, self.k)

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.base == self.base
                and other.k == self.k)

    def __hash__(self):
        return hash(("ExtField", self.q, self.k))


@dataclass(frozen=True)
class RatFunc:
    num: tuple
    den: tuple

    def is_zero(self):
        return not self.num


class RatFuncField:
    """Field of rational functions over a coefficient field, in one variable.

    Elements are RatFunc values normalized to a monic denominator coprime
    with the numerator; the zero element is RatFunc((), (one,)).
    """

    def __init__(self, coeff_field, var="x"):
        self.coeff = coeff_field
        self.var = var
        self.zero = RatFunc((), (coeff_field.one,))
        self.one = RatFunc((coeff_field.one,), (coeff_field.one,))

    def make(self, num, den=None):
        F = self.coeff
        num = polys.ptrim(F, num)
        den = polys.ptrim(F, den) if den is not None else (F.one,)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        g = polys.pgcd(F, num, den)
        if polys.pdeg(g) > 0:
            num = polys.pdivmod(F, num, g)[0]
            den = polys.pdivmod(F, den, g)[0]
        lead = F.inv(den[-1])
        num = polys.pscale(F, num, lead)
        den = polys.pscale(F, den, lead)
        return RatFunc(num, den)

    def x(self):
        return self.make((self.coeff.zero, self.coeff.one))

    def const(self, c):
        return self.make((c,))

    def from_int(self, n):
        return self.const(self.coeff.from_int(n))

    def add(self, a, b):
        F = self.coeff
        num = polys.padd(F, polys.pmul(F, a.num, b.den),
                         polys.pmul(F, b.num, a.den))
        return self.make(num, polys.pmul(F, a.den, b.den))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return RatFunc(polys.pneg(self.coeff, a.num), a.den)

    def mul(self, a, b):
        F = self.coeff
        return self.make(polys.pmul(F, a.num, b.num),
                         polys.pmul(F, a.den, b.den))

    def inv(self, a):
        if a.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return self.make(a.den, a.num)

    def __repr__(self):
        return "%r(%s)" % (self.coeff, self.var)

    def __eq__(self, other):
        return (isinstance(other, RatFuncField) and other.coeff == self.coeff
                and other.var == self.var)

    def __hash__(self):
        return hash(("RatFuncField", self.coeff, self.var))


def _normalize(C, xyz):
    """The projective point xyz over the field object C, scaled so that its
    last nonzero coordinate is one."""
    last = next((c for c in reversed(xyz) if c != C.zero), None)
    if last is None:
        raise FieldError("zero vector is not a projective point")
    inv = C.inv(last)
    return tuple(C.mul(c, inv) for c in xyz)
