"""Finite prime fields and their extensions.

Both classes expose one field-object protocol, read by the point scans,
the Hesse group law and the monomial evaluator of ``funcfield``: attributes
``zero`` and ``one`` plus methods add, sub, mul, neg, inv, from_int.
Elements are plain immutable values (ints for PrimeField, int tuples for
ExtField), so structural equality is element equality.  ``polys`` works
over a PrimeField only.

An ``ExtField`` is F_q[t]/(modulus) for the least irreducible modulus of its
degree.  Its elements are coefficient tuples (c_0, ..., c_{k-1}); add, sub
and neg work on them coefficientwise, while mul and inv are lookups in a
log/antilog table over the least primitive element, built on the first
product or inverse (the discrete-log coding of FLINT's ``fq_zech``, without
its Zech table for addition).  Polynomial arithmetic only builds the
modulus and that table.
"""

from itertools import product

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


def _power_table(C, m):
    """{e^m: [e, ...]} over the elements of C, each list in element order."""
    tab = {}
    for e in C.elements():
        acc = C.one
        for _ in range(m):
            acc = C.mul(acc, e)
        tab.setdefault(acc, []).append(e)
    return tab


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


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class ExtField:
    """F_{q^k} as F_q[t]/(modulus); elements are length-k int tuples.

    ``exp[i]`` is g^i for the least primitive element g of ``elements()``
    and ``log`` maps each element back to its exponent (zero to None).  Both
    stay None until the first mul or inv: callers that multiply scan the
    whole field anyway, and a field that is only sized (say, to refuse a
    point budget) never pays for the table.
    """

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
        self.exp = None
        self.log = None

    def from_int(self, n):
        return tuple([n % self.q] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def tables(self):
        """(exp, log), built on the first call and kept on the object."""
        if self.exp is None:
            F, mod, n = self.base, self.modulus, self.order - 1
            factors = _prime_factors(n)
            for e in self.elements():
                g = polys.ptrim(F, e)
                if g and all(polys.ppow_mod(F, g, n // r, mod) != (F.one,)
                             for r in factors):
                    break
            exp = []
            power = (F.one,)
            for _ in range(n):
                exp.append(power + (0,) * (self.k - len(power)))
                power = polys.pmod(F, polys.pmul(F, power, g), mod)
            log = {e: i for i, e in enumerate(exp)}
            log[self.zero] = None
            self.exp, self.log = exp, log
        return self.exp, self.log

    def _not_element(self, *args):
        """The error for the first argument the log table does not hold."""
        for a in args:
            try:
                if a in self.log:
                    continue
            except TypeError:
                pass
            return FieldError("%r is not an element of %r" % (a, self))

    def mul(self, a, b):
        exp, log = self.exp, self.log
        if log is None:
            exp, log = self.tables()
        try:
            i, j = log[a], log[b]
        except (KeyError, TypeError):
            raise self._not_element(a, b) from None
        if i is None or j is None:
            return self.zero
        # 0 <= i + j < 2n, so the index lies in [-n, n) and names g^(i+j)
        return exp[i + j - len(exp)]

    def inv(self, a):
        exp, log = self.exp, self.log
        if log is None:
            exp, log = self.tables()
        try:
            i = log[a]
        except (KeyError, TypeError):
            raise self._not_element(a) from None
        if i is None:
            raise ZeroDivisionError("inverse of 0 in F_%d^%d" % (self.q, self.k))
        return exp[-i]  # g^(n - i), and exp[0] = one for i = 0

    def elements(self):
        return product(range(self.q), repeat=self.k)

    def __repr__(self):
        return "F_%d^%d" % (self.q, self.k)

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.base == self.base
                and other.k == self.k)

    def __hash__(self):
        return hash(("ExtField", self.q, self.k))


def _normalize(C, xyz):
    """The projective point xyz over the field object C, scaled so that its
    last nonzero coordinate is one."""
    last = next((c for c in reversed(xyz) if c != C.zero), None)
    if last is None:
        raise FieldError("zero vector is not a projective point")
    inv = C.inv(last)
    return tuple(C.mul(c, inv) for c in xyz)
