"""Finite prime fields and their extensions.

Both classes expose one field-object protocol, read by the point scans,
the Hesse group law and ``funcfield``: attributes ``zero`` and ``one`` plus
methods add, sub, mul, neg, inv, from_int, eval_monomials (a sum of int
multiples of monomials at a point) and quotients (several such sums at a
point over one divisor).  Elements are plain immutable values (ints for
PrimeField, int tuples for ExtField), so structural equality is element
equality.  ``polys`` works over a PrimeField only.

An ``ExtField`` is F_q[t]/(modulus) for the least irreducible modulus of its
degree.  Its elements are coefficient tuples (c_0, ..., c_{k-1}); add, sub
and neg map them coefficientwise through a table of residues mod q, with no
Python-level arithmetic per coefficient.  mul and inv are lookups in a
log/antilog table over the least primitive element, built on the first
use with a Zech table for addition (FLINT's ``fq_zech``; K. Huber, IEEE
Trans. Inform. Theory 36, 1990).  eval_monomials and quotients stay in the
log domain: a term is a sum of logs, terms add through the Zech table, and
a quotient is the antilog of a difference of logs.  Polynomial arithmetic
only builds the modulus and these tables.
"""

import operator
from itertools import product
from math import prod

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

    def eval_monomials(self, monos, p):
        """sum of n * p[0]^e0 * p[1]^e1 * ... over the (exponents, n) pairs."""
        q = self.q
        return sum(n * prod(pow(c, e, q) for c, e in zip(p, exps))
                   for exps, n in monos) % q

    def quotients(self, forms, p, den=None):
        """The values of the forms at p divided by the value of den or, when
        den is None, by the last nonzero value; None when that is zero."""
        vals = [self.eval_monomials(f, p) for f in forms]
        d = (self.eval_monomials(den, p) if den is not None
             else next((v for v in reversed(vals) if v), 0))
        r = d and self.inv(d)
        return tuple(v * r % self.q for v in vals) if r else None

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
    tab, mono = {}, (((m,), 1),)
    for e in C.elements():
        tab.setdefault(C.eval_monomials(mono, (e,)), []).append(e)
    return tab


def roots_of_unity(C, n):
    """The n-th roots of unity of C, in element order."""
    return _power_table(C, n).get(C.one, [])


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

    ``exp[i]`` is g^i for the least primitive element g of ``elements()``,
    ``log`` maps each element back to its exponent (zero to None),
    ``int_log[c]`` is the log of the constant c in [0, q) and ``zech[i]`` is
    log(1 + g^i) (None where 1 + g^i = 0).  All four stay None until the
    first mul, inv, eval_monomials or quotients: callers that use them scan
    the whole field anyway, and a field that is only sized (say, to refuse a
    point budget) never pays.
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
        self.int_log = None
        self.zech = None
        # red[i] = i mod q for -3q <= i < 3q, a C-level lookup per coefficient
        self._red = tuple(range(self.q)) * 3

    def from_int(self, n):
        return tuple([n % self.q] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple(map(self._red.__getitem__, map(operator.add, a, b)))

    def sub(self, a, b):
        return tuple(map(self._red.__getitem__, map(operator.sub, a, b)))

    def neg(self, a):
        return tuple(map(self._red.__getitem__, map(operator.neg, a)))

    def tables(self):
        """(exp, log), built on the first call and kept on the object; it also
        fills ``int_log`` and ``zech``, which ``_form_log`` reads directly."""
        if self.exp is None:
            F, mod, n = self.base, self.modulus, self.order - 1
            factors = _prime_factors(n)
            for e in self.elements():
                g = polys.ptrim(F, e)
                if g and all(polys.ppow_mod(F, g, n // r, mod) != (F.one,)
                             for r in factors):
                    break
            # multiplication by g as a matrix over F_q: column j is g t^j
            cols = [polys.pmod(F, polys.pmul(F, (0,) * j + (1,), g), mod)
                    for j in range(self.k)]
            rows = list(zip(*(c + (0,) * (self.k - len(c)) for c in cols)))
            exp, q = [self.one], self.q
            for _ in range(n - 1):
                exp.append(tuple([sum(map(operator.mul, r, exp[-1])) % q
                                  for r in rows]))
            log = {e: i for i, e in enumerate(exp)}
            log[self.zero] = None
            self.int_log = [log[self.from_int(c)] for c in range(q)]
            self.zech = [log[(self._red[e[0] + 1],) + e[1:]] for e in exp]
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

    def _logs(self, p):
        """The logs of p's coordinates (None for zero)."""
        log = self.log or self.tables()[1]
        try:
            return [log[c] for c in p]
        except (KeyError, TypeError):
            raise self._not_element(*p) from None

    def _form_log(self, monos, logs):
        """A log of the monomial sum at the point with coordinate logs
        ``logs`` (None for zero): log(g^a + g^b) = a + zech[(b - a) mod n],
        and a partial sum that cancels restarts at the next term."""
        int_log, zech, q = self.int_log, self.zech, self.q
        n_exp = len(zech)
        acc = None
        for exps, n in monos:
            i = int_log[n % q]
            if i is None:
                continue
            for j, e in zip(logs, exps):
                if e:
                    if j is None:
                        break
                    i += e * j
            else:
                if acc is None:
                    acc = i
                else:
                    z = zech[(i - acc) % n_exp]
                    acc = None if z is None else acc + z
        return acc

    def eval_monomials(self, monos, p):
        """sum of n * p[0]^e0 * p[1]^e1 * ... over the (exponents, n) pairs."""
        i = self._form_log(monos, self._logs(p))
        return self.zero if i is None else self.exp[i % len(self.exp)]

    def quotients(self, forms, p, den=None):
        """The values of the forms at p divided by the value of den or, when
        den is None, by the last nonzero value; None when that is zero."""
        logs, form_log = self._logs(p), self._form_log
        vals = [form_log(f, logs) for f in forms]
        d = (form_log(den, logs) if den is not None
             else next((v for v in reversed(vals) if v is not None), None))
        if d is None:
            return None
        exp, n = self.exp, len(self.exp)
        return tuple([self.zero if v is None else exp[(v - d) % n]
                      for v in vals])

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
