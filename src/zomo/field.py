"""Finite prime fields and their extensions.

Both classes expose one field-object protocol, read by the point scans,
the Hesse group law and ``funcfield``: attributes ``zero`` and ``one`` plus
methods add, sub, mul, neg, inv, from_int, values (a sum of int multiples
of monomials at each point of a list), eval_monomials (its one-point case)
and quotients (several such sums over one divisor, at each point).
Elements are plain immutable values (ints for PrimeField, int tuples for
ExtField), so structural equality is element equality.  ``polys`` works
over a PrimeField only.

Both fields build, in their constructors, log/antilog tables over a
generator g of the multiplicative group and a Zech table for addition
(FLINT's ``fq_zech``; K. Huber, IEEE Trans. Inform. Theory 36, 1990).
values and quotients stay in the log domain over a whole list of points:
one column of logs per coordinate, a term is a sum of columns, terms add
through the Zech table, and a quotient is the antilog of a difference of
logs.  For a ``PrimeField`` g is the least primitive root.  An
``ExtField`` is F_q[t]/(modulus) for the least modulus of its degree
modulo which t has order q^k - 1, so g is t and the exp table is the
powers of t.  Its elements are coefficient tuples (c_0, ..., c_{k-1});
add, sub and neg map them coefficientwise through a table of residues
mod q, and mul and inv are table lookups.  Polynomial arithmetic only
finds the modulus.
"""

import operator
from functools import reduce
from itertools import product

from . import ZomoError, polys


class FieldError(ZomoError, ArithmeticError):
    pass


class _LogField:
    """The log-domain kernel both fields share.  ``exp[i]`` is g^i for the
    generator g that ``_powers`` picks (the least primitive root of F_p,
    and t for F_{q^k}), ``log`` maps each element back to its exponent
    (zero to None), ``int_log[c]`` is the log of the constant c in [0, q)
    and ``zech[i]`` is log(1 + g^i) (None where 1 + g^i = 0).  The
    constructor fills all four, so a field is whole once built; a scan
    sizes its field before building it (``curves.field_for``)."""

    def _build_logs(self):
        exp, succ = self._powers()
        log = {e: i for i, e in enumerate(exp)}
        log[self.zero] = None
        self.exp, self.log = exp, log
        self.int_log = [log[self.from_int(c)] for c in range(self.q)]
        self.zech = [log[e] for e in succ]

    def _not_element(self, *args):
        """The error for the first argument the log table does not hold."""
        for a in args:
            try:
                if a in self.log:
                    continue
            except TypeError:
                pass
            return FieldError("%r is not an element of %r" % (a, self))

    def _log_sums(self, forms, points):
        """(big, sums): sums[f][i] is a log of form f at points[i], or at
        least big where that value is zero.  Log 0 is written as big, which
        no sum of logs of nonzero values (at most (n - 1)(1 + terms +
        degree)) reaches: a term with a zero factor stays at or above it.
        Terms add through the Zech table, log(g^a + g^b) = a +
        zech[(b - a) mod n], and a cancelled sum (None) becomes big."""
        log, int_log, zech = self.log, self.int_log, self.zech
        q, n = self.q, len(self.exp)
        big = n * (1 + sum(1 + sum(e) for f in forms for e, _ in f))
        try:
            cols = [[big if j is None else j for j in map(log.__getitem__, c)]
                    for c in zip(*points)]
        except (KeyError, TypeError):
            raise self._not_element(*(c for p in points for c in p)) from None
        sums = []
        for f in forms:
            acc = None
            for exps, c in f:
                i = int_log[c % q]
                if i is None:
                    continue
                t = [i] * len(points)
                for e, col in zip(exps, cols):
                    if e:
                        t = list(map(operator.add, t, col if e == 1 else
                                     map(e.__mul__, col)))
                acc = t if acc is None else [
                    b if a >= big else a if b >= big
                    else big if (z := zech[(b - a) % n]) is None else a + z
                    for a, b in zip(acc, t)]
            sums.append([big] * len(points) if acc is None else acc)
        return big, sums

    def values(self, monos, points):
        """The monomial sum at each point of the list."""
        big, (sums,) = self._log_sums((monos,), points)
        exp, zero, n = self.exp, self.zero, len(self.exp)
        return [zero if i >= big else exp[i % n] for i in sums]

    def eval_monomials(self, monos, p):
        """sum of n * p[0]^e0 * p[1]^e1 * ... over the (exponents, n) pairs."""
        return self.values(monos, (p,))[0]

    def quotients(self, forms, points, den=None):
        """One image per point: the values of the forms there over the value
        of den or, when den is None, over the last nonzero value; None where
        that divisor is zero.  A quotient is a difference of logs."""
        big, vals = self._log_sums(
            forms if den is None else (*forms, den), points)
        d = vals.pop() if den is not None else reduce(
            lambda d, v: [b if b < big else a for a, b in zip(d, v)], vals)
        exp, zero, n = self.exp, self.zero, len(self.exp)
        cols = [[zero if v >= big else exp[(v - e) % n]
                 for v, e in zip(col, d)] for col in vals]
        return [None if e >= big else img for e, img in zip(d, zip(*cols))]


class PrimeField(_LogField):
    def __init__(self, q):
        if _prime_factors(q) != [q]:
            raise FieldError("%d is not prime" % q)
        self.q = q
        self.order = q
        self.zero = 0
        self.one = 1 % q
        self._build_logs()

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

    def _powers(self):
        """(exp, the 1 + g^i) for the least primitive root g."""
        q, n = self.q, self.q - 1
        g = next(g for g in range(1, q)
                 if all(pow(g, n // r, q) != 1 for r in _prime_factors(n)))
        exp = [pow(g, i, q) for i in range(n)]
        return exp, [(e + 1) % q for e in exp]

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
    tab, xs = {}, [(e,) for e in C.elements()]
    for (e,), v in zip(xs, C.values((((m,), 1),), xs)):
        tab.setdefault(v, []).append(e)
    return tab


def roots_of_unity(C, n):
    """The n-th roots of unity of C, in element order."""
    return _power_table(C, n).get(C.one, [])


def _least_primitive(base: PrimeField, k):
    """The monic degree-k f over F_q, first in the encoding sum c_i q^i of
    its low coefficients (c_0, ..., c_{k-1}), modulo which t has order
    q^k - 1.  Such an f is irreducible and t generates F_{q^k}^* (Lidl and
    Niederreiter, Finite Fields, section 3.1).  f(0) = 0 makes t a zero
    divisor, and a binomial t^k + c_0 with k > 1 gives t an order of at
    most k(q - 1), so neither is tested."""
    q, n, t = base.q, base.q ** k - 1, (0, 1)
    factors = _prime_factors(n)
    for code in range(q if k > 1 else 1, q ** k):
        f = tuple(code // q ** i % q for i in range(k)) + (1,)
        if (f[0] and polys.ppow_mod(base, t, n, f) == (1,)
                and all(polys.ppow_mod(base, t, n // r, f) != (1,)
                        for r in factors)):
            return f
    raise FieldError("no primitive modulus found (unreachable)")


def _prime_factors(n):
    """The distinct prime factors of n, ascending, by trial division
    ([] for n < 2, and [n] exactly when n is prime)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class ExtField(_LogField):
    """F_{q^k} as F_q[t]/(modulus); elements are length-k int tuples."""

    def __init__(self, base: PrimeField, k):
        if k < 1:
            raise FieldError("extension degree must be positive")
        self.base = base
        self.k = k
        self.q = base.q
        self.order = base.q ** k
        self.modulus = _least_primitive(base, k)
        self.zero = (0,) * k
        self.one = tuple([1 % base.q] + [0] * (k - 1))
        # red[i] = i mod q for -3q <= i < 3q, a C-level lookup per coefficient
        self._red = tuple(range(self.q)) * 3
        self._build_logs()

    def from_int(self, n):
        return tuple([n % self.q] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple(map(self._red.__getitem__, map(operator.add, a, b)))

    def sub(self, a, b):
        return tuple(map(self._red.__getitem__, map(operator.sub, a, b)))

    def neg(self, a):
        return tuple(map(self._red.__getitem__, map(operator.neg, a)))

    def _powers(self):
        """(exp, the 1 + t^i): t generates F_{q^k}^* modulo the modulus.
        t times (e_0, ..., e_{k-1}) is the shift (0, e_0, ..., e_{k-2})
        minus e_{k-1} times the modulus's low coefficients."""
        low, q, exp = self.modulus[:-1], self.q, [self.one]
        for _ in range(self.order - 2):
            e = exp[-1]
            top = e[-1]
            exp.append(tuple([(a - top * c) % q
                              for a, c in zip((0,) + e[:-1], low)]))
        return exp, [(self._red[e[0] + 1],) + e[1:] for e in exp]

    def mul(self, a, b):
        exp, log = self.exp, self.log
        try:
            i, j = log[a], log[b]
        except (KeyError, TypeError):
            raise self._not_element(a, b) from None
        if i is None or j is None:
            return self.zero
        # 0 <= i + j < 2n, so the index lies in [-n, n) and names t^(i+j)
        return exp[i + j - len(exp)]

    def inv(self, a):
        exp, log = self.exp, self.log
        try:
            i = log[a]
        except (KeyError, TypeError):
            raise self._not_element(a) from None
        if i is None:
            raise ZeroDivisionError("inverse of 0 in F_%d^%d" % (self.q, self.k))
        return exp[-i]  # t^(n - i), and exp[0] = one for i = 0

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
