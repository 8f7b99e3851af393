"""Dense univariate polynomial arithmetic over a field object.

A field object F provides: F.zero, F.one, add, sub, mul, neg, inv,
from_int(n), and structural equality of elements.  Polynomials are tuples of
coefficients in ascending degree with no trailing zeros; () is the zero
polynomial.

Two kinds of coefficient field reach this module.  Over a ``PrimeField`` the
coefficients are ints, and the primitives run on int lists: products
accumulate exact integer sums and reduce once, and products with both
factors of at least KRONECKER_MIN coefficients go through Kronecker
substitution, one big-integer product of the packed coefficient vectors
(von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4; Harvey,
arXiv:0712.4046).  Every other field (in practice ``RatFuncField``) runs the
generic loops through the field's methods.  Both paths return the same
tuples: every coefficient a primitive computes is reduced, exactly as the
field methods reduce it.
"""

from . import field  # imports polys in turn; PrimeField is read at call time

# Below this length on either factor the int schoolbook product is faster
# than packing, multiplying and unpacking big integers.
KRONECKER_MIN = 12


def _prime(F):
    """The characteristic when F is a prime field, else 0."""
    return F.q if type(F) is field.PrimeField else 0


def _itrim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ptrim(F, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == F.zero:
        coeffs.pop()
    return tuple(coeffs)


def pdeg(p):
    return len(p) - 1  # -1 for the zero polynomial


def padd(F, a, b):
    p = _prime(F)
    if p:
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out.extend(x % p for x in a[len(b):])
        return _itrim(out)
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.add(x, y))
    return ptrim(F, out)


def pneg(F, a):
    p = _prime(F)
    if p:
        return tuple(-c % p for c in a)
    return tuple(F.neg(c) for c in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    p = _prime(F)
    if p:
        if min(len(a), len(b)) < KRONECKER_MIN:
            return _itrim(_school_mul(p, a, b))
        return _itrim(_kronecker_mul(p, a, b))
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(F, out)


def _school_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [c % p for c in out]


def _kronecker_mul(p, a, b):
    """a*b mod p by evaluating both at 2^(8w) for a slot width w that holds
    every coefficient of the exact integer product."""
    a = [c % p for c in a]
    b = [c % p for c in b]
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    prod = _pack(a, w) * _pack(b, w)
    buf = prod.to_bytes(n * w, "little")
    return [int.from_bytes(buf[i:i + w], "little") % p
            for i in range(0, n * w, w)]


def _pack(coeffs, w):
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs),
                          "little")


def pscale(F, a, c):
    if c == F.zero:
        return ()
    p = _prime(F)
    if p:
        return _itrim([x * c % p for x in a])
    return ptrim(F, [F.mul(x, c) for x in a])


def pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = F.inv(b[-1])
    p = _prime(F)
    if p:
        return _idivmod(p, a, b, binv)
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and any(c != F.zero for c in r):
        while r and r[-1] == F.zero:
            r.pop()
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = F.mul(r[-1], binv)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] = F.sub(r[k + i], F.mul(c, bc))
    return ptrim(F, q), ptrim(F, r)


def _idivmod(p, a, b, binv):
    """The generic long division step for step on ints: each step reduces
    the len(b) coefficients it touches, the others keep their input
    values."""
    lb = len(b)
    q = [0] * max(len(a) - lb + 1, 0)
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        k = len(r) - lb
        if k < 0:
            break
        c = r[-1] * binv % p
        q[k] = c
        r[k:] = [(x - c * y) % p for x, y in zip(r[k:], b)]
    return _itrim(q), _itrim(r)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pmonic(F, a):
    if not a:
        return a
    return pscale(F, a, F.inv(a[-1]))


def pgcd(F, a, b):
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def pxgcd(F, a, b):
    """(g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = a, b
    u0, u1 = (F.one,), ()
    v0, v1 = (), (F.one,)
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(F, u0, pmul(F, q, u1))
        v0, v1 = v1, psub(F, v0, pmul(F, q, v1))
    if r0:
        c = F.inv(r0[-1])
        r0, u0, v0 = pscale(F, r0, c), pscale(F, u0, c), pscale(F, v0, c)
    return r0, u0, v0


def ppow_mod(F, a, e, mod):
    result = (F.one,)
    base = pmod(F, a, mod)
    while e:
        if e & 1:
            result = pmod(F, pmul(F, result, base), mod)
        base = pmod(F, pmul(F, base, base), mod)
        e >>= 1
    return result
