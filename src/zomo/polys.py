"""Dense univariate polynomial arithmetic over a prime field F_p.

``F`` is a ``PrimeField``; only its characteristic ``F.q`` and ``F.inv`` are
read.  Polynomials are tuples of int coefficients in ascending degree with
no trailing zeros; () is the zero polynomial.  Every coefficient a primitive
computes is reduced into [0, p).

Products accumulate exact integer sums and reduce once, and products with
both factors of at least KRONECKER_MIN coefficients go through Kronecker
substitution, one big-integer product of the packed coefficient vectors
(von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4; Harvey,
arXiv:0712.4046).
"""

# Below this length on either factor the int schoolbook product is faster
# than packing, multiplying and unpacking big integers.
KRONECKER_MIN = 12


def _itrim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ptrim(F, coeffs):
    return _itrim(list(coeffs))


def pdeg(p):
    return len(p) - 1  # -1 for the zero polynomial


def padd(F, a, b):
    p = F.q
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out.extend(x % p for x in a[len(b):])
    return _itrim(out)


def pneg(F, a):
    p = F.q
    return tuple(-c % p for c in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    if min(len(a), len(b)) < KRONECKER_MIN:
        return _itrim(_school_mul(F.q, a, b))
    return _itrim(_kronecker_mul(F.q, a, b))


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


def peval(F, a, x):
    """a(x) in F_p, by Horner."""
    p = F.q
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def pscale(F, a, c):
    p = F.q
    return _itrim([x * c % p for x in a])


def pdivmod(F, a, b):
    """(quotient, remainder) by long division; each step reduces the len(b)
    coefficients it touches, the others keep their input values."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    p = F.q
    binv = F.inv(b[-1])
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


def pgcd(F, a, b):
    """The monic gcd, or () when both are zero."""
    while b:
        a, b = b, pmod(F, a, b)
    return pscale(F, a, F.inv(a[-1])) if a else a


def ppow_mod(F, a, e, mod):
    result = (1,)
    base = pmod(F, a, mod)
    while e:
        if e & 1:
            result = pmod(F, pmul(F, result, base), mod)
        base = pmod(F, pmul(F, base, base), mod)
        e >>= 1
    return result
