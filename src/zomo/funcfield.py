"""Function fields K(u)[v]/(v^n + m0(u)) over finite prime fields.

Each is a cyclic Kummer extension of K(u): n divides p - 1, so v -> zeta v
for a primitive n-th root of unity zeta is an automorphism of order n.  An
element sum_i c_i(u) v^i, i < n, is stored as n numerator polynomials in
F_p[u] over one common monic denominator, in lowest terms, so every
operation runs on the int kernel of ``polys``; an inverse is the product of
the other conjugates over the norm.  A quotient, a Horner evaluation and a
product tree (``kummer.build_w``) run on raw numerator vectors and take the
canonical form once, at the end: the form is unique, so only the last one
matters.  ``_mul_nums`` multiplies numerator vectors as one F_p[u]
product, each row at a u-stride that keeps the product rows apart.  The
module also provides endomorphisms given by coordinate images, valuations
at nonsingular affine points via power-series expansion, and canonical
serialization matching the project's printed-equation style.  Curve
equations are sorted ((i, j), c) monomial tuples, the form
``curves.PlaneCurve`` uses, and the power series of a valuation are F_p[s]
polynomials of ``polys`` truncated below s^prec.
"""

from dataclasses import dataclass

from . import ZomoError, polys


class FuncFieldError(ZomoError, ArithmeticError):
    pass


def _partial(monos, axis):
    """The derivative in variable ``axis`` of the sorted (exponents, n)
    pairs, as sorted pairs with int coefficients."""
    out = {}
    for exps, n in monos:
        e = exps[axis]
        if e:
            key = exps[:axis] + (e - 1,) + exps[axis + 1:]
            out[key] = out.get(key, 0) + e * n
    return tuple(sorted((k, n) for k, n in out.items() if n))


def _rows(monos):
    """The rows of m by v-degree: row i holds the F_p[u] coefficient of v^i
    (trimmed, since every coefficient of ``monos`` is nonzero)."""
    rows = [[] for _ in range(1 + max((i for (i, _), _ in monos), default=0))]
    for (i, j), c in monos:
        row = rows[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return [tuple(row) for row in rows]


class FunctionField:
    """K(u)[v]/(m), m = v^n + m0(u) with n dividing p - 1.

    ``equation`` is {(i, j): int} for m = sum c v^i u^j; the constant field
    is a prime field object.  ``u_name``/``v_name`` only affect printing.
    ``monomials`` holds m as sorted ((i, j), c) pairs with c in [1, p), the
    form of ``PlaneCurve.coeffs``; ``m0`` is the F_p[u] polynomial m0 and
    ``zeta`` the primitive n-th root of unity g^((p-1)/n), g the least
    primitive root.  v -> zeta v keeps m, so it fixes the norm of f, the
    product of the conjugates f(u, zeta^j v), which thus lies in K(u).
    """

    def __init__(self, constants, equation, u_name="x", v_name="y"):
        self.constants = constants
        self.u_name = u_name
        self.v_name = v_name
        p = constants.q
        self.monomials = tuple(sorted((k, c % p) for k, c in equation.items()
                                      if c % p))
        rows = _rows(self.monomials)
        n = len(rows) - 1
        if n < 1 or rows[n] != (1,) or any(rows[1:n]):
            raise FuncFieldError("equation must be %s^n + m0(%s) with n >= 1"
                                 % (v_name, u_name))
        if (p - 1) % n:
            raise FuncFieldError("F_%d has no primitive %d-th root of unity"
                                 % (p, n))
        self.degree = n
        self.m0 = rows[0]
        self.zeta = constants.exp[(p - 1) // n % (p - 1)]
        self.zero = FFElem(self, ((),) * n, (1,))
        self.one = self.scalar((1,))

    # -- element constructors

    def elem(self, nums, den=(1,)):
        """sum nums[i] v^i / den for F_p[u] polynomials nums and den, in any
        number of terms; reduced mod m and put in canonical form."""
        F = self.constants
        nums = [polys.ptrim(F, [c % F.q for c in num]) for num in nums]
        den = polys.ptrim(F, [c % F.q for c in den])
        return _canonical(self, _reduce(self, nums), den)

    def v(self):
        """The algebraic generator."""
        return self.elem(((), (1,)))

    def u(self):
        """The transcendental generator as a field element."""
        return self.scalar((0, 1))

    def scalar(self, num, den=(1,)):
        """The element num(u)/den(u) of K(u)."""
        return self.elem((num,), den)

    def from_int(self, n):
        return self.scalar((n,))

    def __eq__(self, other):
        return (isinstance(other, FunctionField)
                and other.constants == self.constants
                and other.monomials == self.monomials
                and other.u_name == self.u_name
                and other.v_name == self.v_name)

    def __hash__(self):
        return hash((self.constants, self.monomials, self.u_name,
                     self.v_name))

    def __repr__(self):
        return "FunctionField(%r, %s, %s)" % (self.constants, self.u_name,
                                              self.v_name)


def _reduce(field, nums):
    """nums (a list of any length) reduced mod m to exactly n entries, by
    v^n = -m0 from the top term down."""
    F, n, m0 = field.constants, field.degree, field.m0
    nums = nums + [()] * (n - len(nums))
    for k in range(len(nums) - 1, n - 1, -1):
        c = nums.pop()
        if c:
            nums[k - n] = polys.psub(F, nums[k - n], polys.pmul(F, c, m0))
    return nums


def _canonical(field, nums, den):
    """The element sum nums[i] v^i / den with the common factor of den and
    every numerator cancelled and den made monic."""
    F = field.constants
    if not den:
        raise ZeroDivisionError("zero denominator in %r" % (field,))
    if not any(nums):
        return field.zero
    g = den
    for num in nums:
        if len(g) == 1:
            break
        if num:
            g = polys.pgcd(F, g, num)
    if len(g) > 1:
        nums = [polys.pdivmod(F, num, g)[0] for num in nums]
        den = polys.pdivmod(F, den, g)[0]
    if den[-1] != 1:
        c = F.inv(den[-1])
        nums = [polys.pscale(F, num, c) for num in nums]
        den = polys.pscale(F, den, c)
    return FFElem(field, tuple(nums), den)


def _mul_nums(field, xs, ys):
    """The numerators of (sum xs[i] v^i)(sum ys[j] v^j), reduced mod m.
    The nonzero v-range of each side is laid out as one F_p[u] vector with
    its rows at u-stride D = lx + ly - 1; a row product has at most D
    coefficients, so one ``polys.pmul`` gives every product row, side by
    side.  One nonzero row on each side, as in most X0 (n = 9) products,
    needs no layout."""
    F = field.constants
    rx = [i for i, x in enumerate(xs) if x]
    ry = [j for j, y in enumerate(ys) if y]
    if not rx or not ry:
        return [()] * field.degree
    if len(rx) == len(ry) == 1:
        rows = [polys.pmul(F, xs[rx[0]], ys[ry[0]])]
    else:
        D = max(map(len, xs)) + max(map(len, ys)) - 1
        flat = polys.pmul(F, _flatten(xs, rx, D), _flatten(ys, ry, D))
        rows = [polys.ptrim(F, flat[k:k + D])
                for k in range(0, len(flat), D)]
    return _reduce(field, [()] * (rx[0] + ry[0]) + rows)


def _flatten(nums, rows, D):
    """Rows rows[0]..rows[-1] of nums as one vector, row i at u-offset
    (i - rows[0]) D."""
    flat = []
    for i in rows:
        flat += [0] * ((i - rows[0]) * D - len(flat))
        flat += nums[i]
    return flat


@dataclass(frozen=True)
class FFElem:
    """sum nums[i] v^i / den: n numerators in F_p[u] over one monic
    denominator that has no common factor with all of them, so two FFElems
    are equal exactly when they are the same function."""
    field: FunctionField
    nums: tuple
    den: tuple

    def __add__(self, other):
        F = self._constants(other)
        a, b = self.den, other.den
        if a == b:
            nums = [polys.padd(F, x, y) for x, y in zip(self.nums, other.nums)]
        else:
            nums = [polys.padd(F, polys.pmul(F, x, b), polys.pmul(F, y, a))
                    for x, y in zip(self.nums, other.nums)]
            a = polys.pmul(F, a, b)
        return _canonical(self.field, nums, a)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field.constants
        return FFElem(self.field, tuple(polys.pneg(F, x) for x in self.nums),
                      self.den)

    def __mul__(self, other):
        F = self._constants(other)
        return _canonical(self.field, _mul_nums(self.field, self.nums,
                                                other.nums),
                          polys.pmul(F, self.den, other.den))

    def scale(self, c):
        """c * self for a nonzero constant c of F_p: the numerators scale
        and the denominator stays, so the form stays in lowest terms."""
        F = self.field.constants
        return FFElem(self.field, tuple(polys.pscale(F, x, c)
                                        for x in self.nums), self.den)

    def scale_u(self, c):
        """self(c u, v) for a nonzero constant c: the coefficients of u^k
        scale by c^(k - deg den), so den stays monic; the pullback under
        (u, v) -> (c u, v) when that keeps the relation (c^3 = 1 on Hesse)."""
        q, d = self.field.constants.q, len(self.den) - 1
        den, *nums = [tuple(a * pow(c, k - d, q) % q for k, a in enumerate(p))
                      for p in (self.den,) + self.nums]
        return FFElem(self.field, tuple(nums), den)

    def scale_v(self, c):
        """self(u, c v) for a nonzero constant c: the numerator of v^i
        scales by c^i and the denominator stays, so the form stays in
        lowest terms; the pullback under (u, v) -> (u, c v) when c^n = 1."""
        F = self.field.constants
        return FFElem(self.field, tuple(polys.pscale(F, x, pow(c, i, F.q))
                                        for i, x in enumerate(self.nums)),
                      self.den)

    def _constants(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise FuncFieldError("operands from different function fields")
        return self.field.constants

    def inverse(self):
        return self.field.one / self

    def __truediv__(self, other):
        """With P = sum other.nums[i] v^i, so that other = P / other.den,
        and G the product of the conjugates P(u, zeta^j v), 0 < j < n: the
        norm N = P G is fixed by v -> zeta v, so it lies in F_p[u], and the
        quotient is (nums other.den G) / (den N), in one canonical form.
        N = 0 makes other a zero divisor, which only a reducible m allows."""
        F = self._constants(other)
        if other.is_zero():
            raise ZeroDivisionError("inverse of zero function-field element")
        field = self.field
        G = field.one.nums
        for j in range(1, field.degree):
            conjugate = other.scale_v(pow(field.zeta, j, F.q))
            G = _mul_nums(field, G, conjugate.nums)
        norm = _mul_nums(field, other.nums, G)[0]
        if not norm:
            raise FuncFieldError("modulus reducible: %r is a zero divisor"
                                 % (other,))
        return _canonical(field, [polys.pmul(F, x, other.den)
                                  for x in _mul_nums(field, self.nums, G)],
                          polys.pmul(F, self.den, norm))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self):
        return not any(self.nums)


@dataclass(frozen=True)
class Endo:
    """Endomorphism of a function field, by images of (u, v)."""
    field: FunctionField
    u_image: FFElem
    v_image: FFElem

    def __post_init__(self):
        """v_image^n + m0(u_image) = 0, tested as V D + M d^n = 0 on the
        numerators, with v_image = X/d, V the numerators of X^n (left to
        right binary powering) and m0(u_image) = M/D: no canonical form is
        taken for the power."""
        field, v = self.field, self.v_image
        F = field.constants
        vn, dn = v.nums, v.den
        for bit in bin(field.degree)[3:]:
            vn, dn = _mul_nums(field, vn, vn), polys.pmul(F, dn, dn)
            if bit == "1":
                vn = _mul_nums(field, vn, v.nums)
                dn = polys.pmul(F, dn, v.den)
        m0 = _eval_poly_at(field, field.m0, self.u_image)
        if any(polys.padd(F, polys.pmul(F, x, m0.den), polys.pmul(F, y, dn))
               for x, y in zip(vn, m0.nums)):
            raise FuncFieldError("images do not satisfy the field relation")

    def compose(self, other):
        """self after other: apply other's substitution to self's images."""
        return Endo(self.field, apply_endo(other, self.u_image),
                    apply_endo(other, self.v_image))


def apply_endo(e: Endo, f: FFElem) -> FFElem:
    """f(u_image, v_image)."""
    num, den = _substitute(e, f)
    return num / den


def _substitute(e: Endo, f: FFElem):
    """(N, D) with f(u_image, v_image) = N / D and no inverse taken: N is
    the numerators by Horner in v_image from the highest nonzero one, D the
    denominator at u_image."""
    field, nums = e.field, f.nums
    top = max((i for i, poly in enumerate(nums) if poly), default=0)
    num = _eval_poly_at(field, nums[top], e.u_image)
    for poly in reversed(nums[:top]):
        num = num * e.v_image + _eval_poly_at(field, poly, e.u_image)
    return num, _eval_poly_at(field, f.den, e.u_image)


def _eval_poly_at(field, poly, x):
    """poly(x) for an F_p[u] polynomial poly and x = X/d in the field: with
    k = deg poly, Horner's rule A <- A X + c_i d^(k-i) runs on the numerator
    vectors alone, and A/d^k is put in canonical form once."""
    F = field.constants
    if not poly:
        return field.zero
    d = x.den
    acc = [(poly[-1],)] + [()] * (field.degree - 1)
    dpow = (1,)
    for c in reversed(poly[:-1]):
        acc = _mul_nums(field, acc, x.nums)
        dpow = polys.pmul(F, dpow, d)
        acc[0] = polys.padd(F, acc[0], polys.pscale(F, dpow, c))
    return _canonical(field, acc, dpow)


# --- power-series valuation at a nonsingular affine point ------------------
#
# A series is an F_p[s] polynomial of ``polys`` (an int tuple) truncated
# below s^prec.

def _series_mul(F, a, b, prec):
    return polys.ptrim(F, polys.pmul(F, a, b)[:prec])


def _series_inv(F, a, prec):
    """1/a mod s^prec by Newton's iteration b <- b(2 - ab), which doubles
    the number of correct coefficients at each step."""
    if not a or a[0] == 0:
        raise FuncFieldError("series inversion needs a unit")
    b, n = (F.inv(a[0]),), 1
    while n < prec:
        n = min(2 * n, prec)
        ab = _series_mul(F, a[:n], b, n)
        b = _series_mul(F, b, polys.psub(F, (2,), ab), n)
    return b


def _horner(F, coeffs, x, prec):
    """sum coeffs[i] x^i mod s^prec for series coeffs[i] and x; an F_p[u]
    polynomial c goes in as the constant series [(c_0,), (c_1,), ...]."""
    acc = ()
    for c in reversed(coeffs):
        acc = polys.padd(F, _series_mul(F, acc, x, prec), c)
    return acc


def _order(a):
    """The s-adic order of a series, None for the zero series."""
    return next((i for i, c in enumerate(a) if c), None)


def _expand_point(field, u_val, v_val, prec):
    """Series (U(s), V(s)) mod s^prec for the branch at a nonsingular
    affine point.

    The local parameter s is u - u_val when dm/dv is nonzero at the point,
    and v is solved for by Newton's method on the rows of m by v-degree.
    Otherwise s is v - v_val: the same solve runs on m with u and v
    exchanged, and the pair comes back swapped.
    """
    F = field.constants
    monos = field.monomials
    at = (v_val, u_val)
    if F.eval_monomials(monos, at) != 0:
        raise FuncFieldError("point is not on the curve")
    dv_p = F.eval_monomials(_partial(monos, 0), at)
    du_p = F.eval_monomials(_partial(monos, 1), at)
    if dv_p == 0 and du_p == 0:
        raise FuncFieldError("singular point")
    swap = dv_p == 0
    if swap:
        monos = tuple(((j, i), c) for (i, j), c in monos)
        u_val, v_val = v_val, u_val
    # u = u_val + s, solve for v by Newton from v_val
    U = polys.ptrim(F, (u_val % F.q, 1)[:prec])
    V = polys.ptrim(F, (v_val % F.q,))
    row_series = [_horner(F, [(c,) for c in r], U, prec)
                  for r in _rows(monos)]
    dm_dv = [polys.pscale(F, r, i) for i, r in enumerate(row_series)][1:]
    for _ in range(prec.bit_length() + 2):
        mval = _horner(F, row_series, V, prec)
        if not mval:
            break
        mder = _horner(F, dm_dv, V, prec)
        V = polys.psub(F, V, _series_mul(F, mval,
                                         _series_inv(F, mder, prec), prec))
    return (V, U) if swap else (U, V)


def valuation_at(f: FFElem, u_val, v_val):
    """Order of f at the place over the nonsingular affine point (u, v),
    whose coordinates lie in the function field's constants.  The series
    precision starts at 64 and doubles up to 512 when leading-term
    cancellation eats the series.
    """
    if f.is_zero():
        raise FuncFieldError("valuation of the zero function")
    F = f.field.constants
    prec = 64
    while prec <= 512:
        U, V = _expand_point(f.field, u_val, v_val, prec)
        num = _horner(F, [_horner(F, [(c,) for c in poly], U, prec)
                          for poly in f.nums], V, prec)
        onum = _order(num)
        oden = _order(_horner(F, [(c,) for c in f.den], U, prec))
        if onum is not None and oden is not None:
            return onum - oden
        prec *= 2
    raise FuncFieldError("precision exhausted computing valuation")


# --- canonical serialization ------------------------------------------------

def poly_str(poly, var):
    """Descending powers, least nonnegative coefficients: 'y^6 + y^3 + 1'."""
    if not poly:
        return "0"
    parts = []
    for i in range(len(poly) - 1, -1, -1):
        c = poly[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append("%s%s" % (head, var if i == 1 else "%s^%d" % (var, i)))
    return " + ".join(parts)


def ffelem_str(f: FFElem):
    """Canonical display: terms in descending powers of the algebraic
    generator, each rational-function coefficient num/den in lowest terms
    and parenthesized."""
    return scaled_str(f)(1)


def scaled_str(f: FFElem):
    """c -> ffelem_str(c f) for nonzero constants c of F_p: each coefficient
    num/den of f is put in lowest terms once, as c num has num's gcd."""
    field = f.field
    F, u = field.constants, field.u_name
    terms = []
    for i, num in reversed(list(enumerate(f.nums))):
        if num:
            g = polys.pgcd(F, num, f.den)
            den = polys.pdivmod(F, f.den, g)[0]
            terms.append((i, polys.pdivmod(F, num, g)[0],
                          den != (1,) and poly_str(den, u)))

    def show(c):
        parts = []
        for i, num, den_str in terms:
            num = polys.pscale(F, num, c)
            coeff = poly_str(num, u)
            if den_str:
                coeff = "(%s)/(%s)" % (coeff, den_str)
            if i:
                if not den_str and sum(1 for x in num if x) > 1:
                    coeff = "(%s)" % coeff
                elif coeff == "1":
                    coeff = ""
                coeff += (field.v_name if i == 1
                          else "%s^%d" % (field.v_name, i))
            parts.append(coeff)
        return " + ".join(parts) if parts else "0"
    return show


def lemma_factorization_check(F):
    """The cubic identity behind the rational-point argument, in F_p[a, b]:
    (a^3 - 3a - 1)(b^2 + b) - (a^2 + a)(b^3 - 3b - 1)
      = (a - b)(ab + b + 1)(ab + a + 1).
    Both sides are compared in F_p[a] under b = a^8, a ring map that is
    one-to-one on polynomials of a-degree below 8; both sides have
    a-degree 3, so the check is the exact identity."""
    def sub(monos):
        """sum n a^i b^j over {(i, j): n}, under b = a^8."""
        out = [0] * (1 + max(i + 8 * j for i, j in monos))
        for (i, j), n in monos.items():
            out[i + 8 * j] += n
        return polys.ptrim(F, [c % F.q for c in out])

    def mul(a, b):
        return polys.pmul(F, sub(a), sub(b))

    lhs = polys.psub(F, mul({(3, 0): 1, (1, 0): -3, (0, 0): -1},
                            {(0, 2): 1, (0, 1): 1}),
                     mul({(2, 0): 1, (1, 0): 1},
                         {(0, 3): 1, (0, 1): -3, (0, 0): -1}))
    rhs = polys.pmul(F, mul({(1, 0): 1, (0, 1): -1},
                            {(1, 1): 1, (0, 1): 1, (0, 0): 1}),
                     sub({(1, 1): 1, (1, 0): 1, (0, 0): 1}))
    return lhs == rhs
