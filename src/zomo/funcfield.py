"""Function fields K(u)[v]/(m) with m monic in v, over finite constant fields.

An element sum_i c_i(u) v^i, i < n = deg_v(m), is stored as n numerator
polynomials in F_p[u] over one common monic denominator, in lowest terms, so
every operation runs on the int kernel of ``polys``.  The module also provides
endomorphisms given by coordinate images, valuations at nonsingular affine
points via power-series expansion, canonical serialization matching the
project's printed-equation style, and a small bivariate-polynomial helper.
"""

from dataclasses import dataclass

from . import ZomoError, polys


class FuncFieldError(ZomoError, ArithmeticError):
    pass


# --- bivariate polynomials over a constant field: dict {(i, j): c} meaning
# sum c * v^i * u^j, used for curve equations and identity checks.

def biv_trim(C, d):
    return {k: v for k, v in d.items() if v != C.zero}


def biv_add(C, a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = C.add(out.get(k, C.zero), v)
    return biv_trim(C, out)


def biv_mul(C, a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = C.add(out.get(k, C.zero), C.mul(c1, c2))
    return biv_trim(C, out)


def biv_neg(C, a):
    return {k: C.neg(v) for k, v in a.items()}


def biv_from_int_dict(C, d):
    return biv_trim(C, {k: C.from_int(v) for k, v in d.items()})


def biv_deriv(C, a, axis):
    """Partial derivative: axis 0 differentiates v, axis 1 differentiates u."""
    out = {}
    for (i, j), c in a.items():
        e = (i, j)[axis]
        if e == 0:
            continue
        k = (i - 1, j) if axis == 0 else (i, j - 1)
        out[k] = C.add(out.get(k, C.zero), C.mul(C.from_int(e), c))
    return biv_trim(C, out)


def _eval_monomials(C, monos, p):
    """sum of n * p[0]^e0 * p[1]^e1 * ... over the (exponents, n) pairs,
    each int n taken into C by ``from_int``."""
    acc = C.zero
    for exps, n in monos:
        term = C.from_int(n)
        for coord, e in zip(p, exps):
            for _ in range(e):
                term = C.mul(term, coord)
        acc = C.add(acc, term)
    return acc


def _rows(C, biv):
    """The rows of a bivariate by v-degree, as u-coefficient tuples."""
    rows = []
    for i in range(1 + max(vi for vi, _ in biv)):
        row = [C.zero] * (1 + max([j for (vi, j) in biv if vi == i], default=0))
        for (vi, j), c in biv.items():
            if vi == i:
                row[j] = c
        rows.append(tuple(row))
    return rows


class FunctionField:
    """K(u)[v]/(m(v, u)) with m monic in v.

    ``bivariate`` is {(i, j): int} for m = sum c v^i u^j; the constant field
    is a prime field object.  ``u_name``/``v_name`` only affect printing.
    ``modulus`` holds the rows m_0, ..., m_{n-1} of m below v^n, as F_p[u]
    polynomials: m is monic in v with polynomial coefficients, so
    v^n = -(m_0 + m_1 v + ... + m_{n-1} v^(n-1)) reduces without division.
    """

    def __init__(self, constants, bivariate, u_name="x", v_name="y"):
        self.constants = constants
        self.u_name = u_name
        self.v_name = v_name
        self.bivariate = biv_from_int_dict(constants, bivariate)
        rows = [polys.ptrim(constants, r)
                for r in _rows(constants, self.bivariate)]
        n = len(rows) - 1
        self.degree = n
        if rows[n] != (constants.one,):
            raise FuncFieldError("modulus must be monic in %s" % v_name)
        self.modulus = tuple(rows[:n])
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
                and other.bivariate == self.bivariate
                and other.u_name == self.u_name
                and other.v_name == self.v_name)

    def __hash__(self):
        return hash((self.constants, tuple(sorted(self.bivariate.items())),
                     self.u_name, self.v_name))

    def __repr__(self):
        return "FunctionField(%r, %s, %s)" % (self.constants, self.u_name,
                                              self.v_name)


def _reduce(field, nums):
    """nums (a list of any length) reduced mod m to exactly n entries, by
    v^n = -(m_0 + ... + m_{n-1} v^(n-1)) from the top term down."""
    F = field.constants
    n = field.degree
    nums = nums + [()] * (n - len(nums))
    for k in range(len(nums) - 1, n - 1, -1):
        c = nums.pop()
        if c:
            for i, m_i in enumerate(field.modulus, k - n):
                if m_i:
                    nums[i] = polys.psub(F, nums[i], polys.pmul(F, c, m_i))
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


@dataclass(frozen=True)
class RatFunc:
    """One coefficient of an FFElem in lowest terms, den monic."""
    num: tuple
    den: tuple

    def is_zero(self):
        return not self.num


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
        prod = [()] * (2 * self.field.degree - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums, i):
                    if y:
                        prod[j] = polys.padd(F, prod[j], polys.pmul(F, x, y))
        return _canonical(self.field, _reduce(self.field, prod),
                          polys.pmul(F, self.den, other.den))

    def _constants(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise FuncFieldError("operands from different function fields")
        return self.field.constants

    def inverse(self):
        """With N = sum nums[i] v^i and M the matrix of multiplication by
        N, the inverse is den * X / D: fraction-free (Bareiss) elimination
        of M X = D e_0 over F_p[u] gives D = +-det M as its last pivot and
        the polynomial solution X, so no step leaves F_p[u]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero function-field element")
        field = self.field
        F, n = field.constants, field.degree
        # column j holds the numerators of (sum nums[i] v^i) * v^j
        cols = [list(self.nums)]
        for _ in range(n - 1):
            cols.append(_reduce(field, [()] + cols[-1]))
        rows = [[cols[j][i] for j in range(n)] + [(1,) if i == 0 else ()]
                for i in range(n)]
        prev = (1,)
        for k in range(n):
            r = next((r for r in range(k, n) if rows[r][k]), None)
            if r is None:
                raise FuncFieldError("modulus reducible: %r is a zero "
                                     "divisor" % (self,))
            rows[k], rows[r] = rows[r], rows[k]
            pivot = rows[k]
            for row in rows[k + 1:]:
                c = row[k]
                row[k] = ()
                for j in range(k + 1, n + 1):
                    t = polys.psub(F, polys.pmul(F, pivot[k], row[j]),
                                   polys.pmul(F, c, pivot[j]))
                    row[j] = polys.pdivmod(F, t, prev)[0]
            prev = pivot[k]
        X = [()] * n
        for i in range(n - 1, -1, -1):
            t = polys.pmul(F, prev, rows[i][n])
            for j in range(i + 1, n):
                t = polys.psub(F, t, polys.pmul(F, rows[i][j], X[j]))
            X[i] = polys.pdivmod(F, t, rows[i][i])[0]
        return _canonical(field, [polys.pmul(F, self.den, x) for x in X],
                          prev)

    def __truediv__(self, other):
        return self * other.inverse()

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

    @property
    def coeffs(self):
        """The coefficient of each v^i as a RatFunc in lowest terms."""
        F = self.field.constants
        out = []
        for num in self.nums:
            g = polys.pgcd(F, num, self.den)
            out.append(RatFunc(polys.pdivmod(F, num, g)[0],
                               polys.pdivmod(F, self.den, g)[0]))
        return tuple(out)


@dataclass(frozen=True)
class Endo:
    """Endomorphism of a function field, by images of (u, v)."""
    field: FunctionField
    u_image: FFElem
    v_image: FFElem

    def __post_init__(self):
        acc = self.field.zero
        for (i, j), c in self.field.bivariate.items():
            term = self.field.from_int(c) * (self.v_image ** i) * (self.u_image ** j)
            acc = acc + term
        if not acc.is_zero():
            raise FuncFieldError("images do not satisfy the field relation")

    def compose(self, other):
        """self after other: apply other's substitution to self's images."""
        return Endo(self.field, apply_endo(other, self.u_image),
                    apply_endo(other, self.v_image))


def apply_endo(e: Endo, f: FFElem) -> FFElem:
    """f(u_image, v_image): the numerators by Horner in v_image, over the
    denominator evaluated at u_image."""
    num = e.field.zero
    for poly in reversed(f.nums):
        num = num * e.v_image + _eval_poly_at(e.field, poly, e.u_image)
    return num / _eval_poly_at(e.field, f.den, e.u_image)


def _eval_poly_at(field, poly, x):
    acc = field.zero
    for c in reversed(poly):
        acc = acc * x + field.from_int(c)
    return acc


# --- power-series valuation at a nonsingular affine point ------------------

def _s_add(C, a, b):
    return [C.add(x, y) for x, y in zip(a, b)]


def _s_mul(C, a, b, prec):
    out = [C.zero] * prec
    for i, x in enumerate(a):
        if x == C.zero or i >= prec:
            continue
        for j, y in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] = C.add(out[i + j], C.mul(x, y))
    return out


def _s_inv(C, a, prec):
    if a[0] == C.zero:
        raise FuncFieldError("series inversion needs a unit")
    inv0 = C.inv(a[0])
    out = [C.zero] * prec
    out[0] = inv0
    for n in range(1, prec):
        acc = C.zero
        for i in range(1, n + 1):
            if i < len(a):
                acc = C.add(acc, C.mul(a[i], out[n - i]))
        out[n] = C.neg(C.mul(inv0, acc))
    return out


def _s_eval_poly(C, poly, series, prec):
    acc = [C.zero] * prec
    for c in reversed(poly):
        acc = _s_mul(C, acc, series, prec)
        acc[0] = C.add(acc[0], c)
    return acc


def _s_ord(C, a):
    for i, c in enumerate(a):
        if c != C.zero:
            return i
    return None


def _expand_point(field, u_val, v_val, prec):
    """Series (U(s), V(s)) for the branch at a nonsingular affine point,
    with coefficients in the field's constants.

    The local parameter s is u - u_val when dm/dv is nonzero at the point,
    and v is solved for by Newton's method on the rows of m by v-degree.
    Otherwise s is v - v_val: the same solve runs on m with u and v
    exchanged, and the pair comes back swapped.
    """
    C = field.constants
    biv = field.bivariate
    at = (v_val, u_val)
    if _eval_monomials(C, biv.items(), at) != C.zero:
        raise FuncFieldError("point is not on the curve")
    dv_p = _eval_monomials(C, biv_deriv(C, biv, 0).items(), at)
    du_p = _eval_monomials(C, biv_deriv(C, biv, 1).items(), at)
    if dv_p == C.zero and du_p == C.zero:
        raise FuncFieldError("singular point")
    swap = dv_p == C.zero
    if swap:
        biv = {(j, i): c for (i, j), c in biv.items()}
        u_val, v_val = v_val, u_val
    rows = _rows(C, biv)
    # u = u_val + s, solve for v by Newton from v_val
    U = [C.zero] * prec
    U[0] = u_val
    if prec > 1:
        U[1] = C.one
    V = [C.zero] * prec
    V[0] = v_val
    row_series = [_s_eval_poly(C, r, U, prec) for r in rows]
    for _ in range(prec.bit_length() + 2):
        mval = _horner_series(C, row_series, V, prec)
        if all(c == C.zero for c in mval):
            break
        mder = _horner_series(C, [
            _s_mul(C, [C.from_int(i)] + [C.zero] * (prec - 1),
                   row_series[i], prec)
            for i in range(1, len(rows))], V, prec)
        V = [C.sub(a, b) for a, b in
             zip(V, _s_mul(C, mval, _s_inv(C, mder, prec), prec))]
    return (V, U) if swap else (U, V)


def _horner_series(C, coeff_series, X, prec):
    acc = [C.zero] * prec
    for cs in reversed(coeff_series):
        acc = _s_mul(C, acc, X, prec)
        acc = _s_add(C, acc, cs)
    return acc


def valuation_at(f: FFElem, u_val, v_val):
    """Order of f at the place over the nonsingular affine point (u, v),
    whose coordinates lie in the function field's constants.  The series
    precision starts at 64 and doubles up to 512 when leading-term
    cancellation eats the series.
    """
    if f.is_zero():
        raise FuncFieldError("valuation of the zero function")
    field = f.field
    C = field.constants
    prec = 64
    while prec <= 512:
        U, V = _expand_point(field, u_val, v_val, prec)
        num = _horner_series(C, [_s_eval_poly(C, c, U, prec)
                                 for c in f.nums], V, prec)
        onum = _s_ord(C, num)
        oden = _s_ord(C, _s_eval_poly(C, f.den, U, prec))
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


def ratfunc_str(r: RatFunc, var):
    num = poly_str(r.num, var)
    if r.den == (1,):
        return num
    return "(%s)/(%s)" % (num, poly_str(r.den, var))


def ffelem_str(f: FFElem):
    """Canonical display: terms in descending powers of the algebraic
    generator, each rational-function coefficient in lowest terms and
    parenthesized."""
    field = f.field
    parts = []
    for i, c in reversed(list(enumerate(f.coeffs))):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(ratfunc_str(c, field.u_name))
            continue
        vterm = field.v_name if i == 1 else "%s^%d" % (field.v_name, i)
        if c == RatFunc((1,), (1,)):
            parts.append(vterm)
        elif c.den == (1,) and len([t for t in c.num if t != 0]) == 1:
            parts.append("%s%s" % (poly_str(c.num, field.u_name), vterm))
        else:
            num = poly_str(c.num, field.u_name)
            if c.den == (1,):
                parts.append("(%s)%s" % (num, vterm))
            else:
                parts.append("(%s)/(%s)%s"
                             % (num, poly_str(c.den, field.u_name), vterm))
    return " + ".join(parts) if parts else "0"


def lemma_factorization_check(C):
    """The cubic identity behind the rational-point argument, over C:
    (a^3 - 3a - 1)(b^2 + b) - (a^2 + a)(b^3 - 3b - 1)
      = (a - b)(ab + b + 1)(ab + a + 1)."""
    d = biv_from_int_dict
    lhs = biv_add(C,
                  biv_mul(C, d(C, {(3, 0): 1, (1, 0): -3, (0, 0): -1}),
                          d(C, {(0, 2): 1, (0, 1): 1})),
                  biv_neg(C, biv_mul(C, d(C, {(2, 0): 1, (1, 0): 1}),
                                     d(C, {(0, 3): 1, (0, 1): -3, (0, 0): -1}))))
    rhs = biv_mul(C, biv_mul(C, d(C, {(1, 0): 1, (0, 1): -1}),
                             d(C, {(1, 1): 1, (0, 1): 1, (0, 0): 1})),
                  d(C, {(1, 1): 1, (1, 0): 1, (0, 0): 1}))
    return lhs == rhs
