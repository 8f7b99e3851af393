"""Function fields K(u)[v]/(m) with m monic in v, over finite constant fields.

Elements are vectors of rational functions in the transcendental variable u,
representing sum_i c_i(u) v^i with i < deg_v(m).  The module also provides
endomorphisms given by coordinate images, valuations at nonsingular affine
points via power-series expansion, canonical serialization matching the
project's printed-equation style, and a small bivariate-polynomial helper.
"""

from dataclasses import dataclass

from . import ZomoError, polys
from .field import RatFunc, RatFuncField


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
    """

    def __init__(self, constants, bivariate, u_name="x", v_name="y"):
        self.constants = constants
        self.u_name = u_name
        self.v_name = v_name
        self.K = RatFuncField(constants, u_name)
        self.bivariate = biv_from_int_dict(constants, bivariate)
        coeffs = [self.K.make(row) for row in _rows(constants, self.bivariate)]
        n = len(coeffs) - 1
        self.degree = n
        if coeffs[n] != self.K.one:
            raise FuncFieldError("modulus must be monic in %s" % v_name)
        self.modulus = tuple(coeffs)
        self.zero = FFElem(self, ((self.K.zero,) * n))
        self.one = FFElem(self, (self.K.one,) + (self.K.zero,) * (n - 1))

    # -- element constructors

    def elem(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) > self.degree:
            F = self.K
            red = polys.pmod(F, polys.ptrim(F, coeffs), polys.ptrim(F, self.modulus))
            coeffs = red
        coeffs = tuple(coeffs) + (self.K.zero,) * (self.degree - len(coeffs))
        return FFElem(self, coeffs)

    def v(self):
        """The algebraic generator."""
        return self.elem((self.K.zero, self.K.one))

    def u(self):
        """The transcendental generator as a field element."""
        return self.elem((self.K.x(),))

    def scalar(self, ratfunc):
        return self.elem((ratfunc,))

    def from_int(self, n):
        return self.scalar(self.K.from_int(n))

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


@dataclass(frozen=True)
class FFElem:
    field: FunctionField
    coeffs: tuple  # of RatFunc, length = field.degree

    def __add__(self, other):
        K = self._k(other)
        return FFElem(self.field, tuple(K.add(a, b) for a, b in
                                        zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        K = self._k(other)
        return FFElem(self.field, tuple(K.sub(a, b) for a, b in
                                        zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        K = self.field.K
        return FFElem(self.field, tuple(K.neg(a) for a in self.coeffs))

    def __mul__(self, other):
        K = self._k(other)
        prod = polys.pmul(K, polys.ptrim(K, self.coeffs),
                          polys.ptrim(K, other.coeffs))
        red = polys.pmod(K, prod, polys.ptrim(K, self.field.modulus))
        return self.field.elem(red)

    def _k(self, other):
        if not isinstance(other, FFElem) or other.field != self.field:
            raise FuncFieldError("operands from different function fields")
        return self.field.K

    def inverse(self):
        K = self.field.K
        a = polys.ptrim(K, self.coeffs)
        if not a:
            raise ZeroDivisionError("inverse of zero function-field element")
        mod = polys.ptrim(K, self.field.modulus)
        g, u, _ = polys.pxgcd(K, a, mod)
        if polys.pdeg(g) != 0:
            raise FuncFieldError("modulus reducible: gcd has degree %d"
                                 % polys.pdeg(g))
        u = polys.pscale(K, u, K.inv(g[0]))
        return self.field.elem(u)

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
        return all(c.is_zero() for c in self.coeffs)


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
    C = e.field.constants
    acc = e.field.zero
    vpow = e.field.one
    for i, c in enumerate(f.coeffs):
        if not c.is_zero():
            num = _eval_poly_at(e.field, c.num, e.u_image)
            den = _eval_poly_at(e.field, c.den, e.u_image)
            acc = acc + (num / den) * vpow
        vpow = vpow * e.v_image
    return acc


def _eval_poly_at(field, poly, x):
    acc = field.zero
    for c in reversed(poly):
        acc = acc * x + field.scalar(field.K.const(c))
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
        num = [C.zero] * prec
        den = [C.one] + [C.zero] * (prec - 1)
        vpow = [C.one] + [C.zero] * (prec - 1)
        ok = True
        for c in f.coeffs:
            if not c.is_zero():
                cn = _s_eval_poly(C, c.num, U, prec)
                cd = _s_eval_poly(C, c.den, U, prec)
                if _s_ord(C, cd) is None:
                    ok = False
                    break
                term_num = _s_mul(C, cn, vpow, prec)
                num = _s_add(C, _s_mul(C, num, cd, prec),
                             _s_mul(C, term_num, den, prec))
                den = _s_mul(C, den, cd, prec)
            vpow = _s_mul(C, vpow, V, prec)
        if ok:
            onum = _s_ord(C, num)
            oden = _s_ord(C, den)
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
    generator, each rational-function coefficient parenthesized."""
    field = f.field
    parts = []
    for i in range(field.degree - 1, -1, -1):
        c = f.coeffs[i]
        if c.is_zero():
            continue
        if i == 0:
            parts.append(ratfunc_str(c, field.u_name))
            continue
        vterm = field.v_name if i == 1 else "%s^%d" % (field.v_name, i)
        if c == field.K.one:
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
