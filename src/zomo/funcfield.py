"""Function fields K(u)[v]/(m) with m monic in v, over finite constant fields.

An element sum_i c_i(u) v^i, i < n = deg_v(m), is stored as n numerator
polynomials in F_p[u] over one common monic denominator, in lowest terms, so
every operation runs on the int kernel of ``polys``.  The module also provides
endomorphisms given by coordinate images, valuations at nonsingular affine
points via power-series expansion, and canonical serialization matching the
project's printed-equation style.  Curve equations are sorted ((i, j), c)
monomial tuples, the form ``curves.PlaneCurve`` uses, and the power series
of a valuation are F_p[s] polynomials of ``polys`` truncated below s^prec.
"""

from dataclasses import dataclass

from . import ZomoError, polys


class FuncFieldError(ZomoError, ArithmeticError):
    pass


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
    rows = [[] for _ in range(1 + max(i for (i, _), _ in monos))]
    for (i, j), c in monos:
        row = rows[i]
        row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return [tuple(row) for row in rows]


class FunctionField:
    """K(u)[v]/(m(v, u)) with m monic in v.

    ``equation`` is {(i, j): int} for m = sum c v^i u^j; the constant field
    is a prime field object.  ``u_name``/``v_name`` only affect printing.
    ``monomials`` holds m as sorted ((i, j), c) pairs with c in [1, p), the
    form of ``PlaneCurve.coeffs``.  ``modulus`` holds the rows m_0, ...,
    m_{n-1} of m below v^n, as F_p[u] polynomials: m is monic in v with
    polynomial coefficients, so v^n = -(m_0 + m_1 v + ... + m_{n-1}
    v^(n-1)) reduces without division.
    """

    def __init__(self, constants, equation, u_name="x", v_name="y"):
        self.constants = constants
        self.u_name = u_name
        self.v_name = v_name
        self.monomials = tuple(sorted((k, c % constants.q)
                                      for k, c in equation.items()
                                      if c % constants.q))
        rows = _rows(self.monomials)
        n = len(rows) - 1
        self.degree = n
        if rows[n] != (1,):
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

    def scale(self, c):
        """c * self for a nonzero constant c of F_p: the numerators scale
        and the denominator stays, so the form stays in lowest terms."""
        F = self.field.constants
        return FFElem(self.field, tuple(polys.pscale(F, x, c)
                                        for x in self.nums), self.den)

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
        for (i, j), c in self.field.monomials:
            acc = acc + (self.v_image ** i * self.u_image ** j).scale(c)
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
    if _eval_monomials(F, monos, at) != 0:
        raise FuncFieldError("point is not on the curve")
    dv_p = _eval_monomials(F, _partial(monos, 0), at)
    du_p = _eval_monomials(F, _partial(monos, 1), at)
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
