"""The plane cubic X^3 + Y^3 + Z^3 = 0: points, chord-tangent group law,
and translations as function-field endomorphisms.

The group law uses the polarization of the Fermat cubic F: restricted to the
line s*A + t*B through curve points A, B, F factors as s*t*(s*c1 + t*c2) with
c1 = 3 sum A_i^2 B_i and c2 = 3 sum A_i B_i^2, so the third intersection is
c2*A - c1*B.  The tangential point has the classical closed form
(X(Z^3-Y^3) : Y(X^3-Z^3) : Z(Y^3-X^3)).  With the inflection (-1 : 0 : 1)
as identity, -(X : Y : Z) = (Z : Y : X), so a + b, which is -(a * b), is
one chord's third point with its coordinates reversed.  A translation's
endomorphism is the same chord for a constant point and the generic point
(x : y : 1), written out in closed form, followed by that reversal.
E(F_q) is kept in coordinates over Z[zeta], with no addition table: one
walk of chords maps them to the points (see ``EllipticGroup``).
"""

from dataclasses import dataclass
from math import gcd

from . import ZomoError
from .field import _normalize, _power_table, roots_of_unity
from .funcfield import Endo, FunctionField
from .genus import split_power


class HesseError(ZomoError, ValueError):
    pass


@dataclass(frozen=True)
class HessePoint:
    coords: tuple  # normalized: last nonzero coordinate is one

    def __repr__(self):
        return "(%s : %s : %s)" % self.coords


def make_point(C, x, y, z):
    p = HessePoint(_normalize(C, (C.from_int(x) if isinstance(x, int) else x,
                                  C.from_int(y) if isinstance(y, int) else y,
                                  C.from_int(z) if isinstance(z, int) else z)))
    if not on_curve(C, p):
        raise HesseError("point %r is not on the cubic" % (p,))
    return p


def on_curve(C, p: HessePoint):
    acc = C.zero
    for c in p.coords:
        acc = C.add(acc, C.mul(c, C.mul(c, c)))
    return acc == C.zero


def third_point(C, a: HessePoint, b: HessePoint) -> HessePoint:
    """Third intersection of the curve with the line through a and b
    (the tangent line when a = b)."""
    A, B = a.coords, b.coords
    if a == b:
        x, y, z = A
        x3 = C.mul(x, C.mul(x, x))
        y3 = C.mul(y, C.mul(y, y))
        z3 = C.mul(z, C.mul(z, z))
        t = (C.mul(x, C.sub(z3, y3)),
             C.mul(y, C.sub(x3, z3)),
             C.mul(z, C.sub(y3, x3)))
        return HessePoint(_normalize(C, t))
    c1 = C.zero
    c2 = C.zero
    for ai, bi in zip(A, B):
        c1 = C.add(c1, C.mul(C.mul(ai, ai), bi))
        c2 = C.add(c2, C.mul(ai, C.mul(bi, bi)))
    t = tuple(C.sub(C.mul(c2, ai), C.mul(c1, bi)) for ai, bi in zip(A, B))
    return HessePoint(_normalize(C, t))


def hesse_add(C, a: HessePoint, b: HessePoint) -> HessePoint:
    """a + b = -(a * b) for the identity (-1 : 0 : 1), which negates by
    reversing the coordinates."""
    x, y, z = third_point(C, a, b).coords
    return HessePoint(_normalize(C, (z, y, x)))


def enumerate_hesse_points(C):
    """All projective points of the cubic over the finite field C: the
    affine chart z = 1 by x, then the y's of each x in element order, read
    from a cube table; then the chart z = 0, y = 1 (z = y = 0 forces x = 0)."""
    cubes = _power_table(C, 3)
    one = C.one
    pts = []
    for x in C.elements():
        x3 = C.mul(x, C.mul(x, x))
        for y in cubes.get(C.neg(C.add(x3, one)), ()):
            pts.append(HessePoint((x, y, one)))
    for x in cubes.get(C.neg(one), ()):
        pts.append(HessePoint((x, one, C.zero)))
    return pts


BASE_POINT = (-1, 0, 1)  # an inflection point, the group identity


class EllipticGroup:
    """(E(F_q), +) on the Hesse cubic with the inflection BASE_POINT as
    identity.  alpha = (X : eps Y : Z), for the least primitive cube root
    ``epsilon``, fixes O and has order 3, so it acts as a root zeta of
    1 + zeta + zeta^2, and E(F_q) is a cyclic Z[zeta]-module (Lenstra,
    J. Number Theory 56, 1996).  ``coords[k]`` is the (i, j) with
    points[k] = iU + j alpha(U), for U the first point whose span is E,
    reduced modulo the relations, whose Hermite normal form is (a, 0),
    (b, c): a is the order of U and c the least k with k alpha(U) in <U>.
    Sums, orders and translations are integer arithmetic, and alpha acts
    on the coordinates by ``_zeta``."""

    def __init__(self, C):
        self.C = C
        self.epsilon = min(cube_roots_of_unity(C))
        self.O = make_point(C, *BASE_POINT)
        self.points = enumerate_hesse_points(C)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.iO = self.index[self.O]
        skip = set()   # the spans of the points that do not generate
        for U in self.points:
            if U not in skip:
                self.a, self.b, self.c, self._cells = self._span(U)
                if len(self._cells) == len(self.points):
                    break
                skip.update(self.points[k] for k in self._cells)
        else:
            raise HesseError("no point of the cubic generates it over Z[zeta]")
        self.coords = [None] * len(self.points)
        for k, p in enumerate(self._cells):
            self.coords[p] = (k % self.a, k // self.a)

    def _span(self, U):
        """(a, b, c, cells) for the span of U, with cells[i + a j] the
        index of iU + j alpha(U).  <U> comes from repeated ``hesse_add``
        up to its middle, then from -P = (Z : Y : X); alpha costs no
        addition either.  Every other point is one sum iU + alpha(jU), and
        its orbit under <zeta, -1> is filled with it."""
        C = self.C
        alpha = scaling_point_map(C, self.epsilon)

        def neg(P):
            return HessePoint(_normalize(C, P.coords[::-1]))

        mult = [self.O, U]   # kU until -kU is kU or (k - 1)U
        while neg(mult[-1]) not in mult[-2:]:
            mult.append(hesse_add(C, mult[-1], U))
        a = 2 * len(mult) - 2 - (neg(mult[-1]) == mult[-2])
        mult += [neg(P) for P in reversed(mult[1:a + 1 - len(mult)])]
        at = {P: i for i, P in enumerate(mult)}
        c = next(k for k in range(1, a + 1) if alpha(mult[k % a]) in at)
        b = -at[alpha(mult[c % a])] % a
        cells = [None] * (a * c)

        def fill(i, j, P):
            for _ in range(3):   # P, zeta P, zeta^2 P and their negatives
                for s, R in ((1, P), (-1, neg(P))):
                    q, r = divmod(s * j, c)
                    cells[(s * i - q * b) % a + a * r] = self.index[R]
                (i, j), P = _zeta(i, j), alpha(P)

        for i, P in enumerate(mult):
            if cells[i] is None:
                fill(i, 0, P)
        for j in range(1, c):
            for i in range(1, a):
                if cells[i + a * j] is None:
                    fill(i, j, hesse_add(C, mult[i], alpha(mult[j])))
        return a, b, c, cells

    def at(self, i, j):
        """The index of iU + j alpha(U), for any integers i and j."""
        q, j = divmod(j, self.c)
        return self._cells[(i - q * self.b) % self.a + self.a * j]

    def add(self, p, r):
        (i, j), (k, l) = self.coords[self.index[p]], self.coords[self.index[r]]
        return self.points[self.at(i + k, j + l)]

    def order_of(self, p):
        """The least m > 0 with m(i, j) a relation: m = m1 m2, for m1 the
        least with m1 j = kc for some k, and m2 the least with
        m2 (m1 i - k b) a multiple of a."""
        i, j = self.coords[self.index[p]]
        m1 = self.c // gcd(self.c, j)
        return m1 * (self.a // gcd(self.a, m1 * i - m1 * j // self.c * self.b))

    def sylow3(self):
        """(pts, g1, g2): the 3-Sylow group A and, from the same orders, g1
        the first point of the largest order d1 and g2 the first of order
        d2 = |A|/d1 with (d2/3) g2 outside <g1>.  A holds the nine flexes,
        E[3] = (Z/3)^2, so it is never cyclic, and such a g2 exists."""
        n3 = 3 ** split_power(len(self.points), 3)[0]  # the 3-part of #E
        orders = list(map(self.order_of, self.points))
        pts = [p for p, d in zip(self.points, orders) if n3 % d == 0]
        d1 = max(d for d in orders if n3 % d == 0)
        (i1, j1), m = self.coords[orders.index(d1)], n3 // d1 // 3
        span1 = {self.at(k * i1, k * j1) for k in range(d1)}
        g2 = next(p for p, d, (i, j) in zip(self.points, orders, self.coords)
                  if d == 3 * m and self.at(m * i, m * j) not in span1)
        return pts, self.points[orders.index(d1)], g2

    def translation_perm(self, t):
        """Translation by t as a permutation (list of point indices)."""
        k, l = self.coords[self.index[t]]
        return [self.at(i + k, j + l) for i, j in self.coords]


def _zeta(i, j):
    """alpha on E's coordinates over Z[zeta]: alpha(iU + j alpha(U)) is
    i alpha(U) + j alpha^2(U), and alpha^2 = -1 - alpha."""
    return -j, i - j


def cube_roots_of_unity(C):
    """The two primitive cube roots of unity (requires q = 1 mod 3)."""
    roots = [e for e in roots_of_unity(C, 3) if e != C.one]
    if len(roots) != 2:
        raise HesseError("field has no primitive cube root of unity")
    return roots


def scaling_point_map(C, eps):
    """(X : Y : Z) -> (X : eps Y : Z) on points."""
    def fn(p):
        x, y, z = p.coords
        return HessePoint(_normalize(C, (x, C.mul(eps, y), z)))
    return fn


def hesse_function_field(q_field):
    """K(y)[x]/(x^3 + y^3 + 1), the function field of the affine cubic."""
    return FunctionField(q_field, {(3, 0): 1, (0, 3): 1, (0, 0): 1},
                         u_name="y", v_name="x")


def translation_chord(field: FunctionField, t: HessePoint):
    """(r0, r1, r2) with t * p = (r0 : r1 : r2), the chord through t and the
    generic point p = (x : y : 1):
        r0 = ab y^2 + ac - (b^2 y + c^2) x,
        r1 = ab x^2 - a^2 y x + bc - c^2 y,
        r2 = ac x^2 - a^2 x + bc y^2 - b^2 y
    for t = (a : b : c)."""
    a, b, c = t.coords
    return (field.elem(((a * c, 0, a * b), (-c * c, -b * b))),
            field.elem(((b * c, -c * c), (0, -a * a), (a * b,))),
            field.elem(((0, -b * b, b * c), (-a * a,), (a * c,))))


def translation_endo(field: FunctionField, t: HessePoint) -> Endo:
    """Translation by t, p -> t + p, as a function-field endomorphism:
    t + p = -(t * p) = (r2 : r1 : r0) for the ``translation_chord``
    (r0 : r1 : r2), since -(X : Y : Z) = (Z : Y : X) for the identity
    O = (-1 : 0 : 1).  For t = O this is the identity."""
    r0, r1, r2 = translation_chord(field, t)
    inv = r0.inverse()
    return Endo(field, u_image=r1 * inv, v_image=r2 * inv)
