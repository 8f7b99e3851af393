"""The plane cubic X^3 + Y^3 + Z^3 = 0: points, chord-tangent group law,
and translations as symbolic function-field endomorphisms.

The group law uses the polarization of the Fermat cubic F: restricted to the
line s*A + t*B through curve points A, B, F factors as s*t*(s*c1 + t*c2) with
c1 = 3 sum A_i^2 B_i and c2 = 3 sum A_i B_i^2, so the third intersection is
c2*A - c1*B.  The tangential point has the classical closed form
(X(Z^3-Y^3) : Y(X^3-Z^3) : Z(Y^3-X^3)).  Both formulas are polynomial, so
they evaluate equally well on constant coordinates and on generic symbolic
coordinates, which is how translation maps become endomorphisms.
"""

from dataclasses import dataclass

from . import ZomoError
from .field import _normalize, _power_table
from .funcfield import Endo, FuncFieldError, FunctionField


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
        if all(c == C.zero for c in t):
            # inflection point: the tangent meets triply, third point is a
            return a
        return HessePoint(_normalize(C, t))
    c1 = C.zero
    c2 = C.zero
    for ai, bi in zip(A, B):
        c1 = C.add(c1, C.mul(C.mul(ai, ai), bi))
        c2 = C.add(c2, C.mul(ai, C.mul(bi, bi)))
    t = tuple(C.sub(C.mul(c2, ai), C.mul(c1, bi)) for ai, bi in zip(A, B))
    return HessePoint(_normalize(C, t))


def hesse_add(C, a: HessePoint, b: HessePoint, O: HessePoint) -> HessePoint:
    u = third_point(C, a, b)
    return third_point(C, O, u) if u != O else third_point(C, O, O)


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
    identity.

    ``table[i][j]`` is the index of points[i] + points[j].  Only the rows of
    a generating set come from ``hesse_add``; every other row is a
    composition of rows, row(P + g) = row(g) after row(P), which the
    associativity of the group law makes exact."""

    def __init__(self, C):
        self.C = C
        self.O = make_point(C, *BASE_POINT)
        self.points = enumerate_hesse_points(C)
        self.index = {p: i for i, p in enumerate(self.points)}
        if self.O not in self.index:
            raise HesseError("base point not rational over this field")
        self.iO = self.index[self.O]
        self.table = self._add_table()

    def _add_table(self):
        n = len(self.points)
        rows = {self.iO: list(range(n))}
        gens = []
        while len(rows) < n:
            g = self.points[next(i for i in range(n) if i not in rows)]
            gens.append([self.index[hesse_add(self.C, g, p, self.O)]
                         for p in self.points])
            todo = list(rows)
            while todo:
                i = todo.pop()
                for row_g in gens:
                    j = row_g[i]
                    if j not in rows:
                        rows[j] = [row_g[k] for k in rows[i]]
                        todo.append(j)
        return [rows[i] for i in range(n)]

    def add(self, a, b):
        return self.points[self.table[self.index[a]][self.index[b]]]

    def neg(self, a):
        return self.points[self.table[self.index[a]].index(self.iO)]

    def order_of(self, a):
        row = self.table[self.index[a]]
        k, i = 1, row[self.iO]
        while i != self.iO:
            i = row[i]
            k += 1
        return k

    def multiples(self, a):
        row = self.table[self.index[a]]
        out = [self.O]
        i = row[self.iO]
        while i != self.iO:
            out.append(self.points[i])
            i = row[i]
        return out

    def sylow3(self):
        """Points of 3-power order, with invariant factors (d1 >= d2)."""
        n3 = 1      # the 3-part of #E, which every 3-power order divides
        while len(self.points) % (3 * n3) == 0:
            n3 *= 3
        pts = [p for p in self.points if n3 % self.order_of(p) == 0]
        d1 = max(self.order_of(p) for p in pts)
        return pts, (d1, n3 // d1) if n3 > d1 else (d1,)

    def translation_perm(self, t):
        """Translation by t as a permutation (list of point indices)."""
        return list(self.table[self.index[t]])

    def map_perm(self, fn):
        """A coordinate map as a permutation; raises if not a bijection."""
        images = [self.index[fn(p)] for p in self.points]
        if sorted(images) != list(range(len(self.points))):
            raise HesseError("map is not a bijection of the point set")
        return images


def cube_roots_of_unity(C):
    """The two primitive cube roots of unity (requires q = 1 mod 3)."""
    roots = [e for e in C.elements()
             if e != C.one and C.mul(e, C.mul(e, e)) == C.one]
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


def _sym_third(field, A, B):
    """Chord formula on symbolic projective triples (A constant, B generic)."""
    c1 = field.zero
    c2 = field.zero
    for ai, bi in zip(A, B):
        c1 = c1 + ai * ai * bi
        c2 = c2 + ai * bi * bi
    return tuple(c2 * ai - c1 * bi for ai, bi in zip(A, B))


def translation_endo(field: FunctionField, group: EllipticGroup,
                     t: HessePoint) -> Endo:
    """Translation by t, p -> t + p, as a function-field endomorphism.

    Computed by running the chord construction on the generic point
    p = (x, y, 1): the sum is O * (t * p) where * is the third-intersection
    operator.  For t = O this is the identity.
    """
    if t == group.O:
        return Endo(field, field.u(), field.v())
    T = tuple(field.from_int(c) for c in t.coords)
    O = tuple(field.from_int(c) for c in group.O.coords)
    u = _sym_third(field, T, (field.v(), field.u(), field.one))
    w = _sym_third(field, O, u)
    if w[2].is_zero():
        raise FuncFieldError("translation image not in the affine chart")
    x_img = w[0] / w[2]
    y_img = w[1] / w[2]
    return Endo(field, u_image=y_img, v_image=x_img)


def scaling_endo(field: FunctionField, eps) -> Endo:
    """(x, y) -> (x, eps y)."""
    return Endo(field, u_image=field.from_int(eps) * field.u(),
                v_image=field.v())
