"""Plane-curve point sets, coordinate maps as permutations, and the
automorphism checks for the named curves of the project.

Curves are homogeneous trivariate polynomials with integer coefficient
dictionaries {(a, b, c): n} meaning n X^a Y^b Z^c.  Points are normalized
projective triples over F_{q^k}; singular points are flagged and excluded
from every permutation domain.  Rational maps are stored projectively with
cleared denominators; a point where all three forms vanish is a hard error,
as is a map that fails to permute the chosen point set.

The degree-28 cover needs a space model (two affine equations); it gets its
own small enumerator, and its maps may be undefined at a point (image None).
Both kinds of model share one fixpoint (``stable_domain``: the largest
subset every map permutes) and one extension-degree loop (``_closure``).
Per degree the points are indexed once and each map read once into a column
of indices, which the fixpoint and ``act`` share: no point is hashed again.
"""

import os
from dataclasses import dataclass
from itertools import compress

from . import ZomoError
from .field import ExtField, PrimeField, _power_table, roots_of_unity
from .funcfield import Endo, FunctionField, _partial, _substitute
from .group import group_from_permutations
from .hesse import cube_roots_of_unity


class CurveError(ZomoError, ValueError):
    pass


class BudgetError(CurveError):
    pass


DEFAULT_BUDGET = 4_000_000


def point_budget():
    env = os.environ.get("ZOMO_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise ZomoError("ZOMO_BUDGET=%r is not an integer" % env) from None
    if budget < 1:
        raise ZomoError("ZOMO_BUDGET=%r is not a positive integer" % env)
    return budget


def _int_terms(name, terms):
    """The nonzero terms of an {exponents: n} dict; a coefficient that is
    not an int is a ``CurveError`` that names it."""
    for k, v in terms.items():
        if not isinstance(v, int):
            raise CurveError("%s has a non-int coefficient %r at %r"
                             % (name, v, k))
    return {k: v for k, v in terms.items() if v}


def _forms(name, dicts):
    """The sorted nonzero int terms of each dict (``_int_terms``), for the
    forms of one curve or map; a zero form, or terms of more than one
    degree, is a ``CurveError`` that names it."""
    forms = tuple(tuple(sorted(_int_terms(name, d).items())) for d in dicts)
    if not all(forms) or len({sum(k) for f in forms for k, _ in f}) != 1:
        raise CurveError("%s has a zero form or terms of more than one "
                         "degree" % name)
    return forms


@dataclass(frozen=True)
class PlaneCurve:
    name: str
    coeffs: tuple  # sorted ((a, b, c), n) pairs, homogeneous

    @staticmethod
    def make(name, coeff_dict):
        return PlaneCurve(name, _forms(name, [coeff_dict])[0])

    @property
    def degree(self):
        return sum(self.coeffs[0][0])

    def eval_at(self, C, p):
        return C.eval_monomials(self.coeffs, p)


@dataclass
class PointSet:
    field: object
    points: list          # normalized projective triples
    singular: set         # indices into points

    def nonsingular(self):
        return [p for i, p in enumerate(self.points) if i not in self.singular]


def field_for(q, k, visits):
    """F_{q^k} for a scan of ``visits`` field values, refused with
    ``BudgetError`` when they are more than ``point_budget()`` allows,
    before the field is built: building it factors q and q^k - 1 and fills
    log tables of q^k entries, which the visits (at least q^k) bound."""
    if visits > point_budget():
        raise BudgetError("scan of %d values over %s exceeds the budget"
                          % (visits, "F_%d" % q if k == 1
                             else "F_%d^%d" % (q, k)))
    base = PrimeField(q)
    return base if k == 1 else ExtField(base, k)


def _chart_split(curve, q):
    """Affine z = 1 coefficients {(i, j): n} and the z = 0 restriction,
    each n read mod q and the zero ones dropped; the curve is homogeneous,
    so (i, j) names one term."""
    terms = [(a, b, c, n % q) for (a, b, c), n in curve.coeffs if n % q]
    return ({(a, b): n for a, b, _, n in terms},
            {(a, b): n for a, b, c, n in terms if c == 0})


def _separated(aff):
    """(m, c, A) when the affine equation reads A(x) + c y^m, else None."""
    ys = {j for (_, j) in aff if j > 0}
    if len(ys) != 1:
        return None
    m = ys.pop()
    if [(i, j) for (i, j) in aff if j == m] != [(0, m)]:
        return None
    return m, aff[(0, m)], {i: n for (i, j), n in aff.items() if j == 0}


def _zeros(C, monos, points):
    """The points where the {exponents: n} form vanishes, in order."""
    values = C.values(tuple(monos.items()), points)
    return [p for p, v in zip(points, values) if v == C.zero]


def enumerate_points(curve: PlaneCurve, q, k=1):
    """All projective F_{q^k}-points of the curve, with singular flags.

    When the affine equation separates as A(x) + c y^m the y-solutions come
    from a precomputed m-th power table, read at the column of A(x) over
    every x.  Otherwise each x reads the column of all y.  The scan is
    refused with ``BudgetError`` when it visits more x-values (q^k) or
    (x, y) pairs (q^2k) than ``point_budget()`` (``ZOMO_BUDGET``) allows,
    before any field is built.
    """
    aff, inf = _chart_split(curve, q)
    sep = _separated(aff)
    C = field_for(q, k, q ** k if sep is not None else q ** (2 * k))
    pts = []
    xs = [(x,) for x in C.elements()]
    if sep is not None:
        m, cm, A = sep
        tab = _power_table(C, m)
        # y^m = -A(x)/c, with -1/c folded into the int coefficients of A
        r = pow(-cm, -1, q)
        A = tuple(((i,), n * r) for i, n in A.items())
        for (x,), a in zip(xs, C.values(A, xs)):
            pts += [(x, y, C.one) for y in tab.get(a, ())]
    else:
        for (x,) in xs:
            pts += [p + (C.one,) for p in
                    _zeros(C, aff, [(x, y) for (y,) in xs])]
    # z = 0 chart: points (x : 1 : 0), all of them where the restriction
    # vanishes identically, then (1 : 0 : 0)
    pts += [p + (C.zero,) for p in
            _zeros(C, inf, [(x, C.one) for (x,) in xs])]
    origin = (C.one, C.zero, C.zero)
    if curve.eval_at(C, origin) == C.zero:
        pts.append(origin)
    # singular where all three partials vanish: there they have no quotient
    sing = C.quotients([_partial(curve.coeffs, a) for a in range(3)], pts)
    return PointSet(C, pts, {i for i, v in enumerate(sing) if v is None})


@dataclass(frozen=True)
class RationalMap:
    name: str
    forms: tuple  # three sorted coefficient tuples, common degree

    @staticmethod
    def make(name, f0, f1, f2):
        return RationalMap(name, _forms(name, [f0, f1, f2]))

    def images(self, C, points):
        """The image of each point, scaled so its last nonzero coordinate is
        one; a point where all three forms vanish is a ``CurveError``."""
        out = C.quotients(self.forms, points)
        if None in out:
            raise CurveError("map %s has a base point at %r"
                             % (self.name, points[out.index(None)]))
        return out

    def eval_at(self, C, p):
        return self.images(C, [p])[0]


def diagonal_map(name, a, b):
    """(X : Y : Z) -> (a X : b Y : Z)."""
    return RationalMap.make(name, {(1, 0, 0): a}, {(0, 1, 0): b},
                            {(0, 0, 1): 1})


# (X : Y : Z) -> (Y : Z : X)
ROTATION = RationalMap.make("rot", {(0, 1, 0): 1}, {(0, 0, 1): 1},
                            {(1, 0, 0): 1})


def act(m: RationalMap, S: PointSet, domain=None, column=None):
    """The map as a permutation (index list) of the nonsingular points,
    or of an explicitly restricted domain.  ``column`` holds the position
    of each domain point's image, as ``stable_domain`` gives it; without
    it the map is evaluated on the domain.  Either way it must biject."""
    domain = S.nonsingular() if domain is None else domain
    if column is None:
        index = {p: i for i, p in enumerate(domain)}
        column = list(map(index.get, m.images(S.field, domain)))
    if None in column:
        raise CurveError("map %s sends %r off the nonsingular point set"
                         % (m.name, domain[column.index(None)]))
    if len(set(column)) != len(domain):
        raise CurveError("map %s is not injective on the point set" % m.name)
    return column


def stable_domain(maps, S: PointSet, columns=None):
    """Largest subset of the nonsingular points every map sends into the
    subset, sorted.  The points are indexed once and each map evaluated
    once over all of them, as a column of indices (None where the image
    is undefined or singular), so a base point of any map is a hard error
    whatever the order of ``maps``.  Then a point whose image under some
    map is None or no longer alive drops out, round after round until a
    round removes none; rounds only remove, so this ends.  A ``columns``
    list receives each map's column over the domain, for ``act``."""
    C, points = S.field, S.nonsingular()
    index = {p: i for i, p in enumerate(points)}
    full = [list(map(index.get, m.images(C, points))) for m in maps]
    n = len(points)
    alive = set(range(n))
    while True:
        # the points that every map sends into alive, read by membership
        kept = alive.intersection(*[
            compress(range(n), map(alive.__contains__, c)) for c in full])
        if len(kept) == len(alive):
            break
        alive = kept
    order = sorted(alive, key=points.__getitem__)
    if columns is not None:
        at = dict(zip(order, range(n)))
        columns += [[at[c[i]] for i in order] for c in full]
    return list(map(points.__getitem__, order))


def _closure(maps, point_set, k_max):
    """Permutation group generated by the maps on ``point_set(k)``, growing
    k until the order is stable for two consecutive usable degrees and the
    generator permutations are pairwise distinct.

    Each map acts on the largest map-stable subset of the nonsingular
    points, and each (map, point) pair is evaluated at most once per degree.
    Returns (group, point set, domain, k) for the last degree used.
    """
    prev_order = None
    last_err = None
    for k in range(1, k_max + 1):
        try:
            S = point_set(k)
            columns = []
            domain = stable_domain(maps, S, columns)
            if not domain:
                raise CurveError("empty stable domain at k = %d" % k)
            perms = [act(m, S, domain, c) for m, c in zip(maps, columns)]
            G = group_from_permutations(perms,
                                        gen_names=[m.name for m in maps])
        except CurveError as e:
            last_err = e
            continue
        distinct = len({tuple(p) for p in perms}) == len(perms)
        if prev_order == G.order and distinct:
            return G, S, domain, k
        prev_order = G.order
    if prev_order is not None:
        raise CurveError("group order did not stabilize up to k = %d "
                         "(last order %d)" % (k_max, prev_order))
    raise CurveError("no usable point set up to k = %d: %s"
                     % (k_max, last_err))


def automorphism_group(maps, curve: PlaneCurve, q, k_max=4):
    """The group the maps generate on the curve's F_{q^k}-points (see
    ``_closure``); returns (group, point set, domain, k)."""
    return _closure(maps, lambda k: enumerate_points(curve, q, k), k_max)


def fixed_points(perm):
    return [i for i, j in enumerate(perm) if i == j]


def verify_invariant_function(f, endos):
    """Whether f(e) = f for every endo e, checked as N = D f for the
    (N, D) of the substitution, so no inverse is taken."""
    return all(N == D * f for N, D in (_substitute(e, f) for e in endos))


# ---------------------------------------------------------------------------
# the named curves

def x0_curve():
    # affine y^9 + x^6 + x^3 = 0; the singular points are (0:0:1), (1:0:0)
    return PlaneCurve.make("x0", {(0, 9, 0): 1, (6, 0, 3): 1, (3, 0, 6): 1})


def fermat9_curve():
    return PlaneCurve.make("fermat9",
                           {(9, 0, 0): 1, (0, 9, 0): 1, (0, 0, 9): 1})


def x0_scaling_maps(q):
    """The 27 maps (x, y) -> (lam x, mu y) with lam^3 = mu^9 = 1."""
    C = PrimeField(q)
    lams = sorted(roots_of_unity(C, 3))
    mus = sorted(roots_of_unity(C, 9))
    if len(lams) != 3 or len(mus) != 9:
        raise CurveError("F_%d lacks the needed roots of unity" % q)
    return [diagonal_map("s_%d_%d" % (l, m), l, m) for l in lams for m in mus]


def x0_alpha2():
    """(x, y) -> (x/y^3, x/y^2), projectively (X Z^2 : X Y Z : Y^3)."""
    return RationalMap.make("a2", {(1, 0, 2): 1}, {(1, 1, 1): 1},
                            {(0, 3, 0): 1})


def x0_center_map(q):
    """(x, y) -> (x, eps y) with eps the smaller primitive cube root."""
    eps = min(cube_roots_of_unity(PrimeField(q)))
    return diagonal_map("s_1_%d" % eps, 1, eps)


def fermat9_maps(q):
    """81 diagonal ninth-root scalings plus the coordinate rotation."""
    C = PrimeField(q)
    mus = sorted(roots_of_unity(C, 9))
    if len(mus) != 9:
        raise CurveError("F_%d lacks ninth roots of unity" % q)
    return [diagonal_map("d_%d_%d" % (a, b), a, b)
            for a in mus for b in mus] + [ROTATION]


# ---------------------------------------------------------------------------
# the X0 function field, its 81 endomorphisms, and the invariant function

def x0_function_field(q=19):
    return FunctionField(PrimeField(q), {(9, 0): 1, (0, 6): 1, (0, 3): 1},
                         u_name="x", v_name="y")


def x0_invariant_t(field):
    """(x^9 - 3x^3 - 1) / (x^3 (x^3 + 1))."""
    return field.scalar((-1, 0, 0, -3, 0, 0, 0, 0, 0, 1),
                        (0, 0, 0, 1, 0, 0, 1))


def x0_three_term_t(field):
    """x^3 + x^3/y^9 + y^9/x^6, the symmetric form of the invariant."""
    x, y = field.u(), field.v()
    y9 = y ** 9
    return x ** 3 + (x ** 3) / y9 + y9 / (x ** 6)


def x0_endos(field):
    """The 81 field endomorphisms: 27 scalings times three powers of
    (x, y) -> (x/y^3, x/y^2)."""
    C = field.constants
    x, y = field.u(), field.v()
    a2 = Endo(field, u_image=x / (y ** 3), v_image=x / (y ** 2))
    # (lam x, mu y) after a2^j has the images of a2^j scaled by lam and mu
    powers = (Endo(field, u_image=x, v_image=y), a2, a2.compose(a2))
    out = [Endo(field, u_image=a.u_image.scale(lam),
                v_image=a.v_image.scale(mu))
           for lam in roots_of_unity(C, 3)
           for mu in roots_of_unity(C, 9) for a in powers]
    if len(out) != 81:
        raise CurveError("endomorphism census is not 81")
    return out


def x0_branch_x_values(q=19):
    """The affine x-coordinates with y = 0: the roots of x^3 + 1, in
    element order, read from a cube table."""
    C = PrimeField(q)
    return _power_table(C, 3).get(C.neg(C.one), [])


# ---------------------------------------------------------------------------
# the degree-28 space model and its two generating maps

@dataclass(frozen=True)
class AffineRationalMap:
    """(x, y, z) -> component polynomials over a common denominator in y.

    comps are {(i, j, k): n} dicts in (x, y, z); den is a {j: n} dict in y,
    stored like the comps as monomials in (x, y, z).
    """
    name: str
    comps: tuple
    den: tuple

    @staticmethod
    def make(name, comps, den):
        comps = tuple(tuple(sorted(_int_terms(name, c).items()))
                      for c in comps)
        den = tuple(sorted(((0, j, 0), v)
                           for j, v in _int_terms(name, den).items()))
        return AffineRationalMap(name, comps, den)

    def images(self, C, points):
        """The image of each point, or None where the denominator is 0."""
        return C.quotients(self.comps, points, self.den)

    def eval_at(self, C, p):
        return self.images(C, [p])[0]


def genus28_points(q=19, k=1):
    """Affine F_{q^k}-points of {x^3 + y^3 + 1 = 0, D(y) z^3 = N(y) x}
    with N = y^6 + y^3 + 1, D = y^2 (y^3 + 1).  Points with D(y) = 0 are
    the indeterminate locus of the model and are left out."""
    C = field_for(q, k, q ** k)
    cube = _power_table(C, 3)
    pts = []
    for y in C.elements():
        y3 = C.mul(y, C.mul(y, y))
        # most y have no x: read the cube roots before forming N/D
        xs = cube.get(C.neg(C.add(y3, C.one)), ())
        D = C.mul(C.mul(y, y), C.add(y3, C.one)) if xs else C.zero
        if D == C.zero:
            continue
        N = C.add(C.add(C.mul(y3, y3), y3), C.one)
        ratio = C.mul(N, C.inv(D))
        for x in xs:
            for z in cube.get(C.mul(ratio, x), ()):
                pts.append((x, y, z))
    return C, pts


def genus28_maps():
    """The two generating maps of the order-243 action on the space model;
    their coefficients are residues mod 19."""
    f = AffineRationalMap.make(
        "f",
        ({(2, 1, 0): 4, (1, 0, 0): 6, (0, 2, 0): 4},
         {(2, 0, 0): 3, (1, 2, 0): 2, (0, 1, 0): 3},
         {(1, 1, 1): 13}),
        {3: 1, 0: 12})
    g = AffineRationalMap.make(
        "g", ({(1, 0, 0): 7}, {(0, 1, 0): 7}, {(0, 0, 1): 16}), {0: 1})
    return f, g


def genus28_group(q=19):
    """Group generated by the two maps on the space-model point set, grown
    over the extension degrees like ``automorphism_group``; returns
    (group, domain, k).  The maps are defined over F_19 only."""
    if q != 19:
        raise CurveError("the genus-28 maps are defined over F_19 only")

    def point_set(k):
        C, pts = genus28_points(q, k)
        return PointSet(C, pts, set())
    G, _, domain, k = _closure(genus28_maps(), point_set, k_max=4)
    return G, domain, k
