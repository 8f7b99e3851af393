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
"""

import os
from dataclasses import dataclass

from . import ZomoError
from .field import ExtField, PrimeField, _normalize, _power_table
from .funcfield import (Endo, FunctionField, _eval_monomials, _partial,
                        apply_endo)
from .group import FiniteGroup, group_from_permutations


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
        return int(env)
    except ValueError:
        raise ZomoError("ZOMO_BUDGET=%r is not an integer" % env) from None


@dataclass(frozen=True)
class PlaneCurve:
    name: str
    coeffs: tuple  # sorted ((a, b, c), n) pairs, homogeneous

    @staticmethod
    def make(name, coeff_dict):
        coeff_dict = {k: v for k, v in coeff_dict.items() if v}
        degs = {sum(k) for k in coeff_dict}
        if not coeff_dict or len(degs) != 1:
            raise CurveError("coefficients must be nonzero and homogeneous")
        return PlaneCurve(name, tuple(sorted(coeff_dict.items())))

    @property
    def degree(self):
        return sum(self.coeffs[0][0])

    def eval_at(self, C, p):
        return _eval_monomials(C, self.coeffs, p)

    def partials(self):
        return [_partial(self.coeffs, axis) for axis in range(3)]

    def is_singular_at(self, C, p):
        return all(_eval_monomials(C, pd, p) == C.zero
                   for pd in self.partials())


@dataclass
class PointSet:
    field: object
    points: list          # normalized projective triples
    singular: set         # indices into points

    def nonsingular(self):
        return [p for i, p in enumerate(self.points) if i not in self.singular]


def field_for(q, k):
    base = PrimeField(q)
    return base if k == 1 else ExtField(base, k)


def _chart_split(curve):
    """Affine z = 1 coefficients {(i, j): n} and the z = 0 restriction."""
    aff = {}
    inf = {}
    for (a, b, c), n in curve.coeffs:
        aff[(a, b)] = aff.get((a, b), 0) + n
        if c == 0:
            inf[(a, b)] = inf.get((a, b), 0) + n
    return aff, inf


def _separated(aff):
    """(m, c, A) when the affine equation reads A(x) + c y^m, else None."""
    ys = {j for (_, j) in aff if j > 0}
    if len(ys) != 1:
        return None
    m = ys.pop()
    if [(i, j) for (i, j) in aff if j == m] != [(0, m)]:
        return None
    return m, aff[(0, m)], {i: n for (i, j), n in aff.items() if j == 0}


def enumerate_points(curve: PlaneCurve, q, k=1):
    """All projective F_{q^k}-points of the curve, with singular flags.

    When the affine equation separates as A(x) + c y^m the y-solutions come
    from a precomputed m-th power table, one field pass per x.  Otherwise a
    full double loop runs, refused with ``BudgetError`` when it would visit
    more pairs than ``point_budget()`` (``ZOMO_BUDGET``) allows.
    """
    C = field_for(q, k)
    budget = point_budget()
    aff, inf = _chart_split(curve)
    pts = []
    sep = _separated(aff)
    if sep is not None:
        m, cm, A = sep
        tab = _power_table(C, m)
        cm_inv = C.inv(C.from_int(cm))
        for x in C.elements():
            acc = C.zero
            xp = C.one
            for i in range(max(A) + 1):
                if A.get(i):
                    acc = C.add(acc, C.mul(C.from_int(A[i]), xp))
                xp = C.mul(xp, x)
            for y in tab.get(C.mul(C.neg(acc), cm_inv), ()):
                pts.append(_normalize(C, (x, y, C.one)))
    else:
        if C.order ** 2 > budget:
            raise BudgetError("affine scan of %d pairs exceeds the budget"
                              % C.order ** 2)
        for x in C.elements():
            for y in C.elements():
                if _eval_monomials(C, aff.items(), (x, y)) == C.zero:
                    pts.append(_normalize(C, (x, y, C.one)))
    # z = 0 chart: points (x : 1 : 0), then (1 : 0 : 0)
    if inf:
        for x in C.elements():
            if _eval_monomials(C, inf.items(), (x, C.one)) == C.zero:
                pts.append(_normalize(C, (x, C.one, C.zero)))
    origin = (C.one, C.zero, C.zero)
    if curve.eval_at(C, origin) == C.zero:
        pts.append(origin)
    singular = {i for i, p in enumerate(pts) if curve.is_singular_at(C, p)}
    return PointSet(C, pts, singular)


@dataclass(frozen=True)
class RationalMap:
    name: str
    forms: tuple  # three sorted coefficient tuples, common degree

    @staticmethod
    def make(name, f0, f1, f2):
        forms = []
        deg = None
        for f in (f0, f1, f2):
            f = {k: v for k, v in f.items() if v}
            degs = {sum(k) for k in f}
            if len(degs) != 1:
                raise CurveError("map forms must be homogeneous and nonzero")
            d = degs.pop()
            if deg is None:
                deg = d
            elif d != deg:
                raise CurveError("map forms must share a degree")
            forms.append(tuple(sorted(f.items())))
        return RationalMap(name, tuple(forms))

    def eval_at(self, C, p):
        out = tuple(_eval_monomials(C, form, p) for form in self.forms)
        if all(v == C.zero for v in out):
            raise CurveError("map %s has a base point at %r" % (self.name, p))
        return _normalize(C, out)


def act(m: RationalMap, S: PointSet, domain=None, images=None):
    """The map as a permutation (index list) of the nonsingular points,
    or of an explicitly restricted domain.  ``images`` is an optional
    {point: image} memo of the map, such as ``stable_domain`` fills."""
    C = S.field
    domain = S.nonsingular() if domain is None else domain
    images = {} if images is None else images
    index = {p: i for i, p in enumerate(domain)}
    perm = []
    for p in domain:
        ip = images[p] if p in images else m.eval_at(C, p)
        if ip not in index:
            raise CurveError("map %s sends %r off the nonsingular point set"
                             % (m.name, p))
        perm.append(index[ip])
    if sorted(perm) != list(range(len(domain))):
        raise CurveError("map %s is not injective on the point set" % m.name)
    return perm


def stable_domain(maps, S: PointSet, images=None):
    """Largest subset of the nonsingular points every map sends into the
    subset.  A point whose image under some map is undefined (None),
    singular or already removed drops out; the survivors are the common
    permutation domain.  A base point of a map remains a hard error, and
    so does a domain that has not settled after 50 rounds.

    Each (map, point) pair is evaluated at most once, into ``images`` (one
    {point: image} dict per map) when the caller passes that list; every
    point of the domain then has its image under every map there."""
    C = S.field
    alive = set(S.nonsingular())
    images = [{} for _ in maps] if images is None else images
    for _ in range(50):
        dead = set()
        for p in alive:
            for m, seen in zip(maps, images):
                if p in seen:
                    ip = seen[p]
                else:
                    ip = seen[p] = m.eval_at(C, p)
                if ip not in alive:
                    dead.add(p)
                    break
        if not dead:
            return sorted(alive)
        alive -= dead
    raise CurveError("stable domain did not settle")


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
            images = [{} for _ in maps]
            domain = stable_domain(maps, S, images=images)
            if not domain:
                raise CurveError("empty stable domain at k = %d" % k)
            perms = [act(m, S, domain, seen)
                     for m, seen in zip(maps, images)]
            del images  # the memo lives for one degree only
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


def orbit_structure(G: FiniteGroup, npoints):
    """Sorted (orbit size, count) pairs for the action on 0..npoints-1.

    Requires a group built from permutations of that domain.
    """
    gen_perms = [G.perms[g] for g in G.gens]
    seen = [False] * npoints
    sizes = {}
    for start in range(npoints):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            p = stack.pop()
            size += 1
            for perm in gen_perms:
                im = perm[p]
                if not seen[im]:
                    seen[im] = True
                    stack.append(im)
        sizes[size] = sizes.get(size, 0) + 1
    return sorted(sizes.items())


def fixed_points(perm):
    return [i for i, j in enumerate(perm) if i == j]


def verify_invariant_function(f, endos):
    return all(apply_endo(e, f) == f for e in endos)


# ---------------------------------------------------------------------------
# the named curves

def hesse_curve():
    return PlaneCurve.make("hesse", {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def x0_curve():
    # affine y^9 + x^6 + x^3 = 0; the singular points are (0:0:1), (1:0:0)
    return PlaneCurve.make("x0", {(0, 9, 0): 1, (6, 0, 3): 1, (3, 0, 6): 1})


def fermat9_curve():
    return PlaneCurve.make("fermat9",
                           {(9, 0, 0): 1, (0, 9, 0): 1, (0, 0, 9): 1})


def roots_of_unity(C, n):
    return _power_table(C, n).get(C.one, [])


def x0_scaling_maps(q):
    """The 27 maps (x, y) -> (lam x, mu y) with lam^3 = mu^9 = 1."""
    C = PrimeField(q)
    lams = sorted(roots_of_unity(C, 3))
    mus = sorted(roots_of_unity(C, 9))
    if len(lams) != 3 or len(mus) != 9:
        raise CurveError("F_%d lacks the needed roots of unity" % q)
    return [RationalMap.make("s_%d_%d" % (l, m), {(1, 0, 0): l},
                             {(0, 1, 0): m}, {(0, 0, 1): 1})
            for l in lams for m in mus]


def x0_alpha2():
    """(x, y) -> (x/y^3, x/y^2), projectively (X Z^2 : X Y Z : Y^3)."""
    return RationalMap.make("a2", {(1, 0, 2): 1}, {(1, 1, 1): 1},
                            {(0, 3, 0): 1})


def x0_center_map(q):
    """(x, y) -> (x, eps y) with eps the smaller primitive cube root."""
    C = PrimeField(q)
    eps = min(e for e in roots_of_unity(C, 3) if e != C.one)
    return RationalMap.make("s_1_%d" % eps, {(1, 0, 0): 1},
                            {(0, 1, 0): eps}, {(0, 0, 1): 1})


def fermat9_maps(q):
    """81 diagonal ninth-root scalings plus the coordinate rotation."""
    C = PrimeField(q)
    mus = sorted(roots_of_unity(C, 9))
    if len(mus) != 9:
        raise CurveError("F_%d lacks ninth roots of unity" % q)
    maps = [RationalMap.make("d_%d_%d" % (a, b), {(1, 0, 0): a},
                             {(0, 1, 0): b}, {(0, 0, 1): 1})
            for a in mus for b in mus]
    rot = RationalMap.make("rot", {(0, 1, 0): 1}, {(0, 0, 1): 1},
                           {(1, 0, 0): 1})
    return maps + [rot]


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
    out = []
    for lam in roots_of_unity(C, 3):
        for mu in roots_of_unity(C, 9):
            e = Endo(field, u_image=field.from_int(lam) * x,
                     v_image=field.from_int(mu) * y)
            for _ in range(3):
                out.append(e)
                e = e.compose(a2)
    if len(out) != 81:
        raise CurveError("endomorphism census is not 81")
    return out


def x0_branch_x_values(q=19):
    """The affine x-coordinates with y = 0: the roots of x^3 + 1."""
    C = PrimeField(q)
    return sorted(x for x in C.elements()
                  if C.add(C.mul(x, C.mul(x, x)), C.one) == C.zero)


def elimination_check(q=19):
    """On x^3 + y^3 + 1 = 0, a cube root z of x/y^2 satisfies
    z^9 y^6 + y^3 + 1 = 0; returns the eliminated plane model."""
    field = FunctionField(PrimeField(q), {(3, 0): 1, (0, 3): 1, (0, 0): 1},
                          u_name="y", v_name="x")
    x, y = field.v(), field.u()
    z3 = x / (y ** 2)
    if not (z3 ** 3 * y ** 6 + y ** 3 + field.one).is_zero():
        raise CurveError("elimination identity failed")
    return {(9, 6): 1, (0, 3): 1, (0, 0): 1}  # {(z-exp, y-exp): coeff}


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
        comps = tuple(tuple(sorted((k, v) for k, v in c.items() if v))
                      for c in comps)
        den = tuple(sorted(((0, j, 0), v) for j, v in den.items() if v))
        return AffineRationalMap(name, comps, den)

    def eval_at(self, C, p):
        """Image point, or None when the denominator vanishes."""
        d = _eval_monomials(C, self.den, p)
        if d == C.zero:
            return None
        dinv = C.inv(d)
        return tuple(C.mul(_eval_monomials(C, comp, p), dinv)
                     for comp in self.comps)


def genus28_points(q=19, k=1):
    """Affine F_{q^k}-points of {x^3 + y^3 + 1 = 0, D(y) z^3 = N(y) x}
    with N = y^6 + y^3 + 1, D = y^2 (y^3 + 1).  Points with D(y) = 0 are
    the indeterminate locus of the model and are left out."""
    C = field_for(q, k)
    cube = _power_table(C, 3)
    pts = []
    for y in C.elements():
        y3 = C.mul(y, C.mul(y, y))
        D = C.mul(C.mul(y, y), C.add(y3, C.one))
        if D == C.zero:
            continue
        N = C.add(C.add(C.mul(y3, y3), y3), C.one)
        ratio = C.mul(N, C.inv(D))
        for x in cube.get(C.neg(C.add(y3, C.one)), ()):
            for z in cube.get(C.mul(ratio, x), ()):
                pts.append((x, y, z))
    return C, pts


def genus28_maps(q=19):
    """The two generating maps of the order-243 action on the space model."""
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
    (group, domain, k)."""
    def point_set(k):
        C, pts = genus28_points(q, k)
        return PointSet(C, pts, set())
    G, _, domain, k = _closure(genus28_maps(q), point_set, k_max=4)
    return G, domain, k
