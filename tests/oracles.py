"""Test oracles: the listing routines that the package replaced by counts,
and the plain or repeated computations it replaced by one pass.

``maximal_subgroups`` lists every maximal subgroup of a 3-group as the
preimages of the index-3 subgroups of its Frattini quotient; the package
only counts them, (|G:Phi(G)| - 1)/2 by Burnside's basis theorem.
``enumerate_cosets_repeated`` repeats HLT passes until one leaves the coset
table unchanged; the package runs one.  It drives ``CosetTable``, a frozen
copy of the package's former row-major table, whose scan starts again from
the coset after every definition where the package's resumes, so that a
change to the package's scan, definition or coincidence code cannot change
the reference too.
``cyclic_generators_by_rows`` walks the powers of each cyclic subgroup's
generator along its Cayley row; the package runs the generator's
spanning-tree word through the generator maps and builds no row.
``eval_poly_by_ffelem`` evaluates an F_p[u] polynomial at a function-field
element by Horner's rule in ``FFElem`` arithmetic, one canonical form per
step, and ``substitute_by_ffelem`` runs it on every numerator of f; the
package's Horner runs on numerator vectors over a power of the denominator
and puts the value in canonical form once.  ``profiles_by_brute_force`` tries
every multiset of short-orbit sizes at every quotient genus up to g, and
``profiles_by_search`` tries every count of every size, the last one's
included; the package solves for the last count.
``slope_ratios_by_specialisation`` reads the Kummer slope constants off the
products of the pullbacks themselves at one y = y0; the package reads them
off the point table at the identity.  ``pullbacks_by_translation`` pulls
y/(x+1) back with one ``apply_endo`` per translation; the package takes
the closed form r1/(r0 + r2) once per alpha-orbit, scales y for the rest,
and runs ``apply_endo`` once per call as a cross-check.
``map_image_by_normalize`` evaluates each form of a curve map by adding its
terms' antilogs with ``add``, then scales the image with ``inv`` and ``mul``
(``_normalize`` when there is no denominator); the package keeps the sums
as logs and
divides by subtracting them.  ``inverse_by_elimination`` inverts a
function-field element by fraction-free (Bareiss) elimination on the matrix
of multiplication by it; the package divides the product of the other
conjugates under v -> zeta v by the norm.  ``scaling_endo`` is y -> eps y
on the Hesse field as an ``Endo``; the package applies it with
``FFElem.scale_u``.  ``mul_nums_by_pairs`` multiplies two
numerator vectors with one ``pmul`` and one ``padd`` per pair of rows; the
package lays the rows of each side out at a u-stride that keeps the product
rows apart and multiplies once.  ``build_w_left_to_right`` multiplies the
factors m - u_T by ``FFElem`` arithmetic from left to right, one canonical
form per step; the package multiplies raw numerator vectors by a balanced
tree and takes the canonical form once.  ``element_perms`` composes every
element of a group closed from permutations as a permutation tuple, and
``translation_point`` reads a translation's point off such a tuple; the
package keeps no element permutations and labels the Kummer group's elements
in coordinates.
``map_perm`` makes a Hesse point map a permutation of the points, one call
per point, and ``rotation_point_map`` is (X : Y : Z) -> (Y : Z : X) as such
a map; the package evaluates the scaling and the rotation as
``curves.RationalMap``s over the whole point list and takes the permutation
from ``curves.act``.
``stable_domain_by_points`` and ``act_by_points`` are the domain fixpoint and
the map permutation on the point tuples themselves, with a {point: image}
memo per map filled by the one and read by the other; the package indexes
the points once per degree and runs both on ints.
``sylow_generators`` picks the 3-Sylow generators of ``EllipticGroup.sylow3``
in a second pass over the orders, testing each candidate's multiple in a
``multiples`` list from repeated ``hesse_add``; the package reads that one
multiple off the coordinates in its pass over the orders.
``TableEllipticGroup`` is E(F_q) with its full addition table, each row a
composition of ``hesse_add`` rows, and ``gbar_by_point_closure`` closes
Kummer's Gbar on the permutations of its points and reads S = {alpha(T) - T}
and the theta cosets off the table; the package keeps E in coordinates over
Z[zeta] and closes Gbar on the labels (T, k) of its elements.
"""

import itertools

from zomo import analysis, polys
from zomo.analysis import Subgroup
from zomo.coset import BudgetExceeded, EnumerationError
from zomo.curves import CurveError
from zomo.field import ExtField, _normalize
from zomo.funcfield import (Endo, FuncFieldError, _canonical, _reduce,
                            apply_endo)
from zomo.genus import RamificationProfile, split_power
from zomo.group import FiniteGroup, GroupError
from zomo.group import group_from_permutations
from zomo.hesse import (BASE_POINT, HesseError, HessePoint,
                        enumerate_hesse_points, hesse_add, make_point,
                        scaling_point_map, translation_endo)
from zomo.kummer import GbarData, KummerError, _base_field, _log3


def maximal_subgroups(G: FiniteGroup):
    """All maximal subgroups of a 3-group, via index-3 subgroups of G/Frattini."""
    analysis._require_3group(G)
    if G.order == 1:
        return []
    Phi = analysis.frattini(G)
    Q, proj = analysis.quotient(G, Phi)
    for x in range(1, Q.order):
        if Q.power(x, 3) != 0:
            raise GroupError("Frattini quotient is not elementary abelian")
    out = []
    for keep in _index3_subgroups_elem_abelian(Q):
        members = tuple(sorted(x for x in range(G.order) if proj[x] in keep))
        out.append(Subgroup(members))
    out.sort(key=lambda s: s.members)
    return out


def _index3_subgroups_elem_abelian(Q: FiniteGroup):
    """Member sets of all index-3 subgroups of an elementary abelian 3-group.

    These are the kernels of the nonzero functionals Q -> F3, taken up to
    scalar by fixing the first nonzero coordinate to 1.
    """
    r = analysis._log3(Q.order)
    basis = []
    span = Subgroup((0,))
    for x in range(1, Q.order):
        if x not in span.member_set:
            basis.append(x)
            span = analysis.subgroup_closure(Q, basis)
            if len(basis) == r:
                break
    coord = {}
    for vec in itertools.product(range(3), repeat=r):
        e = 0
        for b, c in zip(basis, vec):
            e = Q.mult(e, Q.power(b, c))
        coord[e] = vec
    kernels = []
    for f in itertools.product(range(3), repeat=r):
        nz = next((i for i, c in enumerate(f) if c), None)
        if nz is None or f[nz] != 1:
            continue
        kernels.append(frozenset(
            e for e, v in coord.items()
            if sum(a * b for a, b in zip(f, v)) % 3 == 0))
    return kernels


def _word_to_cols(word):
    cols = []
    for g, e in word:
        cols.extend([2 * g if e > 0 else 2 * g + 1] * abs(e))
    return cols


class CosetTable:
    """Coset table over columns 2g (generator g) and 2g+1 (its inverse),
    with union-find representatives and a coincidence queue."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.dead = []

    def rep(self, k):
        p = self.p
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(self, alpha, col):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded("coset budget %d exhausted" % self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return beta

    def _merge(self, k, l):
        k, l = self.rep(k), self.rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            self.p[l] = k
            self.dead.append(l)

    def coincidence(self, alpha, beta):
        self._merge(alpha, beta)
        table = self.table
        while self.dead:
            y = self.dead.pop()
            row = table[y]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                if table[delta][col ^ 1] == y:
                    table[delta][col ^ 1] = None
                mu, nu = self.rep(y), self.rep(delta)
                if table[mu][col] is not None:
                    self._merge(nu, table[mu][col])
                elif table[nu][col ^ 1] is not None:
                    self._merge(mu, table[nu][col ^ 1])
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha, word):
        table = self.table
        n = len(word)
        while True:
            f, i = alpha, 0
            while i < n and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i == n:
                if f != alpha:
                    self.coincidence(f, alpha)
                return
            b, j = alpha, n - 1
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def _state(ct):
    live = [c for c in range(len(ct.table)) if ct.rep(c) == c]
    holes = sum(ct.table[c].count(None) for c in live)
    return len(ct.table), len(live), holes


def enumerate_cosets_repeated(pres, max_cosets=100000):
    """HLT enumeration that repeats the pass over all cosets until one pass
    leaves the table's size, live count and holes unchanged; returns
    (order, maps) as ``coset.enumerate_cosets`` does."""
    if not pres.generators:
        raise EnumerationError("empty presentation")
    ngens = len(pres.generators)
    relators = [_word_to_cols(w) for w in pres.relators]
    ct = CosetTable(ngens, max_cosets)
    before = None
    while True:
        alpha = 0
        while alpha < len(ct.table):
            if ct.rep(alpha) == alpha:
                for rel in relators:
                    ct.scan_and_fill(alpha, rel)
                    if ct.rep(alpha) != alpha:
                        break
                else:
                    for col in range(ct.ncols):
                        if ct.table[alpha][col] is None:
                            ct.define(alpha, col)
            alpha += 1
        after = _state(ct)
        if after == before:
            break
        before = after
    live = [c for c in range(len(ct.table)) if ct.rep(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    maps = []
    for g in range(ngens):
        images = []
        for c in live:
            d = ct.table[c][2 * g]
            if d is None:
                raise EnumerationError("incomplete table after closure")
            images.append(renum[ct.rep(d)])
        maps.append(images)
    return len(live), maps


def cyclic_generators_by_rows(G: FiniteGroup):
    """(x, order of x) for the least generator x of each nontrivial cyclic
    subgroup of a 3-group, walking x, x^2, ... along the Cayley row of x."""
    covered, reps = bytearray(G.order), []
    for x in range(1, G.order):
        if not covered[x]:
            row, y, k = G.row(x), x, 1
            while y:
                if k % 3:
                    covered[y] = 1
                y, k = row[y], k + 1
            reps.append((x, k))
    return reps


def eval_poly_by_ffelem(field, poly, x):
    """poly(x) by Horner's rule in ``FFElem`` arithmetic."""
    acc = field.zero
    for c in reversed(poly):
        acc = acc * x + field.from_int(c)
    return acc


def substitute_by_ffelem(e, f):
    """(N, D) with f(u_image, v_image) = N / D: N by Horner in v_image over
    every numerator, D the denominator at u_image."""
    num = e.field.zero
    for poly in reversed(f.nums):
        num = num * e.v_image + eval_poly_by_ffelem(e.field, poly, e.u_image)
    return num, eval_poly_by_ffelem(e.field, f.den, e.u_image)


def profiles_by_brute_force(d, n, genus):
    """Every RamificationProfile(n, gbar, sizes) with 2g - 2 = n(2 gbar - 2)
    + sum(n - l): gbar runs over 0..genus and sizes over every multiset of
    the proper d-power divisors of n, of at most (2g - 2 + 2n) // (n - n/d)
    orbits, since each orbit adds at least n - n/d."""
    divisors, l = [], 1
    while l < n:
        divisors.append(l)
        l *= d
    most = (2 * genus - 2 + 2 * n) // (n - n // d)
    out = []
    for gbar in range(genus + 1):
        for s in range(most + 1):
            for sizes in itertools.combinations_with_replacement(divisors, s):
                if (n * (2 * gbar - 2) + sum(n - l for l in sizes)
                        == 2 * genus - 2):
                    out.append(RamificationProfile(n, gbar, sizes))
    out.sort(key=lambda p: (p.quotient_genus, p.orbit_sizes))
    return out


def profiles_by_search(d, n, genus):
    """The package's former enumerator: at each quotient genus, every count
    of every short-orbit size is tried in turn, the last size's included,
    so that its search costs one factor of the genus more than the
    package's, which takes only the last count that uses up the rest."""
    divisors, l = [], 1
    while l < n:
        divisors.append(l)
        l *= d
    target = 2 * genus - 2
    out = []
    gbar = 0
    while n * (2 * gbar - 2) <= target:
        rem = target - n * (2 * gbar - 2)

        def rec(idx, left, acc):
            if left == 0:
                out.append(RamificationProfile(n, gbar, tuple(sorted(acc))))
                return
            if idx == len(divisors):
                return
            l = divisors[idx]
            contrib = n - l
            for cnt in range(left // contrib + 1):
                rec(idx + 1, left - cnt * contrib, acc + [l] * cnt)

        rec(0, rem, [])
        gbar += 1
    out.sort(key=lambda p: (p.quotient_genus, p.orbit_sizes))
    return out


def slope_ratios_by_specialisation(F, pullbacks, slopes):
    """{m: c_m} with prod (m - u_T) = c_m prod (m0 - u_T) over the
    pullbacks u_T, m0 = slopes[0], read off the products at the first y0 in
    F_q where every pullback denominator and the m0 product are nonzero:
    there they live in F_q[x]/(x^3 + y0^3 + 1), and the denominators cancel
    in the ratio.  One component gives c_m; the others must agree."""
    def at_y0(poly, y0):
        acc = 0
        for c in reversed(poly):
            acc = (acc * y0 + c) % F.q
        return acc

    for y0 in F.elements():
        spec = [(at_y0(u.den, y0),
                 polys.ptrim(F, [at_y0(n, y0) for n in u.nums]))
                for u in pullbacks]
        if all(d for d, _ in spec):
            mod = ((y0 ** 3 + 1) % F.q, 0, 0, 1)
            prods = [_product_at(F, spec, mod, m) for m in slopes]
            if prods[0]:
                break
    else:
        raise KummerError("no y0 in F_%d specialises the product" % F.q)
    base = prods[0]
    ratios = {}
    for m, prod in zip(slopes, prods):
        c = F.mul(prod[-1], F.inv(base[-1])) if prod else 0
        if not c or polys.pscale(F, base, c) != prod:
            raise KummerError("w for m = %d is not a constant multiple of "
                              "w for m = %d" % (m, slopes[0]))
        ratios[m] = c
    return ratios


def pullbacks_by_translation(field, translations):
    """The pullback of y/(x+1) under each translation, one ``apply_endo``
    per point."""
    s = field.u() / (field.v() + field.one)
    return [apply_endo(translation_endo(field, T), s) for T in translations]


def mul_nums_by_pairs(field, xs, ys):
    """The numerators of (sum xs[i] v^i)(sum ys[j] v^j), reduced mod m."""
    F = field.constants
    prod = [()] * (2 * field.degree - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys, i):
                if y:
                    prod[j] = polys.padd(F, prod[j], polys.pmul(F, x, y))
    return _reduce(field, prod)


def build_w_left_to_right(field, m, pullbacks):
    """prod (m - u_T) over the pullbacks, in input order."""
    c = field.from_int(m)
    w = field.one
    for u in pullbacks:
        w = w * (c - u)
    return w


def scaling_endo(field, eps):
    """(x, y) -> (x, eps y) on the Hesse field, whose u is y."""
    return Endo(field, u_image=field.from_int(eps) * field.u(),
                v_image=field.v())


def inverse_by_elimination(f):
    """With N = sum nums[i] v^i and M the matrix of multiplication by N,
    the inverse is den * X / D: fraction-free (Bareiss) elimination of
    M X = D e_0 over F_p[u] gives D = +-det M as its last pivot and the
    polynomial solution X, so no step leaves F_p[u]."""
    if f.is_zero():
        raise ZeroDivisionError("inverse of zero function-field element")
    field = f.field
    F, n = field.constants, field.degree
    # column j holds the numerators of (sum nums[i] v^i) * v^j
    cols = [list(f.nums)]
    for _ in range(n - 1):
        cols.append(_reduce(field, [()] + cols[-1]))
    rows = [[cols[j][i] for j in range(n)] + [(1,) if i == 0 else ()]
            for i in range(n)]
    prev = (1,)
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][k]), None)
        if r is None:
            raise FuncFieldError("%r is a zero divisor" % (f,))
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
    return _canonical(field, [polys.pmul(F, f.den, x) for x in X], prev)


def _product_at(F, spec, mod, m):
    """prod (m den_T - num_T) mod ``mod``, the T-th pullback at y0 being
    num_T/den_T: the product for m times prod den_T, which is free of m."""
    acc = (1,)
    for d, num in spec:
        acc = polys.pmod(F, polys.pmul(F, acc, polys.psub(F, (m * d,), num)),
                         mod)
    return acc


def eval_monomials_by_add(C, monos, p):
    """The monomial sum at p, each term of an ExtField sum one antilog of
    a sum of logs, the terms added with ``C.add``."""
    if not isinstance(C, ExtField):
        return C.eval_monomials(monos, p)
    exp, log = C.exp, C.log
    logs = [log[c] for c in p]
    acc = C.zero
    for exps, n in monos:
        i = C.int_log[n % C.q]
        if i is None or any(e and j is None for j, e in zip(logs, exps)):
            continue
        i += sum(e * j for j, e in zip(logs, exps) if e)
        acc = C.add(acc, exp[i % len(exp)])
    return acc


def map_image_by_normalize(C, forms, p, den=None):
    """The forms at p over the value of den or, when den is None, scaled so
    that the last nonzero value is one; None when that divisor is zero."""
    vals = tuple(eval_monomials_by_add(C, f, p) for f in forms)
    if den is None:
        if all(v == C.zero for v in vals):
            return None
        return _normalize(C, vals)
    d = eval_monomials_by_add(C, den, p)
    if d == C.zero:
        return None
    dinv = C.inv(d)
    return tuple(C.mul(v, dinv) for v in vals)


def element_perms(G: FiniteGroup, gen_perms):
    """Every element of G as a permutation tuple, for G closed from
    gen_perms: the element c then g is x -> g[c[x]]."""
    return G.along_tree(tuple(range(len(gen_perms[0]))), gen_perms,
                        lambda c, g: tuple(g[x] for x in c))


def translation_point(E, perm):
    """The point T with perm = translation-by-T, or None."""
    T = E.points[perm[E.iO]]
    return T if list(perm) == E.translation_perm(T) else None


def map_perm(E, fn):
    """The point map fn of the Hesse group E as a permutation of E.points,
    one fn call per point; raises if it is not a bijection."""
    images = [E.index[fn(p)] for p in E.points]
    if sorted(images) != list(range(len(E.points))):
        raise HesseError("map is not a bijection of the point set")
    return images


def rotation_point_map(E):
    """(X : Y : Z) -> (Y : Z : X) on the points of the Hesse group E."""
    return lambda p: make_point(E.C, *p.coords[1:], p.coords[0])


def multiples(E, p):
    """[O, p, 2p, ...] up to the order of p, by repeated ``hesse_add``."""
    out = [E.O, p]
    while out[-1] != E.O:
        out.append(hesse_add(E.C, out[-1], p))
    return out[:-1]


def sylow_generators(E, pts):
    """The two-pass reference for the generators ``EllipticGroup.sylow3``
    picks in its one pass over the orders: g1 the first point of pts, the
    3-Sylow group A, of the largest order d1, and g2 the first point of
    order d2 = |A|/d1 whose image generates A/<g1>, i.e. whose multiple
    (d2/3) g2 lies outside <g1>, with the multiples read from ``multiples``
    lists."""
    orders = [E.order_of(p) for p in pts]
    d1 = max(orders)
    d2 = len(pts) // d1
    g1 = pts[orders.index(d1)]
    span1 = set(multiples(E, g1))
    for p, d in zip(pts, orders):
        if d == d2 and multiples(E, p)[d2 // 3] not in span1:
            return g1, p
    raise KummerError("3-Sylow subgroup is not 2-generated")


def gbar_generator_perms(data):
    """The point permutations t1, t2, al that ``kummer.build_gbar`` closed
    into data.group."""
    E = data.E
    g1, g2 = sylow_generators(E, E.sylow3()[0])
    alpha = map_perm(E, scaling_point_map(E.C, E.C.from_int(E.epsilon)))
    return [E.translation_perm(g1), E.translation_perm(g2), alpha]


def act_by_points(m, S, domain=None, images=None):
    """The map as a permutation of the nonsingular points, or of domain,
    read through its {point: image} memo ``images`` when given."""
    domain = S.nonsingular() if domain is None else domain
    if images is None:
        images = dict(zip(domain, m.images(S.field, domain)))
    index = {p: i for i, p in enumerate(domain)}
    perm = list(map(index.get, map(images.__getitem__, domain)))
    if None in perm:
        raise CurveError("map %s sends %r off the nonsingular point set"
                         % (m.name, domain[perm.index(None)]))
    if len(set(perm)) != len(domain):
        raise CurveError("map %s is not injective on the point set" % m.name)
    return perm


def stable_domain_by_points(maps, S, images=None):
    """The largest subset of the nonsingular points every map sends into
    it, sorted, as a fixpoint on point tuples; fills ``images`` (one
    {point: image} dict per map) when given."""
    C, points = S.field, S.nonsingular()
    images = [{} for _ in maps] if images is None else images
    columns = [m.images(C, points) for m in maps]
    for seen, column in zip(images, columns):
        seen.update(zip(points, column))
    alive = set(points)
    while True:
        kept = alive.intersection(*[
            itertools.compress(points, map(alive.__contains__, c))
            for c in columns])
        if len(kept) == len(alive):
            return sorted(alive)
        alive = kept


class TableEllipticGroup:
    """E(F_q) with the full addition table ``table[i][j]``, the index of
    points[i] + points[j].  Only the rows of a generating set come from
    ``hesse_add``; every other row is a composition of rows,
    row(P + g) = row(g) after row(P), which the associativity of the group
    law makes exact."""

    def __init__(self, C):
        self.C = C
        self.O = make_point(C, *BASE_POINT)
        self.points = enumerate_hesse_points(C)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.iO = self.index[self.O]
        self.table = self._add_table()

    def _add_table(self):
        n = len(self.points)
        rows = {self.iO: list(range(n))}
        gens = []
        while len(rows) < n:
            g = self.points[next(i for i in range(n) if i not in rows)]
            gens.append([self.index[hesse_add(self.C, g, p)]
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

    def order_of(self, a):
        row = self.table[self.index[a]]
        k, i = 1, row[self.iO]
        while i != self.iO:
            i = row[i]
            k += 1
        return k

    def sylow3(self):
        n3 = 3 ** split_power(len(self.points), 3)[0]
        pts = [p for p in self.points if n3 % self.order_of(p) == 0]
        return (pts, *sylow_generators(self, pts))

    def translation_perm(self, t):
        return list(self.table[self.index[t]])


def gbar_by_point_closure(q, epsilon):
    """``kummer.build_gbar(q)``, with alpha = (X : epsilon Y : Z) for
    either primitive cube root epsilon, closed on the permutations of the
    points of a ``TableEllipticGroup``: Gbar's elements are labelled
    (T, k) along its spanning tree from their images of O, S is
    {alpha(T) - T} read off the table, and the theta cosets are sums from
    the table."""
    E = TableEllipticGroup(_base_field(q))
    pts, g1, g2 = E.sylow3()
    h = _log3(len(pts))
    alpha = map_perm(E, scaling_point_map(E.C, epsilon))
    gens = [E.translation_perm(g1), E.translation_perm(g2), alpha]
    G = group_from_permutations(gens, gen_names=("t1", "t2", "al"))
    labels = G.along_tree((E.iO, 0), list(zip(gens, (0, 0, 1))),
                          lambda c, g: (g[0][c[0]], (c[1] + g[1]) % 3))
    A = [E.points[i] for i, k in labels if k == 0]
    image = {E.add(E.points[alpha[E.index[T]]],
                   HessePoint(_normalize(E.C, T.coords[::-1])))
             for T in A}
    S = [T for T in A if T in image]
    U = next(p for p in pts if p not in S)
    theta = (tuple(S), tuple(E.add(U, T) for T in S),
             tuple(E.add(U, E.add(U, T)) for T in S))
    return GbarData(q, h, E, G, tuple(pts), tuple(S), theta)
