"""Degree-3 Kummer covers of the Hesse cubic.

Pipeline: take the rational 3-torsion translations of E: X^3+Y^3+Z^3 = 0
over F_q (q = 1 mod 3), adjoin the scaling (X : eps Y : Z) to get a group
Gbar of order 3^(h+1) acting on E(F_q), split the translation orbit of the
base inflection P = (-1, 0, 1) into the three Frattini orbits theta_1,
theta_2, theta_3, and for a line m X - Y + m Z = 0 through P and a point of
theta_2 form

    t = (m x - y + m)/(x + 1),     w = prod over Frattini translations of
                                       the pullback of t,

so that z^3 = w defines a cover of genus 3^h + 1.  The line slope m is the
only free choice, and it changes w only by a constant, since div w =
theta_2 + theta_3 - 2 theta_1 for every Q in theta_2: the product is formed
for the first slope m0 only, and each other w is c_m w_{m0}, with c_m read
off the products at one y0 in F_q.  The builder tries every slope (and both
eps) and compares the emitted equation against a stored reference, exactly
first and then up to a multiplicative constant that is a cube in F_q.
"""

from dataclasses import dataclass

from . import ZomoError, polys
from .analysis import _log3, frattini
from .field import PrimeField
from .funcfield import Endo, FFElem, apply_endo, ffelem_str, valuation_at
from .group import FiniteGroup, group_from_permutations
from .genus import RamificationProfile, rh_genus
from .hesse import (EllipticGroup, HessePoint, cube_roots_of_unity,
                    hesse_function_field, make_point, scaling_endo,
                    scaling_point_map, translation_endo)


class KummerError(ZomoError, ValueError):
    pass


def translation_sylow3(q):
    """The 3-Sylow subgroup of (E(F_q), +) with its invariant factors."""
    if q % 3 != 1:
        raise KummerError("q = %d is not 1 mod 3" % q)
    E = EllipticGroup(PrimeField(q))
    pts, invariants = E.sylow3()
    return E, pts, invariants


def _sylow_generators(E, pts, invariants):
    """Two independent points generating the 3-Sylow group."""
    d1 = max(invariants)
    g1 = next(p for p in pts if E.order_of(p) == d1)
    best = None
    for p in pts:
        if _spans(E, g1, p, len(pts)):
            if best is None or E.order_of(p) < E.order_of(best):
                best = p
    if best is None:
        raise KummerError("3-Sylow subgroup is not 2-generated (internal)")
    return g1, best


def _spans(E, a, b, target):
    """Whether the multiples of a, each translated by every multiple of b,
    cover ``target`` points; walks point indices through E's table."""
    row_b = E.table[E.index[b]]
    order_b = E.order_of(b)
    seen = set()
    for p in E.multiples(a):
        i = E.index[p]
        seen.add(i)
        for _ in range(order_b):
            i = row_b[i]
            seen.add(i)
    return len(seen) == target


@dataclass(frozen=True)
class GbarData:
    q: int
    h: int
    epsilon: int
    E: EllipticGroup
    group: FiniteGroup          # permutation action on E(F_q)
    sylow_points: tuple
    phi_translations: tuple     # theta_1 as a point subgroup
    theta: tuple                # (theta_1, theta_2, theta_3)


def build_gbar(q, epsilon=None):
    """Gbar = (3-Sylow translations) x| <alpha> acting on E(F_q)."""
    E, pts, invariants = translation_sylow3(q)
    F = E.C
    h = sum(_log3(d) for d in invariants)
    if epsilon is None:
        epsilon = min(cube_roots_of_unity(F))
    elif pow(epsilon, 3, q) != 1 or epsilon % q == 1:
        raise KummerError("epsilon must be a primitive cube root of unity")
    g1, g2 = _sylow_generators(E, pts, invariants)
    alpha = E.map_perm(scaling_point_map(F, F.from_int(epsilon)))
    G = group_from_permutations(
        [E.translation_perm(g1), E.translation_perm(g2), alpha],
        gen_names=("t1", "t2", "al"))
    if G.order != 3 ** (h + 1):
        raise KummerError("group closure has order %d, expected 3^%d"
                          % (G.order, h + 1))
    S = _frattini_translations(E, G)
    if len(S) != 3 ** (h - 1):
        raise KummerError("Frattini translation part has size %d" % len(S))
    theta = _theta_cosets(E, next(p for p in pts if p not in S), S)
    return GbarData(q, h, epsilon, E, G, tuple(pts), tuple(S), theta)


def translation_point(G, E, element):
    """The point T with element = translation-by-T, or None."""
    perm = list(G.perms[element])
    T = E.points[perm[E.index[E.O]]]
    return T if perm == E.translation_perm(T) else None


def _translations_in(G, E, elements):
    """The points T whose translation is one of the group elements."""
    return [T for T in (translation_point(G, E, e) for e in elements)
            if T is not None]


def _frattini_translations(E, G):
    phi = frattini(G)
    out = _translations_in(G, E, sorted(phi.members))
    if len(out) != len(phi.members):
        raise KummerError("Frattini subgroup is not all translations")
    return out


def _theta_cosets(E, U, S):
    """theta_1 = S (contains O = P), theta_2 = U + S and theta_3 = 2U + S,
    for a point U of the translation group outside S."""
    Sset = set(S)
    th2 = tuple(E.add(U, T) for T in S)
    th3 = tuple(E.add(U, E.add(U, T)) for T in S)
    if set(th2) & Sset or set(th3) & Sset or set(th2) & set(th3):
        raise KummerError("Frattini cosets do not partition the orbit")
    return (tuple(S), th2, th3)


def stabilizer_of_base(data: GbarData):
    """Elements of Gbar fixing the base point; should be <alpha>, order 3."""
    iO = data.E.index[data.E.O]
    return [e for e in range(data.group.order)
            if data.group.perms[e][iO] == iO]


def line_slope(E, Q: HessePoint):
    """Slope m of the line m X - Y + m Z = 0 through P = (-1,0,1) and Q."""
    F = E.C
    q0, q1, q2 = Q.coords
    d = F.add(q0, q2)
    if d == F.zero:
        raise KummerError("line through P and %r is the tangent at P" % (Q,))
    return F.mul(q1, F.inv(d))


def phi_pullbacks(field, E, translations):
    """The pullbacks u_T of y/(x+1) under the translations."""
    s = field.u() / (field.v() + field.one)
    return [apply_endo(translation_endo(field, E, T), s)
            for T in translations]


def _product(items):
    """The product of a nonempty list by a balanced tree: the operands of
    each level have similar sizes, so the big products go through Kronecker
    substitution.  The ring is commutative, so the result is the one a
    left-to-right product gives."""
    while len(items) > 1:
        items = [items[i] * items[i + 1] if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


def build_w(field, m, pullbacks):
    """prod (m - u_T) over the Frattini pullbacks u_T that
    ``phi_pullbacks`` returns (the translations include O, so there is at
    least one)."""
    c = field.from_int(m)
    return _product([c - u for u in pullbacks])


def slope_ratios(F, pullbacks, slopes):
    """{m: c_m} with build_w(field, m, pullbacks) = c_m w_{m0} for every m
    in slopes, m0 = slopes[0].  div w_m is theta_2 + theta_3 - 2 theta_1
    for every slope through theta_2, so each ratio is a constant.  It is
    read off the products at the first y0 in F_q where every pullback
    denominator and the m0 product are nonzero: there they live in
    F_q[x]/(x^3 + y0^3 + 1), and the denominators cancel in the ratio.
    One component gives c_m; the others must agree."""
    for y0 in F.elements():
        spec = [(polys.peval(F, u.den, y0),
                 polys.ptrim(F, [polys.peval(F, n, y0) for n in u.nums]))
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


def _product_at(F, spec, mod, m):
    """prod (m den_T - num_T) mod ``mod``, the T-th pullback at y0 being
    num_T/den_T: the product for m times prod den_T, which is free of m."""
    acc = (1,)
    for d, num in spec:
        acc = polys.pmod(F, polys.pmul(F, acc, polys.psub(F, (m * d,), num)),
                         mod)
    return acc


def verify_w_divisor(field, w: FFElem, theta):
    """Poles of order 2 on theta_1, zeros of order 1 on theta_2 u theta_3,
    checked at every affine orbit point (infinite points are skipped: the
    valuation machinery works at affine places)."""
    F = field.constants
    th1, th2, th3 = theta
    checked = 0
    for plist, want in ((th1, -2), (th2, 1), (th3, 1)):
        for p in plist:
            x_, y_, z_ = p.coords
            if z_ != F.one:
                continue
            if valuation_at(w, y_, x_) != want:
                return False, checked
            checked += 1
    return True, checked


# -- emission ----------------------------------------------------------------

@dataclass(frozen=True)
class KummerOutput:
    q: int
    h: int
    epsilon: int
    Q: HessePoint
    m: int
    w: FFElem
    equation: str
    genus: int
    matched_golden: bool
    matched_up_to_cube: bool
    all_equations: tuple


def _genus_from_orbits(h, theta):
    if any(len(t) != 3 ** (h - 1) for t in theta):
        raise KummerError("orbit sizes inconsistent with h = %d" % h)
    # degree-3 cover of the elliptic quotient, totally ramified over the
    # 3^h orbit points; cross-checked through the genus formula
    g = rh_genus(RamificationProfile(3, 1, (1,) * (3 ** h)))
    if g != 3 ** h + 1:
        raise KummerError("genus formula mismatch")
    return g


def _monic_normalization(w):
    """w divided by its leading numerator coefficient c when c is a cube,
    c^((q-1)/3) = 1 as q = 1 mod 3; z -> z/c leaves the extension as it is."""
    F = w.field.constants
    lead = next((num[-1] for num in reversed(w.nums) if num), None)
    if lead is None or lead == F.one or pow(lead, (F.q - 1) // 3, F.q) != 1:
        return None
    return w.scale(F.inv(lead))


def load_golden(q):
    from importlib import resources
    ref = resources.files("zomo") / "data" / "golden" / ("kummer_q%d.txt" % q)
    if not ref.is_file():
        raise KummerError("no reference equation stored for q = %d" % q)
    return ref.read_text().strip()


_GBAR_CACHE = {}  # q -> Gbar for the least primitive cube root
_LIFT_CACHE = {}  # q -> the pullbacks of its Frattini translations


def _cached_gbar(q):
    if q not in _GBAR_CACHE:
        _GBAR_CACHE[q] = build_gbar(q)
    return _GBAR_CACHE[q]


def _cached_pullbacks(field, data: GbarData):
    if data.q not in _LIFT_CACHE:
        _LIFT_CACHE[data.q] = phi_pullbacks(field, data.E,
                                            data.phi_translations)
    return _LIFT_CACHE[data.q]


def build_kummer(q, golden_text=None):
    """Run the construction over F_q, trying every line slope, and report
    the best match against golden_text.  Each slope's w is c_m w_{m0} (see
    ``slope_ratios``).  Only the least primitive cube root is tried: the
    other gives alpha^2, the same <alpha>, hence the same Frattini
    translations S, theta_2 and covers."""
    F = PrimeField(q)
    field = hesse_function_field(F)
    best = None
    seen_equations = []
    data = _cached_gbar(q)
    points = {}     # slope -> the first point of theta_2 on its line
    for Q in data.theta[1]:
        points.setdefault(line_slope(data.E, Q), Q)
    pullbacks = _cached_pullbacks(field, data)
    w0 = build_w(field, next(iter(points)), pullbacks)
    for m, c in slope_ratios(F, pullbacks, list(points)).items():
        Q, w = points[m], w0.scale(c)
        eq = ffelem_str(w)
        if eq not in seen_equations:
            seen_equations.append(eq)
        exact = golden_text is not None and eq == golden_text
        wn = (None if golden_text is None or exact
              else _monic_normalization(w))
        up_to_cube = wn is not None and ffelem_str(wn) == golden_text
        if best is None or exact or (up_to_cube and not best[1]):
            best = (exact, up_to_cube, Q, m, w, eq)
        if exact:
            break
    exact, up_to_cube, Q, m, w, eq = best
    genus = _genus_from_orbits(data.h, data.theta)
    return KummerOutput(q, data.h, data.epsilon, Q, m, w, eq, genus,
                        exact, up_to_cube, tuple(seen_equations))


# -- the order-27 micro-construction ----------------------------------------

@dataclass(frozen=True)
class SmallConstruction:
    epsilon: int
    m: int
    w: FFElem
    equation: str
    theta: tuple
    alpha_ratio: FFElem
    delta_ratio: FFElem


def small_gbar27(q=19):
    """The order-27 group generated by the scaling alpha, for the smaller
    primitive cube root epsilon, and the coordinate rotation
    (X, Y, Z) -> (Y, Z, X), with its theta orbits."""
    E = EllipticGroup(PrimeField(q))
    F = E.C
    epsilon = min(cube_roots_of_unity(F))
    alpha = E.map_perm(scaling_point_map(F, F.from_int(epsilon)))

    def rot(p):
        x, y, z = p.coords
        return make_point(F, y, z, x)

    delta = E.map_perm(rot)
    G = group_from_permutations([alpha, delta], gen_names=("al", "de"))
    if G.order != 27:
        raise KummerError("rotation group closure has order %d" % G.order)
    S = _frattini_translations(E, G)
    if len(S) != 3:
        raise KummerError("Frattini part of the order-27 group is not C3")
    # the cosets of S in the order-9 translation group of G, with theta_2
    # the coset of points at infinity when one exists
    rest = [p for p in _translations_in(G, E, range(G.order)) if p not in S]
    U = next((p for p in rest if p.coords[2] == F.zero), rest[0])
    return E, G, S, _theta_cosets(E, U, S), epsilon


def small_construction(q=19):
    """Genus-10 case: theta_1 = {P, P1, P2}, Q the infinite point (1, -1, 0);
    returns the honestly computed slope, product, and generator ratios.

    The line through P = (-1, 0, 1) and Q is X + Y + Z = 0, so m = -1.
    Rescaling t by a constant multiplies w by its cube, so w is fixed only
    up to a cube constant by the normalisation of t."""
    E, G, S, theta, epsilon = small_gbar27(q)
    F = E.C
    field = hesse_function_field(F)
    Q = make_point(F, 1, -1, 0)
    if Q not in theta[1]:
        raise KummerError("expected (1, -1, 0) in theta_2")
    m = line_slope(E, Q)
    w = build_w(field, m, phi_pullbacks(field, E, S))
    alpha_endo = scaling_endo(field, F.from_int(epsilon))
    delta_endo = _rotation_endo(field)
    return SmallConstruction(
        epsilon, m, w, ffelem_str(w), theta,
        apply_endo(alpha_endo, w) / w, apply_endo(delta_endo, w) / w)


def _rotation_endo(field):
    """(x, y) -> (y/x, 1/x), the affine trace of (X,Y,Z) -> (Y,Z,X)."""
    x, y = field.v(), field.u()
    return Endo(field, u_image=field.one / x, v_image=y / x)
