"""Degree-3 Kummer covers of the Hesse cubic.

Pipeline: take the translations by the 3-Sylow subgroup A of
E: X^3+Y^3+Z^3 = 0 over F_q (q = 1 mod 3), adjoin the scaling
alpha = (X : eps Y : Z) to get a group Gbar of order 3^(h+1) acting on
E(F_q), split the translation orbit of the base inflection
P = (-1, 0, 1) into the three Frattini orbits theta_1, theta_2, theta_3,
and for a line m X - Y + m Z = 0 through P and a point of theta_2 form

    t = (m x - y + m)/(x + 1),     w = prod over Frattini translations of
                                       the pullback of t,

so that z^3 = w defines a cover of genus 3^h + 1.  As t = m - s for
s = y/(x+1), w needs the pullbacks u_T = s tau_T = r1/(r0 + r2), with
tau_T(x, y) = (r2/r0, r1/r0) for the ``translation_chord`` (r0, r1, r2)
that ``translation_endo`` reads too: one division each, taken one
alpha-orbit at a time.  alpha (x, y) -> (x, eps y) is a group automorphism
fixing O, so tau_alpha(T) = alpha tau_T alpha^-1, and s alpha = eps s;
hence u_alpha(T) = eps u_T(x, eps^2 y) for every T.  eps is the least
primitive cube root, E's own: the other root gives alpha^2, the same
<alpha> and so the same Gbar and covers.  The line slope m is the only free
choice, and it changes w only by a constant, since div w = theta_2 +
theta_3 - 2 theta_1 for every Q in theta_2: the product is formed for the
first slope m0 only, and each other w is c_m w_{m0}, with c_m read off at
P, where it is a product of values in F_q.  The builder tries every slope
and compares the emitted equation against a stored reference, exactly
first and then up to a multiplicative constant that is a cube in F_q.

Gbar = A x| <alpha> is closed on the labels (T, k) of its elements
P -> alpha^k P + T, in E's coordinates over Z[zeta], on which alpha is
zeta (``_close_gbar``), and theta_1 = Phi(Gbar) = G'G^3 is (1 - zeta)A,
with no normal closure.
"""

from dataclasses import dataclass
from math import prod

from . import ZomoError, polys
from .analysis import _log3, frattini  # noqa: F401 (bench tracer test)
from .curves import ROTATION, PointSet, act, field_for
from .funcfield import (FFElem, _canonical, _mul_nums, apply_endo,
                        ffelem_str, scaled_str, valuation_at)
from .group import FiniteGroup, group_from_permutations
from .genus import RamificationProfile, rh_genus, split_power
from .hesse import (BASE_POINT, EllipticGroup, HessePoint, _zeta,
                    enumerate_hesse_points, hesse_function_field, make_point,
                    scaling_point_map, translation_chord, translation_endo)


class KummerError(ZomoError, ValueError):
    pass


def _base_field(q):
    """F_q once q is 1 mod 3 and a scan of its q values fits the budget."""
    if q % 3 != 1:
        raise KummerError("q = %d is not 1 mod 3" % q)
    return field_for(q, 1, q)


def kummer_h(q):
    """h with 3^h = |A|, the 3-part of #E(F_q), from the point count
    alone, with no group law."""
    return split_power(len(enumerate_hesse_points(_base_field(q))), 3)[0]


@dataclass(frozen=True)
class GbarData:
    q: int
    h: int
    E: EllipticGroup
    group: FiniteGroup          # on t1, t2, al; keeps no point action
    sylow_points: tuple
    phi_translations: tuple     # theta_1 as a point subgroup
    theta: tuple                # (theta_1, theta_2, theta_3)


def build_gbar(q):
    """Gbar = (3-Sylow translations) x| <alpha> acting on E(F_q), alpha
    the diagonal map (X : eps Y : Z) for E's root eps = ``E.epsilon``."""
    E = EllipticGroup(_base_field(q))
    pts, g1, g2 = E.sylow3()
    h = _log3(len(pts))
    G, _, S = _close_gbar(E, h, ("t1", "t2", "al"),
                          [(E.index[g1], 0), (E.index[g2], 0), (E.iO, 1)])
    U = next(E.index[p] for p in pts if E.index[p] not in S)
    return GbarData(q, h, E, G, tuple(pts),
                    tuple(E.points[T] for T in S), _theta_cosets(E, U, S))


def _point_perm(E, m):
    """The curve map m as a permutation of E.points."""
    return act(m, PointSet(E.C, [p.coords for p in E.points], set()))


def _close_gbar(E, h, names, gens):
    """(G, A, S): the group G of order 3^(h+1) on the generators gens,
    with those names; its translations A, in element order; and
    S = (1 - zeta)A in that order, of size 3^(h-1), as point indices.
    An element P -> alpha^k P + T, alpha = (X : eps Y : Z) for
    eps = E.epsilon, is labelled (T, k mod 3), as is each of gens.  alpha
    is zeta on E's coordinates, so (T, l) followed by (t, k) is
    (zeta^k T + t, l + k).  A is the orbit of O, and G is
    closed on its regular action on the labels: one base point certifies
    it, and ``FiniteGroup``'s breadth-first numbering depends only on the
    group and generator order, so it is that of the action on E's points."""
    coords, at = E.coords, E.at
    A, pos = [E.iO], {E.iO: 0}
    images = [[] for _ in gens]   # images[g][s]: the position of A[s] g
    for T in A:
        for (t, k), image in zip(gens, images):
            i, j = coords[T]
            for _ in range(k % 3):
                i, j = _zeta(i, j)
            R = at(i + coords[t][0], j + coords[t][1])
            if R not in pos:
                pos[R] = len(A)
                A.append(R)
            image.append(pos[R])
    perms = [[3 * s + (l + k) % 3 for s in image for l in range(3)]
             for (_, k), image in zip(gens, images)]
    G = group_from_permutations(perms, gen_names=names)
    if G.order != 3 ** (h + 1):
        raise KummerError("group closure has order %d, expected 3^%d"
                          % (G.order, h + 1))
    A = [A[x // 3] for x in G.along_tree(0, perms, lambda c, g: g[c])
         if x % 3 == 0]
    image = {at(i - zi, j - zj) for i, j in map(coords.__getitem__, A)
             for zi, zj in [_zeta(i, j)]}   # (1 - zeta)A
    S = [T for T in A if T in image]
    if len(S) != 3 ** (h - 1):
        raise KummerError("Frattini translation part has size %d" % len(S))
    return G, A, S


def _theta_cosets(E, U, S):
    """theta_1 = S (contains O = P), theta_2 = U + S and theta_3 = 2U + S
    as points, for the index U of a point of the translation group outside
    the point indices S."""
    u, v = E.coords[U]
    th = [tuple(E.points[E.at(i + m * u, j + m * v)]
                for i, j in map(E.coords.__getitem__, S)) for m in range(3)]
    if len(set().union(*th)) != 3 * len(S):
        raise KummerError("Frattini cosets do not partition the orbit")
    return tuple(th)


def line_slope(E, Q: HessePoint):
    """Slope m of the line m X - Y + m Z = 0 through P = (-1,0,1) and Q."""
    F = E.C
    q0, q1, q2 = Q.coords
    d = F.add(q0, q2)
    if d == F.zero:
        raise KummerError("line through P and %r is the tangent at P" % (Q,))
    return F.mul(q1, F.inv(d))


def phi_pullbacks(field, translations, eps):
    """The pullbacks u_T of s = y/(x+1) under the translations, in input
    order: r1/(r0 + r2) for the first T of each alpha-orbit, and
    u_alpha(T) = eps u_T(x, eps^2 y) (see the module docstring) for the
    rest, with eps E's cube root ``E.epsilon``.  The first T != O is
    cross-checked against ``apply_endo`` of ``translation_endo``, an
    endomorphism checked against the field relation."""
    F = field.constants
    eps2, alpha = F.mul(eps, eps), scaling_point_map(F, eps)
    s = field.u() / (field.v() + field.one)
    O = make_point(F, *BASE_POINT)
    check_at = next((T for T in translations if T != O), None)
    wanted, lifts = set(translations), {}
    for T in translations:
        if T in lifts:
            continue
        r0, r1, r2 = translation_chord(field, T)
        u = lifts[T] = r1 / (r0 + r2)
        if T == check_at and u != apply_endo(translation_endo(field, T), s):
            raise KummerError("closed-form pullback by %r disagrees with "
                              "apply_endo" % (T,))
        P = alpha(T)
        while P != T:   # the orbit has length 1 or 3
            u = u.scale_u(eps2).scale(eps)
            if P in wanted:
                lifts[P] = u
            P = alpha(P)
    return [lifts[T] for T in translations]


def build_w(field, m, pullbacks):
    """prod (m - u_T) over the Frattini pullbacks u_T that
    ``phi_pullbacks`` returns (the translations include O, so there is at
    least one).  With u_T = (N0 + N1 v + N2 v^2)/D, the factor m - u_T is
    (m D - N0, -N1, -N2)/D, in lowest terms as u_T is.  The factors are
    multiplied as (numerators, denominator) pairs by a balanced tree, whose
    operands at each level have similar sizes, so the big products go
    through Kronecker substitution; the root alone is put in canonical
    form, which is unique, so w is the left-to-right product."""
    F = field.constants
    items = [([polys.psub(F, polys.pscale(F, u.den, m), u.nums[0])]
              + [polys.pneg(F, x) for x in u.nums[1:]], u.den)
             for u in pullbacks]
    while len(items) > 1:
        items = [(_mul_nums(field, items[i][0], items[i + 1][0]),
                  polys.pmul(F, items[i][1], items[i + 1][1]))
                 if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return _canonical(field, *items[0])


def slope_ratios(E, S, slopes):
    """{m: c_m} with build_w(field, m, pullbacks) = c_m w_{m0} for every m
    in slopes, m0 = slopes[0], the pullbacks being those of the Frattini
    translations S.  div w_m is theta_2 + theta_3 - 2 theta_1 for every
    slope through theta_2, so each ratio is a constant; it is read at the
    identity O = P.  There u_O = y/(x+1) has a pole, so (m - u_O)/(m0 - u_O)
    tends to 1, and every other u_T takes the value s(T) = line_slope(E, T),
    finite and off theta_2's slopes since T lies on theta_1:
    c_m = prod over T != O of (m - s(T))/(m0 - s(T))."""
    q = E.C.q
    at_O = [line_slope(E, T) for T in S if T != E.O]
    w = {m: prod(m - s for s in at_O) % q for m in slopes}
    inv0 = pow(w[slopes[0]], -1, q)
    return {m: v * inv0 % q for m, v in w.items()}


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

    @property
    def passed(self):
        """Exact, or up to a constant cube for q != 19 (report and CLI)."""
        return self.matched_golden or self.q != 19 and self.matched_up_to_cube


def load_golden(q):
    from importlib import resources
    ref = resources.files("zomo") / "data" / "golden" / ("kummer_q%d.txt" % q)
    if not ref.is_file():
        raise KummerError("no reference equation stored for q = %d" % q)
    return ref.read_text().strip()


_GBAR_CACHE = {}  # q -> build_gbar(q)
_LIFT_CACHE = {}  # q -> the pullbacks of its Frattini translations


def _cached_gbar(q):
    if q not in _GBAR_CACHE:
        _GBAR_CACHE[q] = build_gbar(q)
    return _GBAR_CACHE[q]


def _cached_pullbacks(field, data: GbarData):
    if data.q not in _LIFT_CACHE:
        _LIFT_CACHE[data.q] = phi_pullbacks(field, data.phi_translations,
                                             data.E.epsilon)
    return _LIFT_CACHE[data.q]


def build_kummer(q, golden_text):
    """Run the construction over F_q, trying every line slope, and report
    the best match against golden_text.  Each slope's w is c_m w_{m0} (see
    ``slope_ratios``), so all share one monic form w_{m0}/lead(w_{m0}), and
    c_m w_{m0} is that form times a cube exactly when c_m lead(w_{m0}) is a
    cube, (c_m lead)^((q-1)/3) = 1 as q = 1 mod 3; z -> z/c then leaves the
    extension as it is."""
    data = _cached_gbar(q)
    F = data.E.C
    field = hesse_function_field(F)
    best = None
    seen_equations = []
    points = {}     # slope -> the first point of theta_2 on its line
    for Q in data.theta[1]:
        points.setdefault(line_slope(data.E, Q), Q)
    slopes = list(points)
    w0 = build_w(field, slopes[0], _cached_pullbacks(field, data))
    lead = next(num[-1] for num in reversed(w0.nums) if num)
    w0_str = scaled_str(w0)
    monic_is_golden = w0_str(F.inv(lead)) == golden_text
    for m, c in slope_ratios(data.E, data.phi_translations, slopes).items():
        Q, w = points[m], w0.scale(c)
        eq = w0_str(c)
        if eq not in seen_equations:
            seen_equations.append(eq)
        exact = eq == golden_text
        up_to_cube = (not exact and monic_is_golden
                      and pow(F.mul(c, lead), (q - 1) // 3, q) == 1)
        if best is None or exact or (up_to_cube and not best[1]):
            best = (exact, up_to_cube, Q, m, w, eq)
        if exact:
            break
    exact, up_to_cube, Q, m, w, eq = best
    # z^3 = w is a degree-3 cover of the elliptic curve, totally ramified
    # where v(w) is -2 or 1: on the three cosets theta_i of S, and
    # build_gbar checks |S| = 3^(h-1), so on 3^h points (genus 3^h + 1)
    genus = rh_genus(RamificationProfile(3, 1, (1,) * 3 ** data.h))
    return KummerOutput(q, data.h, data.E.epsilon, Q, m, w, eq, genus,
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
    """(E, G, S, theta): the order-27 group G generated by the scaling
    alpha, for E's root ``E.epsilon``, and the coordinate rotation delta,
    ``curves.ROTATION`` (X : Y : Z) -> (Y : Z : X), with its theta
    orbits.  delta's permutation of the points is checked to be the
    translation by rot(O), and the group is closed with that translation
    for delta."""
    E = EllipticGroup(_base_field(q))
    delta = _point_perm(E, ROTATION)
    if delta != E.translation_perm(E.points[delta[E.iO]]):
        raise KummerError("the rotation is not a translation of E")
    G, A, S = _close_gbar(E, 2, ("al", "de"),
                          [(E.iO, 1), (delta[E.iO], 0)])
    # the cosets of S in the order-9 translation group of G, with theta_2
    # the coset of points at infinity when one exists
    rest = [T for T in A if T not in S]
    U = next((T for T in rest if E.points[T].coords[2] == E.C.zero), rest[0])
    return E, G, [E.points[T] for T in S], _theta_cosets(E, U, S)


def small_construction(q=19):
    """Genus-10 case: theta_1 = {P, P1, P2}, Q the infinite point (1, -1, 0);
    returns the honestly computed slope, product, and generator ratios.

    The line through P = (-1, 0, 1) and Q is X + Y + Z = 0, so m = -1.
    Rescaling t by a constant multiplies w by its cube, so w is fixed only
    up to a cube constant by the normalisation of t.  alpha (x, y) ->
    (x, eps y) pulls w back by ``scale_u``, delta by ``translation_endo``
    of rot(O), as ``small_gbar27`` checks that delta is that translation."""
    E, G, S, theta = small_gbar27(q)
    F = E.C
    field = hesse_function_field(F)
    Q = make_point(F, 1, -1, 0)
    if Q not in theta[1]:
        raise KummerError("expected (1, -1, 0) in theta_2")
    m = line_slope(E, Q)
    w = build_w(field, m, phi_pullbacks(field, S, E.epsilon))
    rot_O = HessePoint(ROTATION.eval_at(F, E.O.coords))
    delta = translation_endo(field, rot_O)
    return SmallConstruction(
        E.epsilon, m, w, ffelem_str(w), theta,
        w.scale_u(E.epsilon) / w, apply_endo(delta, w) / w)
