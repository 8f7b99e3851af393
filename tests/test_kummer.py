import re

import pytest

from zomo import analysis, curves, kummer
from zomo.field import PrimeField
from zomo.funcfield import ffelem_str
from zomo.group import group_from_permutations
from zomo.hesse import (EllipticGroup, cube_roots_of_unity,
                        hesse_function_field, make_point, scaling_point_map)

from oracles import (build_w_left_to_right, element_perms,
                     gbar_by_point_closure, gbar_generator_perms, map_perm,
                     pullbacks_by_translation, rotation_point_map,
                     slope_ratios_by_specialisation, translation_point)
from test_hesse import _eval_ffelem


def test_build_gbar_structure_q19():
    data = kummer.build_gbar(19)
    assert data.h == 3
    assert data.E.epsilon == 7
    assert data.group.order == 81
    # translation part: 3-Sylow of E(F_19), here all 27 points
    assert len(data.sylow_points) == 27
    assert len(data.phi_translations) == 3 ** (data.h - 1)


def test_build_gbar_structure_q73():
    data = kummer.build_gbar(73)
    assert data.h == 4
    assert data.group.order == 243
    assert len(data.sylow_points) == 81
    assert len(data.phi_translations) == 27


@pytest.mark.parametrize("q", [7, 13, 19, 73, 271])
def test_kummer_h_is_the_rank_of_the_sylow_group(q):
    E = EllipticGroup(PrimeField(q))
    pts, g1, g2 = E.sylow3()
    assert (3 ** kummer.kummer_h(q) == len(pts)
            == E.order_of(g1) * E.order_of(g2))


GBAR_FIELDS = ("q", "h", "sylow_points", "phi_translations", "theta")


def _fields(data):
    return ([getattr(data, f) for f in GBAR_FIELDS]
            + [data.group.gen_names, data.group.gen_maps])


def _other_root_gbar(q):
    """The point closure whose alpha uses the root E does not, the greater:
    the square of build_gbar(q)'s alpha."""
    return gbar_by_point_closure(q, max(cube_roots_of_unity(PrimeField(q))))


@pytest.mark.parametrize("q, both", [(19, True), (73, True), (271, False),
                                     (757, False)])
def test_gbar_matches_the_point_closure_on_the_addition_table(q, both):
    data = kummer.build_gbar(q)
    assert _fields(data) == _fields(gbar_by_point_closure(q, data.E.epsilon))
    if both:  # the other root closes the same group on other generators
        other = _other_root_gbar(q)
        assert other.group.order == data.group.order
        assert other.sylow_points == data.sylow_points


def test_theta_partition():
    data = kummer.build_gbar(19)
    th1, th2, th3 = data.theta
    pts = set(th1) | set(th2) | set(th3)
    assert len(th1) == len(th2) == len(th3) == 9
    assert len(pts) == 27
    # theta_1 contains the base point translations (the Frattini part)
    assert set(data.phi_translations) == set(th1)


def test_stabilizer_of_base_is_order_three():
    data = kummer.build_gbar(19)
    iO = data.E.index[data.E.O]
    perms = element_perms(data.group, gbar_generator_perms(data))
    stab = [e for e in range(data.group.order) if perms[e][iO] == iO]
    assert len(stab) == 3
    # it consists of powers of a single element
    e = next(s for s in stab if s != 0)
    assert data.group.mult(e, data.group.mult(e, e)) == 0


@pytest.mark.parametrize("q", [19, 73, 271, 757])
def test_phi_translations_are_the_frattini_subgroup_in_order(q):
    # Phi(Gbar) = G'G^3 as a normal closure, each member's permutation
    # composed from the generators' and read as a translation point
    data = kummer.build_gbar(q)
    G, E = data.group, data.E
    gens = gbar_generator_perms(data)
    perms = element_perms(G, gens)
    assert len(set(perms)) == G.order
    for g, m in zip(gens, G.gen_maps):
        assert all(perms[m[x]] == tuple(g[i] for i in perms[x])
                   for x in range(G.order))
    phi = sorted(analysis.frattini(G).members)
    assert ([translation_point(E, perms[e]) for e in phi]
            == list(data.phi_translations))


def test_small_gbar27_translations_against_the_frattini_subgroup():
    E, G, S, theta = kummer.small_gbar27(19)
    F = E.C
    alpha = map_perm(E, scaling_point_map(F, F.from_int(E.epsilon)))
    delta = map_perm(E, rotation_point_map(E))
    perms = element_perms(G, [alpha, delta])
    assert group_from_permutations([alpha, delta]).gen_maps == G.gen_maps
    phi = sorted(analysis.frattini(G).members)
    assert [translation_point(E, perms[e]) for e in phi] == S
    A = [T for T in (translation_point(E, p) for p in perms) if T is not None]
    assert len(A) == 9 and set(A) == set().union(*theta)


@pytest.mark.parametrize("q", [19, 73, 271])
def test_curve_maps_act_on_the_hesse_points_as_the_point_maps(q):
    # equal permutations pin Gbar's element order, and with it S, Q, m and
    # the emitted equations
    E = EllipticGroup(PrimeField(q))
    F = E.C
    for eps in cube_roots_of_unity(F):
        assert (kummer._point_perm(E, curves.diagonal_map("al", 1, eps))
                == map_perm(E, scaling_point_map(F, eps)))
    assert (kummer._point_perm(E, curves.ROTATION)
            == map_perm(E, rotation_point_map(E)))


def test_line_slope_degenerate():
    E = EllipticGroup(PrimeField(19))
    # a point with x + z = 0 lies on the tangent X + Z = 0 at the base point
    Q = make_point(PrimeField(19), -1, 0, 1)
    with pytest.raises(kummer.KummerError):
        kummer.line_slope(E, Q)


@pytest.mark.parametrize("q", [19, 73, 271])
def test_pullbacks_match_one_apply_endo_per_translation(q):
    # the orbit walk takes either cube root, whichever one built Gbar
    F = PrimeField(q)
    field = hesse_function_field(F)
    for data in kummer.build_gbar(q), _other_root_gbar(q):
        S = data.phi_translations
        for eps in cube_roots_of_unity(F):
            assert (kummer.phi_pullbacks(field, S, eps)
                    == pullbacks_by_translation(field, S))


def test_pullbacks_match_on_the_order_27_frattini_part():
    E, _, S, _ = kummer.small_gbar27(19)
    field = hesse_function_field(E.C)
    assert (kummer.phi_pullbacks(field, S, E.epsilon)
            == pullbacks_by_translation(field, S))


def test_pullbacks_of_a_list_not_closed_under_alpha():
    # one point of a 3-orbit alone, and two points of a 3-orbit (the one
    # between them left out) around a fixed point, in input order
    F = PrimeField(73)
    field = hesse_function_field(F)
    data = kummer.build_gbar(73)
    alpha = scaling_point_map(F, data.E.epsilon)
    T = next(T for T in data.phi_translations if alpha(T) != T)
    fixed = next(T for T in data.phi_translations if alpha(T) == T)
    for points in ([T], [alpha(alpha(T)), fixed, T]):
        got = kummer.phi_pullbacks(field, points, data.E.epsilon)
        assert got == pullbacks_by_translation(field, points)


@pytest.mark.parametrize("q", [19, 73])
def test_closed_form_pullbacks_match_point_addition(q):
    # u_T(p) = s(T + p) for s = y/(x+1), for every T (O and the points at
    # infinity included) at every affine p where both sides are finite
    F = PrimeField(q)
    E = EllipticGroup(F)
    field = hesse_function_field(F)
    minus_one = F.neg(F.one)
    for T, u in zip(E.points, kummer.phi_pullbacks(field, E.points,
                                                   E.epsilon)):
        checked = 0
        for p in E.points:
            x, y, z = E.add(T, p).coords
            if p.coords[2] == F.zero or z == F.zero or x == minus_one:
                continue
            got = _eval_ffelem(F, u, p.coords[0], p.coords[1])
            if got is None:
                continue
            assert got == F.mul(y, F.inv(F.add(x, F.one)))
            checked += 1
        assert checked > 0


def test_pullback_cross_check_names_the_translation(monkeypatch):
    # apply_endo by the wrong translation: the closed form must disagree
    F = PrimeField(19)
    E = EllipticGroup(F)
    field = hesse_function_field(F)
    S = kummer.build_gbar(19).phi_translations
    T = next(T for T in S if T != E.O)
    real = kummer.translation_endo
    monkeypatch.setattr(kummer, "translation_endo",
                        lambda field, P: real(field, E.add(P, P)))
    with pytest.raises(kummer.KummerError, match=re.escape(repr(T))):
        kummer.phi_pullbacks(field, S, E.epsilon)


@pytest.mark.parametrize("q", [31, 43])
def test_pullbacks_of_every_point_outside_the_sylow_group_too(q):
    # |E(F_q)| = 36, so most points lie outside the 3-Sylow group A
    F = PrimeField(q)
    E = EllipticGroup(F)
    field = hesse_function_field(F)
    assert len(E.points) == 36
    assert (kummer.phi_pullbacks(field, E.points, E.epsilon)
            == pullbacks_by_translation(field, E.points))


def _slopes(data):
    """The slopes of the lines through the base point and theta_2."""
    return list(dict.fromkeys(kummer.line_slope(data.E, Q)
                              for Q in data.theta[1]))


SLOPES_TRIED = {271: 10}  # the first slopes only, where there are 81


@pytest.mark.parametrize("q", [19, 73, 271])
def test_every_slope_is_a_constant_multiple_of_the_first(q):
    # w from the full product for every slope through theta_2, both roots
    field = hesse_function_field(PrimeField(q))
    first = kummer.build_gbar(q)
    for data in first, _other_root_gbar(q):
        pullbacks = kummer.phi_pullbacks(field, data.phi_translations,
                                         first.E.epsilon)
        slopes = _slopes(data)
        assert len(slopes) == 3 ** (data.h - 1)
        slopes = slopes[:SLOPES_TRIED.get(q)]
        ratios = kummer.slope_ratios(data.E, data.phi_translations, slopes)
        w0 = kummer.build_w(field, slopes[0], pullbacks)
        assert ratios[slopes[0]] == 1
        for m in slopes:
            assert kummer.build_w(field, m, pullbacks) == w0.scale(ratios[m])


@pytest.mark.parametrize("q", [19, 73, 271])
def test_w_is_the_left_to_right_product(q):
    # one canonical form at the root of the tree against one per factor;
    # the pullbacks in reverse order too, which pairs other factors
    field = hesse_function_field(PrimeField(q))
    data = kummer.build_gbar(q)
    pullbacks = kummer.phi_pullbacks(field, data.phi_translations,
                                     data.E.epsilon)
    m = _slopes(data)[0]
    w = build_w_left_to_right(field, m, pullbacks)
    assert kummer.build_w(field, m, pullbacks) == w
    assert kummer.build_w(field, m, pullbacks[::-1]) == w
    assert kummer.build_w(field, m, pullbacks[:1]) == (
        build_w_left_to_right(field, m, pullbacks[:1]))


Q_1_MOD_3 = [q for q in range(7, 200, 6)
             if all(q % d for d in range(2, int(q ** 0.5) + 1))]


@pytest.mark.parametrize("q", Q_1_MOD_3)
def test_slope_ratios_match_the_specialised_products(q):
    # the constants read at the identity against those read off the
    # products themselves at one y0, for both roots
    F = PrimeField(q)
    field = hesse_function_field(F)
    first = kummer.build_gbar(q)
    for data in first, _other_root_gbar(q):
        pullbacks = kummer.phi_pullbacks(field, data.phi_translations,
                                         first.E.epsilon)
        slopes = _slopes(data)
        assert (kummer.slope_ratios(data.E, data.phi_translations, slopes)
                == slope_ratios_by_specialisation(F, pullbacks, slopes))


@pytest.mark.parametrize("q", [19, 73])
def test_both_cube_roots_give_the_same_translations(q):
    # alpha for the other root is alpha^2: build_kummer uses only E's root,
    # which gives the same Frattini translations, theta cosets and w
    first, second = kummer.build_gbar(q), _other_root_gbar(q)
    assert set(first.phi_translations) == set(second.phi_translations)
    for a, b in zip(first.theta, second.theta):
        assert set(a) == set(b)
    F = PrimeField(q)
    field = hesse_function_field(F)
    m = _slopes(first)[0]
    assert (kummer.build_w(field, m, kummer.phi_pullbacks(
                field, first.phi_translations, first.E.epsilon))
            == kummer.build_w(field, m, kummer.phi_pullbacks(
                field, second.phi_translations,
                max(cube_roots_of_unity(F)))))


def test_a_slope_off_theta_2_is_not_a_constant_multiple():
    # slope_ratios assumes every slope it is given lies on theta_2's lines;
    # off them the product has another divisor.  c w0 has w0's denominator
    # and its numerators scaled by c, so the leading coefficients fix c.
    F = PrimeField(19)
    field = hesse_function_field(F)
    data = kummer.build_gbar(19)
    pullbacks = kummer.phi_pullbacks(field, data.phi_translations,
                                     data.E.epsilon)
    on = _slopes(data)
    off = next(m for m in range(1, 19) if m not in on)
    w0 = kummer.build_w(field, on[0], pullbacks)
    w = kummer.build_w(field, off, pullbacks)
    lead, lead0 = (next(n[-1] for n in reversed(f.nums) if n)
                   for f in (w, w0))
    assert w != w0.scale(F.mul(lead, F.inv(lead0)))


def test_w_divisor(kummer19):
    F = PrimeField(19)
    field = hesse_function_field(F)
    data = kummer.build_gbar(19)
    ok, checked = kummer.verify_w_divisor(field, kummer19.w, data.theta)
    assert ok
    assert checked > 0


def test_small_construction_frozen_values():
    sc = kummer.small_construction(19)
    assert sc.epsilon == 7
    assert sc.m == 18
    assert sc.equation == "(16)/(y^2)x"
    assert ffelem_str(sc.delta_ratio) == "y^3"
    # the scaling acts on w by a cube (trivial Kummer twist)
    assert not sc.alpha_ratio.is_zero()


def test_golden_match_q19(kummer19):
    assert kummer19.matched_golden
    assert kummer19.equation == kummer.load_golden(19)
    assert kummer19.genus == 28
    assert kummer19.h == 3


def test_golden_match_q73(kummer73):
    assert kummer73.matched_golden or kummer73.matched_up_to_cube
    assert kummer73.genus == 82
    assert kummer73.h == 4


def test_golden_match_q271(kummer271):
    assert kummer271.matched_golden or kummer271.matched_up_to_cube
    assert kummer271.genus == 244
    assert kummer271.h == 5


def test_load_golden_missing():
    with pytest.raises(kummer.KummerError):
        kummer.load_golden(9999)


def test_build_kummer_enumerates_choices(kummer19):
    assert len(kummer19.all_equations) >= 1
    assert kummer19.equation in kummer19.all_equations


def test_small_gbar27_builds_its_field_through_the_gate(monkeypatch):
    with pytest.raises(kummer.KummerError, match="q = 17 is not 1 mod 3"):
        kummer.small_gbar27(17)
    monkeypatch.setenv("ZOMO_BUDGET", "5")
    with pytest.raises(curves.BudgetError, match="19 values over F_19"):
        kummer.small_gbar27(19)


def test_build_kummer_works_over_the_field_of_its_gbar():
    out = kummer.build_kummer(19, kummer.load_golden(19))
    assert out.w.field.constants is kummer._cached_gbar(19).E.C
