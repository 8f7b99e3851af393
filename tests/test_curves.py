import re

import pytest

from zomo import ZomoError, analysis, catalog, cli, curves
from zomo.field import ExtField, FieldError, PrimeField, roots_of_unity
from zomo.funcfield import (Endo, FunctionField, _partial, _substitute,
                            apply_endo, valuation_at)
from zomo.group import group_from_permutations

from oracles import (act_by_points, element_perms, map_image_by_normalize,
                     stable_domain_by_points)


def test_enumerate_points_line():
    line = curves.PlaneCurve.make("line", {(1, 0, 0): 1})
    S = curves.enumerate_points(line, 19)
    # X = 0: the points (0 : y : 1) plus (0 : 1 : 0)
    assert len(S.points) == 20
    assert not S.singular


def test_enumerate_points_hesse():
    S = curves.enumerate_points(cli._load_curve("hesse"), 19)
    assert len(S.points) == 27
    assert not S.singular


def test_enumerate_points_x0_singularities():
    S = curves.enumerate_points(curves.x0_curve(), 19)
    C = S.field
    sing = {S.points[i] for i in S.singular}
    assert sing == {(C.zero, C.zero, C.one), (C.one, C.zero, C.zero)}


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("ZOMO_BUDGET", "10")
    # the dense cubic has no separated form shortcut
    dense = curves.PlaneCurve.make(
        "dense", {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1})
    with pytest.raises(curves.BudgetError):
        curves.enumerate_points(dense, 19)


def _assert_scan_matches_a_point_by_point_search(curve, q, k):
    """Every projective point with last nonzero coordinate 1 is tried one
    at a time with eval_monomials and the partials; returns the scan."""
    S = curves.enumerate_points(curve, q, k)
    C = S.field
    els = list(C.elements())
    cands = ([(x, y, C.one) for x in els for y in els]
             + [(x, C.one, C.zero) for x in els] + [(C.one, C.zero, C.zero)])
    on = [p for p in cands if C.eval_monomials(curve.coeffs, p) == C.zero]
    sing = {p for p in on
            if all(C.eval_monomials(_partial(curve.coeffs, a), p) == C.zero
                   for a in range(3))}
    assert S.points == on
    assert {S.points[i] for i in S.singular} == sing
    return S


@pytest.mark.parametrize("k", [1, 2])
def test_dense_scan_matches_a_point_by_point_search(k):
    # the dense cubic (singular at (1 : 1 : 1) over F_19) takes the row scan
    dense = curves.PlaneCurve.make(
        "dense", {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3})
    S = _assert_scan_matches_a_point_by_point_search(dense, 19, k)
    C = S.field
    assert (C.one, C.one, C.one) in {S.points[i] for i in S.singular}


def test_scan_reads_the_coefficients_mod_q():
    # 19 y^9 is zero over F_19, so the curve is x^3 z^3 (x^3 + z^3): not
    # separated in y, and its z = 0 restriction vanishes identically, so
    # the line z = 0 lies on it
    curve = curves.PlaneCurve.make(
        "c", {(0, 9, 0): 19, (6, 0, 3): 1, (3, 0, 6): 1})
    S = _assert_scan_matches_a_point_by_point_search(curve, 19, 1)
    assert (len(S.points), len(S.singular)) == (96, 39)


def test_budget_guard_counts_the_x_values_of_separated_scans(monkeypatch):
    monkeypatch.setenv("ZOMO_BUDGET", "1000")
    hesse = cli._load_curve("hesse")
    assert len(curves.enumerate_points(hesse, 19, 2).points) > 0
    with pytest.raises(curves.BudgetError, match="6859 values"):
        curves.enumerate_points(hesse, 19, 3)
    assert curves.genus28_points(19, 2)[1]
    with pytest.raises(curves.BudgetError, match="6859 values"):
        curves.genus28_points(19, 3)


@pytest.mark.parametrize("k", [0, -1])
def test_a_degree_below_one_is_still_a_field_error(k):
    with pytest.raises(FieldError, match="extension degree must be positive"):
        curves.enumerate_points(curves.x0_curve(), 19, k)
    with pytest.raises(FieldError, match="extension degree must be positive"):
        curves.genus28_points(19, k)


@pytest.mark.parametrize("make", [
    lambda c: curves.diagonal_map("al", 1, c),
    lambda c: curves.PlaneCurve.make("al", {(3, 0, 0): 1, (0, 3, 0): c}),
    lambda c: curves.AffineRationalMap.make(
        "al", ({(1, 0, 0): 1}, {(0, 1, 0): c}, {(0, 0, 1): 1}), {0: 1}),
    lambda c: curves.AffineRationalMap.make(
        "al", ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), {1: c}),
], ids=["rational_map", "plane_curve", "affine_comp", "affine_den"])
def test_a_coefficient_that_is_not_an_int_is_refused_by_name(make):
    # a cube root of unity of F_{17^2} is a tuple: the int kernel would
    # fail on it with a bare TypeError once the map acted on points
    F = ExtField(PrimeField(17), 2)
    eps = next(e for e in roots_of_unity(F, 3) if e != F.one)
    with pytest.raises(curves.CurveError,
                       match=re.escape("al has a non-int coefficient %r"
                                       % (eps,))):
        make(eps)


@pytest.mark.parametrize("make", [
    lambda: curves.PlaneCurve.make("mixed", {(3, 0, 0): 1, (0, 2, 0): 1}),
    lambda: curves.RationalMap.make("mixed", {(1, 0, 0): 1},
                                    {(0, 1, 0): 0}, {(0, 0, 1): 1}),
    lambda: curves.RationalMap.make("mixed", {(1, 0, 0): 1},
                                    {(0, 2, 0): 1}, {(0, 0, 1): 1}),
], ids=["curve_of_two_degrees", "map_with_a_zero_form",
        "map_of_two_degrees"])
def test_a_zero_or_inhomogeneous_form_is_refused_by_name(make):
    with pytest.raises(curves.CurveError,
                       match="^mixed has a zero form or terms of more than "
                             "one degree$"):
        make()


@pytest.mark.parametrize("q", [19, 37, 73])
def test_branch_x_values_are_the_roots_of_x3_plus_1(q):
    assert curves.x0_branch_x_values(q) == [
        x for x in range(q) if (x ** 3 + 1) % q == 0]


# (points, singular points) over F_{q^k} for each (q, k) of
# EXTENSION_FIELDS; None where the scan exceeds the default budget.  The
# counts do not depend on the modulus that builds F_{q^k}.
EXTENSION_FIELDS = [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2), (19, 2),
                    (19, 3), (7, 3)]
EXTENSION_COUNTS = {
    "hesse": [(9, 0), (10, 10), (36, 0), (63, 0), (171, 0), (351, 0),
              (6804, 0), (324, 0)],
    "x0": [(5, 2), (10, 10), (32, 2), (59, 2), (167, 2), (383, 2),
           (7025, 2), (383, 2)],
    "fermat9": [(9, 0), (10, 10), (36, 0), (63, 0), (171, 0), (27, 0),
                (7479, 0), (513, 0)],
    "genus10": [(5, 2), (10, 10), (32, 2), (59, 2), (167, 2), (383, 2),
                None, (383, 2)],
}


@pytest.mark.parametrize("name, build", [("x0", curves.x0_curve),
                                         ("fermat9", curves.fermat9_curve)])
def test_data_file_curve_is_the_one_the_report_builds(name, build):
    # zomo curve check reads data/curves/*.curve; the report builds in code
    assert cli._load_curve(name) == build()


@pytest.mark.parametrize("name", sorted(EXTENSION_COUNTS))
def test_point_counts_over_extension_fields(monkeypatch, name):
    monkeypatch.delenv("ZOMO_BUDGET", raising=False)
    cu = cli._load_curve(name)
    for (q, k), counts in zip(EXTENSION_FIELDS, EXTENSION_COUNTS[name]):
        if counts is None:
            with pytest.raises(curves.BudgetError):
                curves.enumerate_points(cu, q, k)
            continue
        S = curves.enumerate_points(cu, q, k)
        assert (len(S.points), len(S.singular)) == counts, (q, k)


def test_act_identity_and_orders():
    S = curves.enumerate_points(curves.x0_curve(), 19)
    ident = curves.RationalMap.make(
        "id", {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    n = len(S.nonsingular())
    assert curves.act(ident, S) == list(range(n))
    # alpha2 permutes its stable domain with order 3
    a2 = curves.x0_alpha2()
    dom = curves.stable_domain([a2], S)
    perm = curves.act(a2, S, dom)
    twice = [perm[i] for i in perm]
    assert [twice[i] for i in perm] == list(range(len(dom)))
    assert perm != list(range(len(dom)))


def test_stable_domain_drops_undefined_images():
    # (x, y, z) -> (x, 1/y, z) over the denominator y: undefined at y = 0
    inv_y = curves.AffineRationalMap.make(
        "inv_y", ({(1, 1, 0): 1}, {(0, 0, 0): 1}, {(0, 1, 1): 1}), {1: 1})
    C = PrimeField(19)
    line = curves.PointSet(C, [(0, y, 1) for y in range(19)], set())
    assert inv_y.eval_at(C, (0, 0, 1)) is None
    dom = curves.stable_domain([inv_y], line)
    assert dom == [(0, y, 1) for y in range(1, 19)]
    perm = curves.act(inv_y, line, dom)
    assert [perm[i] for i in perm] == list(range(18))
    assert perm != list(range(18))
    # y = 2 maps to 1/2 = 10, outside the set: only y = 1 survives
    few = curves.PointSet(C, [(0, y, 1) for y in range(3)], set())
    assert curves.stable_domain([inv_y], few) == [(0, 1, 1)]


@pytest.mark.parametrize("q", [47, 53])
def test_stable_domain_follows_a_long_chain_of_removals(q):
    # (0, j, 0) -> (0, j + 1, 0), undefined at j = 0: each round removes
    # one more point, q rounds in all (at q = 53 more than 50)
    shift = curves.AffineRationalMap.make(
        "shift", ({(1, 1, 0): 1}, {(0, 2, 0): 1, (0, 1, 0): 1},
                  {(0, 1, 1): 1}), {1: 1})
    line = curves.PointSet(PrimeField(q), [(0, j, 0) for j in range(q)],
                           set())
    assert curves.stable_domain([shift], line) == []


def _maps_and_points(model, k):
    if model == "genus28":
        C, pts = curves.genus28_points(19, k)
        return C, curves.genus28_maps(), pts
    if model == "x0":
        curve, maps = (curves.x0_curve(),
                       curves.x0_scaling_maps(19) + [curves.x0_alpha2()])
    else:
        curve, maps = curves.fermat9_curve(), curves.fermat9_maps(19)
    S = curves.enumerate_points(curve, 19, k)
    return S.field, maps, S.nonsingular()


@pytest.mark.parametrize("model, k, n_maps", [
    ("x0", 2, 28), ("fermat9", 2, 82), ("genus28", 2, 2), ("genus28", 3, 2)])
def test_map_images_match_the_normalize_oracle(model, k, n_maps):
    C, maps, points = _maps_and_points(model, k)
    assert len(maps) == n_maps and points
    for m in maps:
        den = getattr(m, "den", None)
        forms = m.forms if den is None else m.comps
        want = [map_image_by_normalize(C, forms, p, den) for p in points]
        assert C.quotients(forms, points, den) == want
        assert m.images(C, points) == want
        assert [m.eval_at(C, p) for p in points] == want


@pytest.mark.parametrize("model, n_maps, k", [
    ("x0", 27, 1), ("x0", 27, 2), ("x0", 28, 1), ("x0", 28, 2),
    ("fermat9", 82, 2), ("genus28", 2, 2), ("genus28", 2, 3)])
def test_domain_and_permutations_match_the_point_keyed_oracle(model, n_maps,
                                                               k):
    C, maps, points = _maps_and_points(model, k)
    maps = maps[:n_maps]
    if model == "genus28":
        S = curves.PointSet(C, points, set())
    else:
        S = curves.enumerate_points(
            curves.x0_curve() if model == "x0" else curves.fermat9_curve(),
            19, k)
        # a diagonal scaling permutes every nonsingular point
        assert curves.act(maps[1], S) == act_by_points(maps[1], S)
    images = [{} for _ in maps]
    domain = stable_domain_by_points(maps, S, images)
    want = [act_by_points(m, S, domain, seen) for m, seen in zip(maps, images)]
    columns = []
    assert curves.stable_domain(maps, S, columns) == domain
    assert [curves.act(m, S, domain, c) for m, c in zip(maps, columns)] == want
    assert [curves.act(m, S, domain) for m in maps] == want


def test_act_refuses_an_image_off_the_set_and_a_map_not_injective():
    C = PrimeField(19)
    line = curves.PointSet(C, [(0, 0, 1), (0, 1, 1), (0, 18, 1)], set())
    # y -> y + 1 sends (0 : 18 : 1) to (0 : 0 : 1) but (0 : 1 : 1) to y = 2
    shift = curves.RationalMap.make("shift", {(1, 0, 0): 1},
                                    {(0, 1, 0): 1, (0, 0, 1): 1},
                                    {(0, 0, 1): 1})
    with pytest.raises(curves.CurveError,
                       match=r"map shift sends \(0, 1, 1\) off the"):
        curves.act(shift, line)
    # y -> y^2 sends both 1 and 18 to 1
    square = curves.RationalMap.make("square", {(1, 0, 1): 1},
                                     {(0, 2, 0): 1}, {(0, 0, 2): 1})
    assert square.images(C, line.points)[1:] == [(0, 1, 1)] * 2
    with pytest.raises(curves.CurveError,
                       match="map square is not injective"):
        curves.act(square, line)
    with pytest.raises(curves.CurveError,
                       match="map square is not injective"):
        curves.act(square, line, line.points, [0, 1, 1])


def test_act_functoriality():
    S = curves.enumerate_points(curves.x0_curve(), 19)
    maps = curves.x0_scaling_maps(19)
    m1, m2 = maps[5], maps[11]
    p1 = curves.act(m1, S)
    p2 = curves.act(m2, S)
    C = S.field
    dom = S.nonsingular()
    comp = [dom.index(m1.eval_at(C, m2.eval_at(C, p))) for p in dom]
    assert comp == [p1[p2[i]] for i in range(len(dom))]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_base_point_is_an_error_whatever_the_map_order(order):
    # A sends every point off the set, and B = (XY : Y^2 : YZ) has a base
    # point at (0 : 0 : 1): the error must not hang on which map comes first
    A = curves.RationalMap.make("A", {(1, 0, 0): 1, (0, 0, 1): 1},
                                {(0, 1, 0): 1}, {(0, 0, 1): 1})
    B = curves.RationalMap.make("B", {(1, 1, 0): 1}, {(0, 2, 0): 1},
                                {(0, 1, 1): 1})
    S = curves.PointSet(PrimeField(19), [(0, y, 1) for y in range(19)],
                        set())
    maps = [(A, B)[i] for i in order]
    with pytest.raises(curves.CurveError, match=r"map B has a base point "
                       r"at \(0, 0, 1\)"):
        curves.stable_domain(maps, S)


def test_base_point_in_domain_is_an_error():
    # (X Y : X Y : X Y) vanishes at the nonsingular points (x : 0 : 1)
    xy = curves.RationalMap.make("xy", {(1, 1, 0): 1}, {(1, 1, 0): 1},
                                 {(1, 1, 0): 1})
    with pytest.raises(curves.CurveError, match="base point"):
        curves.automorphism_group([xy], curves.x0_curve(), 19, k_max=2)


def _x0_full_gen_perms(x0_full_group):
    """The maps' permutations of the domain, checked to close to the
    fixture's group."""
    G, S, domain, k = x0_full_group
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    gens = [curves.act(m, S, domain) for m in maps]
    assert group_from_permutations(gens).gen_maps == G.gen_maps
    return gens


def test_closure_matches_stable_domain_and_act(x0_full_group):
    # the closure reads its permutations from one evaluation per pair
    G, S, domain, k = x0_full_group
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    assert k == 2
    assert domain == curves.stable_domain(maps, S)
    gens = _x0_full_gen_perms(x0_full_group)
    perms = element_perms(G, gens)
    assert [perms[g] for g in G.gens] == [tuple(curves.act(m, S, domain))
                                          for m in maps]


def test_center_map_fixed_points():
    S = curves.enumerate_points(curves.x0_curve(), 19)
    C = S.field
    perm = curves.act(curves.x0_center_map(19), S)
    dom = S.nonsingular()
    fixed = sorted(tuple(int(c) for c in dom[i])
                   for i in curves.fixed_points(perm))
    assert fixed == [(8, 0, 1), (12, 0, 1), (18, 0, 1)]
    for x, _, _ in fixed:
        assert int(x) in curves.x0_branch_x_values(19)


@pytest.mark.parametrize("named_maps", [
    curves.x0_scaling_maps, curves.x0_center_map, curves.fermat9_maps])
def test_named_maps_refuse_a_field_without_the_roots(named_maps):
    # F_17 has no primitive cube root of unity
    with pytest.raises(ZomoError):
        named_maps(17)


def test_genus28_group_refuses_other_fields_before_a_scan(monkeypatch):
    # the maps' coefficients are residues mod 19
    monkeypatch.setattr(curves, "genus28_points", None)
    with pytest.raises(curves.CurveError, match="F_19"):
        curves.genus28_group(23)


def test_scaling_group_order(x0_scaling_group):
    G, S, domain, k = x0_scaling_group
    assert G.order == 27


def test_full_group_order_and_center(x0_full_group):
    G, S, domain, k = x0_full_group
    assert G.order == 81
    Z = analysis.center(G)
    assert len(Z.members) == 3


def _orbit_structure(gen_perms, npoints):
    """Sorted (orbit size, count) pairs for the action on 0..npoints-1 of
    the group the permutations generate."""
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


def test_full_group_orbits(x0_full_group):
    G, S, domain, k = x0_full_group
    orbits = _orbit_structure(_x0_full_gen_perms(x0_full_group),
                              len(domain))
    assert orbits == [(27, 2), (81, 4)]
    total = sum(size * count for size, count in orbits)
    assert total == len(domain)
    assert all(81 % size == 0 for size, _ in orbits)


def test_fermat_group_order(fermat_group):
    G, S, domain, k = fermat_group
    assert G.order == 243


def test_genus28_group_order(genus28):
    G, domain, k = genus28
    assert G.order == 243
    fp = analysis.fingerprint(G)
    ref = analysis.fingerprint(
        catalog.materialize(catalog.entry_by_id("qu24agosto_odd_n2")))
    assert fp == ref


def test_invariant_t():
    field = curves.x0_function_field(19)
    t = curves.x0_invariant_t(field)
    assert t == curves.x0_three_term_t(field)
    endos = curves.x0_endos(field)
    assert len(endos) == 81
    assert curves.verify_invariant_function(t, endos)


@pytest.fixture(scope="module")
def x0_field_and_endos():
    field = curves.x0_function_field(19)
    return field, curves.x0_endos(field)


def _x0_endos_by_composition(field):
    """The 81 endos as each scaling composed with a2 twice over."""
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
    return out


def test_x0_endos_match_composition(x0_field_and_endos):
    field, endos = x0_field_and_endos
    assert ([(e.u_image, e.v_image) for e in endos]
            == [(e.u_image, e.v_image)
                for e in _x0_endos_by_composition(field)])


def test_invariance_check_can_fail(x0_field_and_endos):
    field, endos = x0_field_and_endos
    x = field.u()
    t = curves.x0_invariant_t(field)
    for f in (x, t + x):
        assert not curves.verify_invariant_function(f, endos)
        # endo by endo, the inverse-free check agrees with apply_endo
        assert ([curves.verify_invariant_function(f, [e]) for e in endos]
                == [apply_endo(e, f) == f for e in endos])


def test_invariance_check_keys_on_the_images_f_reads(x0_field_and_endos):
    field, endos = x0_field_and_endos
    x, y = field.u(), field.v()
    # the nine endos (x, mu y), the identity first
    nine = sorted((e for e in endos if e.u_image == x),
                  key=lambda e: e.v_image != y)
    assert len(nine) == 9 and nine[0].v_image == y
    y9 = y ** 9  # -(x^6 + x^3), in K(x)
    assert not any(y9.nums[1:])
    for f, fixed in ((y, False), (y9, True)):
        # one u-image: a key that ignores v would test y at the identity,
        # in one of the two orders
        assert curves.verify_invariant_function(f, nine) is fixed
        assert curves.verify_invariant_function(f, nine[::-1]) is fixed
        assert ([curves.verify_invariant_function(f, [e]) for e in nine]
                == [apply_endo(e, f) == f for e in nine])


def test_invariance_check_substitutes_once_per_u_image(x0_field_and_endos,
                                                       monkeypatch):
    # t lies in K(x), and the 81 endos have 9 distinct u-images
    field, endos = x0_field_and_endos
    calls = []

    def counted(e, f):
        calls.append(e)
        return _substitute(e, f)

    monkeypatch.setattr(curves, "_substitute", counted)
    assert curves.verify_invariant_function(curves.x0_invariant_t(field),
                                            endos)
    assert len(calls) == 9
    assert len({e.u_image for e in calls}) == 9


def test_invariant_t_pole_orders():
    field = curves.x0_function_field(19)
    t = curves.x0_invariant_t(field)
    for x0 in curves.x0_branch_x_values(19):
        assert valuation_at(t, x0, 0) == -9


def _elimination_check(q):
    """On x^3 + y^3 + 1 = 0, a cube root z of x/y^2 satisfies
    z^9 y^6 + y^3 + 1 = 0; returns the eliminated plane model."""
    field = FunctionField(PrimeField(q), {(3, 0): 1, (0, 3): 1, (0, 0): 1},
                          u_name="y", v_name="x")
    x, y = field.v(), field.u()
    z3 = x / (y ** 2)
    if not (z3 ** 3 * y ** 6 + y ** 3 + field.one).is_zero():
        raise curves.CurveError("elimination identity failed")
    return {(9, 6): 1, (0, 3): 1, (0, 0): 1}  # {(z-exp, y-exp): coeff}


def test_elimination_model():
    model = _elimination_check(19)
    assert model == {(9, 6): 1, (0, 3): 1, (0, 0): 1}


@pytest.mark.xfail(strict=True,
                   reason="the transcribed source model z^9 y^3 + y^3 + 1 "
                          "does not satisfy the elimination identity; the "
                          "verified model has y^6 in the leading term")
def test_elimination_model_as_transcribed():
    assert _elimination_check(19) == {(9, 3): 1, (0, 3): 1, (0, 0): 1}


def test_map_base_point_is_an_error():
    S = curves.enumerate_points(cli._load_curve("hesse"), 19)
    C = S.field
    degenerate = curves.RationalMap.make(
        "bad", {(1, 0, 0): 1}, {(1, 0, 0): 1}, {(1, 0, 0): 1})
    p = next(pt for pt in S.points if pt[0] == C.zero)
    with pytest.raises(curves.CurveError):
        degenerate.eval_at(C, p)
