import pytest

from zomo import analysis, catalog, curves
from zomo.field import PrimeField
from zomo.funcfield import valuation_at


def test_enumerate_points_line():
    line = curves.PlaneCurve.make("line", {(1, 0, 0): 1})
    S = curves.enumerate_points(line, 19)
    # X = 0: the points (0 : y : 1) plus (0 : 1 : 0)
    assert len(S.points) == 20
    assert not S.singular


def test_enumerate_points_hesse():
    S = curves.enumerate_points(curves.hesse_curve(), 19)
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


def test_base_point_in_domain_is_an_error():
    # (X Y : X Y : X Y) vanishes at the nonsingular points (x : 0 : 1)
    xy = curves.RationalMap.make("xy", {(1, 1, 0): 1}, {(1, 1, 0): 1},
                                 {(1, 1, 0): 1})
    with pytest.raises(curves.CurveError, match="base point"):
        curves.automorphism_group([xy], curves.x0_curve(), 19, k_max=2)


def test_closure_matches_stable_domain_and_act(x0_full_group):
    # the closure reads its permutations from one evaluation per pair
    G, S, domain, k = x0_full_group
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    assert k == 2
    assert domain == curves.stable_domain(maps, S)
    assert [G.perms[g] for g in G.gens] == [curves.act(m, S, domain)
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


def test_scaling_group_order(x0_scaling_group):
    G, S, domain, k = x0_scaling_group
    assert G.order == 27


def test_full_group_order_and_center(x0_full_group):
    G, S, domain, k = x0_full_group
    assert G.order == 81
    Z = analysis.center(G)
    assert len(Z.members) == 3


def test_full_group_orbits(x0_full_group):
    G, S, domain, k = x0_full_group
    orbits = curves.orbit_structure(G, len(domain))
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


def test_invariant_t_pole_orders():
    field = curves.x0_function_field(19)
    t = curves.x0_invariant_t(field)
    for x0 in curves.x0_branch_x_values(19):
        assert valuation_at(t, x0, 0) == -9


def test_elimination_model():
    model = curves.elimination_check(19)
    assert model == {(9, 6): 1, (0, 3): 1, (0, 0): 1}


@pytest.mark.xfail(strict=True,
                   reason="the transcribed source model z^9 y^3 + y^3 + 1 "
                          "does not satisfy the elimination identity; the "
                          "verified model has y^6 in the leading term")
def test_elimination_model_as_transcribed():
    assert curves.elimination_check(19) == {(9, 3): 1, (0, 3): 1, (0, 0): 1}


def test_map_base_point_is_an_error():
    S = curves.enumerate_points(curves.hesse_curve(), 19)
    C = S.field
    degenerate = curves.RationalMap.make(
        "bad", {(1, 0, 0): 1}, {(1, 0, 0): 1}, {(1, 0, 0): 1})
    p = next(pt for pt in S.points if pt[0] == C.zero)
    with pytest.raises(curves.CurveError):
        degenerate.eval_at(C, p)
