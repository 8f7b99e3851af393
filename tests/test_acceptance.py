"""End-to-end acceptance checks, one numbered test per claim group.

The claims that ``zomo report`` states as rows of ``zomo.checks`` (the
extremal profiles, the invariant t, the factorization identity) are tested
row by row in ``test_checks.py``; these tests go beyond them."""

import time

from oracles import (element_perms, gbar_generator_perms, maximal_subgroups,
                     quotient, translation_point)
from zomo import analysis, catalog, curves, hesse, kummer
from zomo.field import PrimeField
from zomo.group import group_from_permutations
from zomo.words import parse_word


def test_01_kummer_golden_reproduction(kummer19, kummer73, kummer271):
    start = time.perf_counter()
    out19 = kummer.build_kummer(19, kummer.load_golden(19))
    out73 = kummer.build_kummer(73, kummer.load_golden(73))
    out271 = kummer.build_kummer(271, kummer.load_golden(271))
    elapsed = time.perf_counter() - start
    # q = 19 must match exactly; the cube-constant fallback is a failure here
    assert out19.matched_golden
    assert (out19.h, out19.genus) == (3, 28)
    assert out73.matched_golden or out73.matched_up_to_cube
    assert (out73.h, out73.genus) == (4, 82)
    assert out271.matched_golden or out271.matched_up_to_cube
    assert (out271.h, out271.genus) == (5, 244)
    assert elapsed < 120


def test_02_micro_construction_pinned_choice():
    # The transcribed reference for the pinned choice Q = (1, -1, 0) reads
    # "m = epsilon and w = x/y^2".  Neither is reachable: the line through
    # P = (-1, 0, 1) and Q is X + Y + Z = 0, so m = -1, and the computed w is
    # a constant multiple of x/y^2 whose constant is not a cube in F_19
    # (a twist over F_19 that becomes trivial over F_{19^3}).
    q = 19
    F = PrimeField(q)
    sc = kummer.small_construction(q)
    field = hesse.hesse_function_field(F)
    x, y = field.v(), field.u()
    transcribed_m = sc.epsilon
    transcribed_w = x / (y ** 2)

    # slope of the line P x Q, written as m X - Y + m Z = 0
    P, Q = (-1, 0, 1), (1, -1, 0)
    line = tuple(c % q for c in (P[1] * Q[2] - P[2] * Q[1],
                                 P[2] * Q[0] - P[0] * Q[2],
                                 P[0] * Q[1] - P[1] * Q[0]))
    assert line == (1, 1, 1)
    m = F.mul(line[0], F.inv(F.neg(line[1])))
    assert m == q - 1
    assert sc.m == m
    assert sc.m != transcribed_m

    # w / (x/y^2) is a nonzero constant c of F_19
    ratio = sc.w / transcribed_w
    assert not any(ratio.nums[1:])
    assert ratio.den == (F.one,) and len(ratio.nums[0]) == 1
    c = ratio.nums[0][0]
    assert c != F.zero
    assert sc.w != transcribed_w
    # c is not a cube in F_19, but every element of F_19^* is a cube in
    # F_{19^3}: c^((19^3 - 1)/3) = 1 there
    cubes = {F.mul(a, F.mul(a, a)) for a in range(1, q)}
    assert c not in cubes
    assert pow(c, (q ** 3 - 1) // 3, q) == 1

    # independent pointwise check with the Hesse group law:
    # prod over T in S of (m - y/(x+1))(P + T) equals c x/y^2 at P
    E = hesse.EllipticGroup(F)
    S = sc.theta[0]
    assert E.O in S and len(S) == 3
    checked = 0
    for pt in E.points:
        x0, y0, z0 = pt.coords
        if z0 != F.one or y0 == F.zero:
            continue
        images = [E.add(pt, T).coords for T in S]
        if any(zi != F.one or F.add(xi, F.one) == F.zero
               for xi, _, zi in images):
            continue
        prod = F.one
        for xi, yi, _ in images:
            prod = F.mul(prod, F.sub(m, F.mul(yi, F.inv(F.add(xi, F.one)))))
        assert prod == F.mul(c, F.mul(x0, F.inv(F.mul(y0, y0))))
        checked += 1
    # 27 points: 3 at infinity (theta_2) and 3 with y = 0 (theta_1) skipped
    assert checked == 21


def test_03_presentation_orders():
    start = time.perf_counter()
    meta = catalog.materialize(catalog.entry_by_id("C9_rtimes_C3"))
    assert meta.order == 27
    odd = catalog.materialize(catalog.entry_by_id("resbl1_odd_e2"))
    assert odd.order == 243
    even = catalog.materialize(catalog.entry_by_id("qu24agosto_even_n2"))
    assert even.order == 729
    for e in catalog.load_catalog():
        n = catalog.materialize(e).order
        while n % 3 == 0:
            n //= 3
        assert n == 1
    assert time.perf_counter() - start < 60


def _order3_outside(G, pres, inside_words):
    gens = [G.eval_word(parse_word(w, pres.generators))
            for w in inside_words]
    H = analysis.subgroup_closure(G, gens)
    return analysis.order_census(G, restrict_outside=H).get(3, 0)


def test_04_census_claims():
    start = time.perf_counter()
    e0 = catalog.entry_by_id("caseI1_e2_k0")
    G0 = catalog.materialize(e0)
    assert _order3_outside(G0, e0.presentation, ("s1", "s2")) == 162
    e1 = catalog.entry_by_id("caseI1_e2_k1")
    G1 = catalog.materialize(e1)
    assert _order3_outside(G1, e1.presentation, ("s1", "s2")) == 0
    G2 = catalog.materialize(catalog.entry_by_id("caseI1_e2_k2"))
    assert analysis.order_census(G2).get(3, 0) == 350
    assert 350 == 4 * 729 // 9 + 26
    assert time.perf_counter() - start < 60


def test_05_word_identity():
    for eid in ("caseA3_e2", "caseB3_e2_nu1", "caseB3_e2_nu2"):
        e = catalog.entry_by_id(eid)
        G = catalog.materialize(e)
        gens = e.presentation.generators
        lhs = G.eval_word(parse_word("(al*b)^3", gens))
        rhs = G.eval_word(parse_word("s2*s1^3*al^3", gens))
        assert lhs == rhs, eid


def test_06_center_and_quotient_pattern():
    start = time.perf_counter()
    G = catalog.materialize(catalog.entry_by_id("caseI1_e2_k2"))
    Z = analysis.center(G)
    assert len(Z.members) == 9
    assert all(G.element_order(z) in (1, 3) for z in Z.members)
    pattern = sorted(analysis.central_quotient_center_pattern(G),
                     reverse=True)
    assert pattern == [9, 3, 3, 3]
    assert time.perf_counter() - start < 60


def _compose(p, q):
    return tuple(p[i] for i in q)


def test_08_curve_actions(x0_scaling_group, x0_full_group, fermat_group,
                          genus28):
    start = time.perf_counter()
    G27, _, _, _ = x0_scaling_group
    assert G27.order == 27

    G81, S, domain, k = x0_full_group
    assert G81.order == 81
    Z = analysis.center(G81)
    assert len(Z.members) == 3
    # the distinguished scaling generates the center: it commutes with all
    # generators and has order 3 on the common domain
    zperm = tuple(curves.act(curves.x0_center_map(19), S, domain))
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    gens = [curves.act(m, S, domain) for m in maps]
    assert group_from_permutations(gens).gen_maps == G81.gen_maps
    perms = element_perms(G81, gens)
    for g in G81.gens:
        gp = perms[g]
        assert _compose(zperm, gp) == _compose(gp, zperm)
    assert zperm != tuple(range(len(domain)))
    assert _compose(zperm, _compose(zperm, zperm)) == tuple(range(len(domain)))

    # fixed rational points of the scaling on the full nonsingular set
    S19 = curves.enumerate_points(curves.x0_curve(), 19)
    perm = curves.act(curves.x0_center_map(19), S19)
    dom = S19.nonsingular()
    fixed = sorted(tuple(int(c) for c in dom[i])
                   for i in curves.fixed_points(perm))
    assert fixed == [(8, 0, 1), (12, 0, 1), (18, 0, 1)]
    eps = 7
    assert sorted((-pow(eps, i, 19)) % 19 for i in range(3)) == [8, 12, 18]

    Gf, _, _, _ = fermat_group
    assert Gf.order == 243
    G28, _, _ = genus28
    assert G28.order == 243
    assert time.perf_counter() - start < 300


def test_11_property_suites():
    start = time.perf_counter()
    # exhaustive elliptic group law over both base fields
    for q in (19, 73):
        E = hesse.EllipticGroup(PrimeField(q))
        n = len(E.points)
        tab = [[E.index[E.add(E.points[i], E.points[j])] for j in range(n)]
               for i in range(n)]
        iO = E.index[E.O]
        for i in range(n):
            assert tab[i][iO] == i
            neg = hesse.third_point(E.C, E.points[i], E.O)
            assert tab[i][E.index[neg]] == iO
            for j in range(n):
                assert tab[i][j] == tab[j][i]
                row = tab[tab[i][j]]
                for k in range(n):
                    assert row[k] == tab[i][tab[j][k]]

    # semidirect decomposition and exponent-3 complement
    for q in (19, 73):
        data = kummer.build_gbar(q)
        G, E = data.group, data.E
        perms = element_perms(G, gbar_generator_perms(data))
        H = {e for e in range(G.order)
             if translation_point(E, perms[e]) is not None}
        iO = E.index[E.O]
        stab = {e for e in range(G.order) if perms[e][iO] == iO}
        assert H & stab == {0}
        assert len(H) * len(stab) == G.order
        for g in range(G.order):
            for h in list(H)[:6]:
                assert G.row(G.inv(g))[G.row(h)[g]] in H
            if g not in H:
                assert G.element_order(g) == 3

    # abelian quotient iff derived contained; Frattini quotient basis
    for e in catalog.load_catalog():
        G = catalog.materialize(e)
        if G.order > 729:
            continue
        D = set(analysis.derived_subgroup(G).members)
        tests = [analysis.subgroup_closure(G, []), analysis.center(G),
                 analysis.derived_subgroup(G)]
        tests.extend(maximal_subgroups(G))
        for N in tests:
            if not analysis.is_normal(G, N):
                continue
            Q, _ = quotient(G, N)
            q_ab = all(Q.mult(a, b) == Q.mult(b, a)
                       for a in range(Q.order) for b in range(Q.order))
            assert q_ab == (D <= set(N.members))
        Phi = analysis.frattini(G)
        Q, proj = quotient(G, Phi)
        assert all(Q.element_order(a) == 3 for a in range(1, Q.order))
        assert all(Q.mult(a, b) == Q.mult(b, a)
                   for a in range(Q.order) for b in range(Q.order))
    assert time.perf_counter() - start < 300
