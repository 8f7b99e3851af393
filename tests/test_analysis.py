import pytest

from zomo import analysis, catalog
from zomo.group import (GroupError, analyze_presentation, coset_enumerate,
                        group_from_permutations)

HEIS = "<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>"
META27 = "<a, b | a^9, b^3, b^-1*a*b*a^-4>"


def test_center_heisenberg():
    G = analyze_presentation(HEIS)
    Z = analysis.center(G)
    assert len(Z.members) == 3
    assert analysis.is_normal(G, Z)


def test_derived_and_frattini_heisenberg():
    G = analyze_presentation(HEIS)
    D = analysis.derived_subgroup(G)
    Phi = analysis.frattini(G)
    assert len(D.members) == 3
    assert D.members == Phi.members
    assert analysis.frattini_by_intersection(G).members == Phi.members


def test_nilpotency_class():
    assert analysis.nilpotency_class(analyze_presentation(HEIS)) == 2
    assert analysis.nilpotency_class(analyze_presentation("<a | a^9>")) == 1


def test_nilpotency_class_needs_a_nilpotent_group():
    S3 = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    with pytest.raises(GroupError):
        analysis.nilpotency_class(S3)


def test_maximal_class_27():
    # for order 27 = 3^3, class 2 is maximal
    assert analysis.is_maximal_class(analyze_presentation(HEIS))
    assert analysis.is_maximal_class(analyze_presentation(META27))


def test_quotient_by_center():
    G = analyze_presentation(HEIS)
    Q, proj = analysis.quotient(G, analysis.center(G))
    assert Q.order == 9
    assert analysis.nilpotency_class(Q) == 1
    assert proj[0] == 0


def test_abelian_invariants():
    G = analyze_presentation("<a, b | a^9, b^3, [a,b]>")
    assert tuple(analysis.abelian_invariants(G)) == (9, 3)
    for pres, want in [("<a | a>", ()), ("<a | a^27>", (27,)),
                       ("<a, b, c | a^3, b^3, c^3, [a,b], [a,c], [b,c]>",
                        (3, 3, 3)),
                       ("<a, b | a^27, b^9, [a,b]>", (27, 9))]:
        assert tuple(analysis.abelian_invariants(
            analyze_presentation(pres))) == want


def test_order_census():
    G = analyze_presentation(HEIS)
    census = analysis.order_census(G)
    assert census == {1: 1, 3: 26}


def test_maximal_subgroups_two_generated():
    G = analyze_presentation(HEIS)
    maxes = analysis.maximal_subgroups(G)
    assert len(maxes) == 4
    assert all(len(M.members) == 9 for M in maxes)


def test_minimal_nonabelian_heisenberg_is_itself():
    G = analyze_presentation(HEIS)
    mins = analysis.minimal_nonabelian_subgroups(G)
    assert len(mins) == 1
    assert len(mins[0].members) == 27


def test_metacyclic_detection():
    assert analysis.is_metacyclic(analyze_presentation(META27))
    assert not analysis.is_metacyclic(analyze_presentation(HEIS))


def test_central_quotient_center_pattern_needs_big_center():
    import pytest
    from zomo.group import GroupError
    with pytest.raises(GroupError):
        analysis.central_quotient_center_pattern(analyze_presentation(HEIS))


def test_central_quotient_center_pattern():
    from zomo.catalog import entry_by_id, materialize
    G = materialize(entry_by_id("caseI1_e2_k2"))
    assert sorted(analysis.central_quotient_center_pattern(G),
                  reverse=True) == [9, 3, 3, 3]


def test_fingerprint_separates_the_order27_groups():
    fp1 = analysis.fingerprint(analyze_presentation(HEIS))
    fp2 = analysis.fingerprint(analyze_presentation(META27))
    assert fp1 != fp2
    assert fp1.order == fp2.order == 27


def test_fingerprint_invariant_under_presentation_change():
    # the same group from different generating data
    G1 = analyze_presentation(META27)
    G2 = analyze_presentation(
        "<a, c | a^9, c^3, c^-1*a*c*a^-7>")  # c = b^2, a^c = a^(4^2 mod 9)
    assert analysis.fingerprint(G1) == analysis.fingerprint(G2)


def test_subgroup_closure_and_normal_closure():
    G = analyze_presentation(META27)
    a = G.gens[0]
    H = analysis.subgroup_closure(G, [a])
    assert len(H.members) == 9
    N = analysis.normal_closure(G, [a])
    assert analysis.is_normal(G, N)


def test_regular_representation_faithful():
    G = analyze_presentation(HEIS)
    perms = G.regular_perms()
    H = group_from_permutations([perms[g] for g in G.gens])
    assert H.order == G.order


# -- the generator-row routines against their Cayley-table definitions -------

def _catalog_group(eid):
    return catalog.materialize(catalog.entry_by_id(eid))


def _expected_order(entry):
    return next(e.value for e in entry.expected if e.prop == "order")


def _closure_by_mult(G, gens):
    seen, frontier = {0}, [0]
    while frontier:
        new = {G.mult(x, g) for x in frontier for g in gens} - seen
        seen |= new
        frontier = list(new)
    return tuple(sorted(seen))


def _pair_search_by_mult(G):
    """The n^2/2 pair search: every pair a < b that passes the filter."""
    def comm(a, b):
        return G.mult(G.mult(G.inv(a), G.inv(b)), G.mult(a, b))

    seen = {}
    for a in range(1, G.order):
        for b in range(a + 1, G.order):
            c = comm(a, b)
            if c == 0 or G.mult(c, G.mult(c, c)) != 0:
                continue
            if comm(a, c) != 0 or comm(b, c) != 0:
                continue
            members = _closure_by_mult(G, [a, b])
            if members not in seen:
                seen[members] = analysis.Subgroup(G, members)
    out = [H for H in seen.values() if analysis._is_minimal_nonabelian(G, H)]
    out.sort(key=lambda s: (len(s.members), s.members))
    return [H.members for H in out]


SMALL_ENTRIES = [e.id for e in catalog.load_catalog()
                 if _expected_order(e) <= 243]


@pytest.mark.parametrize("eid", SMALL_ENTRIES)
def test_pruned_minimal_nonabelian_search_matches_pair_search(eid):
    G = _catalog_group(eid)
    got = [H.members for H in analysis.minimal_nonabelian_subgroups(G)]
    assert got == _pair_search_by_mult(G)


def test_pruned_minimal_nonabelian_search_matches_on_genus28(genus28):
    G, _, _ = genus28
    got = [H.members for H in analysis.minimal_nonabelian_subgroups(G)]
    assert got == _pair_search_by_mult(G)


@pytest.mark.parametrize("eid", ["C9_rtimes_C3", "qu24agosto_odd_n2",
                                 "caseI1_e2_k1", "qu24agosto_odd_n2/Z"])
def test_generator_routines_match_their_mult_definitions(eid):
    G = _catalog_group(eid.split("/")[0])
    if eid.endswith("/Z"):
        G, _ = analysis.quotient(G, analysis.center(G))
    n = G.order
    Z = [x for x in range(n)
         if all(G.mult(x, g) == G.mult(g, x) for g in G.gens)]
    assert analysis.center(G).members == tuple(Z)
    Zsub = analysis.Subgroup(G, tuple(Z))
    Q, proj = analysis.quotient(G, Zsub)
    coset_of, reps = [-1] * n, []
    for x in range(n):
        if coset_of[x] == -1:
            for z in Z:
                coset_of[G.mult(z, x)] = len(reps)
            reps.append(x)
    assert proj == coset_of
    assert [list(m) for m in Q.gen_maps] == [
        [coset_of[G.mult(r, g)] for r in reps] for g in G.gens]
    for gens in ([G.gens[0]], [n - 1, n // 2], [n - 1] + list(Z)):
        H = analysis.subgroup_closure(G, gens)
        assert H.members == _closure_by_mult(G, gens)
        normal = all(G.mult(G.mult(G.inv(g), h), g) in H.member_set
                     for h in H.members for g in G.gens)
        assert analysis.is_normal(G, H) == normal
    for a in range(n):
        acc, order = a, 1
        while acc:
            acc, order = G.mult(acc, a), order + 1
        assert G.element_order(a) == order
        assert G.power(a, order + 1) == a
        assert G.power(a, -1) == G.inv(a)
        assert G.power(a, 2) == G.mult(a, a)


def test_center_quotient_and_closure_build_few_rows():
    # order 2187: none of these may fill the 2187 x 2187 Cayley table
    G = coset_enumerate(catalog.entry_by_id("caseII1_e3_k2").presentation)

    def rows_built():
        return sum(G._rows[a] is not None for a in range(G.order))

    budget = len(G.gens) + 2
    before = rows_built()
    Z = analysis.center(G)
    assert len(Z) == 9
    assert rows_built() - before <= budget
    before = rows_built()
    Q, _ = analysis.quotient(G, Z)
    assert Q.order == 243
    assert rows_built() - before <= budget + len(Z)
    before = rows_built()
    H = analysis.subgroup_closure(G, [G.order - 1, G.order // 2])
    assert len(H) > 1
    assert rows_built() - before <= budget
