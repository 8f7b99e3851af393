import functools
import itertools

import pytest

from oracles import cyclic_generators_by_rows, maximal_subgroups
from zomo import analysis, catalog, kummer
from zomo.group import (FiniteGroup, GroupError, analyze_presentation,
                        coset_enumerate, group_from_permutations)

HEIS = "<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>"
META27 = "<a, b | a^9, b^3, b^-1*a*b*a^-4>"


def test_center_heisenberg():
    G = analyze_presentation(HEIS)
    Z = analysis.center(G)
    assert len(Z.members) == 3
    assert analysis.is_normal(G, Z)


def _frattini_by_intersection(G):
    """Cross-check oracle: intersection of all maximal subgroups."""
    common = None
    for M in maximal_subgroups(G):
        common = M.member_set if common is None else common & M.member_set
    return analysis.Subgroup(tuple(sorted(common)))


def test_derived_and_frattini_heisenberg():
    G = analyze_presentation(HEIS)
    D = analysis.derived_subgroup(G)
    Phi = analysis.frattini(G)
    assert len(D.members) == 3
    assert D.members == Phi.members
    assert _frattini_by_intersection(G).members == Phi.members


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
    maxes = maximal_subgroups(G)
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
    H = group_from_permutations([list(G.row(g)) for g in G.gens])
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


@functools.cache
def _pair_search_subgroups(G):
    """The subgroups <a, b> that the n^2/2 pair search meets: every pair
    a < b that passes the filter."""
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
                seen[members] = analysis.Subgroup(members)
    return tuple(seen.values())


def _as_group(G, H):
    """H as a FiniteGroup of its own, from the rows of its generators.
    Those rows multiply on the left, so this is the opposite group H^op
    (isomorphic to H by inversion): fit for isomorphism invariants only."""
    index = {x: i for i, x in enumerate(H.members)}
    maps = [[index[row[x]] for x in H.members]
            for row in map(G.row, analysis.generators_of(G, H.members))]
    return FiniteGroup(len(H), maps)


def _minimal_nonabelian_by_definition(G, H):
    """H is non-abelian and every maximal subgroup of H is abelian."""
    if analysis.is_abelian_set(G, H.members):
        return False
    Hg = _as_group(G, H)
    return all(analysis.is_abelian_set(Hg, M.members)
               for M in maximal_subgroups(Hg))


def _pair_search_by_mult(G):
    """The minimal non-abelian subgroups among those the pair search meets,
    by the definition."""
    out = [H for H in _pair_search_subgroups(G)
           if _minimal_nonabelian_by_definition(G, H)]
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
    Zsub = analysis.Subgroup(tuple(Z))
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
    before = rows_built()
    analysis.order_census(G)
    analysis.order_census(G, restrict_outside=Z)
    assert rows_built() == before


# -- the counted invariants against the listings they replaced ---------------

ALL_ENTRIES = [e.id for e in catalog.load_catalog()]


def _group(eid, request):
    if eid == "genus28":
        return request.getfixturevalue("genus28")[0]
    if eid.startswith("gbar"):
        return kummer.build_gbar(int(eid[4:])).group
    return _catalog_group(eid)


@pytest.mark.parametrize("eid", ALL_ENTRIES + ["genus28"])
def test_num_maximal_counts_the_listed_maximal_subgroups(eid, request):
    G = _group(eid, request)
    assert analysis.fingerprint(G).num_maximal == len(maximal_subgroups(G))


@pytest.mark.parametrize("eid", ALL_ENTRIES + ["genus28"])
def test_order_census_matches_a_count_by_element_order(eid, request):
    G = _group(eid, request)
    for H in (None, analysis.center(G), analysis.derived_subgroup(G),
              analysis.frattini(G)):
        inside = () if H is None else H.member_set
        want = {}
        for x in range(G.order):
            if x not in inside:
                o = G.element_order(x)
                want[o] = want.get(o, 0) + 1
        assert analysis.order_census(G, H) == want


@pytest.mark.parametrize("eid", ALL_ENTRIES + ["gbar19", "gbar73", "genus28",
                                 "caseII1_e3_k2/Z"])
def test_cyclic_generators_match_the_row_walk(eid, request):
    # the same (x, order) list, in the same order, as the walk along rows
    if eid.endswith("/Z"):
        G = _catalog_group(eid.split("/")[0])
        G, _ = analysis.quotient(G, analysis.center(G))
    else:
        G = _group(eid, request)
    assert analysis._cyclic_generators(G) == cyclic_generators_by_rows(G)


# the catalog groups, genus28 and Gbar all have abelianization C3 x C3, so
# Phi(G) = G' there; in these three Phi(G) is larger than G'
PHI_ABOVE_DERIVED = {"C27": "<a | a^27>", "C9xC3": "<a, b | a^9, b^3, [a,b]>",
                     "C9:C9": "<a, b | a^9, b^9, b^-1*a*b*a^-4>"}


@pytest.mark.parametrize("eid", ALL_ENTRIES + ["genus28", "gbar19", "gbar73"]
                         + list(PHI_ABOVE_DERIVED))
def test_frattini_is_the_closure_of_derived_and_cubes(eid, request):
    if eid in PHI_ABOVE_DERIVED:
        G = analyze_presentation(PHI_ABOVE_DERIVED[eid])
    else:
        G = _group(eid, request)
    seeds = set(analysis.derived_subgroup(G).members)
    seeds |= {G.mult(x, G.mult(x, x)) for x in range(G.order)}
    assert analysis.frattini(G).members == _closure_by_mult(G, seeds)


def _normal_closure_by_definition(G, seeds):
    """<seeds> conjugated by every element and closed again, until the
    conjugates add nothing."""
    members = set(_closure_by_mult(G, seeds))
    while True:
        conj = {G.mult(G.inv(g), G.mult(x, g))
                for x in members for g in range(G.order)}
        if conj <= members:
            return tuple(sorted(members))
        members = set(_closure_by_mult(G, members | conj))


@pytest.mark.parametrize("eid", SMALL_ENTRIES + ["gbar19"])
def test_normal_and_derived_closures_match_their_definitions(eid, request):
    G = _group(eid, request)
    for seeds in [[g] for g in G.gens] + [[G.order - 1]]:
        assert (analysis.normal_closure(G, seeds).members
                == _normal_closure_by_definition(G, seeds))
    commutators = {G.comm(x, y) for x in range(G.order)
                   for y in range(G.order)}
    assert (analysis.derived_subgroup(G).members
            == _closure_by_mult(G, commutators))


def _fundamental_by_members(G):
    """C_G(K_2/K_4) with [k, g] tested for every member k of K_2."""
    K = analysis.lower_central_series(G)
    mem4 = K[3].member_set if len(K) > 3 else {0}
    return tuple(g for g in range(G.order)
                 if all(G.comm(k, g) in mem4 for k in K[1].members))


FUNDAMENTAL_ENTRIES = [e.id for e in catalog.load_catalog()
                       if any(x.prop == "fundamental_abelian"
                              for x in e.expected)]


@pytest.mark.parametrize("eid", FUNDAMENTAL_ENTRIES)
def test_fundamental_subgroup_matches_the_member_loop(eid):
    G = _catalog_group(eid)
    assert (analysis.fundamental_subgroup(G).members
            == _fundamental_by_members(G))


S3_PERMS = [(1, 0, 2), (1, 2, 0)]
S4_PERMS = [(1, 0, 2, 3), (1, 2, 3, 0)]


def test_order_census_needs_a_3group():
    S3 = group_from_permutations(S3_PERMS)
    with pytest.raises(GroupError):
        analysis.order_census(S3)


@pytest.mark.parametrize("eid", SMALL_ENTRIES + ["genus28"])
def test_redei_criterion_matches_the_definition(eid, request):
    # the subgroups the pair search meets are all non-abelian; the center
    # and the maximal subgroups add abelian ones, some 2-generated.  The
    # images of generators_of(H) span H/Phi(H), so they hold a basis of it:
    # H is 2-generated iff two of them generate H (Burnside's basis
    # theorem), and a minimal non-abelian H is 2-generated
    G = _group(eid, request)
    subgroups = (list(_pair_search_subgroups(G)) + [analysis.center(G)]
                 + maximal_subgroups(G))
    for H in subgroups:
        gens = analysis.generators_of(G, H.members)
        pairs = [(a, b) for a, b in
                 itertools.combinations_with_replacement(gens, 2)
                 if _closure_by_mult(G, [a, b]) == H.members]
        want = _minimal_nonabelian_by_definition(G, H)
        if not pairs:  # H needs 3 or more generators
            assert not want
        for a, b in pairs:
            assert analysis.is_minimal_nonabelian_pair(G, a, b) == want


def test_redei_pair_needs_a_commutator_of_order_3():
    # class 2 with c = [a, b] central of order 9, so <a, b>' = <c> has
    # order 9; [a^3, b] = c^3 has order 3.  No catalog group has a pair
    # with c central of order 9, so the test above cannot see this case
    G = analyze_presentation(
        "<a, b | a^9, b^9, [a,b]^9, [[a,b],a], [[a,b],b]>")
    a, b = G.gens
    a3 = G.power(a, 3)
    assert not analysis.is_minimal_nonabelian_pair(G, a, b)
    assert analysis.is_minimal_nonabelian_pair(G, a3, b)
    for x, y in [(a, b), (a3, b)]:
        H = analysis.subgroup_closure(G, [x, y])
        assert (analysis.is_minimal_nonabelian_pair(G, x, y)
                == _minimal_nonabelian_by_definition(G, H))


def _derived_length_by_as_group(G):
    """Reference derived length: each term materialized as a group of its
    own, one Cayley row per member, and its derived subgroup taken there."""
    length, cur = 0, tuple(range(G.order))
    while len(cur) > 1:
        index = {x: i for i, x in enumerate(cur)}
        gens = analysis.generators_of(G, cur)
        maps = [[index[G.mult(x, g)] for x in cur] for g in gens]
        H = FiniteGroup(len(cur), maps)
        der = analysis.derived_subgroup(H)
        in_G = H.along_tree(0, gens, G.mult)
        cur = tuple(sorted(in_G[i] for i in der.members))
        length += 1
        if length > 20:
            raise GroupError("derived series does not terminate")
    return length


@pytest.mark.parametrize("eid", ALL_ENTRIES + ["genus28", "S3", "S4"])
def test_derived_length_matches_the_as_group_chain(eid, request):
    if eid in ("S3", "S4"):
        G = group_from_permutations(S3_PERMS if eid == "S3" else S4_PERMS)
    else:
        G = _group(eid, request)
    assert analysis.derived_length(G) == _derived_length_by_as_group(G)


def test_derived_length_of_a_perfect_group_raises():
    A5 = group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert A5.order == 60
    with pytest.raises(GroupError):
        analysis.derived_length(A5)
