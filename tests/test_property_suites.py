"""Structural identities checked across the whole catalog and the
elliptic-translation groups, rather than on a single example."""

import pytest

from oracles import (element_perms, gbar_generator_perms, maximal_subgroups,
                     translation_point)
from zomo import analysis, catalog, kummer


def _gbar(q):
    return kummer.build_gbar(q)


@pytest.fixture(scope="module", params=[19, 73])
def gbar(request):
    return _gbar(request.param)


def _element_perms(data):
    return element_perms(data.group, gbar_generator_perms(data))


def _translation_elements(data, perms):
    return {e for e, perm in enumerate(perms)
            if translation_point(data.E, perm) is not None}


def test_semidirect_decomposition(gbar):
    """The full group splits as translations extended by the base
    stabilizer."""
    G = gbar.group
    perms = _element_perms(gbar)
    H = _translation_elements(gbar, perms)
    iO = gbar.E.index[gbar.E.O]
    stab = {e for e, perm in enumerate(perms) if perm[iO] == iO}
    assert 0 in H and 0 in stab
    assert H & stab == {0}
    assert len(H) * len(stab) == G.order
    # H is normal: conjugation by any element stays inside
    for g in range(G.order):
        for h in list(H)[:12]:
            assert G.row(G.inv(g))[G.row(h)[g]] in H
    # every element factors as (translation) * (stabilizer element)
    for g in range(G.order):
        assert any(G.mult(h, s) == g for h in H for s in stab)


def test_complement_elements_have_order_three(gbar):
    G = gbar.group
    H = _translation_elements(gbar, _element_perms(gbar))
    for g in range(G.order):
        if g not in H:
            assert G.element_order(g) == 3


SMALL_ENTRIES = [e for e in catalog.load_catalog()
                 if catalog.materialize(e).order <= 729]


def _normal_test_subgroups(G):
    subs = [analysis.subgroup_closure(G, []),
            analysis.center(G),
            analysis.derived_subgroup(G)]
    subs.extend(maximal_subgroups(G))
    subs.append(analysis.normal_closure(G, [G.gens[0]]))
    return subs


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.id)
def test_abelian_quotient_iff_derived_contained(entry):
    G = catalog.materialize(entry)
    D = set(analysis.derived_subgroup(G).members)
    for N in _normal_test_subgroups(G):
        if not analysis.is_normal(G, N):
            continue
        Q, _ = analysis.quotient(G, N)
        q_abelian = all(Q.mult(a, b) == Q.mult(b, a)
                        for a in range(Q.order) for b in range(Q.order))
        assert q_abelian == (D <= set(N.members))


@pytest.mark.parametrize("entry", SMALL_ENTRIES, ids=lambda e: e.id)
def test_frattini_quotient_basis(entry):
    G = catalog.materialize(entry)
    Phi = analysis.frattini(G)
    Q, proj = analysis.quotient(G, Phi)
    # the quotient is elementary abelian of exponent 3
    for a in range(Q.order):
        for b in range(Q.order):
            assert Q.mult(a, b) == Q.mult(b, a)
        if a != 0:
            assert Q.element_order(a) == 3
    rank = 0
    n = Q.order
    while n > 1:
        n //= 3
        rank += 1
    # preimages of an independent generating set of the quotient generate G
    reps = []
    span = {0}
    for g in range(G.order):
        if proj[g] not in span:
            reps.append(g)
            span = {Q.mult(s, Q.power(proj[g], k))
                    for s in span for k in range(3)}
        if len(span) == Q.order:
            break
    assert len(reps) == rank
    H = analysis.subgroup_closure(G, reps)
    assert len(H.members) == G.order
    # rank 1 exactly for the cyclic catalog groups
    if rank >= 2:
        assert all(G.element_order(g) < G.order for g in range(G.order))
