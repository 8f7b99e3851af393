"""Test oracles: the listing routines that the package replaced by counts.

``maximal_subgroups`` lists every maximal subgroup of a 3-group as the
preimages of the index-3 subgroups of its Frattini quotient; the package
only counts them, (|G:Phi(G)| - 1)/2 by Burnside's basis theorem.
"""

import itertools

from zomo import analysis
from zomo.analysis import Subgroup
from zomo.group import FiniteGroup, GroupError


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
        out.append(Subgroup(G, members))
    out.sort(key=lambda s: s.members)
    return out


def _index3_subgroups_elem_abelian(Q: FiniteGroup):
    """Member sets of all index-3 subgroups of an elementary abelian 3-group.

    These are the kernels of the nonzero functionals Q -> F3, taken up to
    scalar by fixing the first nonzero coordinate to 1.
    """
    r = analysis._log3(Q.order)
    basis = []
    span = Subgroup(Q, (0,))
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
