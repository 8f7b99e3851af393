"""Structural invariants of finite groups.

Centers, derived and Frattini subgroups, ascending central series, maximal
subgroups, quotients, element-order censuses, minimal non-abelian subgroup
search, and an isomorphism-invariant fingerprint used in place of database
identification.  They multiply through generators (``FiniteGroup.gen_maps``
and the Cayley rows of a few elements), never through the whole table.
Most routines assume (and some require) a group of 3-power order, which is
the only case exercised here.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from .group import FiniteGroup, GroupError


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup = field(compare=False)
    members: tuple  # sorted element indices

    def __post_init__(self):
        if self.members[0] != 0:
            raise GroupError("subgroup must contain the identity")

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.member_set

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    def as_group(self):
        """Materialize the subgroup as a FiniteGroup of its own."""
        G = self.parent
        gens = generators_of(G, self.members)
        index = {x: i for i, x in enumerate(self.members)}
        maps = [[index[G.mult(x, g)] for x in self.members] for g in gens]
        return FiniteGroup(len(self.members), maps)


def subgroup_closure(G: FiniteGroup, gens):
    """Smallest subgroup containing the given elements."""
    return Subgroup(G, tuple(sorted(_span(G, gens)[0])))


def generators_of(G: FiniteGroup, members):
    """A small deterministic generating set for a subgroup member list:
    each member outside the span of the earlier ones."""
    return _span(G, members)[1]


def _span(G: FiniteGroup, gens):
    """(<gens> as a set, the gens outside the span of the earlier ones):
    {1} closed under left multiplication by the latter, whose rows are the
    only ones built (at most log3 |<gens>| of them)."""
    seen, used, rows = {0}, [], []
    for g in gens:
        if g not in seen:
            used.append(g)
            rows.append(G.row(g))
            _close(rows, seen, list(seen))
    return seen, used


def _close(rows, seen, frontier):
    """Add to the set seen everything the rows reach from frontier."""
    while frontier:
        nxt = []
        for x in frontier:
            for row in rows:
                y = row[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _conjugates(G: FiniteGroup, h):
    """h^g = (g^-1 h) g for each generator g, from the row of g^-1."""
    return [m[G.row(G.inv(g))[h]] for m, g in zip(G.gen_maps, G.gens)]


def is_normal(G: FiniteGroup, H: Subgroup):
    mem = H.member_set
    return all(c in mem for h in H.members for c in _conjugates(G, h))


def normal_closure(G: FiniteGroup, seeds):
    """Smallest normal subgroup containing the seed elements."""
    gens = list(seeds)
    current = subgroup_closure(G, gens)
    while True:
        mem = current.member_set
        extra = [c for h in current.members for c in _conjugates(G, h)
                 if c not in mem]
        if not extra:
            return current
        gens += extra
        current = subgroup_closure(G, gens)


def center(G: FiniteGroup) -> Subgroup:
    pairs = [(m, G.row(g)) for m, g in zip(G.gen_maps, G.gens)]
    members = [x for x in range(G.order)
               if all(m[x] == row[x] for m, row in pairs)]
    return Subgroup(G, tuple(members))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    seeds = {G.comm(a, b) for a in G.gens for b in G.gens}
    return normal_closure(G, seeds)


def is_abelian_set(G: FiniteGroup, members):
    gens = generators_of(G, members)
    return all(G.mult(a, b) == G.mult(b, a) for a in gens for b in gens)


def frattini(G: FiniteGroup) -> Subgroup:
    """Frattini subgroup of a 3-group: <G', cubes of generators>."""
    _require_3group(G)
    der = derived_subgroup(G)
    seeds = list(der.members) + [G.power(g, 3) for g in G.gens]
    return subgroup_closure(G, seeds)


def frattini_by_intersection(G: FiniteGroup) -> Subgroup:
    """Cross-check oracle: intersection of all maximal subgroups."""
    common = None
    for M in maximal_subgroups(G):
        common = M.member_set if common is None else common & M.member_set
    return Subgroup(G, tuple(sorted(common)))


def quotient(G: FiniteGroup, N: Subgroup):
    """Quotient group G/N with the natural projection.

    Returns (Q, proj) where proj[x] is the element of Q holding x.  Coset
    labels are ordered by least member index, so the trivial coset is 0.
    """
    if not is_normal(G, N):
        raise GroupError("subgroup is not normal")
    rows = [G.row(n) for n in generators_of(G, N.members)]
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] == -1:  # x is the least member of its coset Nx
            for y in _close(rows, {x}, [x]):
                coset_of[y] = len(reps)
            reps.append(x)
    maps = [[coset_of[m[r]] for r in reps] for m in G.gen_maps]
    Q = FiniteGroup(len(reps), maps, gen_names=G.gen_names)
    return Q, coset_of


def nilpotency_class(G: FiniteGroup):
    """The length of the lower central series, which equals that of the
    upper one for a nilpotent group; a non-nilpotent G raises."""
    return len(lower_central_series(G)) - 1


def is_maximal_class(G: FiniteGroup):
    _require_3group(G)
    m = _log3(G.order)
    return nilpotency_class(G) == m - 1


def maximal_subgroups(G: FiniteGroup):
    """All maximal subgroups of a 3-group, via index-3 subgroups of G/Frattini."""
    _require_3group(G)
    if G.order == 1:
        return []
    Phi = frattini(G)
    Q, proj = quotient(G, Phi)
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
    import itertools

    r = _log3(Q.order)
    basis = []
    span = Subgroup(Q, (0,))
    for x in range(1, Q.order):
        if x not in span.member_set:
            basis.append(x)
            span = subgroup_closure(Q, basis)
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


def order_census(G: FiniteGroup, restrict_outside: Subgroup | None = None):
    """Map element order -> count, optionally restricted to G minus a subgroup."""
    excluded = restrict_outside.member_set if restrict_outside else frozenset()
    counts = Counter()
    for x in range(G.order):
        if x in excluded:
            continue
        counts[G.element_order(x)] += 1
    return dict(counts)


def exponent_of_complement(G: FiniteGroup, H: Subgroup):
    """Exponent of the set G minus H (lcm of element orders)."""
    return lcm(1, *order_census(G, restrict_outside=H))


def minimal_nonabelian_subgroups(G: FiniteGroup):
    """All minimal non-abelian subgroups, by 2-generated pair search.

    A pair (a, b) with c = [a, b] != 1, c of order 3 and c central in <a, b>
    generates a subgroup with derived subgroup <c> of order 3, which is the
    minimal non-abelian criterion for 2-generated 3-groups.  Each candidate
    is verified directly: all its maximal subgroups must be abelian.

    Neither the filter nor <a, b> changes when a or b is replaced by a power
    prime to 3, so a and b run over one generator per cyclic subgroup.  Once
    a minimal non-abelian H contains a, every b in H is skipped: <a, b> is
    then abelian or H itself.
    """
    _require_3group(G)
    reps = _cyclic_generators(G)
    seen, out = set(), []
    for i, a in enumerate(reps):
        ra = G.row(a)
        skip = set().union(*(H.member_set for H in out if a in H))
        for b in reps[i + 1:]:
            rb = G.row(b)
            if b in skip or ra[b] == rb[a]:
                continue
            c = G.comm(a, b)
            rc = G.row(c)
            if rc[rc[c]] or ra[c] != rc[a] or rb[c] != rc[b]:
                continue  # c is not of order 3 and central in <a, b>
            H = subgroup_closure(G, [a, b])
            if H.members not in seen:
                seen.add(H.members)
                if _is_minimal_nonabelian(G, H):
                    out.append(H)
                    skip |= H.member_set
    out.sort(key=lambda s: (len(s.members), s.members))
    return out


def _cyclic_generators(G: FiniteGroup):
    """The least generator x of each nontrivial cyclic subgroup: x covers
    every x^k with 3 not dividing k."""
    covered, reps = bytearray(G.order), []
    for x in range(1, G.order):
        if not covered[x]:
            reps.append(x)
            row, y, k = G.row(x), x, 1
            while y:
                if k % 3:
                    covered[y] = 1
                y, k = row[y], k + 1
    return reps


def _is_minimal_nonabelian(G: FiniteGroup, H: Subgroup):
    if is_abelian_set(G, H.members):
        return False
    Hg = H.as_group()
    return all(is_abelian_set(Hg, M.members) for M in maximal_subgroups(Hg))


def minimal_nonabelian_of_index3(G: FiniteGroup):
    """Minimal non-abelian subgroups of index 3."""
    return [H for H in minimal_nonabelian_subgroups(G)
            if 3 * len(H) == G.order]


def central_quotient_center_pattern(G: FiniteGroup):
    """Multiset {|Z(G/Z)|} over the order-3 subgroups Z of the center."""
    Z = center(G)
    if len(Z) != 9 or any(G.element_order(z) > 3 for z in Z.members):
        raise GroupError("center is not elementary abelian of order 9")
    pattern = []
    done = set()
    for z in Z.members:
        if z == 0:
            continue
        S = subgroup_closure(G, [z])
        if S.members in done:
            continue
        done.add(S.members)
        Q, _ = quotient(G, S)
        pattern.append(len(center(Q)))
    return sorted(pattern, reverse=True)


def abelian_invariants(G: FiniteGroup):
    """Invariant factors of an abelian 3-group (via the order census)."""
    _require_3group(G)
    census = order_census(G)
    # counts[k] = number of elements killed by 3^k
    counts = [sum(n for o, n in census.items() if 3 ** k % o == 0)
              for k in range(_log3(max(census)) + 1)]
    # partition lambda with counts[k] = 3^(sum min(lam_i, k))
    exps = [_log3(counts[k] // counts[k - 1]) for k in range(1, len(counts))]
    # exps[k-1] = #{i : lam_i >= k}; convert to invariant factors
    factors = []
    for i in range(exps[0] if exps else 0):
        lam = sum(1 for e in exps if e > i)
        factors.append(3 ** lam)
    return sorted(factors, reverse=True)


def derived_length(G: FiniteGroup):
    length = 0
    cur = Subgroup(G, tuple(range(G.order)))
    while len(cur) > 1:
        sub = cur.as_group()
        der = derived_subgroup(sub)
        cur = Subgroup(G, tuple(sorted(cur.members[i] for i in der.members)))
        length += 1
        if length > 20:
            raise GroupError("derived series does not terminate")
    return length


@dataclass(frozen=True)
class Fingerprint:
    order: int
    center_order: int
    nilpotency_class: int
    abelianization: tuple
    census: tuple  # sorted (order, count) pairs
    num_maximal: int
    num_minimal_nonabelian: int
    derived_length: int


def fingerprint(G: FiniteGroup) -> Fingerprint:
    der = derived_subgroup(G)
    Q, _ = quotient(G, der)
    return Fingerprint(
        order=G.order,
        center_order=len(center(G)),
        nilpotency_class=nilpotency_class(G),
        abelianization=tuple(abelian_invariants(Q)),
        census=tuple(sorted(order_census(G).items())),
        num_maximal=len(maximal_subgroups(G)),
        num_minimal_nonabelian=len(minimal_nonabelian_subgroups(G)),
        derived_length=derived_length(G),
    )


def lower_central_series(G: FiniteGroup):
    """Descending central series K_1 >= K_2 >= ... >= 1."""
    chain = [Subgroup(G, tuple(range(G.order)))]
    while len(chain[-1]) > 1:
        K = chain[-1]
        seeds = {G.comm(a, g) for a in generators_of(G, K.members) for g in G.gens}
        nxt = normal_closure(G, seeds) if seeds - {0} else Subgroup(G, (0,))
        if nxt.members == K.members:
            raise GroupError("lower central series stabilized (not nilpotent)")
        chain.append(nxt)
    return chain


def fundamental_subgroup(G: FiniteGroup) -> Subgroup:
    """C_G(K_2/K_4) in a maximal-class 3-group."""
    K = lower_central_series(G)
    K2 = K[1] if len(K) > 1 else Subgroup(G, (0,))
    K4 = K[3] if len(K) > 3 else Subgroup(G, (0,))
    mem4 = K4.member_set
    members = [g for g in range(G.order)
               if all(G.comm(k, g) in mem4 for k in K2.members)]
    return Subgroup(G, tuple(sorted(members)))


def is_metacyclic(G: FiniteGroup):
    """Scan cyclic normal subgroups N and test G/N cyclic."""
    seen = set()
    for x in range(G.order):
        N = subgroup_closure(G, [x])
        if N.members in seen:
            continue
        seen.add(N.members)
        if not is_normal(G, N):
            continue
        Q, _ = quotient(G, N)
        if _is_cyclic(Q):
            return True
    return False


def _is_cyclic(G: FiniteGroup):
    return any(G.element_order(x) == G.order for x in range(G.order))


def _log3(n):
    k = 0
    while n % 3 == 0:
        n //= 3
        k += 1
    if n != 1:
        raise GroupError("order is not a power of 3")
    return k


def _require_3group(G):
    _log3(G.order)
