"""Structural invariants of finite groups.

Everything here works on FiniteGroup Cayley tables: centers, derived and
Frattini subgroups, ascending central series, maximal subgroups, quotients,
element-order censuses, minimal non-abelian subgroup search, and an
isomorphism-invariant fingerprint used in place of database identification.
Most routines assume (and some require) a group of 3-power order, which is
the only case exercised here.
"""

from collections import Counter
from dataclasses import dataclass, field

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

    @property
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
    seen = {0}
    frontier = [0]
    gens = [g for g in gens if g != 0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(G, tuple(sorted(seen)))


def generators_of(G: FiniteGroup, members):
    """A small deterministic generating set for a subgroup member list."""
    gens = []
    have = {0}
    for x in members:
        if x not in have:
            gens.append(x)
            have = subgroup_closure(G, gens).member_set
            if len(have) == len(members):
                break
    return gens


def is_normal(G: FiniteGroup, H: Subgroup):
    mem = H.member_set
    return all(G.conj(h, g) in mem for h in H.members for g in G.gens)


def normal_closure(G: FiniteGroup, seeds):
    """Smallest normal subgroup containing the seed elements."""
    current = subgroup_closure(G, seeds)
    while True:
        extra = []
        mem = current.member_set
        for h in current.members:
            for g in G.gens:
                c = G.conj(h, g)
                if c not in mem:
                    extra.append(c)
        if not extra:
            return current
        current = subgroup_closure(G, list(current.members) + extra)


def center(G: FiniteGroup) -> Subgroup:
    members = [x for x in range(G.order)
               if all(G.mult(x, g) == G.mult(g, x) for g in G.gens)]
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
    mem = list(N.members)
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] == -1:
            for n in mem:
                coset_of[G.mult(n, x)] = len(reps)
            reps.append(x)
    maps = []
    for g in G.gens:
        maps.append([coset_of[G.mult(reps[c], g)] for c in range(len(reps))])
    Q = FiniteGroup(len(reps), maps, gen_names=G.gen_names)
    return Q, coset_of


def central_series(G: FiniteGroup):
    """Ascending central series; returns (list of Subgroups, nilpotency class).

    The chain starts at the trivial subgroup and must terminate at G,
    otherwise the input is not nilpotent and an error is raised.
    """
    chain = [Subgroup(G, (0,))]
    proj = list(range(G.order))
    Q = G
    while chain[-1].members != tuple(range(G.order)):
        ZQ = center(Q)
        lifted = tuple(sorted(x for x in range(G.order) if proj[x] in ZQ.member_set))
        if lifted == chain[-1].members:
            raise GroupError("central series stabilized below G (not nilpotent)")
        chain.append(Subgroup(G, lifted))
        Q, proj2 = quotient(G, chain[-1])
        proj = proj2
    return chain, len(chain) - 1


def nilpotency_class(G: FiniteGroup):
    return central_series(G)[1]


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
    from math import lcm
    e = 1
    mem = H.member_set
    for x in range(G.order):
        if x not in mem:
            e = lcm(e, G.element_order(x))
    return e


def minimal_nonabelian_subgroups(G: FiniteGroup):
    """All minimal non-abelian subgroups, by 2-generated pair search.

    A pair (a, b) with c = [a, b] != 1, c of order 3 and c central in <a, b>
    generates a subgroup with derived subgroup <c> of order 3, which is the
    minimal non-abelian criterion for 2-generated 3-groups.  Each candidate
    is verified directly: all its maximal subgroups must be abelian.
    """
    _require_3group(G)
    seen = {}
    for a in range(1, G.order):
        for b in range(a + 1, G.order):
            c = G.comm(a, b)
            if c == 0:
                continue
            if G.power(c, 3) != 0:
                continue
            if G.comm(a, c) != 0 or G.comm(b, c) != 0:
                continue
            H = subgroup_closure(G, [a, b])
            if H.members not in seen:
                seen[H.members] = H
    out = []
    for H in seen.values():
        if _is_minimal_nonabelian(G, H):
            out.append(H)
    out.sort(key=lambda s: (len(s.members), s.members))
    return out


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


def abelian_invariants(G: FiniteGroup, members=None):
    """Invariant factors of an abelian 3-group (via the order census)."""
    if members is None:
        members = range(G.order)
    members = list(members)
    n = len(members)
    _require_3group(G, n)
    # counts[k] = number of elements killed by 3^k
    counts = []
    k = 0
    while True:
        c = sum(1 for x in members if G.power(x, 3 ** k) == 0)
        counts.append(c)
        if c == n:
            break
        k += 1
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


def _require_3group(G, n=None):
    _log3(n if n is not None else G.order)
