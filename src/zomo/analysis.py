"""Structural invariants of finite groups.

Centers, derived and Frattini subgroups, lower central series,
element-order censuses, minimal non-abelian subgroup search, and an
isomorphism-invariant fingerprint used in place of database
identification.  They multiply through generators (``FiniteGroup.gen_maps``
and the Cayley rows of a few elements), never through the whole table, and
no routine builds a group: Z(G/S) and C_G(K_2/K_4) are tested on labels of
cosets, and G/G' is read off the indices of the normal closures
G'G^(3^k) of the generators' commutators and 3^k-th powers, Phi(G) = G'G^3
the first.  By Burnside's basis theorem Phi(G/N) = N Phi(G)/N, so G/N is
cyclic exactly when |G : N Phi(G)| <= 3, which decides metacyclicity.
Element orders are counted one cyclic subgroup at a time, each walked by
right multiplication with its generator's spanning-tree word
(``FiniteGroup.along_tree``), so a census builds no Cayley row, and
maximal subgroups are counted from the rank r of the abelianization
(|G:Phi(G)| = 3^r gives (3^r - 1)/2 of them), not listed.  Minimality is
tested on generating pairs only, by Redei's criterion
(``is_minimal_nonabelian_pair``), both in the subgroup search and for the
catalog.  Most routines assume (and some require) a group of 3-power order,
which is the only case exercised here.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import eq

from .genus import split_power
from .group import FiniteGroup, GroupError, _reach


@dataclass(frozen=True)
class Subgroup:
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


def subgroup_closure(G: FiniteGroup, gens):
    """Smallest subgroup containing the given elements."""
    return Subgroup(tuple(sorted(_span(G, gens)[0])))


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
            _reach(rows, seen, list(seen))
    return seen, used


def _conjugates(G: FiniteGroup, h):
    """h^g = (g^-1 h) g for each generator g, from the row of g^-1."""
    return [m[G.row(G.inv(g))[h]] for m, g in zip(G.gen_maps, G.gens)]


def is_normal(G: FiniteGroup, H: Subgroup):
    mem = H.member_set
    return all(c in mem for h in H.members for c in _conjugates(G, h))


def normal_closure(G: FiniteGroup, seeds):
    """Smallest normal subgroup containing the seed elements: one span,
    grown by the conjugates s^g, for each generator g of G, of every
    element s it is extended by.  A subgroup <S> is normal once every such
    s^g lies in it, so no member outside S is conjugated."""
    gens, seen, rows = list(seeds), {0}, []
    for s in gens:  # gens grows while it is walked
        if s not in seen:
            rows.append(G.row(s))
            _reach(rows, seen, list(seen))
            gens += _conjugates(G, s)
    return Subgroup(tuple(sorted(seen)))


def _commutator(G: FiniteGroup, A, B):
    """[<A>, <B>] for generators A and B of normal subgroups: the normal
    closure of the commutators [a, b]."""
    return normal_closure(G, {G.comm(a, b) for a in A for b in B})


def center(G: FiniteGroup, label=None) -> Subgroup:
    """The x with label[x g] == label[g x] for each generator g, tested on
    the survivors of the generators before it: Z(G) with no label, and the
    preimage of Z(G/N) with labels that tell the cosets of a normal N apart."""
    xs = range(G.order)
    for m, g in zip(G.gen_maps, G.gens):
        xg, gx = map(m.__getitem__, xs), map(G.row(g).__getitem__, xs)
        if label:
            xg, gx = map(label.__getitem__, xg), map(label.__getitem__, gx)
        xs = list(compress(xs, map(eq, xg, gx)))
    return Subgroup(tuple(xs))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    return _commutator(G, G.gens, G.gens)


def is_abelian_set(G: FiniteGroup, members):
    gens = generators_of(G, members)
    return all(G.mult(a, b) == G.mult(b, a) for a in gens for b in gens)


def frattini(G: FiniteGroup) -> Subgroup:
    """Frattini subgroup of a 3-group, G'G^3."""
    _require_3group(G)
    return _derived_times_powers(G, 3)


def _derived_times_powers(G: FiniteGroup, e):
    """G'G^e as the normal closure N of the generators' commutators and
    e-th powers: G/N is abelian, generated by elements of order dividing
    e, so N contains G'G^e, and its seeds lie in G'G^e."""
    seeds = [G.comm(a, b) for a in G.gens for b in G.gens]
    return normal_closure(G, seeds + [G.power(g, e) for g in G.gens])


def _coset_labels(G: FiniteGroup, N: Subgroup):
    """label[x] = the least member of the coset Nx of a normal N."""
    rows = [G.row(n) for n in generators_of(G, N.members)]
    label = [-1] * G.order
    for x in range(G.order):
        if label[x] == -1:  # x is the least member of its coset Nx
            for y in _reach(rows, {x}, [x]):
                label[y] = x
    return label


def nilpotency_class(G: FiniteGroup):
    """The length of the lower central series, which equals that of the
    upper one for a nilpotent group; a non-nilpotent G raises."""
    return len(lower_central_series(G)) - 1


def is_maximal_class(G: FiniteGroup):
    return _log3(G.order) - 1 == nilpotency_class(G)


def order_census(G: FiniteGroup, restrict_outside: Subgroup | None = None):
    """Map element order -> count, optionally restricted to G minus a
    subgroup H, for a 3-group.  A cyclic subgroup of order o > 1 has 2o/3
    generators, all in H or all outside it, so each is counted through its
    least generator."""
    _require_3group(G)
    H = restrict_outside
    counts = {1: 1} if H is None else {}
    for x, o in _cyclic_generators(G):
        if H is None or x not in H:
            counts[o] = counts.get(o, 0) + 2 * o // 3
    return counts


def is_minimal_nonabelian_pair(G: FiniteGroup, a, b):
    """Whether <a, b> is minimal non-abelian, in a 3-group G: c = [a, b] is
    not 1, has order 3 and commutes with a and b.  Then H = <a, b> has
    H' = <c> (the normal closure of c) of order 3 and d(H) = 2, which is
    Redei's criterion.  Conversely a minimal non-abelian 3-group has
    |H'| = 3, and a normal subgroup of order 3 of a 3-group is central."""
    ra, rb = G.row(a), G.row(b)
    if ra[b] == rb[a]:
        return False
    c = G.comm(a, b)
    rc = G.row(c)
    return not rc[rc[c]] and ra[c] == rc[a] and rb[c] == rc[b]


def minimal_nonabelian_subgroups(G: FiniteGroup):
    """All minimal non-abelian subgroups, each found as <a, b> for a pair
    that passes ``is_minimal_nonabelian_pair``: a minimal non-abelian H is
    generated by any two of its members that do not commute.

    Neither the test nor <a, b> changes when a or b is replaced by a power
    prime to 3, so a and b run over one generator per cyclic subgroup.  Once
    a minimal non-abelian H contains a, every b in H is skipped: <a, b> is
    then abelian or H itself.  So no H is found twice.
    """
    _require_3group(G)
    reps = [x for x, _ in _cyclic_generators(G)]
    out = []
    for i, a in enumerate(reps):
        skip = set().union(*(H.member_set for H in out if a in H))
        for b in reps[i + 1:]:
            if b in skip or not is_minimal_nonabelian_pair(G, a, b):
                continue
            H = subgroup_closure(G, [a, b])
            out.append(H)
            skip |= H.member_set
    out.sort(key=lambda s: (len(s.members), s.members))
    return out


def _cyclic_generators(G: FiniteGroup):
    """(x, order of x) for the least generator x of each nontrivial cyclic
    subgroup of a 3-group: x covers every x^k with 3 not dividing k.  The
    powers are walked as x^(k+1) = x^k x, by running x's spanning-tree word
    through the generator maps, so no Cayley row is built: order(x) times
    depth(x) steps per cyclic subgroup instead of |G|."""
    words = G.along_tree((), G.gen_maps, lambda w, m: w + (m,))
    covered, reps = bytearray(G.order), []
    for x in range(1, G.order):
        if not covered[x]:
            word, y, k = words[x], x, 1
            while y:
                if k % 3:
                    covered[y] = 1
                for m in word:
                    y = m[y]
                k += 1
            reps.append((x, k))
    return reps


def central_quotient_center_pattern(G: FiniteGroup):
    """Multiset {|Z(G/S)|} over the S = <s>, s = a, b, ab, ab^2, of order 3
    in an elementary abelian Z(G) = <a, b>, by labels min(x, sx, s^2 x)."""
    Z = center(G)
    gens = generators_of(G, Z.members)
    if len(Z) != 9 or any(G.element_order(z) > 3 for z in gens):
        raise GroupError("center is not elementary abelian of order 9")
    a, b = map(G.row, gens)
    ab = [*map(a.__getitem__, b)]  # the rows of ab and ab^2, composed
    labels = ([x if x < y and x < z else min(y, z) for x, y, z
               in zip(range(G.order), s, map(s.__getitem__, s))]
              for s in (a, b, ab, [*map(ab.__getitem__, b)]))
    return sorted((len(center(G, lab)) // 3 for lab in labels), reverse=True)


def abelian_invariants(G: FiniteGroup):
    """Invariant factors of G/G' for a 3-group G, largest first, read in G:
    N_k = G'G^(3^k) has |G : N_k| = prod min(f, 3^k) over the factors f,
    so r_k = log3 |N_(k-1) : N_k| factors have order 3^k or more, and the
    i-th is 3^#{k : r_k > i}.  The N_k shrink to G', where the walk stops."""
    _require_3group(G)
    derived, sizes = len(derived_subgroup(G)), [G.order]  # sizes[k] = |N_k|
    while sizes[-1] > derived:
        sizes.append(len(_derived_times_powers(G, 3 ** len(sizes))))
    ranks = [_log3(a // b) for a, b in zip(sizes, sizes[1:])]
    return [3 ** sum(r > i for r in ranks)
            for i in range(max(ranks, default=0))]


def derived_length(G: FiniteGroup):
    """Length of the derived series, walked inside G: each term is
    characteristic in the one before, hence normal in G, so it is the normal
    closure in G of the commutators of the previous term's generators."""
    length, cur = 0, Subgroup(tuple(range(G.order)))
    while len(cur) > 1:
        gens = generators_of(G, cur.members)
        nxt = _commutator(G, gens, gens)
        if nxt.members == cur.members:
            raise GroupError("derived series does not terminate")
        cur, length = nxt, length + 1
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
    _require_3group(G)
    ab = tuple(abelian_invariants(G))  # |G:Phi(G)| = 3^len(ab)
    return Fingerprint(
        order=G.order,
        center_order=len(center(G)),
        nilpotency_class=nilpotency_class(G),
        abelianization=ab,
        census=tuple(sorted(order_census(G).items())),
        num_maximal=(3 ** len(ab) - 1) // 2,
        num_minimal_nonabelian=len(minimal_nonabelian_subgroups(G)),
        derived_length=derived_length(G),
    )


def lower_central_series(G: FiniteGroup):
    """Descending central series K_1 >= K_2 >= ... >= 1."""
    chain = [Subgroup(tuple(range(G.order)))]
    while len(chain[-1]) > 1:
        K = chain[-1]
        nxt = _commutator(G, generators_of(G, K.members), G.gens)
        if nxt.members == K.members:
            raise GroupError("lower central series stabilized (not nilpotent)")
        chain.append(nxt)
    return chain


def fundamental_subgroup(G: FiniteGroup) -> Subgroup:
    """C_G(K_2/K_4) in a maximal-class 3-group: the x with k^x in K_4 k for
    each generator k of K_2, told on labels of the K_4-cosets.  The
    conjugates k^x are carried over the spanning tree, k^(xg) = (k^x)^g."""
    K = lower_central_series(G) + [Subgroup((0,))] * 3  # 1 past the end
    label = _coset_labels(G, K[3])
    by_gen = [(m, G.row(G.inv(g))) for m, g in zip(G.gen_maps, G.gens)]
    xs = range(G.order)
    for k in generators_of(G, K[1].members):
        conj = G.along_tree(k, by_gen, lambda y, mr: mr[0][mr[1][y]])
        xs = [x for x in xs if label[conj[x]] == label[k]]
    return Subgroup(tuple(xs))


def is_metacyclic(G: FiniteGroup):
    """Whether some cyclic normal N has G/N cyclic, in a 3-group.  By
    Burnside's basis theorem Phi(G/N) = N Phi(G)/N, so G/N is cyclic
    exactly when |G : N Phi(G)| <= 3.  With |G : Phi(G)| = 3^r, N = <x>
    has |G : N Phi(G)| = 3^(r-1) for x outside Phi(G) and 3^r otherwise:
    so r <= 1, or r = 2 and some x outside Phi(G) has <x> normal."""
    Phi = frattini(G)
    r = _log3(G.order // len(Phi))
    return r <= 1 or r == 2 and any(
        x not in Phi and is_normal(G, subgroup_closure(G, [x]))
        for x, _ in _cyclic_generators(G))


def _log3(n):
    k, m = split_power(n, 3)
    if m != 1:
        raise GroupError("order %d is not a power of 3" % n)
    return k


def _require_3group(G):
    _log3(G.order)
