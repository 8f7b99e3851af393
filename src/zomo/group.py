"""Materialized finite groups.

Elements are integers 0..n-1 with 0 the identity, numbered in the order
of the breadth-first walk from 0 over the generators however the group was
built (Holt, Eick and O'Brien, section 4.1).  Right multiplication by
generator i is the map ``gen_maps[i]``; left multiplication by a is the
Cayley row ``row(a)``, filled on first use by a walk over that walk's tree,
and products, powers and inverses build only the rows of their operands.
Groups come either from coset enumeration (regular action on cosets of the
trivial subgroup) or from explicit permutations, closed on the images of a
base with a certificate that the base images determine the element (see
``group_from_permutations``).  A group keeps only its generator maps; an
action of its elements, such as the permutations it was closed from, is
carried over the same spanning tree by ``along_tree``.
"""

from array import array
from operator import itemgetter

from . import ZomoError, coset
from .words import Presentation, parse_presentation


class GroupError(ZomoError, ValueError):
    pass


class FiniteGroup:
    def __init__(self, order, gen_maps, gen_names=None):
        """gen_maps[g][c] = index of c * (generator g), in any numbering
        with 0 the identity; they are kept renumbered in walk order."""
        self.order = order
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            "g%d" % i for i in range(len(gen_maps)))
        walk, place, self._bfs = _breadth_first(gen_maps, order)
        self.gen_maps = tuple(array("i", [place[m[x]] for x in walk])
                              for m in gen_maps)  # read only
        self.gens = tuple(self.gen_maps[g][0] for g in range(len(gen_maps)))
        self._rows = [None] * order
        self._inv = {0: 0}
        self.row(0)

    def along_tree(self, start, gen_values, step):
        """values[x] for every element x, with values[0] = start and
        values[c * g] = step(values[c], gen_values[g]) along the spanning
        tree, e.g. permutations composed or the labels of an action."""
        values = [None] * self.order
        values[0] = start
        for child, parent, g in self._bfs:
            values[child] = step(values[parent], gen_values[g])
        return values

    def row(self, a):
        """row(a)[x] = a * x, filled on first use."""
        row = self._rows[a]
        if row is None:
            row = array("i", bytes(4 * self.order))
            row[0] = a
            maps = self.gen_maps
            for child, parent, g in self._bfs:
                row[child] = maps[g][row[parent]]
            self._rows[a] = row
        return row

    def mult(self, a, b):
        return self.row(a)[b]

    def inv(self, a):
        """a^-1 from the one row of a, stored for both a and a^-1."""
        b = self._inv.get(a)
        if b is None:
            b = self.row(a).index(0)
            self._inv[a] = b
            self._inv[b] = a
        return b

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b, from the rows of a, b and their inverses."""
        return self.row(self.inv(a))[self.row(self.inv(b))[self.row(a)[b]]]

    def power(self, a, k):
        """a^k by walking the row of a: a^(j+1) = a * a^j."""
        if k < 0:
            a, k = self.inv(a), -k
        row, acc = self.row(a), 0
        for _ in range(k):
            acc = row[acc]
        return acc

    def element_order(self, a):
        if not 0 <= a < self.order:
            raise GroupError("element index out of range")
        row, k, x = self.row(a), 1, a
        while x != 0:
            x = row[x]
            k += 1
        return k

    def eval_word(self, word):
        """Evaluate a word of (generator index, exponent) pairs."""
        acc = 0
        for g, e in word:
            acc = self.mult(acc, self.power(self.gens[g], e))
        return acc


def coset_enumerate(pres: Presentation, max_cosets=100000) -> FiniteGroup:
    order, maps = coset.enumerate_cosets(pres, max_cosets)
    G = FiniteGroup(order, maps, gen_names=pres.generators)
    return G


def analyze_presentation(text):
    return coset_enumerate(parse_presentation(text))


def group_from_permutations(gens, gen_names=None) -> FiniteGroup:
    """Close a list of permutations of {0..n-1} under composition.

    An element p is kept as its images of the base B, the least point of
    each orbit of <gens>: the product p then g has images g[p(b)].  One
    walk over the growing list of base images (``_close``) numbers each
    new product p then g and records its index in the map of g.  The walk
    numbers the cosets of the pointwise stabiliser G_(B), so it gives the
    group exactly when G_(B) is trivial.  Certificate: the Cayley row of a
    generator commutes with every generator map exactly when it normalises
    G_(B), whose Schreier generators generate it; the walked generators
    generate the group, so checking theirs shows that G_(B) is normal.
    A normal G_(B) fixes every image of B, which is every point, so it is
    trivial.  When the check fails the same walk reruns with B the whole
    domain.  Either way ``FiniteGroup`` numbers the elements breadth-first
    over the generators, so the group does not depend on the base.
    """
    if not gens:
        raise GroupError("need at least one generator permutation")
    n = len(gens[0])
    for p in gens:  # n distinct values from 0 to n - 1, in O(n)
        if (len(p) != n or len(set(p)) != n
                or n and (min(p), max(p)) != (0, n - 1)):
            raise GroupError("generator is not a permutation of 0..%d" % (n - 1))
    for base in (_orbit_minima(gens, n), range(n)):
        size, maps, walked = _close(gens, tuple(base))
        G = FiniteGroup(size, maps, gen_names=gen_names)
        if len(base) == n or _rows_commute(G, walked):
            return G


def _images(points):
    """The function g -> (g[b] for b in points) as a tuple (itemgetter
    alone gives a bare item for one point)."""
    if len(points) != 1:
        return itemgetter(*points) if points else lambda g: ()
    b, = points
    return lambda g: (g[b],)


def _rows_commute(G, walked):
    """Whether the Cayley row of each walked generator commutes with each
    walked generator's map, row[m[x]] == m[row[x]] for every x: one
    itemgetter per distinct row and map, and r^2 |G| lookups.  The others
    are products of these, with maps composed from theirs.  Generators
    with the same base images share an element (a coset of G_(B)) and so
    a row, but not their maps, which are told apart by content."""
    maps = {G.gen_maps[g].tobytes(): G.gen_maps[g] for g in walked}
    at_maps = [(itemgetter(*m), m) for m in maps.values()]
    for e in {G.gens[g] for g in walked}:
        row = G.row(e)
        at_row = itemgetter(*row)
        if any(at_m(row) != at_row(m) for at_m, m in at_maps):
            return False
    return True


def _orbit_minima(gens, n):
    """The least point of each orbit of <gens> on 0..n-1."""
    seen, minima = set(), []
    for x in range(n):
        if x not in seen:
            minima.append(x)
            seen.add(x)
            _reach(gens, seen, [x])
    return minima


def _reach(maps, seen, frontier):
    """Add to the set seen, which holds the frontier, everything the maps
    reach from it, and return seen."""
    while frontier:
        nxt = []
        for x in frontier:
            for m in maps:
                y = m[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _close(gens, base):
    """(size, maps, walked): the number of the base's images under the
    group, each generator's right action on them, numbered as found, and
    the indices of the walked generators.  Only the generators that
    enlarge the group are walked (Dimino; Butler, LNCS 559, 1991), each
    with the images found so far and then on over the new ones.  A
    generator equal as a whole permutation, not just on the base, to the
    product along the path to its base image takes its map from theirs
    along that path."""
    index = {base: 0}
    images = [base]
    up, via = [None], [None]  # each image's parent and generator
    maps = [None] * len(gens)
    derived = {}   # generator -> the image whose path product it equals
    walked = []
    whole = {0: range(len(gens[0]))}  # path products, for the test
    for g, perm in enumerate(gens):
        i = index.get(_images(base)(perm))
        if i is not None and tuple(_along(up, via, i, gens,
                                          whole)) == tuple(perm):
            derived[g] = i
            continue
        maps[g] = []
        walked.append((g, perm, maps[g]))
        # g with the images found so far, then every walked generator
        todo, old = walked[-1:], len(images)
        for x, p in enumerate(images):  # grows while walked
            if x == old:
                todo = walked
            compose = _images(p)
            for h, hperm, m in todo:
                q = compose(hperm)
                i = index.get(q)
                if i is None:
                    i = index[q] = len(images)
                    images.append(q)
                    up.append(x)
                    via.append(h)
                m.append(i)
    right = {0: range(len(images))}
    for g, i in derived.items():
        maps[g] = _along(up, via, i, maps, right)
    return len(images), maps, [g for g, _, _ in walked]


def _along(up, via, i, factors, known):
    """The product of the factors along the path from the base to image i,
    as a sequence x -> image; ``known`` {image: product} grows on the way."""
    path = []
    while i not in known:
        path.append(i)
        i = up[i]
    for j in reversed(path):
        known[j] = _images(known[i])(factors[via[j]])
        i = j
    return known[i]


def _breadth_first(maps, n):
    """(walk, place, steps): the points of 0..n-1 in the order of the
    maps' breadth-first walk from 0, each point's place in it, and the
    spanning tree as (child, parent, map) steps in places, in walk order."""
    place = [0] + [-1] * (n - 1)
    walk, steps = [0], []
    numbered = list(enumerate(maps))
    for i, c in enumerate(walk):
        if len(walk) == n:  # every point reached
            break
        for g, m in numbered:
            d = m[c]
            if place[d] < 0:
                place[d] = len(walk)
                steps.append((len(walk), i, g))
                walk.append(d)
    if len(walk) < n:
        raise GroupError("generator maps do not generate a transitive action")
    return walk, place, steps
