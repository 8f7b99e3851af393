"""Materialized finite groups.

Elements are integers 0..n-1 with 0 the identity.  Multiplication is a full
Cayley table built from the right-multiplication maps of the generators: each
row is filled by a breadth-first walk over a fixed spanning tree, so products
cost one array lookup.  Groups come either from coset enumeration (regular
action on cosets of the trivial subgroup) or from explicit permutations.
"""

from array import array

from . import ZomoError, coset
from .words import Presentation, parse_presentation  # noqa: F401 (re-export)


class GroupError(ZomoError, ValueError):
    pass


class FiniteGroup:
    def __init__(self, order, gen_maps, gen_names=None, perms=None):
        """gen_maps[g][c] = index of c * (generator g)."""
        self.order = order
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            "g%d" % i for i in range(len(gen_maps)))
        self._gen_maps = [array("i", m) for m in gen_maps]
        self.perms = perms  # optional faithful action aligned with element indices
        self._bfs = self._spanning_tree()
        self.gens = tuple(self._gen_maps[g][0] for g in range(len(gen_maps)))
        self._rows = [None] * order
        self._inv = None
        self._row(0)
        if self._rows[0][0] != 0:
            raise GroupError("index 0 is not a left identity")

    def _spanning_tree(self):
        n = self.order
        seen = [False] * n
        seen[0] = True
        steps = []  # (child, parent, generator)
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for g, m in enumerate(self._gen_maps):
                    d = m[c]
                    if not seen[d]:
                        seen[d] = True
                        steps.append((d, c, g))
                        nxt.append(d)
            frontier = nxt
        if not all(seen):
            raise GroupError("generator maps do not generate a transitive action")
        return steps

    def _row(self, a):
        row = self._rows[a]
        if row is None:
            row = array("i", bytes(4 * self.order))
            row[0] = a
            maps = self._gen_maps
            for child, parent, g in self._bfs:
                row[child] = maps[g][row[parent]]
            self._rows[a] = row
        return row

    def mult(self, a, b):
        return self._row(a)[b]

    def inv(self, a):
        if self._inv is None:
            inv = array("i", bytes(4 * self.order))
            for x in range(self.order):
                row = self._row(x)
                for y in range(self.order):
                    if row[y] == 0:
                        inv[x] = y
                        break
            self._inv = inv
        return self._inv[a]

    def conj(self, a, g):
        """g^-1 * a * g."""
        return self.mult(self.mult(self.inv(g), a), g)

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mult(self.mult(self.inv(a), self.inv(b)), self.mult(a, b))

    def power(self, a, k):
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = 0
        while k:
            acc = self.mult(acc, a)
            k -= 1
        return acc

    def element_order(self, a):
        if not 0 <= a < self.order:
            raise GroupError("element index out of range")
        k, x = 1, a
        while x != 0:
            x = self.mult(x, a)
            k += 1
        return k

    def eval_word(self, word, assignment=None):
        """Evaluate a word; pairs refer to generator indices unless an
        assignment dict {generator index or name: element} is given."""
        acc = 0
        for g, e in word:
            if assignment is None:
                x = self.gens[g]
            elif g in assignment:
                x = assignment[g]
            elif self.gen_names[g] in assignment:
                x = assignment[self.gen_names[g]]
            else:
                raise GroupError("unassigned symbol %r" % (self.gen_names[g],))
            acc = self.mult(acc, self.power(x, e))
        return acc

    def regular_perms(self):
        """The left-regular permutation of each element (always faithful)."""
        return [list(self._row(a)) for a in range(self.order)]


def coset_enumerate(pres: Presentation, max_cosets=100000) -> FiniteGroup:
    order, maps = coset.enumerate_cosets(pres, max_cosets)
    G = FiniteGroup(order, maps, gen_names=pres.generators)
    return G


def analyze_presentation(text):
    return coset_enumerate(parse_presentation(text))


def _compose(a, b):
    """Apply a then b."""
    return [b[x] for x in a]


def group_from_permutations(gens, gen_names=None) -> FiniteGroup:
    """Close a list of permutations of {0..n-1} under composition."""
    if not gens:
        raise GroupError("need at least one generator permutation")
    n = len(gens[0])
    for p in gens:
        if len(p) != n or sorted(p) != list(range(n)):
            raise GroupError("generator is not a permutation of 0..%d" % (n - 1))
    ident = tuple(range(n))
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(_compose(p, g))
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    order = len(elements)
    maps = []
    for g in gens:
        maps.append([index[tuple(_compose(p, g))] for p in elements])
    return FiniteGroup(order, maps, gen_names=gen_names,
                       perms=[list(p) for p in elements])
