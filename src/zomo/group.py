"""Materialized finite groups.

Elements are integers 0..n-1 with 0 the identity.  Right multiplication by
generator i is the map ``gen_maps[i]``; left multiplication by a is the
Cayley row ``row(a)``, filled on first use by a walk over a fixed spanning
tree.  Products, powers and inverses build only the rows of their operands.
Groups come either from coset enumeration (regular action on cosets of the
trivial subgroup) or from explicit permutations.
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
        self.gen_maps = tuple(array("i", m) for m in gen_maps)  # read only
        self.perms = perms  # optional faithful action aligned with element indices
        self._bfs = self._spanning_tree()
        self.gens = tuple(self.gen_maps[g][0] for g in range(len(gen_maps)))
        self._rows = [None] * order
        self._inv = {0: 0}
        self.row(0)
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
                for g, m in enumerate(self.gen_maps):
                    d = m[c]
                    if not seen[d]:
                        seen[d] = True
                        steps.append((d, c, g))
                        nxt.append(d)
            frontier = nxt
        if not all(seen):
            raise GroupError("generator maps do not generate a transitive action")
        return steps

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

    def conj(self, a, g):
        """g^-1 * a * g, from the rows of a, g and g^-1."""
        return self.row(self.inv(g))[self.row(a)[g]]

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
        return [list(self.row(a)) for a in range(self.order)]


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
