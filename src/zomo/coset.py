"""Todd-Coxeter coset enumeration (HLT strategy).

Enumerates cosets of the trivial subgroup, i.e. builds the regular
representation of the presented group.  The strategy is HLT: every live coset
is scanned against every relator, defining new cosets at the first missing
table entry, with immediate coincidence processing.  One pass over the cosets
suffices (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005, 5.1-5.2): a coincidence only merges cosets and moves every entry of the
dead row to the surviving one, so once every live coset has been processed
the table is complete and every relator closes at every coset.  Coset
numbering is deterministic (definition order), so element indices are
reproducible.
"""

from . import ZomoError
from .words import Presentation


class EnumerationError(ZomoError, RuntimeError):
    pass


class BudgetExceeded(EnumerationError):
    pass


def _word_to_cols(word):
    cols = []
    for g, e in word:
        if e > 0:
            cols.extend([2 * g] * e)
        else:
            cols.extend([2 * g + 1] * (-e))
    return cols


class CosetTable:
    """Coset table over columns 2g (generator g) and 2g+1 (its inverse)."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]          # union-find representatives
        self.dead = []        # coincidence queue

    def rep(self, k):
        p = self.p
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(self, alpha, col):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded(
                "coset budget %d exhausted (presentation too large or infinite)"
                % self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return beta

    def _merge(self, k, l):
        k, l = self.rep(k), self.rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            self.p[l] = k
            self.dead.append(l)

    def coincidence(self, alpha, beta):
        self._merge(alpha, beta)
        table = self.table
        while self.dead:
            y = self.dead.pop()
            row = table[y]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                if table[delta][col ^ 1] == y:
                    table[delta][col ^ 1] = None
                mu, nu = self.rep(y), self.rep(delta)
                if table[mu][col] is not None:
                    self._merge(nu, table[mu][col])
                elif table[nu][col ^ 1] is not None:
                    self._merge(mu, table[nu][col ^ 1])
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha, word):
        table = self.table
        while True:
            # forward scan
            f = alpha
            i = 0
            n = len(word)
            while i < n:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i == n:
                if f != alpha:
                    self.coincidence(f, alpha)
                return
            # backward scan
            b = alpha
            j = n - 1
            while j >= i:
                prv = table[b][word[j] ^ 1]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closes the gap
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def enumerate_cosets(pres: Presentation, max_cosets=100000):
    """Run HLT enumeration; return (order n, per-generator images on 0..n-1).

    The returned maps are the right-multiplication permutations of the regular
    action: maps[g][c] is the coset c.g.
    """
    if not pres.generators:
        raise EnumerationError("empty presentation")
    ngens = len(pres.generators)
    relators = [_word_to_cols(w) for w in pres.relators]
    ct = CosetTable(ngens, max_cosets)
    alpha = 0
    while alpha < len(ct.table):
        if ct.rep(alpha) == alpha:
            for rel in relators:
                ct.scan_and_fill(alpha, rel)
                if ct.rep(alpha) != alpha:
                    break
            else:
                for col in range(ct.ncols):
                    if ct.table[alpha][col] is None:
                        ct.define(alpha, col)
        alpha += 1

    live = [c for c in range(len(ct.table)) if ct.rep(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    maps = []
    for g in range(ngens):
        col = 2 * g
        images = []
        for c in live:
            d = ct.table[c][col]
            if d is None:
                raise EnumerationError("incomplete table after closure")
            images.append(renum[ct.rep(d)])
        maps.append(images)
    return len(live), maps
