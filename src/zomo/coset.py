"""Todd-Coxeter coset enumeration (HLT strategy).

Enumerates cosets of the trivial subgroup, i.e. builds the regular
representation of the presented group.  The strategy is HLT: every live coset
is scanned against every relator, defining new cosets at the first missing
table entry, with immediate coincidence processing.  One pass over the cosets
suffices (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005, 5.1-5.2): a coincidence only merges cosets and moves every entry of the
dead row to the surviving one, so once every live coset has been processed
the table is complete and every relator closes at every coset.

The table is column-major: one list per column, 2g for generator g and 2g+1
for its inverse, indexed by coset, with ``None`` for an empty entry.  The
columns grow in place by doubling, never past ``max_cosets``, so each relator
keeps the list of its letters' columns for the forward scan and of their
inverse columns for the backward scan, and a scan step is one lookup in a
column.

Each relator is scanned as in the Handbook's SCANANDFILL: a forward scan from
the coset, then a backward scan from its end, a deduction when they leave one
entry between them and a coincidence when they meet.  Otherwise a new coset
fills the first gap, and both scans resume where they stopped instead of
starting again from the coset: a definition only adds entries, so the
restarted scans would retrace the same steps.  The new coset's row holds
only the entry back to its parent, and a ``Presentation`` stores its
relators freely reduced, so the resumed forward scan stops at the next
letter and never passes the backward one.  So the enumeration makes the
definitions and coincidences of a scan restarted after each definition, in
the same order.  The table numbers the cosets in definition order;
``group.FiniteGroup`` then renumbers them breadth-first over the generators.
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
    """Coset table over columns 2g (generator g) and 2g+1 (its inverse).

    ``cols[c][k]`` is the coset k.c, or ``None``; ``p`` holds the
    union-find representatives of the cosets defined so far, 0 first.
    """

    def __init__(self, ngens, max_cosets):
        self.max_cosets = max_cosets
        self.cols = [[None] for _ in range(2 * ngens)]
        self.p = [0]

    def rep(self, k):
        p = self.p
        while p[k] != k:
            p[k] = p[p[k]]
            k = p[k]
        return k

    def define(self, alpha, col):
        beta = len(self.p)
        if beta >= self.max_cosets:
            raise BudgetExceeded(
                "coset budget %d exhausted (presentation too large or infinite)"
                % self.max_cosets)
        cols = self.cols
        if beta == len(cols[0]):
            empty = [None] * min(beta, self.max_cosets - beta)
            for column in cols:
                column.extend(empty)
        self.p.append(beta)
        cols[col][alpha] = beta
        cols[col ^ 1][beta] = alpha
        return beta

    def coincidence(self, alpha, beta):
        """Merge alpha and beta and every pair of cosets this forces."""
        p = self.p
        rep = self.rep
        dead = []

        def merge(k, l):
            if p[k] != k:
                k = rep(k)
            if p[l] != l:
                l = rep(l)
            if k != l:
                if k > l:
                    k, l = l, k
                p[l] = k
                dead.append(l)

        cols = self.cols
        pairs = [(cols[c], cols[c ^ 1]) for c in range(len(cols))]
        merge(alpha, beta)
        while dead:
            y = dead.pop()
            for col, inv in pairs:
                delta = col[y]
                if delta is None:
                    continue
                if inv[delta] == y:
                    inv[delta] = None
                mu = p[y]
                if p[mu] != mu:
                    mu = rep(mu)
                nu = delta if p[delta] == delta else rep(delta)
                if col[mu] is not None:
                    merge(nu, col[mu])
                elif inv[nu] is not None:
                    merge(mu, inv[nu])
                else:
                    col[mu] = nu
                    inv[nu] = mu


def enumerate_cosets(pres: Presentation, max_cosets=100000):
    """Run HLT enumeration; return (order n, per-generator images on 0..n-1).

    The returned maps are the right-multiplication permutations of the regular
    action: maps[g][c] is the coset c.g.
    """
    if not pres.generators:
        raise EnumerationError("empty presentation")
    ngens = len(pres.generators)
    ct = CosetTable(ngens, max_cosets)
    cols, p = ct.cols, ct.p
    define, coincidence = ct.define, ct.coincidence
    relators = []
    for w in pres.relators:
        word = _word_to_cols(w)
        relators.append((word, len(word), [cols[c] for c in word],
                         [cols[c ^ 1] for c in word]))
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for word, n, fwd, bwd in relators:
                f, i, b, j = alpha, 0, alpha, n - 1
                while True:
                    while i < n:
                        nxt = fwd[i][f]
                        if nxt is None:
                            break
                        f = nxt
                        i += 1
                    if i == n:
                        if f != alpha:
                            coincidence(f, alpha)
                        break
                    while j >= i:
                        prv = bwd[j][b]
                        if prv is None:
                            break
                        b = prv
                        j -= 1
                    if j < i:
                        coincidence(f, b)
                        break
                    if j == i:
                        # deduction closes the gap
                        fwd[i][f] = b
                        bwd[i][b] = f
                        break
                    f = define(f, word[i])
                    i += 1
                if p[alpha] != alpha:
                    break
            else:
                for c, col in enumerate(cols):
                    if col[alpha] is None:
                        define(alpha, c)
        alpha += 1

    live = [c for c in range(len(p)) if p[c] == c]
    renum = {c: i for i, c in enumerate(live)}
    maps = []
    for g in range(ngens):
        col = cols[2 * g]
        images = []
        for c in live:
            d = col[c]
            if d is None:
                raise EnumerationError("incomplete table after closure")
            images.append(renum[ct.rep(d)])
        maps.append(images)
    return len(live), maps
