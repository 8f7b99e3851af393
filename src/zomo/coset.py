"""Todd-Coxeter coset enumeration (HLT) over the cosets of a cyclic subgroup.

The cosets are those of H = <a>, for a the generator with the longest pure
power relator (the first on ties, generator 0 when there is none), and each
table entry k.c = j carries a label l with t_k c = a^l t_j: the modified
Todd-Coxeter method (Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005, 5.1-5.3).  It needs |a| times fewer cosets than the
trivial subgroup, and the regular representation is read off the labels.

Coset 0 is H, so 0.a = 0 with label 1.  A definition b = f.c sets
t_b := t_f c, with label 0.  HLT scans every live coset against every
relator w (SCANANDFILL), adding labels on the left: after the forward scan
t_alpha w[:i] = a^F t_f, after the backward one t_alpha w[j+1:]^-1 =
a^B t_b.  A relator read to its end gives the coincidence t_alpha =
a^F t_f, scans that meet give t_f = a^(B-F) t_b, and scans one entry apart
the deduction t_f c = a^(B-F) t_b.  Otherwise a new coset fills the first
gap and both scans resume where they stopped: the new row holds only the
entry back to its parent, and a ``Presentation`` stores its relators freely
reduced, so the forward scan stops at the next letter.  One pass over the
cosets suffices, since a coincidence only merges cosets and moves every
entry of a dead row to the survivor.  The union-find carries offsets,
t_k = a^off[k] t_p[k]; merging two cosets of one root is a relation on a,
which the certificate finds again.  The table is column-major: per column,
2g for generator g and 2g+1 for its inverse, one list of cosets (``None``
when empty) and one of labels, grown by doubling but never past
``max_cosets``.

The certificate resolves each live entry to (live index, label) once,
traces every relator from every live coset, where it must close, and takes
N as the gcd of the label sums.  Generator g maps a^e t_k, numbered e m + k
for m live cosets, to a^(e+l) t_(k.g).  This is the regular action, so
|G| = N m: the labels are true in G and every relator closes with a label
sum divisible by N, so G acts on these N m points, transitively; a moves
(0, 0) to (1, 0), so |a| = N; and u fixing (0, 0) is a^L with N | L, that
is u = 1.  ``group.FiniteGroup`` renumbers the elements breadth-first.
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
        cols.extend([2 * g if e > 0 else 2 * g + 1] * abs(e))
    return cols


def _cyclic_generator(pres: Presentation):
    """The generator with the longest pure power relator, the first one on
    ties, or 0 when no relator is a pure power."""
    powers = [(-abs(w[0][1]), w[0][0]) for w in pres.relators if len(w) == 1]
    return min(powers)[1] if powers else 0


class CosetTable:
    """Coset table of <a>: ``cols[c][k]`` is the coset k.c, or ``None``,
    and ``labels[c][k]`` its power of a; ``p`` and ``off`` are the
    union-find parents and offsets of the cosets defined so far, 0 first.
    """

    def __init__(self, ngens, max_cosets, a):
        self.max_cosets = max_cosets
        self.cols = [[None] for _ in range(2 * ngens)]
        self.labels = [[0] for _ in range(2 * ngens)]
        self.cols[2 * a][0] = self.cols[2 * a + 1][0] = 0
        self.labels[2 * a][0], self.labels[2 * a + 1][0] = 1, -1
        self.p = [0]
        self.off = [0]

    def rep(self, k):
        """(r, o): the representative r of k, with t_k = a^o t_r."""
        p, off = self.p, self.off
        path = []
        while p[k] != k:
            path.append(k)
            k = p[k]
        o = 0
        for x in reversed(path):
            o += off[x]
            off[x] = o
            p[x] = k
        return k, o

    def define(self, alpha, col):
        beta = len(self.p)
        if beta >= self.max_cosets:
            raise BudgetExceeded(
                "coset budget %d exhausted (presentation too large or infinite)"
                % self.max_cosets)
        cols, labels = self.cols, self.labels
        if beta == len(cols[0]):
            grow = min(beta, self.max_cosets - beta)
            for column, label in zip(cols, labels):
                column.extend([None] * grow)
                label.extend([0] * grow)
        self.p.append(beta)
        self.off.append(0)
        cols[col][alpha] = beta
        cols[col ^ 1][beta] = alpha
        labels[col][alpha] = labels[col ^ 1][beta] = 0
        return beta

    def coincidence(self, alpha, beta, e):
        """Merge t_alpha = a^e t_beta and every pair of cosets this forces."""
        p, off, rep = self.p, self.off, self.rep
        dead = []

        def merge(k, l, e):  # t_k = a^e t_l
            if p[k] != k:
                k, o = rep(k)
                e -= o
            if p[l] != l:
                l, o = rep(l)
                e += o
            if k < l:
                p[l], off[l] = k, -e
                dead.append(l)
            elif k > l:
                p[k], off[k] = l, e
                dead.append(k)

        cols, labels = self.cols, self.labels
        pairs = [(cols[c], labels[c], cols[c ^ 1], labels[c ^ 1])
                 for c in range(len(cols))]
        merge(alpha, beta, e)
        while dead:
            y = dead.pop()
            for col, lab, inv, ilab in pairs:
                delta = col[y]
                if delta is None:
                    continue
                if inv[delta] == y:
                    inv[delta] = None
                mu, o = rep(y)
                d = lab[y] - o  # t_mu c = a^d t_nu
                if p[delta] == delta:
                    nu = delta
                else:
                    nu, o = rep(delta)
                    d += o
                if col[mu] is not None:
                    merge(nu, col[mu], lab[mu] - d)
                elif inv[nu] is not None:
                    merge(mu, inv[nu], d + ilab[nu])
                else:
                    col[mu], lab[mu] = nu, d
                    inv[nu], ilab[nu] = mu, -d


def enumerate_cosets(pres: Presentation, max_cosets=100000):
    """Run HLT enumeration; return (order n, per-generator images on 0..n-1).

    The returned maps are the right-multiplication permutations of the
    regular action: maps[g][x] is the element x.g.
    """
    if not pres.generators:
        raise EnumerationError("empty presentation")
    ngens = len(pres.generators)
    a = _cyclic_generator(pres)
    ct = CosetTable(ngens, max_cosets, a)
    cols, labels, p = ct.cols, ct.labels, ct.p
    define, coincidence = ct.define, ct.coincidence
    relators = []
    for w in pres.relators:
        word = _word_to_cols(w)
        relators.append((word, len(word), [cols[c] for c in word],
                         [labels[c] for c in word],
                         [cols[c ^ 1] for c in word],
                         [labels[c ^ 1] for c in word]))
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for word, n, fwd, fl, bwd, bl in relators:
                f, F, i, b, B, j = alpha, 0, 0, alpha, 0, n - 1
                while True:
                    while i < n:
                        nxt = fwd[i][f]
                        if nxt is None:
                            break
                        F += fl[i][f]
                        f = nxt
                        i += 1
                    if i == n:
                        if f != alpha:
                            coincidence(alpha, f, F)
                        break
                    while j >= i:
                        prv = bwd[j][b]
                        if prv is None:
                            break
                        B += bl[j][b]
                        b = prv
                        j -= 1
                    if j < i:
                        coincidence(f, b, B - F)
                        break
                    if j == i:
                        # deduction closes the gap
                        fwd[i][f], fl[i][f] = b, B - F
                        bwd[i][b], bl[i][b] = f, F - B
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
    return _regular_maps(ct, pres, a)


def _regular_maps(ct, pres, a):
    """Certify the finished table of <a> and return (order, maps) of the
    regular action on the elements a^e t_k (see the module docstring)."""
    p, rep = ct.p, ct.rep
    live = [k for k in range(len(p)) if p[k] == k]
    m = len(live)
    place = {k: i for i, k in enumerate(live)}
    steps = []  # per generator: (targets, labels) forward, then backward
    for g in range(len(pres.generators)):
        col, lab = ct.cols[2 * g], ct.labels[2 * g]
        targets, shifts = [], []
        for k in live:
            d, l = col[k], lab[k]
            if d is None:
                raise EnumerationError("incomplete table after closure")
            if p[d] != d:
                d, o = rep(d)
                l += o
            targets.append(place[d])
            shifts.append(l)
        back, back_shifts = [None] * m, [0] * m
        for k, d in enumerate(targets):
            back[d], back_shifts[d] = k, -shifts[k]
        if None in back:
            raise EnumerationError("generator %s does not permute the cosets"
                                   % pres.generators[g])
        steps.append(((targets, shifts), (back, back_shifts)))
    order_a = 0
    for w in pres.relators:
        letters = [steps[g][e < 0] for g, e in w for _ in range(abs(e))]
        for k in range(m):
            x, s = k, 0
            for targets, shifts in letters:
                s += shifts[x]
                x = targets[x]
            if x != k:
                raise EnumerationError("a relator does not close at coset %d"
                                       % k)
            s = abs(s)
            while s:
                order_a, s = s, order_a % s
    if not order_a:
        raise EnumerationError("generator %s has infinite order"
                               % pres.generators[a])
    maps = []
    for (targets, shifts), _ in steps:
        images = []
        for e in range(order_a):
            images += [(e + l) % order_a * m + d
                       for d, l in zip(targets, shifts)]
        maps.append(images)
    return order_a * m, maps
