import hashlib
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import element_perms, enumerate_cosets_repeated
from zomo import analysis, catalog, coset, curves, group, kummer, words
from zomo.coset import BudgetExceeded, EnumerationError, enumerate_cosets
from zomo.group import (FiniteGroup, GroupError, analyze_presentation,
                        coset_enumerate, group_from_permutations)
from zomo.words import parse_presentation, parse_word


def test_parse_presentation_basic():
    pres = parse_presentation("<a, b | a^9, b^3, b^-1*a*b*a^-4>")
    assert pres.generators == ("a", "b")
    assert len(pres.relators) == 3


def test_parse_rejects_garbage():
    for text in ("a, b | a^2", "<a | b>", "<a | a^>", "<|>"):
        with pytest.raises(words.ParseError):
            parse_presentation(text)


def test_commutator_and_conjugation_sugar():
    pres = parse_presentation("<a, b | [a,b], a^b>")
    com, conj = pres.relators
    a = parse_word("a", pres.generators)
    b = parse_word("b", pres.generators)
    assert com == words.commutator_word(a, b)
    assert conj == words.conjugate_word(a, b)


pairs = st.lists(st.tuples(st.integers(0, 2), st.integers(-4, 4)),
                 max_size=8)


@given(pairs)
@settings(max_examples=100, deadline=None)
def test_word_normalization_idempotent(ps):
    w = words.normalize_word(ps)
    assert words.normalize_word(w) == w
    assert all(e != 0 for _, e in w)
    assert all(w[i][0] != w[i + 1][0] for i in range(len(w) - 1))


@given(pairs)
@settings(max_examples=100, deadline=None)
def test_word_inverse_cancels(ps):
    w = words.normalize_word(ps)
    assert words.concat_words(w, words.invert_word(w)) == ()


def test_coset_enumeration_cyclic():
    for n in (1, 2, 5, 9, 27):
        G = analyze_presentation("<a | a^%d>" % n)
        assert G.order == n


def test_coset_enumeration_metacyclic27():
    G = analyze_presentation("<a, b | a^9, b^3, b^-1*a*b*a^-4>")
    assert G.order == 27


def test_coset_enumeration_heisenberg():
    G = analyze_presentation("<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>")
    assert G.order == 27


def test_coset_numbering_is_pinned():
    # the raw maps of recorded enumerations, elements a^e t_k numbered
    # e m + k: this pins the enumerator over <a>, not the group, which
    # FiniteGroup renumbers breadth-first
    heis = parse_presentation(
        "<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>")
    cases = [(heis, "58c2a100a7617457")]
    for eid, digest in (("C9_rtimes_C3", "db752ee76a121ddb"),
                        ("caseI1_e2_k0", "c2ae507432d149e3")):
        cases.append((catalog.entry_by_id(eid).presentation, digest))
    for pres, digest in cases:
        got = repr(enumerate_cosets(pres)).encode()
        assert hashlib.sha256(got).hexdigest()[:16] == digest


def test_coset_budget():
    with pytest.raises(BudgetExceeded):
        coset_enumerate(parse_presentation("<a, b | a^2>"), max_cosets=50)


@pytest.mark.parametrize("source, a, order", [
    # the longest power relator is on the second generator
    ("<a, b | a^3, b^9, b^a*b^-4>", 1, 27),
    # the only power relator is on the second generator
    ("<a, b | b^3, [a,b], a^3*b^-1>", 1, 9),
    # a tie goes to the first generator
    ("<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>", 0, 27),
    # no power relator: the quaternion group, over generator 0 (of order 4)
    ("<a, b | a^2*b^-2, b^-1*a*b*a>", 0, 8),
], ids=["longest_second", "only_second", "tie", "no_power"])
def test_cyclic_generator_choice(source, a, order):
    pres = parse_presentation(source)
    assert coset._cyclic_generator(pres) == a
    got = FiniteGroup(*enumerate_cosets(pres))
    assert got.order == order
    want = FiniteGroup(*enumerate_cosets_repeated(pres))
    assert got.gen_maps == want.gen_maps


def _elliptic_type(h, a):
    """G_h(a) = <x, y | x^3, y^3, (xy)^9, [(xy)^3, x], [(xy)^3, y],
    w_h (xy)^(-3a)>, with w_0 = x y^-1 and w_(j+1) = w_j (x w_j x^-1)^-1."""
    x, y = ((0, 1),), ((1, 1),)
    xy = words.concat_words(x, y)
    w = words.concat_words(x, words.invert_word(y))
    for _ in range(h):
        w = words.concat_words(w, words.invert_word(
            words.concat_words(x, w, words.invert_word(x))))
    xy3 = words.power_word(xy, 3)
    return words.Presentation(("x", "y"), (
        words.power_word(x, 3), words.power_word(y, 3),
        words.power_word(xy, 9), words.commutator_word(xy3, x),
        words.commutator_word(xy3, y),
        words.concat_words(w, words.power_word(xy, -3 * a))))


def test_elliptic_type_order_6561_within_the_default_budget():
    # 68,693 cosets of <x> where the trivial subgroup needed 195,884
    G = coset_enumerate(_elliptic_type(6, 0))
    assert G.order == 6561


def test_certificate_refuses_a_relator_that_does_not_close(monkeypatch):
    # the finished table of Z3 x Z3 over <a>, certified against one more
    # relator b, which moves coset 0 to another coset
    pres = parse_presentation("<a, b | a^3, b^3, [a,b]>")
    tables = []
    certify = coset._regular_maps

    def capture(ct, *args):
        tables.append(ct)
        return certify(ct, *args)

    monkeypatch.setattr(coset, "_regular_maps", capture)
    assert enumerate_cosets(pres)[0] == 9
    wider = parse_presentation("<a, b | a^3, b^3, [a,b], b>")
    with pytest.raises(EnumerationError, match="does not close at coset 0"):
        certify(tables[0], wider, 0)


def test_infinite_cyclic_generator_is_refused():
    # <a, b | b a^-2> is Z: its table over <a> is one coset with b = a^2,
    # and every relator closes with label sum 0, so a has no finite order
    with pytest.raises(EnumerationError,
                       match="^generator a has infinite order$") as exc:
        enumerate_cosets(parse_presentation("<a, b | b*a^-2>"))
    assert not isinstance(exc.value, BudgetExceeded)


def _relators_close(pres, order, maps):
    """Each relator, read from any coset through the maps and their
    inverses, returns to that coset."""
    inverses = []
    for m in maps:
        inv = [0] * order
        for c, d in enumerate(m):
            inv[d] = c
        inverses.append(inv)
    for rel in pres.relators:
        for c in range(order):
            x = c
            for g, e in rel:
                step = maps[g] if e > 0 else inverses[g]
                for _ in range(abs(e)):
                    x = step[x]
            if x != c:
                return False
    return True


def _counted(run, table, pres):
    """run's (order, maps) at the default budget, with the calls it made to
    table.define."""
    calls = [0]
    define = table.define

    def counting(self, *args):
        calls[0] += 1
        return define(self, *args)

    table.define = counting
    try:
        out = run(pres)
    finally:
        table.define = define
    return out, calls[0]


def _within(run, pres, max_cosets):
    """run's (order, maps), or None when it exhausts max_cosets."""
    try:
        return run(pres, max_cosets)
    except BudgetExceeded:
        return None


@pytest.mark.parametrize("source", [
    "caseII1_e3_k2",
    "<a, b | a^9, b^3, b^-1*a*b*a^-4>",
    "<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>",
], ids=["caseII1_e3_k2", "metacyclic27", "heisenberg"])
def test_coset_budget_boundary(monkeypatch, source):
    # d definitions make d + 1 cosets of <a>, counting coset 0: a budget of
    # d + 1 succeeds and one of d fails, and no column, label columns
    # included, grows past the budget.  The oracle, over the trivial
    # subgroup, has the same boundary at its own count and the same group.
    if source.startswith("<"):
        pres = parse_presentation(source)
    else:
        pres = catalog.entry_by_id(source).presentation
    want, defined = _counted(enumerate_cosets, coset.CosetTable, pres)
    if source == "caseII1_e3_k2":
        assert defined == 1047
    tables = []
    init = coset.CosetTable.__init__

    def capture(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(coset.CosetTable, "__init__", capture)
    assert enumerate_cosets(pres, max_cosets=defined + 1) == want
    with pytest.raises(BudgetExceeded):
        enumerate_cosets(pres, max_cosets=defined)
    for table, budget in zip(tables, (defined + 1, defined), strict=True):
        assert max(len(col) for col in table.cols + table.labels) <= budget
    oracle, oracle_defined = _counted(enumerate_cosets_repeated,
                                      oracles.CosetTable, pres)
    assert FiniteGroup(*oracle).gen_maps == FiniteGroup(*want).gen_maps
    assert enumerate_cosets_repeated(pres,
                                     max_cosets=oracle_defined + 1) == oracle
    with pytest.raises(BudgetExceeded):
        enumerate_cosets_repeated(pres, max_cosets=oracle_defined)


@pytest.mark.parametrize("entry", catalog.load_catalog(), ids=lambda e: e.id)
def test_one_hlt_pass_matches_repeated_passes_on_the_catalog(entry):
    # the one pass over the cosets of <a> and the oracle's repeated passes
    # over the trivial subgroup give the same group, element for element
    # once FiniteGroup has walked both breadth-first
    got = FiniteGroup(*enumerate_cosets(entry.presentation))
    want = FiniteGroup(*enumerate_cosets_repeated(entry.presentation))
    assert got.gen_maps == want.gen_maps


@pytest.mark.parametrize("relators, reduced, order", [
    # b a a^-1 b^-1 a^-2 and b^-1 a^-1 a b^2 a^-2: a letter beside its
    # inverse
    ((((0, 2),), ((1, 2),), ((1, 1), (0, 1), (0, -1), (1, -1), (0, -2)),
      ((0, 2), (1, 1))),
     (((0, 2),), ((1, 2),), ((0, -2),), ((0, 2), (1, 1))), 2),
    ((((0, 3),), ((1, 9),), ((1, -1), (0, -1), (0, 1), (1, 2), (0, -2))),
     (((0, 3),), ((1, 9),), ((1, 1), (0, -2))), 3),
], ids=["order2", "order3"])
def test_one_hlt_pass_matches_on_relators_that_are_not_reduced(relators,
                                                               reduced,
                                                               order):
    # a Presentation stores its relators freely reduced, so the one pass
    # never scans a letter beside its inverse: there the resumed forward
    # scan could pass the backward one, and a coincidence would join
    # cosets at two places of the relator (order 1, not 3).  The oracle
    # reads the raw words through a stand-in and finds the same group.
    pres = words.Presentation(("a", "b"), relators)
    assert pres.relators == reduced
    raw = types.SimpleNamespace(generators=pres.generators, relators=relators)
    got = FiniteGroup(*enumerate_cosets(pres))
    want = FiniteGroup(*enumerate_cosets_repeated(raw, max_cosets=3000))
    assert got.order == order
    assert got.gen_maps == want.gen_maps


def _random_relator(draw, ngens):
    """A commutator power, a conjugation relation or a short word."""
    gen = st.integers(0, ngens - 1)
    exp = st.sampled_from([-2, -1, 1, 2])
    kind = draw(st.sampled_from(["comm", "conj", "word"]))
    if kind == "comm":
        u, v = ((draw(gen), draw(exp)),), ((draw(gen), draw(exp)),)
        return words.power_word(words.commutator_word(u, v),
                                draw(st.integers(1, 3)))
    if kind == "conj":
        x, y = draw(gen), draw(gen)
        # x^y = x^k
        return words.concat_words(words.conjugate_word(((x, 1),), ((y, 1),)),
                                  ((x, -draw(st.integers(1, 4))),))
    return words.normalize_word(draw(st.lists(st.tuples(gen, exp),
                                              max_size=6)))


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    powers = [((g, draw(st.sampled_from([1, 2, 3, 4, 9, 27]))),)
              for g in range(ngens)]
    extra = [_random_relator(draw, ngens)
             for _ in range(draw(st.integers(ngens - 1, 4)))]
    return words.Presentation(tuple("abc"[:ngens]),
                              tuple(powers + extra))


@given(small_presentations())
@settings(max_examples=100, deadline=None)
def test_one_hlt_pass_matches_repeated_passes(pres):
    """The one pass over the cosets of <a> and the oracle's passes over the
    trivial subgroup, repeated until nothing changes, give the same group,
    whose relators close at every element, or both exhaust 5,000 cosets.
    When only one finishes, the other runs again with 20 times the budget
    and must agree."""
    got = _within(enumerate_cosets, pres, 5000)
    want = _within(enumerate_cosets_repeated, pres, 5000)
    if got is None and want is None:
        return
    if got is None:
        got = _within(enumerate_cosets, pres, 100000)
    if want is None:
        want = _within(enumerate_cosets_repeated, pres, 100000)
    assert got is not None and want is not None
    assert _relators_close(pres, *got)
    assert FiniteGroup(*got).gen_maps == FiniteGroup(*want).gen_maps


@st.composite
def unreduced_presentations(draw):
    """(a presentation, its relators with cancelling pairs g^e g^-e put in
    at letter boundaries)."""
    pres = draw(small_presentations())
    raw = []
    for rel in pres.relators:
        letters = [(g, 1 if e > 0 else -1) for g, e in rel
                   for _ in range(abs(e))]
        for _ in range(draw(st.integers(1, 3))):
            g = draw(st.integers(0, len(pres.generators) - 1))
            e = draw(st.sampled_from([-2, -1, 1, 2]))
            at = draw(st.integers(0, len(letters)))
            letters[at:at] = [(g, e), (g, -e)]
        raw.append(tuple(letters))
    return pres, tuple(raw)


@given(unreduced_presentations())
@settings(max_examples=100, deadline=None)
def test_cancelling_pairs_leave_the_presentation_and_its_group(case):
    """Presentation reduces the padded relators to the drawn ones, and the
    oracle's passes over the raw words give the group of the one pass over
    the reduced ones.  The groups are those the oracle enumerates on the
    reduced words within 2,000 cosets; the raw words can need more, so the
    oracle on them has ten times that budget."""
    pres, raw = case
    assert words.Presentation(pres.generators, raw) == pres
    if _within(enumerate_cosets_repeated, pres, 2000) is None:
        return  # the budget boundary is tested above
    got = enumerate_cosets(pres)
    stand_in = types.SimpleNamespace(generators=pres.generators,
                                     relators=raw)
    want = enumerate_cosets_repeated(stand_in, max_cosets=20000)
    assert FiniteGroup(*got).gen_maps == FiniteGroup(*want).gen_maps


def test_group_ops_consistency():
    G = analyze_presentation("<a, b | a^9, b^3, b^-1*a*b*a^-4>")
    for x in range(G.order):
        assert G.mult(x, G.inv(x)) == 0
        assert G.element_order(x) in (1, 3, 9)
    a = G.eval_word(parse_word("a", ("a", "b")))
    b = G.eval_word(parse_word("b", ("a", "b")))
    # the defining relation b^-1 a b = a^4
    assert G.row(G.inv(b))[G.row(a)[b]] == G.power(a, 4)


@pytest.mark.parametrize("source", ["gbar73", "catalog"])
def test_lazy_inverses_in_any_order(source):
    if source == "gbar73":
        G = kummer.build_gbar(73).group
    else:
        G = catalog.materialize(catalog.entry_by_id("C9_rtimes_C3"))
    order = list(range(G.order))
    random.Random(source).shuffle(order)
    for a in order:
        b = G.inv(a)
        assert G.mult(a, b) == G.mult(b, a) == 0


def test_group_from_permutations_closure():
    # S3 from a transposition and a 3-cycle
    G = group_from_permutations([[1, 0, 2], [1, 2, 0]])
    assert G.order == 6


@pytest.mark.parametrize("gens", [
    [[0, 0, 1]],
    [[0, 1, -1]],           # -1 indexes a list: a mark pass needs a range check
    [[0, 1, 3]],
    [[1, 0], [0, 1, 2]],
], ids=["repeat", "negative", "too_large", "lengths_differ"])
def test_group_from_permutations_rejects_non_perm(gens):
    with pytest.raises(GroupError):
        group_from_permutations(gens)


@pytest.mark.parametrize("source", ["gbar73", "catalog"])
def test_along_tree_with_the_generator_maps_gives_the_rows(source):
    if source == "gbar73":
        G = kummer.build_gbar(73).group
    else:
        G = catalog.materialize(catalog.entry_by_id("C9_rtimes_C3"))
    for a in range(G.order):
        assert (G.along_tree(a, G.gen_maps, lambda x, m: m[x])
                == list(G.row(a)))


def test_eval_word_of_a_generator_power():
    G = group_from_permutations([[1, 2, 0]], gen_names=("r",))
    w = parse_word("r^2", ("r",))
    assert G.eval_word(w) == G.power(G.gens[0], 2)


# -- the one-pass closure against the two-pass closure it replaced ----------

def _two_pass_closure(gens):
    """(perms, gen_maps) of the closure as a frontier-by-frontier search
    followed by a second pass that composes every element with every
    generator."""
    def compose(a, b):
        return [b[x] for x in a]

    ident = tuple(range(len(gens[0])))
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(compose(p, g))
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    maps = [[index[tuple(compose(p, g))] for p in elements] for g in gens]
    return elements, maps


def _assert_matches_two_pass(gens):
    G = group_from_permutations(gens)
    perms, maps = _two_pass_closure(gens)
    assert G.order == len(perms)
    assert element_perms(G, gens) == perms
    assert [list(m) for m in G.gen_maps] == maps


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_closure_matches_two_pass_on_random_perms(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = list(range(n))
        rng.shuffle(p)
        gens.append(p)
    _assert_matches_two_pass(gens)


def test_one_pass_closure_matches_two_pass_on_curve_actions(genus28,
                                                            fermat_group):
    G, domain, k = genus28
    S = curves.PointSet(*curves.genus28_points(19, k), set())
    Gf, Sf, domainf, _ = fermat_group
    for G, maps, S, domain in (
            (G, curves.genus28_maps(), S, domain),
            (Gf, curves.fermat9_maps(19), Sf, domainf)):
        gens = [curves.act(m, S, domain) for m in maps]
        assert group_from_permutations(gens).gen_maps == G.gen_maps
        _assert_matches_two_pass(gens)


# -- the closure on base images and its certificate --------------------------

def _closure_bases(monkeypatch, gens):
    """(group, the bases the closure walked on, as tuples)."""
    bases = []

    def close(gens, base):
        bases.append(tuple(base))
        return close_on(gens, base)

    close_on = group._close
    monkeypatch.setattr(group, "_close", close)
    return group_from_permutations(gens), bases


@pytest.mark.parametrize("second, order", [
    ([1, 3, 0, 2], 24),  # (0 1 3 2): S4, the stabiliser of 0 is an S3
    ([1, 0, 3, 2], 8),   # (0 1)(2 3): D4, the stabiliser of 0 is <(1 3)>
])
def test_base_closure_rejects_a_non_normal_stabiliser(monkeypatch, second,
                                                      order):
    # with (0 1 2 3) every generator is fixed-point-free, yet the 4 images
    # of the base point 0 are not the group: the certificate fails and the
    # closure reruns on whole tuples
    gens = [[1, 2, 3, 0], second]
    G, bases = _closure_bases(monkeypatch, gens)
    assert G.order == order
    assert bases == [(0,), (0, 1, 2, 3)]
    assert len(set(element_perms(G, gens))) == order


def test_base_closure_takes_a_point_of_every_orbit(monkeypatch):
    # C3 x C3, one factor on each of the orbits {0, 1, 2} and {3, 4, 5}
    gens = [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]
    G, bases = _closure_bases(monkeypatch, gens)
    assert G.order == 9
    assert bases == [(0, 3)]
    assert element_perms(G, gens)[G.mult(*G.gens)] == (1, 2, 0, 4, 5, 3)


def test_base_closure_checks_every_generator_map(monkeypatch):
    # (0 1 2) and (0 1) agree on the base point 0, so they are one element
    # of the base walk; only the map of (0 1) shows the stabiliser <(1 2)>
    # is not normal, even with (0 1 2) repeated after it
    G, bases = _closure_bases(monkeypatch, [[1, 2, 0], [1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert bases == [(0,), (0, 1, 2)]
    _assert_matches_two_pass([[1, 2, 0], [1, 0, 2], [1, 2, 0]])


@pytest.mark.parametrize("gens", [[[0, 2, 1], [1, 2, 0]],
                                  [[1, 2, 0], [0, 2, 1]]])
def test_base_closure_checks_the_row_of_each_walked_generator(monkeypatch,
                                                              gens):
    # both generators are walked; (1 2) fixes the base point 0, so its
    # element is the identity and its row commutes with every map: only
    # the row of (0 1 2), walked first or last, shows that the stabiliser
    # <(1 2)> is not normal
    G, bases = _closure_bases(monkeypatch, gens)
    assert G.order == 6
    assert bases == [(0,), (0, 1, 2)]


@pytest.mark.parametrize("n", [3, 4])
def test_base_closure_matches_two_pass_on_every_pair_with_a_repeat(n):
    # [a, b, a] for all a, b in S_n: wherever a and b agree on the base,
    # the map of b must still be checked though a's repeat comes after it
    perms = list(itertools.permutations(range(n)))
    for a in perms:
        for b in perms:
            _assert_matches_two_pass([a, b, a])


def _intransitive_gens(rng):
    """1-3 random permutations preserving a random partition of 0..n-1
    into 2-4 blocks, one shuffle per block."""
    n = rng.randint(4, 9)
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
    blocks = [points[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = list(range(n))
        for b in blocks:
            image = b[:]
            rng.shuffle(image)
            for x, y in zip(b, image):
                p[x] = y
        gens.append(p)
    return gens


@pytest.mark.parametrize("seed", range(20))
def test_base_closure_matches_two_pass_on_intransitive_perms(seed):
    _assert_matches_two_pass(_intransitive_gens(random.Random(seed)))


def test_base_closure_on_the_genus28_action_at_k2(monkeypatch):
    maps = curves.genus28_maps()
    S = curves.PointSet(*curves.genus28_points(19, 2), set())
    domain = curves.stable_domain(maps, S)
    gens = [curves.act(m, S, domain) for m in maps]
    G, bases = _closure_bases(monkeypatch, gens)
    assert G.order == 243
    assert len(bases) == 1 and len(bases[0]) < len(domain) == 486
    _assert_matches_two_pass(gens)


# -- generators that do not enlarge the group --------------------------------

@pytest.mark.parametrize("seed", range(16))
def test_closure_matches_two_pass_with_repeats_and_products(seed):
    # random generators, then repeats, the identity and products of
    # earlier generators appended; odd seeds keep a partition into blocks
    rng = random.Random(seed)
    if seed % 2:
        gens = _intransitive_gens(rng)
    else:
        n = rng.randint(2, 7)
        gens = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
    n = len(gens[0])
    for _ in range(rng.randint(2, 6)):
        p = list(range(n))
        for g in rng.choices(gens, k=rng.randint(0, 4)):
            p = [g[x] for x in p]
        gens.append(p)
    _assert_matches_two_pass(gens)


def test_a_generator_equal_to_an_element_only_on_the_base(monkeypatch):
    # a = (0 1 2) and b = (3 4 5) close on the base (0, 3) to C3 x C3;
    # c = (0 1)(3 4) sends the base where ab does, yet c != ab: c must be
    # walked.  <a, b, c> = (C3 x C3) : C2 has order 18, and the stabiliser
    # <(1 2)(4 5)> of the base is not normal, so the closure reruns on
    # whole permutations
    a, b, c = [1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3], [1, 0, 2, 4, 3, 5]
    G, bases = _closure_bases(monkeypatch, [a, b, c])
    assert bases == [(0, 3), tuple(range(6))]
    assert G.order == 18
    _assert_matches_two_pass([a, b, c])


def test_one_pass_closure_on_a_one_point_domain():
    G = group_from_permutations([[0]])
    assert G.order == 1
    assert element_perms(G, [[0]]) == [(0,)]
    _assert_matches_two_pass([[0], [0]])


# -- one element numbering for every group -----------------------------------

def _walk(G):
    """The elements in the order of the breadth-first walk from 0 over
    G's generator maps, the maps taken in order at each element."""
    seen, walk = {0}, [0]
    for c in walk:
        for m in G.gen_maps:
            if m[c] not in seen:
                seen.add(m[c])
                walk.append(m[c])
    return walk


def _relabelled_maps(G, rng):
    """G's generator maps with 1..n-1 relabelled by a random permutation
    s (0 stays the identity): the map x -> m[x] becomes s(x) -> s(m[x])."""
    rest = list(range(1, G.order))
    rng.shuffle(rest)
    s = [0] + rest
    maps = []
    for m in G.gen_maps:
        new = [0] * G.order
        for x, y in enumerate(m):
            new[s[x]] = s[y]
        maps.append(new)
    return maps


def _random_perm_group(seed):
    """The closure of random permutations as in the two-pass comparisons:
    a partition into blocks for odd seeds, any permutations for even."""
    rng = random.Random(seed)
    if seed % 2:
        return group_from_permutations(_intransitive_gens(rng))
    n = rng.randint(2, 7)
    return group_from_permutations(
        [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))])


def _numbered_group(source, request):
    if source.startswith("gbar"):
        return kummer.build_gbar(int(source[4:])).group
    if source == "genus28":
        return request.getfixturevalue("genus28")[0]
    if source.startswith("perms"):
        return _random_perm_group(int(source[5:]))
    return catalog.materialize(catalog.entry_by_id(source))


@pytest.mark.parametrize("eid", [e.id for e in catalog.load_catalog()])
def test_catalog_group_has_the_numbering_of_its_regular_permutations(eid):
    # x -> x g is generator g's map, so closing the maps as permutations
    # gives the enumerated group back with the same numbering
    G = catalog.materialize(catalog.entry_by_id(eid))
    assert group_from_permutations(G.gen_maps).gen_maps == G.gen_maps


@pytest.mark.parametrize("source", ["C9_rtimes_C3", "caseII1_e3_k2", "gbar19"]
                         + ["perms%d" % seed for seed in range(12)])
def test_relabelled_maps_give_the_same_group(source, request):
    G = _numbered_group(source, request)
    for seed in range(3):
        maps = _relabelled_maps(G, random.Random(seed))
        assert FiniteGroup(G.order, maps).gen_maps == G.gen_maps


@pytest.mark.parametrize("source", ["C9_rtimes_C3", "caseI1_e2_k2", "gbar73",
                                    "genus28", "perms0", "perms9"])
def test_elements_are_numbered_in_breadth_first_order(source, request):
    G = _numbered_group(source, request)
    assert _walk(G) == list(range(G.order))


@pytest.mark.parametrize("source", ["C9_rtimes_C3", "caseI1_e2_k2",
                                    "caseII1_e3_k2", "gbar73", "genus28"])
def test_quotients_are_numbered_in_breadth_first_order(source, request):
    # the coset labels by least member are already Q's walk order, so the
    # projection is a homomorphism onto Q's own numbering
    G = _numbered_group(source, request)
    normals = [analysis.center(G), analysis.derived_subgroup(G),
               analysis.frattini(G)] + analysis.lower_central_series(G)
    for N in normals:
        Q, proj = oracles.quotient(G, N)
        assert _walk(Q) == list(range(Q.order))
        for m, mq in zip(G.gen_maps, Q.gen_maps):
            assert [proj[y] for y in m] == [mq[proj[x]]
                                            for x in range(G.order)]
