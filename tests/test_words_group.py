import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomo import catalog, kummer, words
from zomo.coset import BudgetExceeded, enumerate_cosets
from zomo.group import (GroupError, analyze_presentation, coset_enumerate,
                        group_from_permutations)
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
    # the coset indices, hence every element index, of recorded enumerations
    heis = parse_presentation(
        "<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>")
    cases = [(heis, "9559e2db2a707265")]
    for eid, digest in (("C9_rtimes_C3", "d7b570fe262c33e7"),
                        ("caseI1_e2_k0", "eb4601a11c7b105c")):
        cases.append((catalog.entry_by_id(eid).presentation, digest))
    for pres, digest in cases:
        got = repr(enumerate_cosets(pres)).encode()
        assert hashlib.sha256(got).hexdigest()[:16] == digest


def test_coset_budget():
    with pytest.raises(BudgetExceeded):
        coset_enumerate(parse_presentation("<a, b | a^2>"), max_cosets=50)


def test_group_ops_consistency():
    G = analyze_presentation("<a, b | a^9, b^3, b^-1*a*b*a^-4>")
    for x in range(G.order):
        assert G.mult(x, G.inv(x)) == 0
        assert G.element_order(x) in (1, 3, 9)
    a = G.eval_word(parse_word("a", ("a", "b")))
    b = G.eval_word(parse_word("b", ("a", "b")))
    # the defining relation b^-1 a b = a^4
    assert G.conj(a, b) == G.power(a, 4)


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


def test_group_from_permutations_rejects_non_perm():
    with pytest.raises(GroupError):
        group_from_permutations([[0, 0, 1]])


def test_eval_word_with_assignment():
    G = group_from_permutations([[1, 2, 0]], gen_names=("r",))
    w = parse_word("r^2", ("r",))
    assert G.eval_word(w) == G.power(G.gens[0], 2)
