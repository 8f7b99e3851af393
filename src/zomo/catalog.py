"""Catalog of presented groups with expected structural properties.

The corpus lives in ``data/``: one presentation-DSL file per group,
``presentations/<id>.pres``, plus a line-oriented manifest.  Manifest
records are blank-line separated blocks::

    id: caseI1_e2_k0
    expect: order = 729 [derived]
    expect: order3_outside(s1; s2) = 162 [stated]

Each ``expect`` line is a property expression, an expected value and a source
tag: ``stated`` for values asserted by the source classification, ``derived``
for values this suite computed independently and froze.  Property expressions
are a bare name or ``name(arg; arg; ...)`` where arguments are words in the
entry's generators (or small integers).  Supported properties are the keys of
``PROPERTY_EVALUATORS``, and an expression must pass each evaluator exactly
the arguments it takes: ``is_minimal_nonabelian(u; v)`` takes two words and
tests <u, v> by Redei's criterion, ``analysis.is_minimal_nonabelian_pair``.
"""

import inspect
import re
from dataclasses import dataclass
from importlib import resources
from math import lcm

from . import ZomoError, analysis
from .coset import EnumerationError
from .group import FiniteGroup, coset_enumerate
from .words import Presentation, parse_presentation, parse_word


class CatalogError(ZomoError, ValueError):
    pass


@dataclass(frozen=True)
class Expectation:
    prop: str       # full property expression, e.g. "order3_outside(s1; s2)"
    value: object   # int, bool, or tuple of ints
    source: str     # "stated" or "derived"


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    presentation: Presentation
    expected: tuple  # of Expectation


@dataclass(frozen=True)
class PropertyResult:
    prop: str
    expected: object
    actual: object
    passed: bool
    source: str


@dataclass(frozen=True)
class EntryReport:
    id: str
    ok: bool
    rows: tuple     # of PropertyResult
    error: str | None = None


def _data_root():
    return resources.files("zomo") / "data"


def _parse_value(text):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return int(text)


def _manifest():
    """(id, expectations) per manifest block, in manifest order."""
    records = []
    eid = None
    expects = []

    def flush():
        if eid is not None:
            records.append((eid, tuple(expects)))
        elif expects:
            raise CatalogError("manifest block missing 'id'")

    for line in (_data_root() / "manifest.txt").read_text().splitlines():
        line = line.split("#", 1)[0].rstrip()
        if not line.strip():
            flush()
            eid, expects = None, []
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "expect":
            m = re.fullmatch(r"(.+?)=\s*([^\[\]]+)\[(stated|derived)\]", rest)
            if m is None:
                raise CatalogError("bad expect line: %r" % line)
            expects.append(Expectation(m.group(1).strip(),
                                       _parse_value(m.group(2)),
                                       m.group(3)))
        elif key == "id":
            if eid is not None:
                raise CatalogError("duplicate 'id' in manifest block")
            eid = rest
        else:
            raise CatalogError("unknown manifest key %r" % key)
    flush()

    ids = [r[0] for r in records]
    if len(set(ids)) != len(ids):
        raise CatalogError("duplicate entry ids in manifest")
    return records


def _entry(eid, expected):
    text = (_data_root() / "presentations" / (eid + ".pres")).read_text()
    return CatalogEntry(id=eid, presentation=parse_presentation(text),
                        expected=expected)


def load_catalog():
    return [_entry(*r) for r in _manifest()]


def entry_by_id(eid, entries=None):
    """The entry with this id, from ``entries`` or else from the manifest,
    parsing only that entry's presentation."""
    if entries is None:
        entries = [_entry(*r) for r in _manifest() if r[0] == eid]
    for e in entries:
        if e.id == eid:
            return e
    raise CatalogError("no catalog entry %r" % eid)


# ---------------------------------------------------------------------------
# property evaluation

def _words_to_elements(G, pres, args):
    return [G.eval_word(parse_word(a, pres.generators)) for a in args]


def _subgroup(G, pres, args):
    return analysis.subgroup_closure(G, _words_to_elements(G, pres, args))


def _prop_order(G, pres):
    return G.order


def _prop_center_order(G, pres):
    return len(analysis.center(G))


def _prop_center_elem_abelian(G, pres):
    Z = analysis.center(G)
    return all(G.power(z, 3) == 0 for z in Z.members)


def _prop_center_pattern(G, pres):
    return tuple(analysis.central_quotient_center_pattern(G))


def _prop_maximal_class(G, pres):
    return analysis.is_maximal_class(G)


def _prop_min_generators(G, pres):
    Phi = analysis.frattini(G)
    return analysis._log3(G.order // len(Phi))


def _prop_minimal_nonabelian_count(G, pres):
    return len(analysis.minimal_nonabelian_subgroups(G))


def _prop_minimal_nonabelian_index3_count(G, pres):
    return sum(3 * len(H) == G.order
               for H in analysis.minimal_nonabelian_subgroups(G))


def _prop_metacyclic(G, pres):
    return analysis.is_metacyclic(G)


def _prop_fundamental_abelian(G, pres):
    G1 = analysis.fundamental_subgroup(G)
    return analysis.is_abelian_set(G, G1.members)


def _prop_order_count(G, pres, k):
    return analysis.order_census(G).get(int(k), 0)


def _prop_subgroup_order(G, pres, *words):
    return len(_subgroup(G, pres, words))


def _prop_subgroup_index(G, pres, *words):
    return G.order // len(_subgroup(G, pres, words))


def _prop_abelian_subgroup(G, pres, *words):
    return analysis.is_abelian_set(G, _subgroup(G, pres, words).members)


def _prop_is_minimal_nonabelian(G, pres, u, v):
    return analysis.is_minimal_nonabelian_pair(
        G, *_words_to_elements(G, pres, (u, v)))


def _prop_complement_exponent(G, pres, *words):
    return lcm(1, *analysis.order_census(G, _subgroup(G, pres, words)))


def _prop_order3_outside(G, pres, *words):
    H = _subgroup(G, pres, words)
    return analysis.order_census(G, restrict_outside=H).get(3, 0)


def _prop_exists_order_outside(G, pres, k, *words):
    return int(k) in analysis.order_census(G, _subgroup(G, pres, words))


def _prop_identity(G, pres, lhs, rhs):
    u = parse_word(lhs, pres.generators)
    v = parse_word(rhs, pres.generators)
    return G.eval_word(u) == G.eval_word(v)


PROPERTY_EVALUATORS = {
    "order": _prop_order,
    "center_order": _prop_center_order,
    "center_elem_abelian": _prop_center_elem_abelian,
    "center_pattern": _prop_center_pattern,
    "maximal_class": _prop_maximal_class,
    "min_generators": _prop_min_generators,
    "minimal_nonabelian_count": _prop_minimal_nonabelian_count,
    "minimal_nonabelian_index3_count": _prop_minimal_nonabelian_index3_count,
    "metacyclic": _prop_metacyclic,
    "fundamental_abelian": _prop_fundamental_abelian,
    "order_count": _prop_order_count,
    "subgroup_order": _prop_subgroup_order,
    "subgroup_index": _prop_subgroup_index,
    "abelian_subgroup": _prop_abelian_subgroup,
    "is_minimal_nonabelian": _prop_is_minimal_nonabelian,
    "complement_exponent": _prop_complement_exponent,
    "order3_outside": _prop_order3_outside,
    "exists_order_outside": _prop_exists_order_outside,
    "identity": _prop_identity,
}

_PROP_RE = re.compile(r"([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*", re.S)


def evaluate_property(G: FiniteGroup, pres: Presentation, expr: str):
    m = _PROP_RE.fullmatch(expr)
    if m is None:
        raise CatalogError("bad property expression %r" % expr)
    name, argtext = m.group(1), m.group(2)
    if name not in PROPERTY_EVALUATORS:
        raise CatalogError("unknown property %r" % name)
    args = []
    if argtext is not None and argtext.strip():
        args = [a.strip() for a in argtext.split(";")]
    fn = PROPERTY_EVALUATORS[name]
    try:
        inspect.signature(fn).bind(G, pres, *args)
    except TypeError:
        raise CatalogError("wrong number of arguments in %r" % expr) from None
    return fn(G, pres, *args)


_group_cache = {}


def materialize(entry: CatalogEntry) -> FiniteGroup:
    if entry.id not in _group_cache:
        _group_cache[entry.id] = coset_enumerate(entry.presentation)
    return _group_cache[entry.id]


def verify_entry(entry: CatalogEntry) -> EntryReport:
    try:
        G = materialize(entry)
    except EnumerationError as exc:
        return EntryReport(entry.id, False, (), error=str(exc))
    rows = []
    for exp in entry.expected:
        actual = evaluate_property(G, entry.presentation, exp.prop)
        rows.append(PropertyResult(exp.prop, exp.value, actual,
                                   actual == exp.value, exp.source))
    return EntryReport(entry.id, all(r.passed for r in rows), tuple(rows))
