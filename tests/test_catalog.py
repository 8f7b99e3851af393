import re

import pytest

from zomo import catalog
from zomo.words import ParseError, parse_presentation


def _declared_order(e):
    return next(x.value for x in e.expected if x.prop == "order")


def test_catalog_size_and_orders():
    entries = catalog.load_catalog()
    assert len(entries) >= 30
    for e in entries:
        n = _declared_order(e)
        while n % 3 == 0:
            n //= 3
        assert n == 1, "order of %s is not a power of 3" % e.id


def test_entry_ids_unique():
    entries = catalog.load_catalog()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))


def test_entry_by_id_unknown():
    with pytest.raises(catalog.CatalogError):
        catalog.entry_by_id("no_such_entry")


def test_materialize_order_matches():
    e = catalog.entry_by_id("C9_rtimes_C3")
    G = catalog.materialize(e)
    assert G.order == 27 == _declared_order(e)


def test_verify_small_entries():
    for eid in ("C9_rtimes_C3", "u33", "qu14sep_i_e2_d0"):
        report = catalog.verify_entry(catalog.entry_by_id(eid))
        assert report.ok, report.rows


def test_verify_full_catalog():
    failures = []
    for e in catalog.load_catalog():
        report = catalog.verify_entry(e)
        if not report.ok:
            failures.append((e.id, report.rows, report.error))
    assert not failures, failures


def test_verify_entry_reports_an_enumeration_error():
    # Z, whose enumeration over <a> refuses a of infinite order: an ERROR
    # row, as for an exhausted budget, not an exception
    entry = catalog.CatalogEntry(
        "infinite_z", parse_presentation("<a, b | b*a^-2>"), ())
    report = catalog.verify_entry(entry)
    assert (report.id, report.ok, report.rows) == ("infinite_z", False, ())
    assert report.error == "generator a has infinite order"


def test_property_rows_spot_check():
    report = catalog.verify_entry(catalog.entry_by_id("caseI1_e2_k0"))
    rows = {r.prop: r for r in report.rows}
    assert rows["order"].actual == 729
    assert all(r.passed for r in report.rows)


REFUSALS = [
    ("order(a)", "wrong number of arguments in 'order(a)'"),
    ("is_minimal_nonabelian(a)",
     "wrong number of arguments in 'is_minimal_nonabelian(a)'"),
    ("is_minimal_nonabelian(a; b; a*b)",
     "wrong number of arguments in 'is_minimal_nonabelian(a; b; a*b)'"),
    ("identity(a)", "wrong number of arguments in 'identity(a)'"),
    ("order_count", "wrong number of arguments in 'order_count'"),
    ("Order", "bad property expression 'Order'"),
    ("order(a", "bad property expression 'order(a'"),
    ("no_such_property", "unknown property 'no_such_property'"),
]


@pytest.mark.parametrize("expr, message", REFUSALS,
                         ids=[expr for expr, _ in REFUSALS])
def test_evaluate_property_refusals(expr, message):
    e = catalog.entry_by_id("C9_rtimes_C3")
    G = catalog.materialize(e)
    with pytest.raises(catalog.CatalogError, match=re.escape(message)):
        catalog.evaluate_property(G, e.presentation, expr)


def test_entry_by_id_equals_the_loaded_entry():
    entries = catalog.load_catalog()
    for e in entries:
        assert catalog.entry_by_id(e.id) == e == catalog.entry_by_id(e.id,
                                                                      entries)


def _fake_data(monkeypatch, tmp_path, manifest, files):
    (tmp_path / "presentations").mkdir()
    (tmp_path / "manifest.txt").write_text(manifest)
    for name, text in files.items():
        (tmp_path / "presentations" / name).write_text(text)
    monkeypatch.setattr(catalog, "_data_root", lambda: tmp_path)


GOOD_BLOCK = "id: c3\nexpect: order = 3 [stated]\n"
MANIFEST_REFUSALS = [
    (GOOD_BLOCK + "\n" + GOOD_BLOCK, "duplicate entry ids in manifest"),
    # a block of expect lines alone is refused, not skipped
    (GOOD_BLOCK + "\nexpect: order = 3 [stated]\n",
     "manifest block missing 'id'"),
    (GOOD_BLOCK + "expect: order 3 [stated]\n", "bad expect line"),
    (GOOD_BLOCK + "id: c9\n", "duplicate 'id' in manifest block"),
    (GOOD_BLOCK + "kind: cyclic\n", "unknown manifest key 'kind'"),
]


@pytest.mark.parametrize("manifest, message", MANIFEST_REFUSALS,
                         ids=[m for _, m in MANIFEST_REFUSALS])
def test_manifest_refusals_hold_for_one_entry(manifest, message, monkeypatch,
                                              tmp_path):
    _fake_data(monkeypatch, tmp_path, manifest, {"c3.pres": "<a | a^3>\n"})
    for load in (catalog.load_catalog, lambda: catalog.entry_by_id("c3")):
        with pytest.raises(catalog.CatalogError, match=re.escape(message)):
            load()


def test_entry_by_id_parses_only_its_presentation(monkeypatch, tmp_path):
    manifest = GOOD_BLOCK + "\nid: bad\n"
    _fake_data(monkeypatch, tmp_path, manifest,
               {"c3.pres": "<a | a^3>\n", "bad.pres": "<a | a^>\n"})
    assert catalog.entry_by_id("c3").presentation.generators == ("a",)
    with pytest.raises(ParseError, match="unexpected end of input"):
        catalog.load_catalog()
