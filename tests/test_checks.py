"""The claims of ``zomo report``, one test per row of ``zomo.checks``."""

import pytest

from zomo import checks

ROWS = checks.claims(seed=0)


def test_row_ids_unique():
    ids = [row[0] for row in ROWS]
    assert len(ids) == len(set(ids)) == 52


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_claim(row):
    rid, citation, expected, fn = row
    actual, ok = fn()
    assert ok, "%s [%s]: expected %s, got %s" % (rid, citation, expected,
                                                 actual)
