import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zomo
from zomo import catalog, checks, cli, kummer
from zomo.words import parse_presentation

SRC = str(Path(zomo.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tool_version_is_the_project_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    want = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    assert json.loads(cli._report_json([]))["tool"]["version"] == want


def test_bound_exit_zero(capsys):
    code, out, _ = run(capsys, "genus", "bound", "--d", "3", "--g", "10")
    assert code == 0
    assert "81" in out


def test_profiles_output(capsys):
    code, out, _ = run(capsys, "genus", "profiles", "--d", "3",
                       "--order", "81", "--g", "10")
    assert code == 0
    assert "9,27,27" in out.replace(" ", "")


def test_profiles_negative_genus_is_usage_error(capsys):
    code, out, err = run(capsys, "genus", "profiles", "--d", "3",
                         "--order", "9", "--g", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: genus must be nonnegative, got -5\n"


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "groups")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "genus", "bound", "--d", "3", "--g", "10",
                     "--bogus")
    assert code == 2


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "groups", "analyze", "nosuch.pres")
    assert code == 2


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.pres"
    binary.write_bytes(bytes(range(128, 256)))
    for argv in (("groups", "analyze", str(binary)),
                 ("kummer", "build", "--q", "19", "--h", "3",
                  "--golden", str(binary))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and str(binary) in err


def test_unwritable_out_is_usage_error(monkeypatch, tmp_path, capsys):
    # the output file is opened before any work: the work must not run
    def no_work(*args):
        pytest.fail("work ran before the unwritable --out was refused")

    monkeypatch.setattr(kummer, "build_kummer", no_work)
    monkeypatch.setattr(checks, "claims",
                        lambda seed: [("a-holds", "builtin:a", "1", no_work)])
    missing = tmp_path / "missing"
    code, _, err = run(capsys, "kummer", "build", "--q", "19", "--h", "3",
                       "--out", str(missing / "k.json"))
    assert code == 2
    assert err.startswith("error: cannot write ")
    code, out, err = run(capsys, "report", "--format", "json",
                         "--out", str(missing / "r.json"))
    assert code == 2
    assert out == "" and err.startswith("error: cannot write ")
    assert not missing.exists()


def test_directory_out_is_usage_error(monkeypatch, tmp_path, capsys):
    # a directory is refused before the work, not when the rename fails
    def no_work(*args):
        pytest.fail("work ran before the directory --out was refused")

    monkeypatch.setattr(kummer, "build_kummer", no_work)
    code, out, err = run(capsys, "kummer", "build", "--q", "19", "--h", "3",
                         "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_analyze_file(tmp_path, capsys):
    p = tmp_path / "heis.pres"
    p.write_text("<a, b | a^3, b^3, [a,b]^3, [[a,b],a], [[a,b],b]>\n")
    code, out, _ = run(capsys, "groups", "analyze", str(p))
    assert code == 0
    assert "27" in out


def test_verify_catalog_single(capsys):
    code, out, _ = run(capsys, "groups", "verify-catalog",
                       "--id", "C9_rtimes_C3")
    assert code == 0


def test_verify_catalog_unknown_id(capsys):
    code, _, _ = run(capsys, "groups", "verify-catalog", "--id", "zzz")
    assert code == 2


def test_curve_check_hesse(capsys):
    code, out, _ = run(capsys, "curve", "check", "--name", "hesse",
                       "--q", "19")
    assert code == 0
    assert "27" in out


@pytest.mark.parametrize("text, coeffs", [
    ("X^3 - Y^3 + Z^3", {(3, 0, 0): 1, (0, 3, 0): -1, (0, 0, 3): 1}),
    ("X^3 - 2*Y^3 + Z^3", {(3, 0, 0): 1, (0, 3, 0): -2, (0, 0, 3): 1}),
    ("X^3 + Y^3 + Z^3 - X*Y*Z",
     {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -1}),
    ("-X ^ 2*Y # a comment\n + 3 * Z^3 - Z^3", {(2, 1, 0): -1, (0, 0, 3): 2}),
])
def test_parse_curve_reads_signed_terms(text, coeffs):
    assert cli.parse_curve(text) == coeffs


@pytest.mark.parametrize("text, term", [
    ("X^ + Y^3", "X^"), ("X^-1", "X^"), ("X^3 + + Y^3", "+"),
    ("X^3 - -Y^3", "-"), ("X^3 + W^3", "+W^3"), ("X^3Y", "X^3Y"),
    ("2*", "2*"), ("x^3", "x^3"),
])
def test_parse_curve_refuses_a_malformed_term(text, term):
    with pytest.raises(cli.UsageError,
                       match=re.escape("bad curve term %r" % term)):
        cli.parse_curve(text)


def test_packaged_curve_files_parse_as_pinned():
    assert {name: cli._load_curve(name).coeffs for name in cli.CURVE_NAMES} == {
        "hesse": (((0, 0, 3), 1), ((0, 3, 0), 1), ((3, 0, 0), 1)),
        "x0": (((0, 9, 0), 1), ((3, 0, 6), 1), ((6, 0, 3), 1)),
        "fermat9": (((0, 0, 9), 1), ((0, 9, 0), 1), ((9, 0, 0), 1)),
        "genus10": (((0, 0, 9), 1), ((3, 6, 0), 1), ((6, 3, 0), 1)),
    }


def test_curve_check_unknown_name(capsys):
    code, _, _ = run(capsys, "curve", "check", "--name", "nope", "--q", "19")
    assert code == 2


def test_curve_check_composite_q_is_usage_error(capsys):
    code, out, err = run(capsys, "curve", "check", "--name", "x0", "--q", "4")
    assert code == 2
    assert err == "error: 4 is not prime\n"


def test_curve_check_bad_budget_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ZOMO_BUDGET", "abc")
    code, _, err = run(capsys, "curve", "check", "--name", "x0", "--q", "19")
    assert code == 2
    assert err == "error: ZOMO_BUDGET='abc' is not an integer\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_curve_check_non_positive_budget_is_usage_error(budget, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("ZOMO_BUDGET", budget)
    code, _, err = run(capsys, "curve", "check", "--name", "x0", "--q", "19")
    assert code == 2
    assert err == "error: ZOMO_BUDGET=%r is not a positive integer\n" % budget


def test_analyze_non_3_group_is_usage_error(tmp_path, capsys):
    p = tmp_path / "c2.pres"
    p.write_text("<a | a^2>\n")
    code, _, err = run(capsys, "groups", "analyze", str(p))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_names_the_order_of_a_non_3_group(tmp_path, capsys):
    # S3, whose abelianization has order 2: the message names |G| = 6
    p = tmp_path / "s3.pres"
    p.write_text("<a, b | a^2, b^3, (a*b)^2>\n")
    code, out, err = run(capsys, "groups", "analyze", str(p))
    assert (code, out) == (2, "")
    assert err == "error: order 6 is not a power of 3\n"


def test_analyze_infinite_group_names_the_generator(tmp_path, capsys):
    # Z: the enumeration over <a> finds a of infinite order
    p = tmp_path / "z.pres"
    p.write_text("<a, b | b*a^-2>\n")
    code, out, err = run(capsys, "groups", "analyze", str(p))
    assert (code, out) == (2, "")
    assert err == "error: generator a has infinite order\n"


def test_verify_catalog_goes_on_past_an_enumeration_error(monkeypatch,
                                                          capsys):
    bad = catalog.CatalogEntry(
        "infinite_z", parse_presentation("<a, b | b*a^-2>"), ())
    good = catalog.entry_by_id("C9_rtimes_C3")
    monkeypatch.setattr(catalog, "load_catalog", lambda: [bad, good])
    code, out, _ = run(capsys, "groups", "verify-catalog")
    assert code == 1
    assert out.splitlines()[0] == (
        "infinite_z: ERROR generator a has infinite order")
    assert out.splitlines()[1].startswith("C9_rtimes_C3: ok (")


def test_kummer_build_json(tmp_path, capsys):
    out_file = tmp_path / "k19.json"
    code, _, _ = run(capsys, "kummer", "build", "--q", "19", "--h", "3",
                     "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["q"] == 19
    assert payload["h"] == 3
    assert payload["genus"] == 28
    assert payload["matched_golden"] is True
    assert payload["matched_up_to_cube"] is False
    assert set(payload["choice"]) == {"Q", "epsilon"}


@pytest.mark.parametrize("q, h, actual", [
    (73, 4, "exact match"), (271, 5, "match up to a constant cube")])
def test_kummer_build_passes_where_the_report_does(q, h, actual, capsys):
    code, out, _ = run(capsys, "kummer", "build", "--q", str(q),
                       "--h", str(h))
    payload = json.loads(out)
    assert code == 0
    assert payload["matched_golden"] is (actual == "exact match")
    assert payload["matched_up_to_cube"] is (actual != "exact match")
    assert checks._kummer(q) == (actual, True)


GOLDEN = Path(SRC) / "zomo" / "data" / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("kummer_q*.txt")),
                         ids=lambda p: p.stem)
def test_kummer_build_golden_file_is_the_packaged_reference(path, capsys):
    # --golden with a packaged file reads it as load_golden does, trailing
    # newline and all
    q = int(path.stem.partition("_q")[2])
    h = kummer.build_gbar(q).h
    argv = ("kummer", "build", "--q", str(q), "--h", str(h))
    assert run(capsys, *argv, "--golden", str(path)) == run(capsys, *argv)


def test_kummer_build_wrong_h(capsys):
    code, _, err = run(capsys, "kummer", "build", "--q", "19", "--h", "2")
    assert code == 2


@pytest.mark.parametrize("q, message", [
    ("4", "error: 4 is not prime"), ("17", "error: q = 17 is not 1 mod 3")])
def test_kummer_build_bad_q_is_named_before_the_reference(q, message,
                                                          capsys):
    # the same refusal with or without --golden: q is checked first
    for extra in ((), ("--golden", "nosuch.txt")):
        code, out, err = run(capsys, "kummer", "build", "--q", q, "--h", "1",
                             *extra)
        assert code == 2 and out == ""
        assert err.strip() == message


def test_kummer_build_wrong_h_is_refused_before_the_build(monkeypatch,
                                                          capsys):
    def no_work(*args):
        pytest.fail("the cover was built before the wrong --h was refused")

    monkeypatch.setattr(kummer, "build_kummer", no_work)
    code, out, err = run(capsys, "kummer", "build", "--q", "271", "--h", "4")
    assert code == 2 and out == ""
    assert err.strip() == "error: q = 271 gives h = 5, not 4"


def test_kummer_build_large_q_is_refused_without_the_group_law(monkeypatch,
                                                               capsys):
    # h comes from the point count: no O(q^2) addition table is built
    def no_table(*args):
        pytest.fail("the addition table was built to check q and h")

    monkeypatch.setattr(kummer, "EllipticGroup", no_table)
    for h, message in (("1", "q = 10009 gives h = 3, not 1"),
                       ("3", "no reference equation stored for q = 10009")):
        code, out, err = run(capsys, "kummer", "build", "--q", "10009",
                             "--h", h)
        assert code == 2 and out == ""
        assert err.strip() == "error: " + message


def test_failing_command_keeps_the_old_out_file(tmp_path, capsys):
    out_file = tmp_path / "k.json"
    out_file.write_text("old content\n")
    code, _, err = run(capsys, "kummer", "build", "--q", "19", "--h", "2",
                       "--out", str(out_file))
    assert code == 2 and err.startswith("error: q = 19 gives h = 3")
    assert out_file.read_text() == "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


def run_fresh(*argv, timeout):
    """``python -m zomo`` in a new interpreter: no cache of this process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "zomo", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_curve_check_over_budget_fails_fast():
    # sizing F_{271^3} must not build its tables
    done = run_fresh("curve", "check", "--name", "genus10", "--q", "271",
                     "--k", "3", timeout=10)
    assert done.returncode == 1
    assert "exceeds the budget" in done.stderr


def test_separated_curve_check_over_budget_fails_fast():
    # hesse separates as x^3 + y^3 + 1: a scan of 19^9 x-values is refused
    # before F_{19^9} builds a table
    done = run_fresh("curve", "check", "--name", "hesse", "--q", "19",
                     "--k", "9", timeout=10)
    assert done.returncode == 1
    assert "exceeds the budget" in done.stderr


def test_curve_check_refuses_a_large_degree_before_building_the_field():
    # building F_{19^40} would search for its primitive modulus, factoring
    # 19^40 - 1 by trial division: the scan size comes from q, k and the
    # curve's shape alone
    done = run_fresh("curve", "check", "--name", "x0", "--q", "19",
                     "--k", "40", timeout=10)
    assert done.returncode == 1
    assert "values over F_19^40 exceeds the budget" in done.stderr


def test_kummer_build_scan_of_the_curve_is_held_to_the_budget(monkeypatch,
                                                              capsys):
    def no_scan(*args):
        pytest.fail("E(F_q) was scanned past the budget")

    monkeypatch.setattr(kummer, "enumerate_hesse_points", no_scan)
    monkeypatch.setenv("ZOMO_BUDGET", "1000")
    code, out, err = run(capsys, "kummer", "build", "--q", "1009", "--h", "1")
    assert code == 2 and out == ""
    assert err == "error: scan of 1009 values over F_1009 exceeds the budget\n"


def test_a_reader_that_closes_early_ends_the_listing_quietly():
    # 4,817 profiles are about 2 MB, more than a pipe holds: the listing
    # is still being written when the reader closes after one line
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "zomo", "genus", "profiles", "--d", "3",
         "--order", "9", "--g", "1000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b"gbar=0 orbits=") and err == b""


@pytest.mark.slow
def test_report_json_schema_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1, _, _ = run(capsys, "report", "--format", "json", "--seed", "1",
                      "--out", str(a))
    fresh = run_fresh("report", "--format", "json", "--seed", "1",
                      "--out", str(b), timeout=600)
    assert code1 == 0 and fresh.returncode == 0
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert ra["schema"] == 1

    def strip(r):
        return [{k: v for k, v in c.items() if k != "elapsed"}
                for c in r["checks"]]
    assert strip(ra) == strip(rb)
    assert all(c["status"] == "pass" for c in ra["checks"])
    assert [c["id"] for c in ra["checks"]] == sorted(
        row[0] for row in checks.claims(1))


def test_report_markdown(monkeypatch, tmp_path, capsys):
    rows = [("b-fails", "builtin:b", "2", lambda: (3, False)),
            ("a-holds", "builtin:a", "x|y", lambda: ("x|y", True))]
    monkeypatch.setattr(checks, "claims", lambda seed: rows)
    out_file = tmp_path / "r.md"
    code, _, _ = run(capsys, "report", "--format", "markdown",
                     "--out", str(out_file))
    assert code == 1
    lines = out_file.read_text().splitlines()
    assert lines[0] == "# verification report"
    assert lines[3] == "overall: fail"
    assert lines[5:7] == ["| id | citation | expected | actual | status "
                          "| elapsed |", "|---|---|---|---|---|---|"]
    assert [line.rsplit("|", 2)[0] for line in lines[7:]] == [
        "| a-holds | builtin:a | x\\|y | x\\|y | pass ",
        "| b-fails | builtin:b | 2 | 3 | fail "]


def test_report_bad_budget_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ZOMO_BUDGET", "abc")
    code, out, err = run(capsys, "report", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: ZOMO_BUDGET='abc' is not an integer\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_report_non_positive_budget_is_usage_error(budget, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("ZOMO_BUDGET", budget)
    code, out, err = run(capsys, "report", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: ZOMO_BUDGET=%r is not a positive integer\n" % budget
