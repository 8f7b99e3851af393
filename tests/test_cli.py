import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zomo
from zomo import checks, cli, kummer

SRC = str(Path(zomo.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_exit_zero(capsys):
    code, out, _ = run(capsys, "genus", "bound", "--d", "3", "--g", "10")
    assert code == 0
    assert "81" in out


def test_profiles_output(capsys):
    code, out, _ = run(capsys, "genus", "profiles", "--d", "3",
                       "--order", "81", "--g", "10")
    assert code == 0
    assert "9,27,27" in out.replace(" ", "")


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


def test_analyze_non_3_group_is_usage_error(tmp_path, capsys):
    p = tmp_path / "c2.pres"
    p.write_text("<a | a^2>\n")
    code, _, err = run(capsys, "groups", "analyze", str(p))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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
    assert set(payload["choice"]) == {"Q", "epsilon"}


def test_kummer_build_wrong_h(capsys):
    code, _, err = run(capsys, "kummer", "build", "--q", "19", "--h", "2")
    assert code == 2


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
