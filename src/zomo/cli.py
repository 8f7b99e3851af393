"""Command-line driver for the verification suites.

Subcommands:
    groups verify-catalog [--id ID]
    groups analyze FILE
    genus bound --d D --g G
    genus profiles --d D --order N --g G
    kummer build --q Q --h H [--golden FILE]
    curve check --name NAME --q P [--k K]
    report --format json|markdown [--out FILE] [--seed N]

Exit codes: 0 all executed checks pass, 1 a check failed, 2 usage or
configuration error (a ``ZomoError``, printed as ``error: ...`` without a
traceback), including an input file that cannot be read as text and an
``--out`` file that cannot be written.  Output its reader cuts short ends
quietly, with exit 0.  ZOMO_BUDGET caps the field values a point scan
visits, in ``curve check`` (exit 1 past it) and in ``kummer build``'s scan
of E(F_q) (exit 2), before any field is built.
The report's checks are the rows of ``zomo.checks``; reports are
deterministic apart from the elapsed fields.
"""

import argparse
import contextlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass

from . import ZomoError, __version__, analysis, catalog, checks, curves, kummer
from .genus import BoundQuery, enumerate_profiles, zomorrodian_bound
from .group import analyze_presentation

TOOL_NAME = "artifact"


class UsageError(ZomoError, ValueError):
    pass


# ---------------------------------------------------------------------------
# check records and report assembly

@dataclass
class CheckRecord:
    id: str
    citation: str
    expected: str
    actual: str
    status: str   # "pass" or "fail"
    elapsed: float


def _record(rid, citation, expected, fn):
    t0 = time.perf_counter()
    try:
        actual, ok = fn()
    except Exception as exc:
        actual, ok = "error: %s" % exc, False
    return CheckRecord(rid, citation, expected, str(actual),
                       "pass" if ok else "fail",
                       round(time.perf_counter() - t0, 3))


def _report_json(records):
    payload = {
        "schema": 1,
        "suite": "full",
        "tool": {"name": TOOL_NAME, "version": __version__},
        "overall": "pass" if all(r.status == "pass" for r in records)
        else "fail",
        "checks": [
            {"id": r.id, "citation": r.citation, "expected": r.expected,
             "actual": r.actual, "status": r.status, "elapsed": r.elapsed}
            for r in records],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_markdown(records):
    lines = ["# verification report", "",
             "tool: %s %s" % (TOOL_NAME, __version__),
             "overall: %s" % ("pass" if all(r.status == "pass"
                                           for r in records) else "fail"),
             "", "| id | citation | expected | actual | status | elapsed |",
             "|---|---|---|---|---|---|"]
    for r in records:
        lines.append("| %s | %s | %s | %s | %s | %.3f |"
                     % (r.id, r.citation, r.expected.replace("|", "\\|"),
                        r.actual.replace("|", "\\|"), r.status, r.elapsed))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify_catalog(args):
    entries = catalog.load_catalog()
    if args.id is not None:
        entries = [catalog.entry_by_id(args.id, entries)]
    ok = True
    for entry in entries:
        rep = catalog.verify_entry(entry)
        if rep.ok:
            print("%s: ok (%d checks)" % (rep.id, len(rep.rows)))
        else:
            ok = False
            if rep.error:
                print("%s: ERROR %s" % (rep.id, rep.error))
            for row in rep.rows:
                if not row.passed:
                    print("%s: FAIL %s expected %r got %r [%s]"
                          % (rep.id, row.prop, row.expected, row.actual,
                             row.source))
    return 0 if ok else 1


def _read_text(path):
    """The text of a file named on the command line; an unreadable or
    non-text file is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from None


def _cmd_analyze(args):
    fp = analysis.fingerprint(analyze_presentation(_read_text(args.file)))
    print("order: %d" % fp.order)
    print("center order: %d" % fp.center_order)
    print("nilpotency class: %d" % fp.nilpotency_class)
    print("abelianization: %s" % (fp.abelianization,))
    print("element order census: %s" % (fp.census,))
    print("maximal subgroups: %d" % fp.num_maximal)
    print("minimal nonabelian subgroups: %d" % fp.num_minimal_nonabelian)
    print("derived length: %d" % fp.derived_length)
    return 0


def _cmd_bound(args):
    print(zomorrodian_bound(BoundQuery(args.d, args.g)).bound)
    return 0


def _cmd_profiles(args):
    for p in enumerate_profiles(args.d, args.order, args.g):
        print("gbar=%d orbits=%s" % (p.quotient_genus,
                                     ",".join(str(l) for l in p.orbit_sizes)))
    return 0


def _cmd_kummer_build(args):
    # q and h are checked before the reference is read or anything built
    h = kummer.kummer_h(args.q)
    if h != args.h:
        raise UsageError("q = %d gives h = %d, not %d" % (args.q, h, args.h))
    if args.golden is not None:
        golden = _read_text(args.golden).strip()
    else:
        golden = kummer.load_golden(args.q)
    with _open_out(args.out) as fh:
        out = kummer.build_kummer(args.q, golden)
        payload = {
            "q": out.q,
            "h": out.h,
            "equation": out.equation,
            "genus": out.genus,
            "matched_golden": out.matched_golden,
            "matched_up_to_cube": out.matched_up_to_cube,
            "choice": {"Q": list(out.Q.coords), "epsilon": out.epsilon},
        }
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if out.passed else 1


CURVE_NAMES = ("hesse", "x0", "fermat9", "genus10")


def _load_curve(name):
    from importlib import resources
    if name not in CURVE_NAMES:
        raise UsageError("unknown curve %r (have: %s)"
                         % (name, ", ".join(CURVE_NAMES)))
    text = (resources.files("zomo") / "data" / "curves"
            / ("%s.curve" % name)).read_text()
    return curves.PlaneCurve.make(name, parse_curve(text))


def parse_curve(text):
    """Parse 'X^3 - 2*Y^3 + Z^3' style homogeneous polynomials: comments
    (from '#') and whitespace aside, terms of at most one sign, each a
    '*'-product of digit strings and of X, Y or Z with an optional '^' and
    digit exponent; anything else is refused."""
    coeffs = {}
    text = "".join("".join(line.split("#", 1)[0].split())
                   for line in text.splitlines())
    for term in filter(None, re.split("(?=[+-])", text)):
        n, exps = -1 if term[0] == "-" else 1, [0, 0, 0]
        for factor in term.lstrip("+-").split("*"):
            m = re.fullmatch(r"([0-9]+)|([XYZ])(?:\^([0-9]+))?", factor)
            if m is None:
                raise UsageError("bad curve term %r" % term)
            if m[1]:
                n *= int(m[1])
            else:
                exps["XYZ".index(m[2])] += int(m[3] or 1)
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0) + n
    return coeffs


def _cmd_curve_check(args):
    cu = _load_curve(args.name)
    try:
        S = curves.enumerate_points(cu, args.q, args.k)
    except curves.CurveError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    sing = sorted(S.points[i] for i in S.singular)
    print("curve: %s, degree %d" % (cu.name, cu.degree))
    print("points over F_%d^%d: %d" % (args.q, args.k, len(S.points)))
    print("nonsingular: %d" % (len(S.points) - len(S.singular)))
    for p in sing:
        print("singular: (%s : %s : %s)" % p)
    return 0


def _cmd_report(args):
    # a bad ZOMO_BUDGET stops the run instead of failing every curve check
    curves.point_budget()
    with _open_out(args.out) as fh:
        records = [_record(*row) for row in checks.claims(args.seed)]
        records.sort(key=lambda r: r.id)
        if args.format == "json":
            fh.write(_report_json(records))
        else:
            fh.write(_report_markdown(records))
    return 0 if all(r.status == "pass" for r in records) else 1


@contextlib.contextmanager
def _open_out(out):
    """A file for ``--out``, or stdout when there is none.  Commands open it
    before their work, so a path that cannot be written fails at once.  The
    file is a temporary one beside ``out`` that replaces it only when the
    work succeeds: a failing command leaves the old file as it was."""
    if not out:
        yield sys.stdout
        return
    if os.path.isdir(out):  # the final rename would fail after the work
        raise UsageError("cannot write %s: it is a directory" % out)
    tmp = "%s.%d.tmp" % (out, os.getpid())
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (out, exc)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, out)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out, exc)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="zomo")
    sub = ap.add_subparsers(dest="cmd")

    groups = sub.add_parser("groups").add_subparsers(dest="sub")
    vc = groups.add_parser("verify-catalog")
    vc.add_argument("--id")
    vc.set_defaults(fn=_cmd_verify_catalog)
    an = groups.add_parser("analyze")
    an.add_argument("file")
    an.set_defaults(fn=_cmd_analyze)

    genus = sub.add_parser("genus").add_subparsers(dest="sub")
    gb = genus.add_parser("bound")
    gb.add_argument("--d", type=int, required=True)
    gb.add_argument("--g", type=int, required=True)
    gb.set_defaults(fn=_cmd_bound)
    gp = genus.add_parser("profiles")
    gp.add_argument("--d", type=int, required=True)
    gp.add_argument("--order", type=int, required=True)
    gp.add_argument("--g", type=int, required=True)
    gp.set_defaults(fn=_cmd_profiles)

    km = sub.add_parser("kummer").add_subparsers(dest="sub")
    kb = km.add_parser("build")
    kb.add_argument("--q", type=int, required=True)
    kb.add_argument("--h", type=int, required=True)
    kb.add_argument("--golden")
    kb.add_argument("--out")
    kb.set_defaults(fn=_cmd_kummer_build)

    cv = sub.add_parser("curve").add_subparsers(dest="sub")
    cc = cv.add_parser("check")
    cc.add_argument("--name", required=True)
    cc.add_argument("--q", type=int, required=True)
    cc.add_argument("--k", type=int, default=1)
    cc.set_defaults(fn=_cmd_curve_check)

    rp = sub.add_parser("report")
    rp.add_argument("--format", choices=("json", "markdown"), required=True)
    rp.add_argument("--out")
    rp.add_argument("--seed", type=int, default=0)
    rp.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if exc.code in (0, 2) else 2
    fn = getattr(args, "fn", None)
    if fn is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        code = fn(args)
        sys.stdout.flush()
        return code
    except ZomoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed early: the interpreter's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
