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
traceback).  ZOMO_BUDGET overrides the enumeration budget.
Reports are deterministic apart from the elapsed fields.
"""

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from . import ZomoError, analysis, catalog, curves, kummer
from .funcfield import ffelem_str, lemma_factorization_check, valuation_at
from .field import PrimeField
from .genus import (BoundQuery, RamificationProfile, enumerate_profiles,
                    rh_genus, zomorrodian_bound)
from .group import analyze_presentation

TOOL_NAME = "artifact"


def _tool_version():
    try:
        from importlib.metadata import version
        return version(TOOL_NAME)
    except Exception:
        return "0.0"


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
        "tool": {"name": TOOL_NAME, "version": _tool_version()},
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
             "tool: %s %s" % (TOOL_NAME, _tool_version()),
             "overall: %s" % ("pass" if all(r.status == "pass"
                                           for r in records) else "fail"),
             "", "| id | citation | expected | actual | status | elapsed |",
             "|---|---|---|---|---|---|"]
    for r in records:
        lines.append("| %s | %s | %s | %s | %s | %.3f |"
                     % (r.id, r.citation, r.expected.replace("|", "\\|"),
                        r.actual.replace("|", "\\|"), r.status, r.elapsed))
    return "\n".join(lines) + "\n"


def _suite_records(seed=0):
    rng = random.Random(seed)
    records = []

    for entry in catalog.load_catalog():
        def run(entry=entry):
            rep = catalog.verify_entry(entry)
            if rep.error:
                return rep.error, False
            bad = [r for r in rep.rows if not r.passed]
            if bad:
                return "; ".join("%s=%r" % (r.prop, r.actual) for r in bad), \
                    False
            return "all %d expectations hold" % len(rep.rows), True
        records.append(_record("catalog-%s" % entry.id,
                               "catalog:%s" % entry.id,
                               "all expectations hold", run))

    records.append(_record(
        "genus-bound-g10", "builtin:bound",
        "81", lambda: (zomorrodian_bound(BoundQuery(3, 10)).bound,
                       zomorrodian_bound(BoundQuery(3, 10)).bound == 81)))

    for h in (2, 3, 4):
        order = 3 ** (h + 2)
        genus = 3 ** h + 1
        want = (order // 9, order // 3, order // 3)

        def run(order=order, genus=genus, want=want):
            profs = [p for p in enumerate_profiles(3, order, genus)
                     if p.quotient_genus == 0]
            sizes = sorted(p.orbit_sizes for p in profs)
            return sizes, sizes == [want]
        records.append(_record("genus-profile-h%d" % h, "builtin:profiles",
                               str([want]), run))

    records.append(_record(
        "rh-genus-81", "builtin:genus-formula", "10",
        lambda: (rh_genus(RamificationProfile(81, 0, (9, 27, 27))),
                 rh_genus(RamificationProfile(81, 0, (9, 27, 27))) == 10)))

    for q in (19, 73, 271):
        def run(q=q):
            out = kummer.build_kummer(q, kummer.load_golden(q))
            if out.matched_golden:
                return "exact match", True
            if out.matched_up_to_cube and q != 19:
                return "match up to a constant cube", True
            return "no match (up to cube: %s)" % out.matched_up_to_cube, False
        records.append(_record("kummer-q%d" % q, "golden:kummer_q%d.txt" % q,
                               "reference equation reproduced", run))

    def run_micro():
        out = kummer.small_construction(19)
        got = (out.m, out.equation, ffelem_str(out.delta_ratio))
        want = (18, "(16)/(y^2)x", "y^3")
        return got, got == want
    records.append(_record("kummer-micro-27", "frozen:small-construction",
                           "(18, '(16)/(y^2)x', 'y^3')", run_micro))

    def run_x0_a():
        G, _, _, _ = curves.automorphism_group(
            curves.x0_scaling_maps(19), curves.x0_curve(), 19)
        return G.order, G.order == 27
    records.append(_record("curve-x0-scalings", "curve:x0", "order 27",
                           run_x0_a))

    def run_x0_g():
        maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
        G, S, dom, _ = curves.automorphism_group(maps, curves.x0_curve(), 19)
        Z = analysis.center(G)
        S1 = curves.enumerate_points(curves.x0_curve(), 19, 1)
        perm = curves.act(curves.x0_center_map(19), S1)
        fixed = sorted(S1.nonsingular()[i]
                       for i in curves.fixed_points(perm))
        ok = (G.order == 81 and len(Z.members) == 3
              and fixed == [(8, 0, 1), (12, 0, 1), (18, 0, 1)])
        return "order %d, |Z| %d, fixed %s" % (G.order, len(Z.members),
                                               fixed), ok
    records.append(_record("curve-x0-with-a2", "curve:x0",
                           "order 81, center order 3, 3 fixed points",
                           run_x0_g))

    def run_fermat():
        G, _, _, _ = curves.automorphism_group(
            curves.fermat9_maps(19), curves.fermat9_curve(), 19)
        return G.order, G.order == 243
    records.append(_record("curve-fermat9", "curve:fermat9", "order 243",
                           run_fermat))

    def run_g28():
        G, _, _ = curves.genus28_group(19)
        fp = analysis.fingerprint(G)
        ref = analysis.fingerprint(
            catalog.materialize(catalog.entry_by_id("qu24agosto_odd_n2")))
        ok = G.order == 243 and fp == ref
        return "order %d, fingerprint match %s" % (G.order, fp == ref), ok
    records.append(_record("curve-genus28", "curve:genus28",
                           "order 243, catalog fingerprint", run_g28))

    def run_t():
        F = curves.x0_function_field(19)
        t = curves.x0_invariant_t(F)
        same = (t - curves.x0_three_term_t(F)).is_zero()
        inv = curves.verify_invariant_function(t, curves.x0_endos(F))
        vals = [valuation_at(t, x0, 0)
                for x0 in curves.x0_branch_x_values(19)]
        ok = same and inv and vals == [-9, -9, -9]
        return "forms equal %s, invariant %s, vals %s" % (same, inv, vals), ok
    records.append(_record("invariant-t", "curve:x0",
                           "equal forms, fixed by all 81, valuation -9",
                           run_t))

    for q in (19, 23):
        def run_fact(q=q):
            ok = lemma_factorization_check(PrimeField(q))
            return str(ok), bool(ok)
        records.append(_record("factorization-f%d" % q,
                               "builtin:factorization", "True", run_fact))

    def run_sample():
        S = curves.enumerate_points(curves.x0_curve(), 19, 2)
        pts = S.nonsingular()
        cu = curves.x0_curve()
        sample = rng.sample(pts, min(20, len(pts)))
        for m in curves.x0_scaling_maps(19):
            for p in sample:
                ip = m.eval_at(S.field, p)
                if cu.eval_at(S.field, ip) != S.field.zero:
                    return "image off curve under %s" % m.name, False
        return "%d sampled points stay on the curve" % len(sample), True
    records.append(_record("map-image-sample", "curve:x0",
                           "sampled images satisfy the curve equation",
                           run_sample))

    return records


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


def _cmd_analyze(args):
    try:
        text = open(args.file).read()
    except OSError as exc:
        raise UsageError(str(exc))
    fp = analysis.fingerprint(analyze_presentation(text))
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
    if args.golden is not None:
        try:
            golden = open(args.golden).read()
        except OSError as exc:
            raise UsageError(str(exc))
    else:
        golden = kummer.load_golden(args.q)
    out = kummer.build_kummer(args.q, golden)
    if out.h != args.h:
        raise UsageError("q = %d gives h = %d, not %d"
                         % (args.q, out.h, args.h))
    payload = {
        "q": out.q,
        "h": out.h,
        "equation": out.equation,
        "genus": out.genus,
        "matched_golden": out.matched_golden,
        "choice": {"Q": list(out.Q.coords), "epsilon": out.epsilon},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0 if out.matched_golden else 1


CURVE_NAMES = ("hesse", "x0", "fermat9", "genus10")


def _load_curve(name):
    from importlib import resources
    if name not in CURVE_NAMES:
        raise UsageError("unknown curve %r (have: %s)"
                         % (name, ", ".join(CURVE_NAMES)))
    text = (resources.files("zomo") / "data" / "curves"
            / ("%s.curve" % name)).read_text()
    return curves.PlaneCurve.make(name, parse_curve(text))


_VAR_AXIS = {"X": 0, "Y": 1, "Z": 2}


def parse_curve(text):
    """Parse 'X^3 + Y^3 + Z^3' style homogeneous polynomials."""
    coeffs = {}
    text = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    for term in text.replace("-", "+ -").split("+"):
        term = term.strip()
        if not term:
            continue
        n = 1
        exps = [0, 0, 0]
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor.lstrip("-").isdigit():
                n *= int(factor)
                continue
            var, _, exp = factor.partition("^")
            var = var.strip()
            if var.startswith("-"):
                n = -n
                var = var[1:]
            if var not in _VAR_AXIS:
                raise UsageError("bad curve term %r" % term)
            exps[_VAR_AXIS[var]] += int(exp) if exp else 1
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
    records = _suite_records(args.seed)
    records.sort(key=lambda r: r.id)
    if args.format == "json":
        text = _report_json(records)
    else:
        text = _report_markdown(records)
    _emit(text, args.out)
    return 0 if all(r.status == "pass" for r in records) else 1


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        return fn(args)
    except ZomoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
