"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q             # all, about 6 min
    PYTHONPATH=src python3 -m pytest bench -q -m "not slow"
"""

import functools
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

SRC = run.use_checkout(ROOT)

import tracer as tracing  # noqa: E402
from zomo import catalog, kummer  # noqa: E402

# Layer counts each workload must exercise, and those its role as a control
# requires to stay zero.
EXERCISED = {
    "kummer": {"polys.calls", "funcfield.apply_endo_calls",
               "funcfield.inverse_calls", "hesse.add_calls",
               "kummer.slopes_tried", "kummer.gbar_builds",
               "group.from_perms_elements"},
    "curves": {"polys.calls", "field.ext_mul_calls", "field.ext_inv_calls",
               "curves.points", "curves.degrees_tried",
               "group.from_perms_elements", "analysis.calls"},
    "groups_symbolic": {"coset.cosets_defined", "coset.coincidences",
                        "analysis.calls", "catalog.entries", "polys.calls",
                        "funcfield.apply_endo_calls",
                        "funcfield.inverse_calls",
                        "funcfield.valuation_calls"},
}
UNTOUCHED = {
    "kummer": {"field.ext_mul_calls", "coset.cosets_defined",
               "funcfield.valuation_calls", "curves.points"},
    "curves": {"hesse.add_calls", "kummer.slopes_tried",
               "funcfield.valuation_calls", "funcfield.apply_endo_calls"},
    "groups_symbolic": {"field.ext_mul_calls", "kummer.gbar_builds",
                        "curves.points"},
}
SLOW = {"kummer", "curves"}


def _workload_params():
    return [pytest.param(w, marks=pytest.mark.slow) if w in SLOW else w
            for w in run.WORKLOADS]


@functools.lru_cache(maxsize=None)
def _traced_twice(workload):
    """Counts and results of two traced cold passes in one process."""
    expected = run.load_expected()
    checks_ = run.ordered_checks(workload, 1)
    out = []
    for _ in range(2):
        tr = tracing.Tracer()
        _, results = run.run_pass(checks_, expected, tr)
        counts = {name: value for name, (value, unit) in tr.metrics().items()
                  if unit == "count"}
        out.append((counts, results))
    return out


def test_every_binding_is_wrapped_and_restored():
    originals = {}
    for mod in tracing.TRACED_MODULES:
        module = importlib.import_module("zomo." + mod)
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                originals[obj] = "%s.%s" % (mod, attr)
    modules = tracing.zomo_modules()
    bound = [(m, a) for m in modules for a, o in vars(m).items()
             if inspect.isfunction(o) and o in originals]
    assert len(bound) > len(originals)  # some are re-bound by from-imports
    with tracing.Tracer():
        left = ["%s.%s" % (m.__name__, a) for m, a in bound
                if getattr(m, a) in originals]
        assert left == []
        for name in ("apply_endo", "group_from_permutations", "frattini"):
            assert getattr(kummer, name).__wrapped__
        assert sys.modules["zomo.curves"].group_from_permutations.__wrapped__
        assert sys.modules["zomo.field"].ExtField.mul.__wrapped__
    assert all(getattr(m, a) in originals for m, a in bound)
    assert not hasattr(sys.modules["zomo.field"].ExtField.mul, "__wrapped__")


def test_passes_start_cold():
    """A pass must redo the work a fresh process does; replaying the
    module caches (what a second in-process report does) would not."""
    wl = (run.ordered_checks("kummer", 1)
          + run.ordered_checks("groups_symbolic", 1))
    subset = [c for c in wl if c[0] in ("kummer-q19", "catalog-u33")]
    expected = run.load_expected()
    work = []
    for _ in range(2):
        tr = tracing.Tracer()
        _, results = run.run_pass(subset, expected, tr)
        assert all(ok for _, _, ok in results)
        work.append((tr.calls["kummer.build_gbar"],
                     tr.calls["coset.enumerate_cosets"]))
        assert kummer._GBAR_CACHE and catalog._group_cache
    assert work[0] == work[1] and min(work[0]) > 0
    with tracing.Tracer() as warm:
        for _, fn in subset:
            fn()
    assert warm.calls["kummer.build_gbar"] == 0


@pytest.mark.parametrize("workload", _workload_params())
def test_layer_counts_repeat_and_cover_the_layers(workload):
    (counts1, results1), (counts2, results2) = _traced_twice(workload)
    assert all(ok for _, _, ok in results1 + results2)
    assert counts1 == counts2
    assert sorted(n for n in EXERCISED[workload] if not counts1[n]) == []
    assert sorted(n for n in UNTOUCHED[workload] if counts1[n]) == []


@pytest.mark.slow
def test_workloads_cover_the_report():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "zomo", "report",
                          "--format", "json"], env=env, capture_output=True,
                         text=True, timeout=900, check=True)
    report = {c["id"]: c["actual"] for c in json.loads(out.stdout)["checks"]}
    assert len(report) == 52
    ours = {}
    for workload in run.WORKLOADS:
        for cid, actual, ok in _traced_twice(workload)[0][1]:
            assert ok and cid not in ours
            ours[cid] = actual
    assert ours == report


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "curves", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
