"""Per-layer tracing of ``zomo`` from outside the package.

``Tracer.install`` replaces the public functions of the traced modules (and a
few named methods) with timing wrappers, on every module of ``zomo`` that
binds them, so ``from .x import f`` copies are covered too.  Each wrapped
call is a span: its module's self time is the span minus the child spans it
covers.  ``uninstall`` restores every binding.

Per-element operations (``PrimeField`` arithmetic, ``FiniteGroup.mult``) are
not wrapped: there are tens of millions of them, and their time belongs to
the layer that calls them.
"""

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = ("polys", "field", "funcfield", "hesse", "kummer", "curves",
                  "group", "coset", "analysis", "catalog")

# (module, class, method): per-object operations worth a span of their own
TRACED_METHODS = (
    ("field", "ExtField", "mul"),
    ("field", "ExtField", "inv"),
    ("funcfield", "FFElem", "inverse"),
    ("coset", "CosetTable", "define"),
    ("coset", "CosetTable", "coincidence"),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()            # "module.name" -> calls
        self.span_s = defaultdict(float)  # "module.name" -> outermost spans
        self.self_s = defaultdict(float)  # module -> self time
        self.sums = Counter()             # quantities read off results
        self._children = []               # child time of each open span
        self._patches = []                # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        calls, span_s, self_s = self.calls, self.span_s, self.self_s
        children = self._children
        depth = [0]
        measure = _MEASURES.get(name)
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[0] -= 1
                self_s[layer] += dt - children.pop()
                if children:
                    children[-1] += dt
                if not depth[0]:
                    span_s[name] += dt
                calls[name] += 1
            if measure is not None:
                measure(sums, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every binding of the traced functions in ``zomo.*``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod in TRACED_MODULES:
            module = importlib.import_module("zomo." + mod)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[obj] = self._wrap(obj, "%s.%s" % (mod, attr),
                                                mod)
        for module in zomo_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(module, attr, originals[obj])
        for mod, cls, meth in TRACED_METHODS:
            owner = getattr(importlib.import_module("zomo." + mod), cls)
            fn = vars(owner)[meth]
            self._patch(owner, meth,
                        self._wrap(fn, "%s.%s.%s" % (mod, cls, meth), mod))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(n for name, n in self.calls.items()
                   if name.startswith(prefix))

    def metrics(self):
        """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}
        (the micro-benchmarks and the overhead ratio are added by run.py)."""
        c, sp, me, su = self.calls, self.span_s, self.self_s, self.sums
        # point sets enumerated: one per extension degree a group closure
        # tries, plus the direct scans of the fixed-point and sample checks
        enum_calls = (c["curves.enumerate_points"]
                      + c["curves.genus28_points"])
        enumerations = c["coset.enumerate_cosets"]
        defined = c["coset.CosetTable.define"] + enumerations
        return {
            "polys.calls": (self.layer_calls("polys"), "count"),
            "polys.s": (me["polys"], "s"),
            "field.ext_mul_calls": (c["field.ExtField.mul"], "count"),
            "field.ext_inv_calls": (c["field.ExtField.inv"], "count"),
            "field.ext_s": (sp["field.ExtField.mul"]
                            + sp["field.ExtField.inv"], "s"),
            "funcfield.apply_endo_calls": (c["funcfield.apply_endo"],
                                           "count"),
            "funcfield.apply_endo_s": (sp["funcfield.apply_endo"], "s"),
            "funcfield.inverse_calls": (c["funcfield.FFElem.inverse"],
                                        "count"),
            "funcfield.s": (me["funcfield"], "s"),
            "funcfield.valuation_calls": (c["funcfield.valuation_at"],
                                          "count"),
            "funcfield.valuation_s": (sp["funcfield.valuation_at"], "s"),
            "hesse.add_calls": (c["hesse.hesse_add"], "count"),
            "hesse.s": (me["hesse"], "s"),
            "kummer.build_gbar_s": (sp["kummer.build_gbar"], "s"),
            "kummer.pullbacks_s": (sp["kummer.phi_pullbacks"], "s"),
            "kummer.build_w_s": (sp["kummer.build_w"], "s"),
            "kummer.slopes_tried": (c["kummer.build_w"], "count"),
            "kummer.gbar_builds": (c["kummer.build_gbar"], "count"),
            "curves.enumerate_s": (sp["curves.enumerate_points"]
                                   + sp["curves.genus28_points"], "s"),
            "curves.domain_s": (sp["curves.stable_domain"]
                                + sp["curves.invariant_domain"], "s"),
            "curves.act_s": (sp["curves.act"], "s"),
            "curves.points": (su["points"], "count"),
            "curves.degrees_tried": (enum_calls, "count"),
            "curves.domain_ratio": (_ratio(su["domain_points"],
                                           su["domain_input"]), "ratio"),
            "group.from_perms_s": (sp["group.group_from_permutations"], "s"),
            "group.from_perms_elements": (su["from_perms_elements"],
                                          "count"),
            "coset.enumerate_s": (sp["coset.enumerate_cosets"], "s"),
            "coset.cosets_defined": (defined, "count"),
            "coset.coincidences": (c["coset.CosetTable.coincidence"],
                                   "count"),
            "coset.useful_ratio": (_ratio(su["coset_order"], defined),
                                   "ratio"),
            "analysis.calls": (self.layer_calls("analysis"), "count"),
            "analysis.s": (me["analysis"], "s"),
            "analysis.fingerprint_s": (sp["analysis.fingerprint"], "s"),
            "catalog.verify_s": (sp["catalog.verify_entry"], "s"),
            "catalog.entries": (c["catalog.verify_entry"], "count"),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def _points(sums, args, result):
    sums["points"] += len(result.points)


def _genus28_points(sums, args, result):
    sums["points"] += len(result[1])


def _stable_domain(sums, args, result):
    sums["domain_points"] += len(result)
    sums["domain_input"] += len(args[1].points)


def _invariant_domain(sums, args, result):
    sums["domain_points"] += len(result)
    sums["domain_input"] += len(args[1])


def _from_perms(sums, args, result):
    sums["from_perms_elements"] += result.order


def _cosets(sums, args, result):
    sums["coset_order"] += result[0]


# quantities read off a wrapped function's arguments and result
_MEASURES = {
    "curves.enumerate_points": _points,
    "curves.genus28_points": _genus28_points,
    "curves.stable_domain": _stable_domain,
    "curves.invariant_domain": _invariant_domain,
    "group.group_from_permutations": _from_perms,
    "coset.enumerate_cosets": _cosets,
}


def zomo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zomo" or name.startswith("zomo."))]
