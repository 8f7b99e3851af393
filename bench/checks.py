"""The 52 checks of ``zomo report``, split into the benchmark's workloads.

Each check calls the public ``zomo`` entry points with the report's inputs and
returns ``(actual, ok, outputs)``: ``actual`` is the string the report prints
for the check, ``ok`` its pass flag, and ``outputs`` the computed values the
digest gate hashes.  Nothing in ``outputs`` depends on the workload seed, so
one committed digest per check holds for every seed.

Why these three workloads:

- ``kummer``: the Kummer covers for q = 19, 73, 271.  Dominated by the Hesse
  group law, ``apply_endo`` over ``RatFunc`` coefficients and F_p[y]
  products; never touches ``ExtField`` or coset enumeration.
- ``curves``: plane-curve automorphism groups.  Dominated by ``ExtField``
  arithmetic in point enumeration and the invariant-domain fixpoints; never
  touches the Hesse group law or ``build_w``.
- ``groups_symbolic``: the 35 catalog entries and the genus arithmetic
  (coset enumeration, Cayley rows and ``analysis``, no field arithmetic),
  plus the X0 function field, 81 composed ``Endo``s, series valuations and
  the micro-construction (the ``RatFunc``-coefficient polynomial path that a
  faster F_p kernel leaves alone).  The control for every field, polynomial
  or Hesse kernel change, and the target for coset and analysis changes.
  The two halves share one workload because each alone is a pass of 1-4 s,
  too short for a run to average out the machine's drift in speed.
"""

import hashlib
import random

# Modules only, never ``from zomo.x import f``: the traced run patches the
# functions on their modules, and a name bound here would bypass it.
from zomo import analysis, catalog, curves, field, funcfield, genus, kummer

SAMPLE_SIZE = 20


def digest(outputs):
    """Short stable hash of a check's outputs (reprs of ints, strs, tuples
    and frozen dataclasses; no sets of strings, whose order varies)."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


# -- groups_symbolic: catalog and genus ---------------------------------------

def _catalog_check(entry):
    def run():
        rep = catalog.verify_entry(entry)
        rows = tuple((r.prop, r.expected, r.actual, r.passed, r.source)
                     for r in rep.rows)
        outputs = (rep.id, rep.error, rows)
        if rep.error:
            return rep.error, False, outputs
        bad = [r for r in rep.rows if not r.passed]
        if bad:
            return ("; ".join("%s=%r" % (r.prop, r.actual) for r in bad),
                    False, outputs)
        return "all %d expectations hold" % len(rep.rows), True, outputs
    return run


def _bound_g10():
    res = genus.zomorrodian_bound(genus.BoundQuery(3, 10))
    return str(res.bound), res.bound == 81, res


def _profile_check(h):
    order = 3 ** (h + 2)
    g = 3 ** h + 1
    want = (order // 9, order // 3, order // 3)

    def run():
        profs = [p for p in genus.enumerate_profiles(3, order, g)
                 if p.quotient_genus == 0]
        sizes = sorted(p.orbit_sizes for p in profs)
        return str(sizes), sizes == [want], sizes
    return run


def _rh_genus_81():
    g = genus.rh_genus(genus.RamificationProfile(81, 0, (9, 27, 27)))
    return str(g), g == 10, g


# -- kummer ------------------------------------------------------------------

def _kummer_check(q):
    def run():
        out = kummer.build_kummer(q, kummer.load_golden(q))
        outputs = (out.q, out.h, out.epsilon, out.Q.coords, out.m,
                   out.equation, out.genus, out.matched_golden,
                   out.matched_up_to_cube, out.all_equations)
        if out.matched_golden:
            return "exact match", True, outputs
        if out.matched_up_to_cube and q != 19:
            return "match up to a constant cube", True, outputs
        return ("no match (up to cube: %s)" % out.matched_up_to_cube, False,
                outputs)
    return run


# -- groups_symbolic: function fields -----------------------------------------

def _micro_27():
    out = kummer.small_construction(19)
    got = (out.m, out.equation, funcfield.ffelem_str(out.delta_ratio))
    outputs = got + (out.epsilon, funcfield.ffelem_str(out.alpha_ratio),
                     tuple(tuple(p.coords for p in th) for th in out.theta))
    return str(got), got == (18, "(16)/(y^2)x", "y^3"), outputs


def _invariant_t():
    F = curves.x0_function_field(19)
    t = curves.x0_invariant_t(F)
    same = (t - curves.x0_three_term_t(F)).is_zero()
    inv = curves.verify_invariant_function(t, curves.x0_endos(F))
    vals = [funcfield.valuation_at(t, x0, 0)
            for x0 in curves.x0_branch_x_values(19)]
    ok = same and inv and vals == [-9, -9, -9]
    return ("forms equal %s, invariant %s, vals %s" % (same, inv, vals), ok,
            (funcfield.ffelem_str(t), same, inv, vals))


def _factorization_check(q):
    def run():
        ok = funcfield.lemma_factorization_check(field.PrimeField(q))
        return str(ok), bool(ok), ok
    return run


# -- curves ------------------------------------------------------------------

def _x0_scalings():
    G, S, dom, k = curves.automorphism_group(
        curves.x0_scaling_maps(19), curves.x0_curve(), 19)
    return str(G.order), G.order == 27, (G.order, k, len(S.points), len(dom))


def _x0_with_a2():
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    G, S, dom, k = curves.automorphism_group(maps, curves.x0_curve(), 19)
    Z = analysis.center(G)
    S1 = curves.enumerate_points(curves.x0_curve(), 19, 1)
    perm = curves.act(curves.x0_center_map(19), S1)
    fixed = sorted(S1.nonsingular()[i] for i in curves.fixed_points(perm))
    ok = (G.order == 81 and len(Z.members) == 3
          and fixed == [(8, 0, 1), (12, 0, 1), (18, 0, 1)])
    return ("order %d, |Z| %d, fixed %s" % (G.order, len(Z.members), fixed),
            ok, (G.order, len(Z.members), fixed, k, len(dom)))


def _fermat9():
    G, S, dom, k = curves.automorphism_group(
        curves.fermat9_maps(19), curves.fermat9_curve(), 19)
    return str(G.order), G.order == 243, (G.order, k, len(S.points), len(dom))


def _genus28():
    G, dom, k = curves.genus28_group(19)
    fp = analysis.fingerprint(G)
    ref = analysis.fingerprint(
        catalog.materialize(catalog.entry_by_id("qu24agosto_odd_n2")))
    ok = G.order == 243 and fp == ref
    return ("order %d, fingerprint match %s" % (G.order, fp == ref), ok,
            (G.order, k, len(dom), fp, fp == ref))


def _map_image_sample(seed):
    def run():
        S = curves.enumerate_points(curves.x0_curve(), 19, 2)
        pts = S.nonsingular()
        cu = curves.x0_curve()
        sample = random.Random(seed).sample(pts, min(SAMPLE_SIZE, len(pts)))
        for m in curves.x0_scaling_maps(19):
            for p in sample:
                ip = m.eval_at(S.field, p)
                if cu.eval_at(S.field, ip) != S.field.zero:
                    msg = "image off curve under %s" % m.name
                    return msg, False, (len(pts), msg)
        msg = "%d sampled points stay on the curve" % len(sample)
        return msg, True, (len(pts), msg)
    return run


def build_workloads(entries, seed):
    """{workload: [(check id, fn)]} in the report's order.  ``entries`` is
    the loaded catalog; ``seed`` picks the map-image-sample points."""
    return {
        "kummer": [("kummer-q%d" % q, _kummer_check(q))
                   for q in (19, 73, 271)],
        "curves": [("curve-x0-scalings", _x0_scalings),
                   ("curve-x0-with-a2", _x0_with_a2),
                   ("curve-fermat9", _fermat9),
                   ("curve-genus28", _genus28),
                   ("map-image-sample", _map_image_sample(seed))],
        "groups_symbolic": (
            [("catalog-%s" % e.id, _catalog_check(e)) for e in entries]
            + [("genus-bound-g10", _bound_g10)]
            + [("genus-profile-h%d" % h, _profile_check(h))
               for h in (2, 3, 4)]
            + [("rh-genus-81", _rh_genus_81),
               ("invariant-t", _invariant_t),
               ("kummer-micro-27", _micro_27),
               ("factorization-f19", _factorization_check(19)),
               ("factorization-f23", _factorization_check(23))]),
    }


def reset_caches():
    """Empty the module-level caches, so a pass sees what a fresh ``zomo``
    process sees."""
    kummer._GBAR_CACHE.clear()
    kummer._LIFT_CACHE.clear()
    catalog._group_cache.clear()
