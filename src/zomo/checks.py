"""The claims that ``zomo report`` checks, as one table.

A row is ``(id, citation, expected, fn)``: ``fn()`` recomputes the claim and
returns ``(actual, ok)``.  ``CLAIMS`` holds the fixed rows; ``claims(seed)``
adds one row per catalog entry and the ``map-image-sample`` row, whose
sampled points the seed picks.
"""

import random
from functools import partial

from . import analysis, catalog, curves, kummer
from .field import PrimeField
from .funcfield import ffelem_str, lemma_factorization_check, valuation_at
from .genus import (BoundQuery, RamificationProfile, enumerate_profiles,
                    rh_genus, zomorrodian_bound)

SAMPLE_SIZE = 20


def _equals(want, compute):
    """Row fn that passes when ``compute()`` returns ``want``."""
    def fn():
        got = compute()
        return got, got == want
    return fn


def _catalog_entry(entry):
    rep = catalog.verify_entry(entry)
    if rep.error:
        return rep.error, False
    bad = [r for r in rep.rows if not r.passed]
    if bad:
        return "; ".join("%s=%r" % (r.prop, r.actual) for r in bad), False
    return "all %d expectations hold" % len(rep.rows), True


def _extremal_orbits(h):
    """Orbit sizes of the one genus-0 quotient profile of a group of order
    3^(h+2) on a curve of genus 3^h + 1."""
    order = 3 ** (h + 2)
    return order // 9, order // 3, order // 3


def _profiles(h):
    return sorted(p.orbit_sizes
                  for p in enumerate_profiles(3, 3 ** (h + 2), 3 ** h + 1)
                  if p.quotient_genus == 0)


def _kummer(q):
    out = kummer.build_kummer(q, kummer.load_golden(q))
    if out.matched_golden:
        return "exact match", True
    if out.passed:
        return "match up to a constant cube", True
    return "no match (up to cube: %s)" % out.matched_up_to_cube, False


def _micro_27():
    out = kummer.small_construction(19)
    return out.m, out.equation, ffelem_str(out.delta_ratio)


def _group_order(maps, curve):
    return curves.automorphism_group(maps, curve, 19)[0].order


def _x0_with_a2():
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    G, _, _, _ = curves.automorphism_group(maps, curves.x0_curve(), 19)
    Z = analysis.center(G)
    S1 = curves.enumerate_points(curves.x0_curve(), 19, 1)
    perm = curves.act(curves.x0_center_map(19), S1)
    fixed = sorted(S1.nonsingular()[i] for i in curves.fixed_points(perm))
    ok = (G.order == 81 and len(Z.members) == 3
          and fixed == [(8, 0, 1), (12, 0, 1), (18, 0, 1)])
    return ("order %d, |Z| %d, fixed %s" % (G.order, len(Z.members), fixed),
            ok)


def _genus28():
    G, _, _ = curves.genus28_group(19)
    fp = analysis.fingerprint(G)
    ref = analysis.fingerprint(
        catalog.materialize(catalog.entry_by_id("qu24agosto_odd_n2")))
    ok = G.order == 243 and fp == ref
    return "order %d, fingerprint match %s" % (G.order, fp == ref), ok


def _invariant_t():
    F = curves.x0_function_field(19)
    t = curves.x0_invariant_t(F)
    same = (t - curves.x0_three_term_t(F)).is_zero()
    inv = curves.verify_invariant_function(t, curves.x0_endos(F))
    vals = [valuation_at(t, x0, 0) for x0 in curves.x0_branch_x_values(19)]
    ok = same and inv and vals == [-9, -9, -9]
    return "forms equal %s, invariant %s, vals %s" % (same, inv, vals), ok


def _map_image_sample(seed):
    cu = curves.x0_curve()
    S = curves.enumerate_points(cu, 19, 2)
    pts = S.nonsingular()
    sample = random.Random(seed).sample(pts, min(SAMPLE_SIZE, len(pts)))
    for m in curves.x0_scaling_maps(19):
        for ip in m.images(S.field, sample):
            if cu.eval_at(S.field, ip) != S.field.zero:
                return "image off curve under %s" % m.name, False
    return "%d sampled points stay on the curve" % len(sample), True


CLAIMS = (
    [("genus-bound-g10", "builtin:bound", "81",
      _equals(81, lambda: zomorrodian_bound(BoundQuery(3, 10)).bound))]
    + [("genus-profile-h%d" % h, "builtin:profiles",
        str([_extremal_orbits(h)]),
        _equals([_extremal_orbits(h)], partial(_profiles, h)))
       for h in (2, 3, 4)]
    + [("rh-genus-81", "builtin:genus-formula", "10",
        _equals(10, lambda: rh_genus(RamificationProfile(81, 0,
                                                         (9, 27, 27)))))]
    + [("kummer-q%d" % q, "golden:kummer_q%d.txt" % q,
        "reference equation reproduced", partial(_kummer, q))
       for q in (19, 73, 271)]
    + [("kummer-micro-27", "frozen:small-construction",
        "(18, '(16)/(y^2)x', 'y^3')",
        _equals((18, "(16)/(y^2)x", "y^3"), _micro_27)),
       ("curve-x0-scalings", "curve:x0", "order 27",
        _equals(27, lambda: _group_order(curves.x0_scaling_maps(19),
                                         curves.x0_curve()))),
       ("curve-x0-with-a2", "curve:x0",
        "order 81, center order 3, 3 fixed points", _x0_with_a2),
       ("curve-fermat9", "curve:fermat9", "order 243",
        _equals(243, lambda: _group_order(curves.fermat9_maps(19),
                                          curves.fermat9_curve()))),
       ("curve-genus28", "curve:genus28", "order 243, catalog fingerprint",
        _genus28),
       ("invariant-t", "curve:x0",
        "equal forms, fixed by all 81, valuation -9", _invariant_t)]
    + [("factorization-f%d" % q, "builtin:factorization", "True",
        _equals(True, partial(lemma_factorization_check, PrimeField(q))))
       for q in (19, 23)]
)


def claims(seed=0):
    """Every row of the report: the catalog entries, ``CLAIMS``, and the
    map-image sample drawn with ``seed``."""
    return ([("catalog-%s" % e.id, "catalog:%s" % e.id,
              "all expectations hold", partial(_catalog_entry, e))
             for e in catalog.load_catalog()]
            + CLAIMS
            + [("map-image-sample", "curve:x0",
                "sampled images satisfy the curve equation",
                partial(_map_image_sample, seed))])
