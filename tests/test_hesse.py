import pytest

from zomo import hesse
from zomo.field import PrimeField, _normalize
from zomo.funcfield import apply_endo
from zomo.genus import split_power

from oracles import map_perm, multiples, scaling_endo, sylow_generators

F19 = PrimeField(19)
F73 = PrimeField(73)


def _add_table(E):
    """The addition table from the two-chord law a + b = O * (a * b), pair
    by pair: independent of the coordinate reversal ``hesse_add`` uses."""
    return [[E.index[hesse.third_point(E.C, E.O, hesse.third_point(E.C, a, b))]
             for b in E.points] for a in E.points]


def _check_group_law(E):
    n = len(E.points)
    tab = _add_table(E)
    iO = E.index[E.O]
    # -p is the third point on the line through p and O
    neg = [E.index[hesse.third_point(E.C, p, E.O)] for p in E.points]
    for i in range(n):
        assert tab[i][iO] == i
        assert tab[i][neg[i]] == iO
        for j in range(n):
            assert tab[i][j] == tab[j][i]
    for i in range(n):
        for j in range(n):
            row = tab[tab[i][j]]
            for k in range(n):
                assert row[k] == tab[i][tab[j][k]]


def test_group_law_f19_exhaustive():
    E = hesse.EllipticGroup(F19)
    assert len(E.points) == 27
    _check_group_law(E)


def test_group_law_f73_exhaustive():
    E = hesse.EllipticGroup(F73)
    assert len(E.points) == 81
    _check_group_law(E)


@pytest.mark.parametrize("q", [19, 73, 271])
def test_points_in_double_scan_order(q):
    F = PrimeField(q)
    scan = [hesse.HessePoint((x, y, 1)) for x in range(q) for y in range(q)
            if (x ** 3 + y ** 3 + 1) % q == 0]
    scan += [hesse.HessePoint((x, 1, 0)) for x in range(q)
             if (x ** 3 + 1) % q == 0]
    assert hesse.enumerate_hesse_points(F) == scan


@pytest.mark.parametrize("F", [F19, F73], ids=["F19", "F73"])
def test_table_matches_chord_tangent_law(F):
    # the sums in coordinates against the two-chord law and hesse_add,
    # pair by pair
    E = hesse.EllipticGroup(F)
    table = _add_table(E)
    assert [[E.index[E.add(a, b)] for b in E.points]
            for a in E.points] == table
    assert [[E.index[hesse.hesse_add(F, a, b)] for b in E.points]
            for a in E.points] == table
    for p in E.points:
        assert _multiples_by_coords(E, p) == multiples(E, p)


def _multiples_by_coords(E, p):
    """[O, p, 2p, ...] up to ``order_of(p)``, each mp read off E's
    coordinates as ``E.at(m i, m j)`` for p's (i, j)."""
    i, j = E.coords[E.index[p]]
    return [E.points[E.at(m * i, m * j)] for m in range(E.order_of(p))]


def _by_repeated_addition(E):
    """The points at which order_of or the coordinate multiples disagree
    with repeated ``hesse_add``, and, when there are none, whether sylow3
    agrees with the orders so found and with the two-pass reference for
    its generators."""
    wrong, orders = [], {}
    for p in E.points:
        mult = multiples(E, p)
        orders[p] = len(mult)
        if _multiples_by_coords(E, p) != mult:
            wrong.append(p)
    if wrong:
        return wrong, False
    n3 = 3 ** split_power(len(E.points), 3)[0]
    pts = [p for p in E.points if n3 % orders[p] == 0]
    return wrong, E.sylow3() == (pts, *sylow_generators(E, pts))


@pytest.mark.parametrize("q, n", [(31, 36), (43, 36), (61, 63), (97, 117)])
def test_coordinates_match_repeated_addition_off_the_3_part(q, n):
    # #E has a part prime to 3: U has order 6, 21 or 39, not a power of 3
    F = PrimeField(q)
    E = hesse.EllipticGroup(F)
    assert len(E.points) == n == E.a * E.c
    assert _by_repeated_addition(E) == ([], True)
    assert [[E.add(a, b) for b in E.points] for a in E.points] == [
        [hesse.hesse_add(F, a, b) for b in E.points] for a in E.points]


@pytest.mark.parametrize("q", [19, 61])
def test_a_wrong_hnf_offset_fails_the_comparison(q):
    E = hesse.EllipticGroup(PrimeField(q))
    assert E.c > 1 and _by_repeated_addition(E) == ([], True)
    E.b = (E.b + 1) % E.a
    assert _by_repeated_addition(E)[0]


def test_no_group_without_a_primitive_cube_root_of_unity():
    with pytest.raises(hesse.HesseError):
        hesse.EllipticGroup(PrimeField(17))


@pytest.mark.parametrize("q, most", [(19, 7), (73, 21), (271, 57)])
def test_the_walk_adds_once_per_orbit(monkeypatch, q, most):
    # <U> to its middle, then one sum per orbit of <zeta, -1>: far fewer
    # chords than the |E| of a single row of an addition table
    calls = []
    add = hesse.hesse_add
    monkeypatch.setattr(hesse, "hesse_add",
                        lambda *args: calls.append(1) or add(*args))
    E = hesse.EllipticGroup(PrimeField(q))
    assert 0 < len(calls) <= most < len(E.points) / 3


@pytest.mark.parametrize("q, g1, g2", [
    (19, (4, 5, 1), (0, 8, 1)),
    (73, (2, 4, 1), (7, 33, 1)),
    (271, (3, 23, 1), (2, 132, 1)),
    (757, (2, 249, 1), (4, 410, 1)),
    (2269, (6, 107, 1), (3, 186, 1)),
])
def test_sylow_generators_pinned(q, g1, g2):
    # the generators the span search over every point pair chose; the
    # one-pass choice must pick the same ones, or Gbar's element order
    # changes
    _, *got = hesse.EllipticGroup(PrimeField(q)).sylow3()
    assert tuple(p.coords for p in got) == (g1, g2)


PRIMES_1_MOD_3 = [q for q in range(7, 600, 3)
                  if all(q % r for r in range(2, int(q ** 0.5) + 1))]


@pytest.mark.parametrize("q", PRIMES_1_MOD_3)
def test_sylow3_generators_match_the_two_pass_reference(q):
    # q = 1 mod 3 puts the nine flexes E[3] = (Z/3)^2 in A, so A is never
    # cyclic and g2 has order at least 3
    E = hesse.EllipticGroup(PrimeField(q))
    pts, g1, g2 = E.sylow3()
    assert (g1, g2) == sylow_generators(E, pts)
    assert E.order_of(g2) >= 3


def test_point_validation():
    with pytest.raises(hesse.HesseError):
        hesse.make_point(F19, 1, 1, 1)
    p = hesse.make_point(F19, -1, 0, 1)
    assert hesse.on_curve(F19, p)


def test_inflection_points():
    # the nine points where the tangent meets triply
    E = hesse.EllipticGroup(F19)
    infl = [p for p in E.points
            if hesse.third_point(F19, p, p) == p]
    assert len(infl) == 9
    assert E.O in infl
    # they form the 3-torsion: 3p = O
    for p in infl:
        assert E.add(p, E.add(p, p)) == E.O


def _generator_orders(E):
    _, g1, g2 = E.sylow3()
    return E.order_of(g1), E.order_of(g2)


def test_sylow_structure():
    assert _generator_orders(hesse.EllipticGroup(F19)) == (9, 3)
    assert _generator_orders(hesse.EllipticGroup(F73)) == (9, 9)


def test_sylow_structure_f271():
    E = hesse.EllipticGroup(PrimeField(271))
    assert _generator_orders(E) == (27, 9)
    assert len(E.sylow3()[0]) == 243


def test_translations_sharply_transitive():
    E = hesse.EllipticGroup(F19)
    # for every pair (p, q) exactly one translation sends p to q
    for p in E.points[:5]:
        for q in E.points:
            t = E.add(q, hesse.third_point(F19, p, E.O))  # q - p
            assert E.add(t, p) == q
    # distinct translations give distinct permutations
    perms = {tuple(E.translation_perm(t)) for t in E.points}
    assert len(perms) == 27


def test_cube_roots_and_scaling():
    roots = hesse.cube_roots_of_unity(F19)
    assert sorted(roots) == [7, 11]
    E = hesse.EllipticGroup(F19)
    perm = map_perm(E, hesse.scaling_point_map(F19, 7))
    fixed = [E.points[i] for i, j in enumerate(perm) if i == j]
    # the scaling fixes exactly the points with y = 0
    assert sorted(p.coords for p in fixed) == [(8, 0, 1), (12, 0, 1),
                                               (18, 0, 1)]


def test_translation_endo_matches_point_addition():
    # the closed-form translation against the table's point addition, for
    # every T (O and the points at infinity included) at every affine point
    for F in (F19, F73):
        E = hesse.EllipticGroup(F)
        field = hesse.hesse_function_field(F)
        for T in E.points:
            endo = hesse.translation_endo(field, T)
            checked = 0
            for p in E.points:
                s = E.add(T, p)
                if p.coords[2] == 0 or s.coords[2] == 0:
                    continue
                x, y = p.coords[0], p.coords[1]
                # u_image is the new y, v_image the new x
                got_y = _eval_ffelem(F, endo.u_image, x, y)
                got_x = _eval_ffelem(F, endo.v_image, x, y)
                if got_y is None or got_x is None:
                    continue
                assert (got_x, got_y) == (s.coords[0], s.coords[1])
                checked += 1
            assert checked > 0


@pytest.mark.parametrize("F", [F19, F73], ids=["F19", "F73"])
def test_translation_chord_is_the_third_point(F):
    # (r0 : r1 : r2) at an affine p is t * p for every p != t; at p = t the
    # chord through t and p degenerates and all three vanish
    E = hesse.EllipticGroup(F)
    field = hesse.hesse_function_field(F)
    for T in E.points:
        chord = hesse.translation_chord(field, T)
        for p in E.points:
            if p.coords[2] != F.one:
                continue
            x, y = p.coords[0], p.coords[1]
            r = tuple(_eval_ffelem(F, f, x, y) for f in chord)
            if p == T:
                assert r == (F.zero,) * 3
            else:
                assert _normalize(F, r) == hesse.third_point(F, T, p).coords


def _eval_ffelem(C, f, x_val, y_val):
    """Evaluate sum nums[i] x^i / den at an affine point; None when the
    denominator vanishes there."""
    den = _eval_poly(C, f.den, y_val)
    if den == C.zero:
        return None
    acc = C.zero
    for num in reversed(f.nums):
        acc = C.add(C.mul(acc, x_val), _eval_poly(C, num, y_val))
    return C.mul(acc, C.inv(den))


def _eval_poly(C, poly, v):
    acc = C.zero
    for c in reversed(poly):
        acc = C.add(C.mul(acc, v), c)
    return acc


def test_scaling_endo_consistency():
    field = hesse.hesse_function_field(F19)
    endo = scaling_endo(field, 7)
    y = field.u()
    img = apply_endo(endo, y)
    assert img == field.from_int(7) * y == y.scale_u(7)
