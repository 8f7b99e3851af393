import pytest

from zomo import kummer
from zomo.field import PrimeField
from zomo.funcfield import ffelem_str
from zomo.hesse import (EllipticGroup, cube_roots_of_unity,
                        hesse_function_field, make_point)


def test_build_gbar_structure_q19():
    data = kummer.build_gbar(19)
    assert data.h == 3
    assert data.epsilon == 7
    assert data.group.order == 81
    # translation part: 3-Sylow of E(F_19), here all 27 points
    assert len(data.sylow_points) == 27
    assert len(data.phi_translations) == 3 ** (data.h - 1)


def test_build_gbar_structure_q73():
    data = kummer.build_gbar(73)
    assert data.h == 4
    assert data.group.order == 243
    assert len(data.sylow_points) == 81
    assert len(data.phi_translations) == 27


def test_gbar_rejects_bad_epsilon():
    with pytest.raises(kummer.KummerError):
        kummer.build_gbar(19, epsilon=2)
    with pytest.raises(kummer.KummerError):
        kummer.build_gbar(19, epsilon=1)


def test_theta_partition():
    data = kummer.build_gbar(19)
    th1, th2, th3 = data.theta
    pts = set(th1) | set(th2) | set(th3)
    assert len(th1) == len(th2) == len(th3) == 9
    assert len(pts) == 27
    # theta_1 contains the base point translations (the Frattini part)
    assert set(data.phi_translations) == set(th1)


def test_stabilizer_of_base_is_order_three():
    data = kummer.build_gbar(19)
    stab = kummer.stabilizer_of_base(data)
    assert len(stab) == 3
    # it consists of powers of a single element
    e = next(s for s in stab if s != 0)
    assert data.group.mult(e, data.group.mult(e, e)) == 0


def test_line_slope_degenerate():
    E = EllipticGroup(PrimeField(19))
    # a point with x + z = 0 lies on the tangent X + Z = 0 at the base point
    Q = make_point(PrimeField(19), -1, 0, 1)
    with pytest.raises(kummer.KummerError):
        kummer.line_slope(E, Q)


@pytest.mark.parametrize("q", [19, 73])
def test_every_slope_is_a_constant_multiple_of_the_first(q):
    # w from the full product for every slope through theta_2, both epsilon
    F = PrimeField(q)
    field = hesse_function_field(F)
    for epsilon in sorted(cube_roots_of_unity(F)):
        data = kummer.build_gbar(q, epsilon)
        pullbacks = kummer.phi_pullbacks(field, data.E,
                                         data.phi_translations)
        slopes = list(dict.fromkeys(kummer.line_slope(data.E, Q)
                                    for Q in data.theta[1]))
        assert len(slopes) == 3 ** (data.h - 1)
        ratios = kummer.slope_ratios(F, pullbacks, slopes)
        w0 = kummer.build_w(field, slopes[0], pullbacks)
        assert ratios[slopes[0]] == 1
        for m in slopes:
            assert kummer.build_w(field, m, pullbacks) == w0.scale(ratios[m])


@pytest.mark.parametrize("q", [19, 73])
def test_both_cube_roots_give_the_same_translations(q):
    # alpha for epsilon^2 is alpha^2: build_kummer tries only one root
    first, second = (kummer.build_gbar(q, e)
                     for e in sorted(cube_roots_of_unity(PrimeField(q))))
    assert set(first.phi_translations) == set(second.phi_translations)
    for a, b in zip(first.theta, second.theta):
        assert set(a) == set(b)


def test_slope_ratios_refuse_a_slope_off_theta_2():
    F = PrimeField(19)
    field = hesse_function_field(F)
    data = kummer.build_gbar(19)
    pullbacks = kummer.phi_pullbacks(field, data.E, data.phi_translations)
    on = {kummer.line_slope(data.E, Q) for Q in data.theta[1]}
    off = next(m for m in range(1, 19) if m not in on)
    with pytest.raises(kummer.KummerError):
        kummer.slope_ratios(F, pullbacks, [min(on), off])


def test_w_divisor(kummer19):
    F = PrimeField(19)
    field = hesse_function_field(F)
    data = kummer.build_gbar(19, epsilon=kummer19.epsilon)
    ok, checked = kummer.verify_w_divisor(field, kummer19.w, data.theta)
    assert ok
    assert checked > 0


def test_small_construction_frozen_values():
    sc = kummer.small_construction(19)
    assert sc.epsilon == 7
    assert sc.m == 18
    assert sc.equation == "(16)/(y^2)x"
    assert ffelem_str(sc.delta_ratio) == "y^3"
    # the scaling acts on w by a cube (trivial Kummer twist)
    assert not sc.alpha_ratio.is_zero()


def test_golden_match_q19(kummer19):
    assert kummer19.matched_golden
    assert kummer19.equation == kummer.load_golden(19)
    assert kummer19.genus == 28
    assert kummer19.h == 3


def test_golden_match_q73(kummer73):
    assert kummer73.matched_golden or kummer73.matched_up_to_cube
    assert kummer73.genus == 82
    assert kummer73.h == 4


def test_golden_match_q271(kummer271):
    assert kummer271.matched_golden or kummer271.matched_up_to_cube
    assert kummer271.genus == 244
    assert kummer271.h == 5


def test_load_golden_missing():
    with pytest.raises(kummer.KummerError):
        kummer.load_golden(9999)


def test_build_kummer_enumerates_choices(kummer19):
    assert len(kummer19.all_equations) >= 1
    assert kummer19.equation in kummer19.all_equations
