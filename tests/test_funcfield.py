import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zomo import curves, hesse, polys
from zomo.field import PrimeField, roots_of_unity
from zomo.funcfield import (Endo, FuncFieldError, FunctionField,
                            _eval_poly_at, _expand_point, _mul_nums,
                            _series_inv, _substitute, apply_endo,
                            ffelem_str, lemma_factorization_check, poly_str,
                            scaled_str, valuation_at)

from oracles import (eval_poly_by_ffelem, inverse_by_elimination,
                     mul_nums_by_pairs, scaling_endo, substitute_by_ffelem)

F19 = PrimeField(19)


def hesse_field(q=19):
    return FunctionField(PrimeField(q), {(3, 0): 1, (0, 3): 1, (0, 0): 1},
                         u_name="y", v_name="x")


def test_defining_relation_holds():
    f = hesse_field()
    x, y = f.v(), f.u()
    assert (x ** 3 + y ** 3 + f.one).is_zero()


def test_inverse_roundtrip():
    f = hesse_field()
    x, y = f.v(), f.u()
    g = x * y + f.from_int(5)
    assert (g * g.inverse() - f.one).is_zero()
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


small = st.integers(0, 18)


@given(st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_ffelem_ring_axioms(ac, bc):
    f = hesse_field()
    a = f.elem(tuple((c,) for c in ac))
    b = f.elem(tuple((c,) for c in bc))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    y = f.u()
    assert (a + b) * y == a * y + b * y


# -- numerators over one denominator ---------------------------------------

def x0_field(q=19):
    return FunctionField(PrimeField(q), {(9, 0): 1, (0, 6): 1, (0, 3): 1},
                         u_name="x", v_name="y")


ELEMENT_FIELDS = [pytest.param(x0_field(), id="x0-F19"),
                  pytest.param(hesse_field(), id="hesse-F19"),
                  pytest.param(hesse_field(271), id="hesse-F271")]


def _polys(field, min_size=0):
    return st.lists(st.integers(0, field.constants.q - 1),
                    min_size=min_size, max_size=4)


def _raw(draw, field):
    """(nums, den) with n numerators and a nonzero denominator."""
    nums = draw(st.lists(_polys(field), min_size=field.degree,
                         max_size=field.degree))
    den = draw(_polys(field, 1).filter(any))
    return nums, den


@pytest.mark.parametrize("field", ELEMENT_FIELDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_inverse_and_division(field, data):
    a = field.elem(*_raw(data.draw, field))
    b = field.elem(*_raw(data.draw, field))
    if not a.is_zero():
        assert a * a.inverse() == field.one
        assert a.inverse() == inverse_by_elimination(a)
    if not b.is_zero():
        assert (a * b) / b == a


@pytest.mark.parametrize("field", ELEMENT_FIELDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_division_is_multiplication_by_the_inverse(field, data):
    a = field.elem(*_raw(data.draw, field))
    b = field.elem(*_raw(data.draw, field))
    assume(not b.is_zero())
    assert a / b == a * b.inverse()
    with pytest.raises(ZeroDivisionError):
        a / field.zero


# -- the numerator product on both sides of the Kronecker switch -----------
# Short rows on v-row 0 alone lay out below ``polys.KRONECKER_MIN``
# coefficients, so ``pmul`` takes the schoolbook product; long rows take
# Kronecker's.

KERNEL_FIELDS = [pytest.param(hesse_field(271), id="hesse-F271"),
                 pytest.param(x0_field(), id="x0-F19")]
K = polys.KRONECKER_MIN
LENGTHS = {"short": (1, K - 1), "long": (K, 3 * K)}


def _numerators(draw, field, lengths, rows):
    """n numerators, nonzero on the v-rows ``rows`` only, with lengths in
    the range ``lengths``."""
    q = field.constants.q
    nums = [()] * field.degree
    for i in rows:
        size = draw(st.integers(*lengths))
        nums[i] = tuple(draw(st.lists(st.integers(0, q - 1),
                                      min_size=size - 1, max_size=size - 1))
                        + [draw(st.integers(1, q - 1))])
    return nums


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("sides", [("short", "short"), ("long", "long"),
                                   ("short", "long")])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mul_nums_matches_the_pairwise_product(field, sides, data):
    rows = st.sets(st.integers(0, field.degree - 1), min_size=1)
    xs, ys = (_numerators(data.draw, field, LENGTHS[side], data.draw(rows))
              for side in sides)
    assert _mul_nums(field, xs, ys) == mul_nums_by_pairs(field, xs, ys)
    assert _mul_nums(field, ys, xs) == mul_nums_by_pairs(field, xs, ys)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("side", ["short", "long"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mul_nums_with_a_single_nonzero_row(field, side, data):
    row = st.integers(0, field.degree - 1)
    xs = _numerators(data.draw, field, LENGTHS[side], [data.draw(row)])
    for rows in ([data.draw(row)], range(field.degree)):
        ys = _numerators(data.draw, field, LENGTHS[side], rows)
        assert _mul_nums(field, xs, ys) == mul_nums_by_pairs(field, xs, ys)
    assert _mul_nums(field, xs, [()] * field.degree) == [()] * field.degree


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("lx,ly", [(K - 1, 200), (K, K), (100, 100),
                                   (64, 200), (200, 200)])
def test_mul_nums_with_every_coefficient_p_minus_1(field, lx, ly):
    # every row full of p - 1: the laid-out product reaches the largest
    # coefficient sums that ``pmul``'s slot width has to hold
    top = field.constants.q - 1
    xs = [(top,) * lx] * field.degree
    ys = [(top,) * ly] * field.degree
    assert _mul_nums(field, xs, ys) == mul_nums_by_pairs(field, xs, ys)


# -- Horner on numerator vectors against Horner in FFElem steps -------------

def test_horner_at_the_x0_endos():
    field = curves.x0_function_field(19)
    t = curves.x0_invariant_t(field)
    f = field.v() ** 2 + field.u() * field.v() + field.one
    for e in curves.x0_endos(field):
        for poly in (t.nums[0], t.den, field.m0):
            assert (_eval_poly_at(field, poly, e.u_image)
                    == eval_poly_by_ffelem(field, poly, e.u_image))
        for g in (t, f):
            assert _substitute(e, g) == substitute_by_ffelem(e, g)


def test_horner_at_the_hesse_translations():
    field = hesse_field()
    s = field.u() / (field.v() + field.one)
    poly = (3, 0, 5, 1, 0, 0, 18, 2)
    for T in hesse.EllipticGroup(F19).points:
        e = hesse.translation_endo(field, T)
        for x in (e.u_image, e.v_image):
            for p in (field.m0, poly):
                assert (_eval_poly_at(field, p, x)
                        == eval_poly_by_ffelem(field, p, x))
        assert _substitute(e, s) == substitute_by_ffelem(e, s)


@pytest.mark.parametrize("field", ELEMENT_FIELDS[:2])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_horner_matches_ffelem_steps(field, data):
    q = field.constants.q
    nums = data.draw(st.lists(_polys(field), min_size=field.degree,
                              max_size=field.degree))
    den = data.draw(_polys(field, 1)) + [data.draw(st.integers(1, q - 1))]
    x = field.elem(nums, den)
    assume(len(x.den) > 1)
    poly = polys.ptrim(field.constants,
                       data.draw(st.lists(st.integers(0, q - 1),
                                          min_size=1, max_size=13)))
    assert (_eval_poly_at(field, poly, x)
            == eval_poly_by_ffelem(field, poly, x))
    assert _eval_poly_at(field, (), x) == field.zero


def test_kummer_field_data():
    field = x0_field()
    assert (field.degree, field.m0, field.zeta) == (9, (0, 0, 0, 1, 0, 0, 1),
                                                    4)
    assert pow(field.zeta, 9, 19) == 1 and pow(field.zeta, 3, 19) != 1
    assert hesse_field().m0 == (1, 0, 0, 1)


def test_zero_divisor_of_a_reducible_kummer_field():
    # v^3 - u^3 = (v - u)(v - 7u)(v - 49u) over F_19
    field = FunctionField(F19, {(3, 0): 1, (0, 3): -1})
    a = field.v() - field.u()
    with pytest.raises(FuncFieldError, match="zero divisor"):
        a.inverse()
    with pytest.raises(FuncFieldError, match="zero divisor"):
        inverse_by_elimination(a)


@pytest.mark.parametrize("q,equation,message", [
    (19, {(3, 0): 1, (1, 1): 1, (0, 0): 1}, r"must be y\^n \+ m0"),
    (19, {(3, 0): 2, (0, 3): 1, (0, 0): 1}, r"must be y\^n \+ m0"),
    (19, {(0, 3): 1, (0, 0): 1}, r"must be y\^n \+ m0"),
    (19, {(3, 0): 19}, r"must be y\^n \+ m0"),
    (23, {(3, 0): 1, (0, 3): 1, (0, 0): 1}, "F_23 has no primitive 3-th"),
    (23, {(9, 0): 1, (0, 6): 1, (0, 3): 1}, "F_23 has no primitive 9-th"),
], ids=["mixed-term", "not-monic", "no-v", "zero", "hesse-F23", "x0-F23"])
def test_only_kummer_fields_are_accepted(q, equation, message):
    with pytest.raises(FuncFieldError, match=message):
        FunctionField(PrimeField(q), equation)


@pytest.mark.parametrize("field", ELEMENT_FIELDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_canonical_form(field, data):
    F = field.constants
    nums, den = _raw(data.draw, field)
    g = data.draw(_polys(field, 1).filter(any))
    c = data.draw(st.integers(1, F.q - 1))
    a = field.elem(nums, den)
    # the same function with the factor c * g on top and below
    scaled = field.elem([polys.pscale(F, polys.pmul(F, g, n), c)
                         for n in nums],
                        polys.pscale(F, polys.pmul(F, g, den), c))
    assert scaled == a
    assert a.den[-1] == 1
    common = a.den
    for n in a.nums:
        common = polys.pgcd(F, common, n)
    assert common == (1,)
    assert a.is_zero() == (a.den == (1,) and not any(a.nums)) == (
        not any(polys.ptrim(F, [x % F.q for x in n]) for n in nums))


@pytest.mark.parametrize("q", [19, 73])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_scale_u_is_the_scaling_endo(q, data):
    # y -> c y for a cube root of unity c is a map of the Hesse field; for
    # any nonzero c, scaling by c and then by 1/c gives the element back
    field = hesse_field(q)
    F = field.constants
    a = field.elem(*_raw(data.draw, field))
    c = data.draw(st.sampled_from(sorted(roots_of_unity(F, 3))))
    got = a.scale_u(c)
    assert got == apply_endo(scaling_endo(field, c), a)
    assert got.den[-1] == 1
    c = data.draw(st.integers(1, q - 1))
    got = a.scale_u(c)
    assert got.den[-1] == 1
    assert got.scale_u(F.inv(c)) == a
    # v -> c v for an n-th root of unity c is a map of the Hesse and the
    # X0 field; the result stays canonical
    for field in (field, x0_field(q)):
        a = field.elem(*_raw(data.draw, field))
        roots = sorted(roots_of_unity(F, field.degree))
        assert field.zeta in roots and len(roots) == field.degree
        c = data.draw(st.sampled_from(roots))
        got = a.scale_v(c)
        assert got == apply_endo(Endo(field, field.u(),
                                      field.v().scale(c)), a)
        assert got == field.elem(got.nums, got.den)


coeffs = st.lists(st.integers(0, 18), min_size=0, max_size=5)


@given(coeffs, coeffs, coeffs, coeffs)
@settings(max_examples=60, deadline=None)
def test_ratfunc_field_ops(an, ad, bn, bd):
    f = hesse_field()
    if not any(ad) or not any(bd):
        return
    a = f.scalar(tuple(an), tuple(ad))
    b = f.scalar(tuple(bn), tuple(bd))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a * b) * b.inverse() == a


def test_ratfunc_normalization():
    f = hesse_field()
    # same function, different representations
    a = f.scalar((2, 4), (6,))
    b = f.scalar((1, 2), (3,))
    assert a == b
    assert a.den[-1] == 1  # monic denominator


def test_pole_orders_on_the_cubic():
    f = hesse_field()
    x, y = f.v(), f.u()
    # at the affine point (x, y) = (-1, 0): y is a local parameter
    assert valuation_at(y, 0, 18) == 1
    assert valuation_at(x + f.one, 0, 18) == 3
    assert valuation_at(f.one / y, 0, 18) == -1
    # at (x, y) = (0, -1) dm/dx vanishes: x is the local parameter
    assert valuation_at(x, 18, 0) == 1
    assert valuation_at(y + f.one, 18, 0) == 3
    assert valuation_at(f.one / x, 18, 0) == -1


def test_valuation_additivity():
    f = hesse_field()
    x, y = f.v(), f.u()
    fns = [y, x + f.one, y * y, (x + f.one) / y, y + x, x, y + f.one]
    pts = [(0, 18), (4, 5), (18, 0)]  # (u, v) = (y, x) values on the curve
    for u0, v0 in pts:
        for a in fns:
            for b in fns:
                va = valuation_at(a, u0, v0)
                vb = valuation_at(b, u0, v0)
                assert valuation_at(a * b, u0, v0) == va + vb


# -- series mod s^prec, checked by plain list convolution ------------------

def _convolve(a, b, prec, p):
    """a * b mod (p, s^prec) for coefficient lists of any length."""
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        for j, y in enumerate(b[:prec - i], i):
            out[j] = (out[j] + x * y) % p
    return out


def _m_at(equation, U, V, prec, p):
    """sum c V^i U^j mod s^prec over the {(i, j): c} equation."""
    total = [0] * prec
    for (i, j), c in equation.items():
        term = [c % p]
        for factor in [V] * i + [U] * j:
            term = _convolve(term, factor, prec, p)
        total = [(t + x) % p for t, x in zip(total, term + [0] * prec)]
    return total


HESSE_EQ = {(3, 0): 1, (0, 3): 1, (0, 0): 1}
X0_EQ = {(9, 0): 1, (0, 6): 1, (0, 3): 1}
BRANCH_POINTS = (
    [pytest.param(HESSE_EQ, u, v, id="hesse-%d,%d" % (u, v))
     for u in range(19) for v in range(19) if (u ** 3 + v ** 3 + 1) % 19 == 0]
    + [pytest.param(X0_EQ, x, 0, id="x0-%d,0" % x)
       for x in range(19) if (x ** 3 + 1) % 19 == 0])


@pytest.mark.parametrize("prec", [64, 128])
@pytest.mark.parametrize("equation,u0,v0", BRANCH_POINTS)
def test_expanded_branch_lies_on_the_curve(equation, u0, v0, prec):
    field = FunctionField(F19, equation)
    U, V = (list(c) for c in _expand_point(field, u0, v0, prec))
    assert all(0 <= c < 19 for c in U + V)
    assert len(U) <= prec and len(V) <= prec
    assert (U + [0])[0] == u0 and (V + [0])[0] == v0
    # one coordinate is the point's coordinate plus the local parameter s
    assert U == [u0, 1] or V == [v0, 1]
    assert _m_at(equation, U, V, prec, 19) == [0] * prec


@given(st.sampled_from([5, 19, 271]), st.integers(1, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_series_inverse_roundtrip(p, prec, data):
    a = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=prec))
    a[0] = a[0] or 1
    b = _series_inv(PrimeField(p), polys.ptrim(PrimeField(p), a), prec)
    assert len(b) <= prec
    assert _convolve(a, list(b), prec, p) == [1] + [0] * (prec - 1)


def test_series_inverse_needs_a_unit():
    with pytest.raises(FuncFieldError):
        _series_inv(F19, (0, 1), 8)


def test_endo_validates_relation():
    f = hesse_field()
    x, y = f.v(), f.u()
    Endo(f, u_image=f.from_int(7) * y, v_image=x)  # ok: scaling
    with pytest.raises(FuncFieldError):
        Endo(f, u_image=y + f.one, v_image=x)


def _relation_by_ffelem(field, u_image, v_image):
    """v_image^n + m0(u_image) = 0, in FFElem arithmetic step by step."""
    return (v_image ** field.degree
            + eval_poly_by_ffelem(field, field.m0, u_image)).is_zero()


@pytest.mark.parametrize("source", ["x0", "hesse"])
def test_endo_accepts_exactly_the_images_on_the_curve(source):
    # Endo tests the relation on numerators over d^n; FFElem powers are the
    # reference: the images of the 81 X0 endos and of the Hesse
    # translations are accepted, and each v_image scaled by 2 (not an n-th
    # root of unity mod 19) or shifted by 1 is rejected
    if source == "x0":
        field = curves.x0_function_field(19)
        endos = curves.x0_endos(field)
        assert len(endos) == 81
        pairs = repr([(ffelem_str(e.u_image), ffelem_str(e.v_image))
                      for e in endos]).encode()
        assert hashlib.sha256(pairs).hexdigest()[:16] == "c1a3db836573b37b"
    else:
        field = hesse_field()
        endos = [hesse.translation_endo(field, T)
                 for T in hesse.EllipticGroup(F19).points]
    for e in endos:
        assert _relation_by_ffelem(field, e.u_image, e.v_image)
        assert Endo(field, e.u_image, e.v_image) == e
        for v in (e.v_image.scale(2), e.v_image + field.one):
            assert not _relation_by_ffelem(field, e.u_image, v)
            with pytest.raises(FuncFieldError, match="field relation"):
                Endo(field, e.u_image, v)


def test_endo_composition():
    f = hesse_field()
    x, y = f.v(), f.u()
    e7 = Endo(f, u_image=f.from_int(7) * y, v_image=x)
    e11 = Endo(f, u_image=f.from_int(11) * y, v_image=x)
    comp = e7.compose(e11)
    g = y ** 2 + x
    assert apply_endo(comp, g) == apply_endo(e7, apply_endo(e11, g))
    # 7 * 11 = 77 = 1 mod 19: composition is the identity
    assert apply_endo(comp, y) == y


def test_serialization():
    f = hesse_field()
    x, y = f.v(), f.u()
    assert ffelem_str(y ** 3 + f.one) == "y^3 + 1"
    assert ffelem_str(x) == "x"
    assert ffelem_str(f.one / y) == "(1)/(y)"
    assert poly_str((1, 0, 3), "t") == "3t^2 + 1"


def test_serialization_branches():
    # one element per branch of ffelem_str: zero, a bare generator, a
    # one-term coefficient, a parenthesized sum, a constant-term fraction
    # and a fraction before the generator
    f = hesse_field()
    cases = [(f.zero, "0"),
             (f.v(), "x"),
             (f.elem(((), (0, 3))), "3yx"),
             (f.elem(((), (1, 0, 1))), "(y^2 + 1)x"),
             (f.elem(((1,),), (0, 1)), "(1)/(y)"),
             (f.elem(((), (16,)), (0, 0, 1)), "(16)/(y^2)x")]
    assert [ffelem_str(e) for e, _ in cases] == [s for _, s in cases]


def test_scaled_str_is_the_string_of_each_multiple():
    # coefficients with a common factor with den, a reduced fraction, a
    # polynomial coefficient and a constant: every branch under every c
    f = hesse_field()
    x, y = f.v(), f.u()
    e = ((y + f.one) / (y * y - f.one) * x * x + (y ** 2 + f.from_int(3)) * x
         + f.from_int(7) / y)
    show = scaled_str(e)
    assert [show(c) for c in range(1, 19)] == [ffelem_str(e.scale(c))
                                               for c in range(1, 19)]
    assert scaled_str(f.zero)(5) == "0"


def test_factorization_identity():
    assert lemma_factorization_check(PrimeField(19))
    assert lemma_factorization_check(PrimeField(23))
    assert lemma_factorization_check(PrimeField(5))
