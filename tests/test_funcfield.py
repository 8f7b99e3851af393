import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomo import polys
from zomo.field import PrimeField
from zomo.funcfield import (Endo, FuncFieldError, FunctionField,
                            _expand_point, _series_inv, apply_endo,
                            ffelem_str, lemma_factorization_check, poly_str,
                            valuation_at)

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

X0_F19 = FunctionField(F19, {(9, 0): 1, (0, 6): 1, (0, 3): 1},
                       u_name="x", v_name="y")
ELEMENT_FIELDS = [pytest.param(X0_F19, id="x0-F19"),
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
    if not b.is_zero():
        assert (a * b) / b == a


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


def test_factorization_identity():
    assert lemma_factorization_check(PrimeField(19))
    assert lemma_factorization_check(PrimeField(23))
    assert lemma_factorization_check(PrimeField(5))
