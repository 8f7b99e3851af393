import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomo import polys
from zomo.field import ExtField, FieldError, PrimeField

F7 = PrimeField(7)
F19 = PrimeField(19)
F49 = ExtField(F7, 2)


def _check_field_axioms(C, elements):
    elements = list(elements)
    for a, b in itertools.product(elements, repeat=2):
        assert C.add(a, b) == C.add(b, a)
        assert C.mul(a, b) == C.mul(b, a)
    for a, b, c in itertools.product(elements, repeat=3):
        assert C.add(C.add(a, b), c) == C.add(a, C.add(b, c))
        assert C.mul(C.mul(a, b), c) == C.mul(a, C.mul(b, c))
        assert C.mul(a, C.add(b, c)) == C.add(C.mul(a, b), C.mul(a, c))
    for a in elements:
        assert C.add(a, C.zero) == a
        assert C.mul(a, C.one) == a
        assert C.add(a, C.neg(a)) == C.zero
        if a != C.zero:
            assert C.mul(a, C.inv(a)) == C.one


def test_prime_field_axioms_exhaustive():
    _check_field_axioms(F7, F7.elements())


def test_ext_field_axioms_exhaustive():
    _check_field_axioms(F49, F49.elements())


def test_prime_field_rejects_composites():
    for n in (1, 4, 6, 9, 15):
        with pytest.raises(FieldError):
            PrimeField(n)


def test_ext_field_order_and_embedding():
    assert F49.order == 49
    assert F49.from_int(7) == F49.zero


def test_ext_field_modulus_is_irreducible():
    # the modulus has no roots in the base field
    mod = F49.modulus
    for a in F7.elements():
        acc = F7.zero
        for c in reversed(mod):
            acc = F7.add(F7.mul(acc, a), c)
        assert acc != F7.zero


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F49.inv(F49.zero)


# -- the log/antilog tables against polynomial arithmetic ------------------

F361 = ExtField(F19, 2)
F6859 = ExtField(F19, 3)


def _poly_mul(K, a, b):
    F = K.base
    prod = polys.pmod(F, polys.pmul(F, polys.ptrim(F, a), polys.ptrim(F, b)),
                      K.modulus)
    return prod + (0,) * (K.k - len(prod))


def test_ext_field_moduli_and_element_order():
    assert F361.modulus == (1, 0, 1)
    assert F6859.modulus == (2, 0, 0, 1)
    assert list(F361.elements())[:5] == [(0, 0), (0, 1), (0, 2), (0, 3),
                                         (0, 4)]
    assert list(F6859.elements())[:5] == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                                          (0, 0, 3), (0, 0, 4)]


def test_ext_field_tables_are_built_on_first_use():
    K = ExtField(PrimeField(271), 3)
    assert K.exp is None and K.log is None
    K2 = ExtField(F7, 2)
    assert K2.mul(K2.one, K2.one) == K2.one
    assert len(K2.exp) == 48


@pytest.mark.parametrize("K", [F49, F361, F6859], ids=repr)
def test_ext_field_exp_lists_each_nonzero_element_once(K):
    exp, log = K.tables()
    assert exp[0] == K.one
    assert sorted(exp) == [e for e in K.elements() if e != K.zero]
    assert all(log[e] == i for i, e in enumerate(exp))
    assert log[K.zero] is None


@pytest.mark.parametrize("K", [F49, F361], ids=repr)
def test_ext_field_tables_match_polynomial_arithmetic(K):
    elements = list(K.elements())
    for a in elements:
        for b in elements:
            assert K.mul(a, b) == _poly_mul(K, a, b)
        if a != K.zero:
            assert K.mul(a, K.inv(a)) == K.one


_fq3 = st.tuples(*[st.integers(0, 18)] * 3)


@given(_fq3, _fq3)
@settings(max_examples=300, deadline=None)
def test_fq3_tables_match_polynomial_arithmetic(a, b):
    assert F6859.mul(a, b) == _poly_mul(F6859, a, b)
    if a != F6859.zero:
        assert F6859.mul(a, F6859.inv(a)) == F6859.one


@pytest.mark.parametrize("bad", [(19, 0, 0), (1, 0), (1, 0, 0, 0), (-1, 0, 0),
                                 [1, 0, 0], 5])
def test_ext_field_rejects_non_elements(bad):
    with pytest.raises(FieldError, match=re.escape(repr(bad))):
        F6859.mul(F6859.one, bad)
    with pytest.raises(FieldError, match=re.escape(repr(bad))):
        F6859.mul(bad, F6859.zero)
    with pytest.raises(FieldError, match=re.escape(repr(bad))):
        F6859.inv(bad)
    with pytest.raises(ZeroDivisionError):
        F6859.inv(F6859.zero)


coeffs = st.lists(st.integers(0, 18), min_size=0, max_size=5)


@given(coeffs, coeffs)
@settings(max_examples=80, deadline=None)
def test_poly_divmod_roundtrip(a, b):
    a = tuple(a)
    b = polys.ptrim(F19, tuple(b))
    if not b:
        return
    quot, rem = polys.pdivmod(F19, a, b)
    back = polys.padd(F19, polys.pmul(F19, quot, b), rem)
    assert polys.ptrim(F19, back) == polys.ptrim(F19, a)
    assert polys.pdeg(rem) < polys.pdeg(polys.ptrim(F19, b)) or not rem


@given(coeffs, coeffs)
@settings(max_examples=80, deadline=None)
def test_poly_gcd_divides_both(a, b):
    a = polys.ptrim(F19, tuple(a))
    b = polys.ptrim(F19, tuple(b))
    g = polys.pgcd(F19, a, b)
    if not g:
        assert not polys.ptrim(F19, a) and not polys.ptrim(F19, b)
        return
    for p in (a, b):
        if polys.ptrim(F19, p):
            _, rem = polys.pdivmod(F19, p, g)
            assert not rem


# -- the int kernel against field-method loops ---------------------------
#
# The reference below is schoolbook arithmetic through the field's methods,
# which reduce every coefficient they compute.  The kernel must return the
# same tuples, also for coefficients outside [0, p) and for lengths past the
# Kronecker threshold.

F271 = PrimeField(271)


def _ref_trim(F, c):
    c = list(c)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def _ref_add(F, a, b):
    n = max(len(a), len(b))
    return _ref_trim(F, [F.add(a[i] if i < len(a) else 0,
                               b[i] if i < len(b) else 0) for i in range(n)])


def _ref_sub(F, a, b):
    return _ref_add(F, a, tuple(F.neg(c) for c in b))


def _ref_scale(F, a, c):
    return () if c == F.zero else _ref_trim(F, [F.mul(x, c) for x in a])


def _ref_mul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ref_trim(F, out)


def _ref_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = F.inv(b[-1])
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and any(c != F.zero for c in r):
        while r[-1] == F.zero:
            r.pop()
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = F.mul(r[-1], binv)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] = F.sub(r[k + i], F.mul(c, bc))
    return _ref_trim(F, q), _ref_trim(F, r)


def _ref_gcd(F, a, b):
    while b:
        a, b = b, _ref_divmod(F, a, b)[1]
    return _ref_scale(F, a, F.inv(a[-1])) if a else a


def _ref_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), F.from_int(c))
    return acc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@st.composite
def _poly_pairs(draw):
    F = draw(st.sampled_from([F19, F271]))
    coeff = st.integers(-2 * F.q, 3 * F.q)
    a, b = (tuple(draw(st.lists(coeff, min_size=n, max_size=n)))
            for n in draw(st.tuples(st.integers(0, 80), st.integers(0, 80))))
    return F, a, b, draw(coeff)


@given(_poly_pairs())
@settings(max_examples=150, deadline=None)
def test_int_kernel_matches_field_method_loops(case):
    F, a, b, c = case
    assert polys.padd(F, a, b) == _ref_add(F, a, b)
    assert polys.psub(F, a, b) == _ref_sub(F, a, b)
    assert polys.pneg(F, a) == tuple(F.neg(x) for x in a)
    assert polys.pscale(F, a, c) == _ref_scale(F, a, c)
    assert polys.pmul(F, a, b) == _ref_mul(F, a, b)
    assert polys.peval(F, a, c) == _ref_eval(F, a, F.from_int(c))
    for kernel, ref in ((polys.pdivmod, _ref_divmod),
                        (polys.pgcd, _ref_gcd)):
        assert _outcome(kernel, F, a, b) == _outcome(ref, F, a, b)


def test_kronecker_product_of_long_factors():
    # both factors past the threshold, every coefficient at its maximum
    n = polys.KRONECKER_MIN + 50
    a = (F271.q - 1,) * n
    assert polys.pmul(F271, a, a) == _ref_mul(F271, a, a)

