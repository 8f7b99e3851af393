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
    assert F361.modulus == (2, 1, 1)
    assert F6859.modulus == (4, 1, 0, 1)
    assert list(F361.elements())[:5] == [(0, 0), (0, 1), (0, 2), (0, 3),
                                         (0, 4)]
    assert list(F6859.elements())[:5] == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                                          (0, 0, 3), (0, 0, 4)]


def _times_t(q, f, x):
    """x t modulo the monic f over F_q, with x and f as ascending
    coefficient lists: the shift, less the top coefficient times f."""
    shifted = [0] + list(x[:-1])
    return tuple((a - x[-1] * c) % q for a, c in zip(shifted, f))


def _order_of_t(q, f):
    """The least i in 1..q^k - 1 with t^i = 1 modulo f, by repeated
    multiplication by t, or None."""
    one = (1,) + (0,) * (len(f) - 2)
    x = one
    for i in range(1, q ** (len(f) - 1)):
        x = _times_t(q, f, x)
        if x == one:
            return i
    return None


@pytest.mark.parametrize("q, k", [(5, 2), (7, 2), (19, 2), (3, 3)])
def test_modulus_is_the_least_with_t_of_full_order(q, k):
    K = ExtField(PrimeField(q), k)
    n = q ** k - 1
    assert _order_of_t(q, K.modulus) == n
    code = sum(c * q ** i for i, c in enumerate(K.modulus[:-1]))
    for smaller in range(code):
        f = tuple(smaller // q ** i % q for i in range(k)) + (1,)
        assert _order_of_t(q, f) != n, f


@pytest.mark.parametrize("q, k", [(5, 2), (7, 2), (19, 2), (3, 3), (19, 3),
                                  (19, 1)])
def test_exp_table_is_the_powers_of_t(q, k):
    K = ExtField(PrimeField(q), k)
    exp = K.exp
    assert exp[1] == _times_t(q, K.modulus, K.one)
    if q ** k < 1000:
        assert all(exp[i + 1] == _times_t(q, K.modulus, exp[i])
                   for i in range(len(exp) - 1))


@pytest.mark.parametrize("K", [PrimeField(19), ExtField(PrimeField(19), 2),
                               ExtField(PrimeField(5), 3)], ids=repr)
def test_tables_are_built_with_the_field(K):
    n = K.order - 1
    assert (len(K.exp), len(K.log), len(K.int_log), len(K.zech)) == (
        n, n + 1, K.q, n)


@pytest.mark.parametrize("K", [F49, F361, F6859], ids=repr)
def test_ext_field_exp_lists_each_nonzero_element_once(K):
    exp, log = K.exp, K.log
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
    with pytest.raises(FieldError, match=re.escape(repr(bad))):
        F6859.eval_monomials((((1, 1), 1),), (F6859.one, bad))
    with pytest.raises(FieldError, match=re.escape(repr(bad))):
        F6859.quotients(((((1, 1), 1),),), [(F6859.one, bad)])
    with pytest.raises(ZeroDivisionError):
        F6859.inv(F6859.zero)


# -- the C-level addition and the log-domain monomials against references ---

@pytest.mark.parametrize("K", [F361, F6859], ids=repr)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ext_add_sub_neg_match_coefficientwise_mod(K, data):
    a, b = (data.draw(st.tuples(*[st.integers(0, 18)] * K.k)) for _ in "ab")
    assert K.add(a, b) == tuple((x + y) % 19 for x, y in zip(a, b))
    assert K.sub(a, b) == tuple((x - y) % 19 for x, y in zip(a, b))
    assert K.neg(a) == tuple((-x) % 19 for x in a)


def _ref_eval_monomials(C, monos, p):
    """The monomial sum by repeated field multiplication."""
    acc = C.zero
    for exps, n in monos:
        term = C.from_int(n)
        for coord, e in zip(p, exps):
            for _ in range(e):
                term = C.mul(term, coord)
        acc = C.add(acc, term)
    return acc


@st.composite
def _monomial_cases(draw):
    C = draw(st.sampled_from([F19, F361, F6859]))
    elements = (st.integers(0, 18) if C is F19
                else st.tuples(*[st.integers(0, 18)] * C.k))
    # zero coordinates, coefficients that vanish mod 19, negative
    # coefficients and exponent 0 all come up often
    coord = st.one_of(st.just(C.zero), elements)
    coeff = st.one_of(st.sampled_from([0, 19, -19, 38, -1]),
                      st.integers(-60, 60))
    nvars = draw(st.integers(1, 3))
    monos = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * nvars),
                                    coeff), max_size=5))
    p = draw(st.tuples(*[coord] * nvars))
    return C, tuple(monos), p


@given(_monomial_cases())
@settings(max_examples=300, deadline=None)
def test_eval_monomials_matches_repeated_mul(case):
    C, monos, p = case
    assert C.eval_monomials(monos, p) == _ref_eval_monomials(C, monos, p)


# -- the Zech table and the log-domain sums and quotients --------------------

F125 = ExtField(PrimeField(5), 3)


@pytest.mark.parametrize("K", [F19, F361, F125], ids=repr)
def test_zech_table_is_the_log_of_one_plus_each_power(K):
    exp, log = K.exp, K.log
    n = len(exp)
    assert K.zech == [log[K.add(K.one, e)] for e in exp]
    # 1 + g^i = 0 only at g^i = -1 = g^(n/2)
    assert [i for i, z in enumerate(K.zech) if z is None] == [n // 2]
    for a in range(n):
        for b in range(n):
            z = K.zech[(b - a) % n]
            want = K.zero if z is None else exp[(a + z) % n]
            assert K.add(exp[a], exp[b]) == want


@st.composite
def _cancelling_forms(draw):
    """A field, a column of points and four forms, the last one a divisor.
    A term may be followed by its negative, so that a partial sum cancels
    in the middle of the form, and a form may end with the negatives of
    all its terms, so that the whole sum cancels.  Coefficients may vanish
    mod 19, and a point may have a zero coordinate, which kills only the
    terms with a positive exponent there."""
    C = draw(st.sampled_from([F19, F361, F6859]))
    elements = (st.integers(0, 18) if C is F19
                else st.tuples(*[st.integers(0, 18)] * C.k))
    nvars = draw(st.integers(1, 3))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        p = list(draw(st.tuples(*[elements] * nvars)))
        if draw(st.booleans()):
            p[draw(st.integers(0, nvars - 1))] = C.zero
        points.append(tuple(p))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                     st.one_of(st.integers(1, 18), st.integers(-40, 40),
                               st.sampled_from([0, 19, -38, -1])))
    forms = []
    for _ in range(4):
        form = []
        for exps, n in draw(st.lists(term, min_size=1, max_size=4)):
            form.append((exps, n))
            if draw(st.integers(0, 2)) == 2:
                form.append((exps, -n))
        if draw(st.integers(0, 3)) == 3:
            form += [(exps, -n) for exps, n in reversed(form)]
        forms.append(tuple(form))
    return C, forms[:-1], forms[-1], points


def _divided(C, vals, d):
    return None if d == C.zero else tuple(C.mul(v, C.inv(d)) for v in vals)


def _ref_quotients(C, forms, points, den=None):
    """One image per point from the repeated-mul sums: over den's value or
    the last nonzero value, None where that is zero."""
    out = []
    for p in points:
        vals = [_ref_eval_monomials(C, f, p) for f in forms]
        d = (_ref_eval_monomials(C, den, p) if den is not None
             else next((v for v in reversed(vals) if v != C.zero), C.zero))
        out.append(_divided(C, vals, d))
    return out


@given(_cancelling_forms())
@settings(max_examples=300, deadline=None)
def test_quotients_match_repeated_mul(case):
    C, forms, den, points = case
    for f in (*forms, den):
        assert ([C.eval_monomials(f, p) for p in points]
                == [_ref_eval_monomials(C, f, p) for p in points])
    assert C.quotients(forms, points, den) == _ref_quotients(C, forms,
                                                             points, den)
    assert C.quotients(forms, points) == _ref_quotients(C, forms, points)


def _edge_points(K):
    """Points (x, y) with x or y zero, and points whose coordinate logs are
    large, so that degree-9 terms sum to several times the group order."""
    exp = K.exp
    top = [exp[-1], exp[-2], exp[len(exp) // 2 + 1]]
    return ([(K.zero, K.zero), (K.zero, exp[1]), (exp[1], K.zero)]
            + [(a, b) for a in top for b in top])


# each form in (x, y): the forms a column must get right one by one
_EDGE_FORMS = {
    # x - x cancels at the second term, and the sum restarts at 2y^9
    "cancel-mid": (((1, 0), 1), ((1, 0), -1), ((0, 9), 2)),
    # every term is undone, so the form is 0 at every point
    "cancel-end": (((9, 0), 3), ((0, 1), 5), ((0, 1), -5), ((9, 0), -3)),
    # coefficients 19 and -38 vanish mod q = 19
    "zero-coeffs": (((1, 1), 19), ((9, 9), -38), ((4, 5), 7)),
    # y^3 alone: x = 0 must not kill a term where x has exponent 0
    "x-exponent-0": (((0, 3), 4),),
    "high-degree": (((9, 9), 1), ((9, 8), 2), ((0, 9), 3)),
    "all-zero": (),
}


@pytest.mark.parametrize("K", [F19, F361, F6859], ids=repr)
@pytest.mark.parametrize("name", sorted(_EDGE_FORMS))
def test_quotients_column_edge_cases(K, name):
    f, points = _EDGE_FORMS[name], _edge_points(K)
    others = [_EDGE_FORMS["x-exponent-0"], _EDGE_FORMS["high-degree"]]
    want = [_ref_eval_monomials(K, f, p) for p in points]
    assert [K.eval_monomials(f, p) for p in points] == want
    if name in ("cancel-end", "all-zero"):
        assert want == [K.zero] * len(points)
    for forms, den in [([f, *others], None), ([*others, f], None),
                       (others, f), ([f], others[0])]:
        column = K.quotients(forms, points, den)
        assert column == _ref_quotients(K, forms, points, den)
        # a one-point column is the same image
        assert [K.quotients(forms, [p], den)[0] for p in points] == column
    # a divisor that vanishes everywhere leaves no image, and so do forms
    # that all vanish
    if name in ("cancel-end", "all-zero"):
        assert K.quotients(others, points, f) == [None] * len(points)
        assert K.quotients([f, f], points) == [None] * len(points)


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
    assert len(rem) < len(b)


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
    for kernel, ref in ((polys.pdivmod, _ref_divmod),
                        (polys.pgcd, _ref_gcd)):
        assert _outcome(kernel, F, a, b) == _outcome(ref, F, a, b)


def test_kronecker_product_of_long_factors():
    # both factors past the threshold, every coefficient at its maximum
    n = polys.KRONECKER_MIN + 50
    a = (F271.q - 1,) * n
    assert polys.pmul(F271, a, a) == _ref_mul(F271, a, a)

