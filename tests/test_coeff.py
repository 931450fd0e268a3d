import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2ext import polyutil
from sl2ext.coeff import (
    CyclotomicField,
    PrimeField,
    RationalField,
    choose_prime_for_order,
    field_from_spec,
    parse_coeff_spec,
    require_field,
)
from sl2_helpers import field_power


def _random_scalar(field, rng):
    """A random raw rep of the field."""
    if isinstance(field, RationalField):
        return field.scalar(Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)))
    if isinstance(field, CyclotomicField):
        s = field.zero
        for k in range(field.degree):
            term = field._mul(field.scalar(rng.randrange(-3, 4)), field.root_of_unity(field.n, k))
            s = field._add(s, term)
        return s
    return field.scalar(rng.randrange(0, field.ell))


@pytest.mark.parametrize("field", [RationalField(), CyclotomicField(12), PrimeField(7), PrimeField(5, 2)])
def test_field_axioms_random_triples(field):
    add, mul = field._add, field._mul
    rng = random.Random(99)
    for _ in range(40):
        a, b, c = (_random_scalar(field, rng) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, field.zero) == a and mul(a, field.one) == a
        if a != field.zero:
            assert mul(a, field._inv(a)) == field.one


def test_rational_half_plus_half():
    F = RationalField()
    assert F._add(F.scalar(Fraction(1, 2)), F.scalar(Fraction(1, 2))) == F.one


def test_cyclotomic3_cube_and_sum():
    F = CyclotomicField(3)
    z = F.root_of_unity(3, 1)
    assert F._mul(F._mul(z, z), z) == F.one
    # x + x^2 reduced modulo 1 + x + x^2 is -1
    assert F._add(z, F._mul(z, z)) == F.scalar(-1)


def test_order_five_power_is_one():
    F = CyclotomicField(5)
    assert F.root_of_unity(5, 5) == F.one


def test_rational_order_two_root():
    assert RationalField().root_of_unity(2, 1) == RationalField().scalar(-1)


def test_prime_field_fourth_root_squared():
    # the smallest generator of F_5^x is 2, so zeta_4 = 2 and zeta_4^2 = 4
    F = PrimeField(5)
    assert F.root_of_unity(4, 2) == F.scalar(4)
    assert F.root_of_unity(4, 2) == F.scalar(-1)


@pytest.mark.parametrize("field,n", [(CyclotomicField(12), 12), (PrimeField(13), 12), (RationalField(), 2)])
def test_root_multiplicativity_sweep(field, n):
    for e1 in range(-n, n + 1, 3):
        for e2 in range(-n, n + 1, 5):
            lhs = field._mul(field.root_of_unity(n, e1), field.root_of_unity(n, e2))
            assert lhs == field.root_of_unity(n, e1 + e2)


def test_cyclotomic_root_is_one_iff_order_divides():
    F = CyclotomicField(9)
    for e in range(1, 19):
        assert (F.root_of_unity(9, e) == F.one) == (e % 9 == 0)


def test_unsupported_orders_raise():
    with pytest.raises(ValueError):
        RationalField().root_of_unity(3, 1)
    with pytest.raises(ValueError):
        CyclotomicField(8).root_of_unity(3, 1)
    with pytest.raises(ValueError):
        PrimeField(5).root_of_unity(3, 1)  # 3 does not divide 4


def test_supports_order():
    assert RationalField().supports_order(2)
    assert not RationalField().supports_order(4)
    assert CyclotomicField(63).supports_order(21)
    # -1 = -x^0 lies in Q(zeta_63) = Q(zeta_126), whose roots are the 126th
    assert CyclotomicField(63).supports_order(2) and CyclotomicField(63).supports_order(126)
    assert not CyclotomicField(63).supports_order(4)
    assert PrimeField(7).supports_order(6)


ROOT_GROUP_FIELDS = ([CyclotomicField(n) for n in (*range(1, 31), 63)]
                     + [RationalField(), PrimeField(2), PrimeField(7), PrimeField(13),
                        PrimeField(5, 2), PrimeField(2, 4)])


@pytest.mark.parametrize("field", ROOT_GROUP_FIELDS, ids=repr)
def test_each_mode_has_one_cyclic_root_group(field):
    # _root(k) runs over root_order distinct values, the powers of a
    # generator of order exactly root_order
    order = field.root_order
    roots = [field._root(k) for k in range(order)]
    assert len(set(roots)) == order
    gen = field._root(1)
    assert field_power(field, gen, order) == field.one
    assert all(field_power(field, gen, order // r) != field.one for r in polyutil.factorize(order))
    assert all(field_power(field, gen, k) == z for k, z in enumerate(roots))


@pytest.mark.parametrize("field", ROOT_GROUP_FIELDS, ids=repr)
def test_supported_orders_divide_the_root_order(field):
    order = field.root_order
    for d in range(1, 2 * order + 2):
        assert field.supports_order(d) == (order % d == 0)
        if order % d == 0:
            assert field.root_of_unity(d, 1) == field._root(order // d % order)
        else:
            with pytest.raises(ValueError, match=f"no root of unity of order {d}"):
                field.root_of_unity(d, 1)


def test_mode_mismatch_and_zero_division():
    # a rep does not carry its field; the boundary check compares fields
    require_field(CyclotomicField(4), CyclotomicField(4))
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        require_field(RationalField(), CyclotomicField(4))
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        require_field(PrimeField(5), PrimeField(5, 2))
    for field in (RationalField(), CyclotomicField(4), PrimeField(5), PrimeField(5, 2)):
        with pytest.raises(ZeroDivisionError):
            field._inv(field.zero)


def test_cyclotomic_inverse_random():
    F = CyclotomicField(7)
    rng = random.Random(5)
    for _ in range(15):
        a = _random_scalar(F, rng)
        if a != F.zero:
            assert F._mul(a, F._inv(a)) == F.one


def test_extension_prime_field_roots():
    # order 4 needs F_25: 4 | 24
    F = PrimeField(5, 2)
    z = F.root_of_unity(24, 1)
    acc = F.one
    seen = set()
    for _ in range(24):
        acc = F._mul(acc, z)
        seen.add(acc)
    assert len(seen) == 24 and acc == F.one


def test_choose_prime_for_order():
    assert choose_prime_for_order(63) == 127
    assert choose_prime_for_order(2) == 5
    assert choose_prime_for_order(1) == 5
    # a prime dividing the group order to avoid is skipped
    assert choose_prime_for_order(1, 60) == 7
    assert choose_prime_for_order(3, 60) == 7
    assert choose_prime_for_order(4, 120) == 13
    assert choose_prime_for_order(2, 24) == 5


def test_field_from_spec():
    assert field_from_spec("rat") == RationalField()
    assert field_from_spec("cyclo", 63) == CyclotomicField(63)
    assert field_from_spec("cyclo:8") == CyclotomicField(8)
    assert field_from_spec("fp:11") == PrimeField(11)
    assert field_from_spec("fp", 63) == PrimeField(127)
    with pytest.raises(ValueError):
        field_from_spec("float")


@pytest.mark.parametrize("spec", ["fp:abc", "bogus", "fp:7:0", "cyclo:0", "cyclo:-5",
                                  "fp:4", "fp:", "rat:2", "fp:7:2:1", "fp:2:21", "fp:3:13",
                                  "fp:2:" + "9" * 30])
def test_parse_coeff_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_coeff_spec(spec)


def test_parse_coeff_spec_forms():
    assert parse_coeff_spec("rat") == ("rat", ())
    assert parse_coeff_spec("cyclo") == ("cyclo", ())
    assert parse_coeff_spec("cyclo:9") == ("cyclo", (9,))
    assert parse_coeff_spec("fp:7:2") == ("fp", (7, 2))
    # the largest field the table budget admits, 2^20 elements
    assert parse_coeff_spec("fp:2:20") == ("fp", (2, 20))


def test_f2_has_the_trivial_root():
    # F_2* is trivial, so its generator is 1
    F = PrimeField(2)
    assert F.supports_order(1)
    assert not F.supports_order(2)


# -- property tests and the integral fast path --------------------------------

FIELDS = [CyclotomicField(3), CyclotomicField(12), CyclotomicField(63), RationalField(),
          PrimeField(7), PrimeField(5, 2)]


def _root_order(field):
    if isinstance(field, CyclotomicField):
        return field.n
    if isinstance(field, RationalField):
        return 2
    return field.size - 1


@st.composite
def _elements(draw, field):
    """Sums of c * zeta^k; Fraction c (non-integral) where the mode allows."""
    if isinstance(field, PrimeField):
        coeff = st.integers(-field.ell, field.ell)
    else:
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    n = _root_order(field)
    terms = draw(st.lists(st.tuples(coeff, st.integers(0, n - 1)), max_size=4))
    out = field.zero
    for c, k in terms:
        out = field._add(out, field._mul(field.scalar(c), field.root_of_unity(n, k)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_axioms_property(field, data):
    add, sub, mul, zero, one = field._add, field._sub, field._mul, field.zero, field.one
    a, b, c = (data.draw(_elements(field)) for _ in range(3))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert sub(a, a) == zero and add(a, sub(zero, a)) == zero
    if a != zero:
        inv = field._inv(a)
        assert mul(a, inv) == one and mul(mul(b, inv), a) == b


def _fraction_product_mod_phi(n, a, b):
    """Schoolbook product over Fraction, reduced by long division by Phi_n."""
    phi = [Fraction(c) for c in polyutil.cyclotomic(n)]
    d = len(phi) - 1
    out = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j in range(d + 1):
                out[k - d + j] -= c * phi[j]
    return tuple(out[:d])


@pytest.mark.parametrize("n", [3, 12, 63])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cyclotomic_mul_matches_fraction_oracle(n, data):
    field = CyclotomicField(n)
    a, b = data.draw(_elements(field)), data.draw(_elements(field))
    assert field._mul(a, b) == _fraction_product_mod_phi(n, a, b)


@pytest.mark.parametrize("n", [3, 12, 63])
def test_integral_cyclotomic_scalars_keep_int_coefficients(n):
    field = CyclotomicField(n)
    add, sub, mul = field._add, field._sub, field._mul
    rng = random.Random(n)
    for _ in range(20):
        a, b = (_random_scalar(field, rng) for _ in range(2))
        for s in (a, b, add(a, b), sub(a, b), mul(a, b), sub(field.zero, a), mul(mul(a, a), b),
                  field.scalar(Fraction(6, 3))):
            assert all(type(c) is int for c in s)
    # zeta^-1 is a table lookup; 1 + zeta is a unit inverted by its norm
    for unit in (field.root_of_unity(n, 1), add(field.one, field.root_of_unity(n, 1))):
        inv = field._inv(unit)
        assert mul(unit, inv) == field.one and all(type(c) is int for c in inv)
    assert field.scalar(Fraction(1, 2))[0] == Fraction(1, 2)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_and_one_are_built_once(field):
    add, sub, mul = field._add, field._sub, field._mul
    zero, one = field.zero, field.one
    assert field.zero is zero and field.one is one
    rng = random.Random(3)
    for _ in range(10):
        a = _random_scalar(field, rng)
        assert add(a, zero) == a == add(zero, a) and mul(a, zero) == zero
        assert sub(zero, sub(zero, a)) == a and mul(a, one) == a == mul(one, a)
    assert field_power(field, zero, 3) == zero and field_power(field, one, 2) == one
    assert field._inv(one) == one
    assert field.zero is zero and field.one is one
    assert zero == field.scalar(0) and one == field.scalar(1) and zero != one


# -- the integer-first Q kernel ------------------------------------------------

Q = RationalField()
_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _q_rep(x: Fraction):
    """A canonical Q rep: an int while integral."""
    return x.numerator if x.denominator == 1 else x


def _check_q_rep(rep, value: Fraction):
    assert type(rep) is not float and rep == value
    if value.denominator == 1:
        assert type(rep) is int


@settings(max_examples=60, deadline=None)
@given(x=_rationals, y=_rationals)
def test_rational_kernel_matches_fraction_oracle(x, y):
    a, b = Q._from_rational(x), Q._from_rational(y)
    _check_q_rep(a, x)
    _check_q_rep(Q._add(a, b), x + y)
    _check_q_rep(Q._sub(a, b), x - y)
    _check_q_rep(Q._mul(a, b), x * y)
    if x:
        _check_q_rep(Q._inv(a), 1 / x)


@settings(max_examples=60, deadline=None)
@given(
    a=st.dictionaries(st.integers(0, 5), _rationals.filter(bool), max_size=5),
    b=st.dictionaries(st.integers(0, 5), _rationals.filter(bool), max_size=5),
    c=_rationals,
)
def test_rational_sub_scaled_matches_fraction_oracle(a, b, c):
    expect = {k: a.get(k, Fraction(0)) - c * b.get(k, Fraction(0)) for k in set(a) | set(b)}
    expect = {k: v for k, v in expect.items() if v}
    raw = {k: _q_rep(v) for k, v in a.items()}
    raw_b = {k: _q_rep(v) for k, v in b.items()}
    got = Q._sub_scaled(raw, _q_rep(c), raw_b)
    assert got is raw  # a is updated in place
    assert got == expect
    for k, v in got.items():
        _check_q_rep(v, expect[k])
    assert raw_b == {k: _q_rep(v) for k, v in b.items()}  # b is not changed


def test_rational_inverse_and_scalar_forms():
    assert Q._inv(3) == Fraction(1, 3) and type(Q._inv(3)) is Fraction
    assert Q._inv(1) == 1 and type(Q._inv(1)) is int
    assert Q._inv(-1) == -1 and type(Q._inv(-1)) is int
    assert Q._inv(Fraction(1, 4)) == 4 and type(Q._inv(Fraction(1, 4))) is int
    assert Q._inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        Q._inv(0)
    with pytest.raises(ZeroDivisionError):
        Q._inv(Q.zero)
    two = Q.scalar(2)
    assert type(two) is int
    assert two == Fraction(2) and hash(two) == hash(Fraction(2))
    assert Q.scalar(Fraction(6, 3)) == 2 and type(Q.scalar(Fraction(6, 3))) is int
    assert Q._mul(Q.scalar(Fraction(1, 2)), Q.scalar(2)) == 1
    assert type(Q._mul(Q.scalar(Fraction(1, 2)), Q.scalar(2))) is int


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(5, 2), PrimeField(5, 3)], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prime_field_pow_matches_repeated_mul(field, data):
    # every root of unity is a power of the generator zeta_{size-1}
    n = field.size - 1
    e = data.draw(st.integers(0, 2 * field.size))
    assert field.root_of_unity(n, e) == field_power(field, field.root_of_unity(n, 1), e)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_pow_matches_repeated_mul(field, data):
    # zeta_d^e for every order d the mode holds; a negative power is a
    # power of the inverse
    n = _root_order(field)
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    e = data.draw(st.integers(-5, 12))
    z = field.root_of_unity(d, 1)
    base = z if e >= 0 else field._inv(z)
    assert field.root_of_unity(d, e) == field_power(field, base, abs(e))


# -- F_{l^m} on the GaloisField kernel, against polynomial arithmetic ----------

EXTENSIONS = [PrimeField(2, 4), PrimeField(3, 2), PrimeField(5, 2), PrimeField(5, 3)]


def _poly_ops(field):
    """Reference ops on the encodings: digit vectors multiplied with
    polyutil.mul_mod and reduced with rem_mod by the first irreducible
    polynomial of degree m; the inverse is a^(l^m - 2)."""
    ell, m = field.ell, field.m
    modulus = polyutil.first_irreducible(ell, m)

    def vec(a):
        return polyutil.digits(a, ell, m)

    def enc(v):
        return sum((c % ell) * ell ** j for j, c in enumerate(v))

    def add(a, b):
        return enc([x + y for x, y in zip(vec(a), vec(b))])

    def sub(a, b):
        return enc([x - y for x, y in zip(vec(a), vec(b))])

    def mul(a, b):
        return enc(polyutil.rem_mod(polyutil.mul_mod(vec(a), vec(b), ell), modulus, ell))

    def inv(a):
        out = 1
        for _ in range(field.size - 2):
            out = mul(out, a)
        return out

    return add, sub, mul, inv


@pytest.mark.parametrize("field", EXTENSIONS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extension_ops_match_the_polynomial_oracle(field, data):
    add, sub, mul, inv = _poly_ops(field)
    a, b = (data.draw(st.integers(0, field.size - 1)) for _ in range(2))
    assert field._add(a, b) == add(a, b)
    assert field._sub(a, b) == sub(a, b)
    assert field._mul(a, b) == mul(a, b)
    if a:
        assert field._inv(a) == inv(a)
    else:
        with pytest.raises(ZeroDivisionError):
            field._inv(a)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7), PrimeField(13)] + EXTENSIONS, ids=repr)
def test_the_generator_is_the_first_primitive_element(field):
    n = field.size - 1

    def order(a):
        k, acc = 1, a
        while acc != field.one:
            k, acc = k + 1, field._mul(acc, a)
        return k

    first = next(a for a in range(1, field.size) if order(a) == n)
    assert field.root_of_unity(n, 1) == first


@pytest.mark.parametrize("field", [PrimeField(7)] + EXTENSIONS, ids=repr)
def test_every_prime_field_rep_is_an_int(field):
    # a residue encodes itself; an extension rep encodes its digits
    assert field.scalar(-1) == field.ell - 1 and field.one == 1 and field.zero == 0
    for a in range(field.size):
        for b in (0, 1, field.size - 1, a):
            for r in (field._add(a, b), field._sub(a, b), field._mul(a, b)):
                assert type(r) is int and 0 <= r < field.size
    z = field.root_of_unity(field.size - 1, 1)
    assert type(z) is int and 0 <= z < field.size


CYCLO_INV_ORDERS = [1, 2, 3, 8, 12, 15, 63]


@st.composite
def _cyclo_non_roots(draw, field):
    """A nonzero rep that is no root of unity, with up to four nonzero
    coefficients drawn from ints, 1/2, -3/4 and small fractions (integral
    ``Fraction``s included)."""
    coeff = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-3, 4)]),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    terms = draw(st.dictionaries(st.integers(0, field.degree - 1), coeff, min_size=1, max_size=4))
    rep = tuple(terms.get(j, 0) for j in range(field.degree))
    assume(any(rep) and rep not in field._root_index)
    return rep


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cyclotomic_norm_inverse_property(n, data):
    field = CyclotomicField(n)
    a = data.draw(_cyclo_non_roots(field))
    inv = field._inv(a)
    assert len(inv) == field.degree
    assert field._mul(a, inv) == field.one
    # integral results are ints, every other coefficient a Fraction
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in inv)


@pytest.mark.parametrize("n", [3, 4, 7, 12, 15, 63])
def test_a_root_minus_one_inverts_in_closed_form(n):
    # w - 1 for a root w != 1 of order m inverts as m^-1 sum_t t w^t, not
    # through the norm: a product of degree - 1 conjugates at Q(zeta_1023)
    field = CyclotomicField(n)
    one = field.one
    for k in range(1, field.root_order):
        a = field._sub(field._roots[k], one)
        inv = field._inv(a)
        assert field._mul(a, inv) == one
        assert _fraction_product_mod_phi(n, a, inv) == one
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in inv)


def _signed_roots(field):
    """Every root of unity of Q(zeta_n) as (k, sign, rep of sign * zeta^k),
    the sign applied by ``_sub`` from zero."""
    out = []
    for k in range(field.n):
        z = field.root_of_unity(field.n, k)
        out += [(k, 1, z), (k, -1, field._sub(field.zero, z))]
    return out


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_signed_root_products_match_fraction_oracle(n):
    field = CyclotomicField(n)
    roots = _signed_roots(field)
    oracle = {}  # zeta^i * zeta^j, i <= j; a sign scales the product
    for i, _, a in roots[::2]:
        for j, _, b in roots[2 * i::2]:
            oracle[i, j] = _fraction_product_mod_phi(n, a, b)
    one = field.one
    for i, s, a in roots:
        for j, t, b in roots:
            want = oracle[min(i, j), max(i, j)]
            got = field._mul(a, b)
            assert got == (want if s * t == 1 else tuple(-c for c in want))
            assert all(type(c) is int for c in got)
        inv = field._inv(a)
        assert field._mul(a, inv) == one
        assert _fraction_product_mod_phi(n, a, inv) == one


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_signed_roots_take_no_fold(n):
    # once the index is built, products and inverses of roots of unity are
    # exponent arithmetic: the fold rows of the schoolbook product go unused
    field = CyclotomicField(n)
    roots = _signed_roots(field)
    assert len(field._root_index) == (n if n % 2 == 0 else 2 * n)
    field._fold = None
    monomials = [_monomial_mod_phi(n, k) for k in range(2 * n)]
    for i, s, a in roots:
        for j, t, b in roots:
            want = monomials[i + j]
            assert field._mul(a, b) == (want if s * t == 1 else tuple(-c for c in want))
        want = monomials[(-i) % n]
        assert field._inv(a) == (want if s == 1 else tuple(-c for c in want))


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_signed_root_table_holds_the_index_tuples(n):
    # the index adds no rep of its own: every key is the table entry at its
    # exponent, and every table entry is the index's key object
    field = CyclotomicField(n)
    table, index = field._roots, field._root_index
    keys = {key: key for key in index}
    assert len(table) == len(index) == field.root_order
    for k, z in enumerate(table):
        assert keys[z] is z and index[z] == k and field._root(k) is z
    for key, k in index.items():
        assert table[k] is key


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_signed_roots_times_other_operands_match_fraction_oracle(n):
    # the root lookup comes first; a product with one operand off the index
    # still reaches the rational scaling (0, +-1, 2, 1/2) or, for a rep with
    # a nonzero higher coefficient, the schoolbook product
    field = CyclotomicField(n)
    others = [field.scalar(c) for c in (0, 1, -1, 2, Fraction(1, 2))]
    non_root = (2,) + (1,) * (field.degree - 1)
    assert non_root not in field._root_index
    others.append(non_root)
    for _, _, root in _signed_roots(field):
        for other in others:
            want = _fraction_product_mod_phi(n, root, other)
            assert field._mul(root, other) == want and field._mul(other, root) == want


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_cyclotomic_add_sub_keep_coefficient_types(n):
    # int coefficients stay ints, and an integral Fraction stays a Fraction
    # where an operand had a Fraction
    field = CyclotomicField(n)
    rng = random.Random(n)
    for _ in range(10):
        a, b = _random_scalar(field, rng), _random_scalar(field, rng)
        for s in (field._add(a, b), field._sub(a, b)):
            assert all(type(c) is int for c in s)
    half = field.scalar(Fraction(1, 2))
    half_zeta = field._mul(half, field.root_of_unity(n, 1))
    for (got, want), operand in zip(integral_fraction_cases(field), (half, half_zeta, half_zeta)):
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in operand]


@pytest.mark.parametrize("n", CYCLO_INV_ORDERS)
def test_cyclotomic_inverse_of_zero_raises(n):
    field = CyclotomicField(n)
    for zero in (field.zero, (Fraction(0),) * field.degree):
        with pytest.raises(ZeroDivisionError):
            field._inv(zero)


def _monomial_mod_phi(n, k):
    """x^k mod Phi_n by long division, as a tuple of degree ints."""
    phi = polyutil.cyclotomic(n)
    d = len(phi) - 1
    out = [0] * k + [1]
    for top in range(k, d - 1, -1):
        c = out[top]
        for j in range(d + 1):
            out[top - d + j] -= c * phi[j]
    out = out[:d]
    return tuple(out + [0] * (d - len(out)))


def test_fold_rows_are_reduced_monomials():
    for n in range(1, 61):
        field = CyclotomicField(n)
        d = field.degree
        assert len(field._fold) == d - 1
        for r, row in enumerate(field._fold):
            assert row == _monomial_mod_phi(n, d + r)
            assert all(type(c) is int for c in row)


def integral_fraction_cases(field):
    """(rep left by +, - or *, its int form) over a cyclotomic field: the
    first holds an integral Fraction where the second holds an int."""
    add, sub, mul = field._add, field._sub, field._mul
    half, zeta = field.scalar(Fraction(1, 2)), field.root_of_unity(field.n, 1)
    half_zeta = mul(half, zeta)
    return [(add(half, half), field.one), (add(half_zeta, half_zeta), zeta),
            (sub(half_zeta, half_zeta), field.zero)]


def test_integral_fraction_coefficients_equal_ints(cyc8):
    # cyclotomic +, - and * leave integral Fractions in place; such a rep
    # equals and hashes like its int form
    for got, want in integral_fraction_cases(cyc8):
        assert any(type(c) is Fraction for c in got) and all(type(c) is int for c in want)
        assert got == want and hash(got) == hash(want)
