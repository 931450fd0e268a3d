import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import polyutil
from sl2ext.tower import BudgetError, Tower


def test_f4_arithmetic(tower22):
    tw = tower22
    assert tw.poly == (1, 1, 1)  # first irreducible quadratic over F_2
    u = tw.element(2)
    assert (u + u).val == 0
    assert (u * u * u).val == 1  # the multiplicative group has order 3
    for x in tw.enumerate_level(2):
        if x.val:
            assert (x * x.inverse()).val == 1


def test_enumeration_order_and_sizes(tower23):
    tw = tower23
    assert [x.val for x in tw.enumerate_level(1)] == [0, 1]
    assert len(tw.enumerate_level(2)) == 4
    assert len(tw.enumerate_level(3)) == 64
    # enumeration is increasing in the encoding
    vals = [x.val for x in tw.enumerate_level(2)]
    assert vals == sorted(vals)


def _in_subfield(tw, x, d):
    """Whether x lies in the degree-d subfield over F_p, by x^(p^d) == x;
    d must divide the ambient degree."""
    if tw.degree % d:
        raise ValueError(f"{d} does not divide the ambient degree {tw.degree}")
    return x ** (tw.p ** d) == x


def test_subfield_counts_exhaustive(tower23):
    tw = tower23
    for d in (1, 2, 3, 6):
        count = sum(1 for v in range(tw.size) if _in_subfield(tw, tw.element(v), d))
        assert count == 2 ** d
    with pytest.raises(ValueError):
        _in_subfield(tw, tw.one, 4)  # 4 does not divide 6


def test_level_membership_view(tower23):
    tw = tower23
    for x in tw.enumerate_level(2):
        assert _in_subfield(tw, x, tw.level_degree(2))


def test_generator_chain(tower33):
    tw = tower33
    for i in (1, 2, 3):
        g = tw.generator(i)
        n = tw.level_size(i) - 1
        assert (g ** n).val == 1
        for r in (2, 3, 7, 13):
            if n % r == 0:
                assert (g ** (n // r)).val != 1
    for i in (1, 2):
        ratio = (tw.level_size(i + 1) - 1) // (tw.level_size(i) - 1)
        assert (tw.generator(i + 1) ** ratio) == tw.generator(i)


def test_dlog(tower32):
    tw = tower32
    assert tw.dlog(tw.one, 2) == 0
    assert tw.dlog(tw.generator(2), 2) == 1
    g = tw.generator(2)
    for e in range(8):
        assert tw.dlog(g ** e, 2) == e % 8


def test_first_outside_subfield(tower22):
    # F_4 = {0, 1, u, u+1}: the first element outside F_2 is u, encoded 2
    assert tower22.first_outside_subfield(1).val == 2


def test_quadratic_free_selection(tower23):
    tw = tower23
    with pytest.raises(ValueError):
        tw.first_outside_double_subfield(1)  # empty set below level 2
    b = tw.first_outside_double_subfield(2)
    assert not tw._frobenius_fixed(b.val, 4)
    # minimality in the enumeration order
    for x in tw.enumerate_level(3):
        if x.val >= b.val:
            break
        assert tw._frobenius_fixed(x.val, 4)


def test_pick_a_outside(tower33):
    tw = tower33
    for i in (1, 2):
        a = tw.first_outside_subfield(i)
        assert not _in_subfield(tw, a, tw.level_degree(i))
        assert _in_subfield(tw, a, tw.level_degree(i + 1))


def test_element_validation(tower22):
    tw = tower22
    with pytest.raises(ValueError):
        tw.element(2, level=1)  # u is not in F_2
    with pytest.raises(ZeroDivisionError):
        tw.zero.inverse()


def test_bad_configs():
    with pytest.raises(ValueError):
        Tower(6, 2)
    with pytest.raises(ValueError):
        Tower(2, 1)
    with pytest.raises(BudgetError):
        Tower(2, 4)  # ambient degree 24 blows the table budget
    with pytest.raises(ValueError):
        Tower(2, 2, poly=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def test_explicit_poly_roundtrip():
    tw = Tower(2, 2, poly=[1, 1, 1])
    assert tw.poly == (1, 1, 1)


def test_cross_level_equality(tower23):
    tw = tower23
    one_low = tw.element(1, level=1)
    one_high = tw.element(1, level=3)
    assert one_low == one_high
    u = tw.enumerate_level(2)[2]
    assert (one_low + u).level == 2


# -- raw arithmetic against a polynomial oracle ------------------------------

TOWERS = {(2, 3): Tower(2, 3), (3, 3): Tower(3, 3), (5, 2): Tower(5, 2)}


def _digits(tw, v):
    out = []
    for _ in range(tw.degree):
        v, d = divmod(v, tw.p)
        out.append(d)
    return out


def _encode(tw, digits):
    return sum((d % tw.p) * tw.p ** j for j, d in enumerate(digits))


def _oracle_add(tw, a, b):
    return _encode(tw, [x + y for x, y in zip(_digits(tw, a), _digits(tw, b))])


def _oracle_neg(tw, a):
    return _encode(tw, [-x for x in _digits(tw, a)])


def _oracle_mul(tw, a, b):
    prod = polyutil.mul_mod(polyutil.trim(_digits(tw, a)), polyutil.trim(_digits(tw, b)), tw.p)
    return _encode(tw, polyutil.rem_mod(prod, list(tw.poly), tw.p))


@st.composite
def _operands(draw, tw):
    """(a, b) with the edge cases drawn on purpose: a zero operand,
    b = -a (the Zech table's empty entry) and a = b."""
    a = draw(st.integers(0, tw.size - 1))
    b = draw(st.integers(0, tw.size - 1))
    case = draw(st.sampled_from(["any", "a=0", "b=0", "b=-a", "a=b"]))
    if case == "a=0":
        a = 0
    elif case == "b=0":
        b = 0
    elif case == "b=-a":
        b = _oracle_neg(tw, a)
    elif case == "a=b":
        b = a
    return a, b


@pytest.mark.parametrize("key", sorted(TOWERS), ids=lambda k: f"Tower{k}")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raw_ops_match_polynomial_oracle(key, data):
    tw = TOWERS[key]
    a, b = data.draw(_operands(tw))
    assert tw._add(a, b) == _oracle_add(tw, a, b)
    assert tw._neg(a) == _oracle_neg(tw, a)
    assert tw._mul(a, b) == _oracle_mul(tw, a, b)
    assert tw._add(a, tw._neg(a)) == 0


@pytest.mark.parametrize("key", sorted(TOWERS), ids=lambda k: f"Tower{k}")
def test_raw_add_exhaustive_from_one_generator_power(key):
    # every sum g^k + y for one nonzero g^k covers each Zech entry once
    tw = TOWERS[key]
    a = tw._exp[1]
    for b in range(tw.size):
        assert tw._add(a, b) == _oracle_add(tw, a, b)
        assert tw._add(b, a) == _oracle_add(tw, a, b)
