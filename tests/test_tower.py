import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import polyutil
from sl2ext.tower import BudgetError, Tower
from sl2_helpers import tower_element


def test_f4_arithmetic(tower22):
    tw = tower22
    assert tw.poly == (1, 1, 1)  # first irreducible quadratic over F_2
    u = tower_element(tw, 2)
    assert (u + u).val == 0
    assert (u * u * u).val == 1  # the multiplicative group has order 3
    for x in map(partial(tower_element, tw), tw.units(2)):
        assert (x * x.inverse()).val == 1


def test_enumeration_order_and_sizes(tower23):
    tw = tower23
    assert tw.enumerate_level(1) == [0, 1]
    assert len(tw.enumerate_level(2)) == 4
    assert len(tw.enumerate_level(3)) == 64
    # enumeration is increasing in the encoding, of raw values
    vals = tw.enumerate_level(2)
    assert vals == sorted(vals) and all(type(v) is int for v in vals)


def _in_subfield(tw, x, d):
    """Whether x lies in the degree-d subfield over F_p, by x^(p^d) == x;
    d must divide the ambient degree."""
    if tw.degree % d:
        raise ValueError(f"{d} does not divide the ambient degree {tw.degree}")
    return x ** (tw.p ** d) == x


def test_subfield_counts_exhaustive(tower23):
    tw = tower23
    for d in (1, 2, 3, 6):
        count = sum(1 for v in range(tw.size) if _in_subfield(tw, tower_element(tw, v), d))
        assert count == 2 ** d
    with pytest.raises(ValueError):
        _in_subfield(tw, tower_element(tw, 1), 4)  # 4 does not divide 6


def test_level_membership_view(tower23):
    tw = tower23
    for x in tw.enumerate_level(2):
        assert _in_subfield(tw, tower_element(tw, x), tw.level_degree(2))


def test_generator_chain(tower33):
    tw = tower33
    for i in (1, 2, 3):
        g = tower_element(tw, tw.generator(i))
        n = tw.level_size(i) - 1
        assert (g ** n).val == 1
        for r in (2, 3, 7, 13):
            if n % r == 0:
                assert (g ** (n // r)).val != 1
    for i in (1, 2):
        ratio = (tw.level_size(i + 1) - 1) // (tw.level_size(i) - 1)
        assert tw._pow(tw.generator(i + 1), ratio) == tw.generator(i)


def test_dlog(tower32):
    tw = tower32
    cofactor = (tw.size - 1) // (tw.level_size(2) - 1)
    assert tw.dlog(1) == 0
    assert tw.dlog(tw.generator(2)) // cofactor == 1
    g = tower_element(tw, tw.generator(2))
    for e in range(8):
        assert tw.dlog((g ** e).val) // cofactor == e % 8


def test_first_outside_subfield(tower22):
    # F_4 = {0, 1, u, u+1}: the first element outside F_2 is u, encoded 2
    assert tower22.first_outside_subfield(1) == 2


def test_quadratic_free_selection(tower23):
    tw = tower23
    with pytest.raises(ValueError):
        tw.first_outside_double_subfield(1)  # empty set below level 2
    b = tw.first_outside_double_subfield(2)
    assert not tw._frobenius_fixed(b, 4)
    # minimality in the enumeration order
    for x in tw.enumerate_level(3):
        if x >= b:
            break
        assert tw._frobenius_fixed(x, 4)


def test_pick_a_outside(tower33):
    tw = tower33
    for i in (1, 2):
        a = tower_element(tw, tw.first_outside_subfield(i))
        assert not _in_subfield(tw, a, tw.level_degree(i))
        assert _in_subfield(tw, a, tw.level_degree(i + 1))


def test_element_validation(tower22):
    tw = tower22
    with pytest.raises(ValueError):
        tower_element(tw, 2, level=1)  # u is not in F_2
    with pytest.raises(ZeroDivisionError):
        tower_element(tw, 0).inverse()


@pytest.mark.parametrize("bad", [-1, -5, "size", "size+3"])
def test_raw_values_out_of_range_rejected(tower22, bad):
    tw = tower22
    val = {"size": tw.size, "size+3": tw.size + 3}.get(bad, bad)
    for check in (tw.value, partial(tower_element, tw), tw.dlog):
        with pytest.raises(ValueError, match="out of range"):
            check(val)
    with pytest.raises(ZeroDivisionError):
        tw.dlog(0)


@pytest.mark.parametrize("key", [(2, 2), (3, 2), (4, 2)], ids=lambda k: f"Tower{k}")
def test_raw_pow_matches_repeated_multiplication(key):
    tw = SMALL_TOWERS[key]
    for v in range(tw.size):
        acc = 1
        for e in range(tw.size + 1):
            if v or e > 0:
                assert tw._pow(v, e) == acc
                assert (tower_element(tw, v) ** e).val == acc
            else:
                with pytest.raises(ZeroDivisionError):
                    tw._pow(v, e)
            acc = tw._mul(acc, v)
        if v:
            assert tw._pow(v, -1) == tw._inv(v)


def test_bad_configs():
    with pytest.raises(ValueError):
        Tower(6, 2)
    with pytest.raises(ValueError):
        Tower(2, 1)
    with pytest.raises(BudgetError):
        Tower(2, 4)  # ambient degree 24 blows the table budget


def test_cross_level_equality(tower23):
    tw = tower23
    one_low = tower_element(tw, 1, level=1)
    one_high = tower_element(tw, 1, level=3)
    assert one_low == one_high
    u = tower_element(tw, tw.enumerate_level(2)[2])
    # the level of a sum is read from its value
    assert tower_element(tw, (one_low + u).val, level=2) == one_low + u
    with pytest.raises(ValueError):
        tower_element(tw, (one_low + u).val, level=1)


def test_elements_do_not_mix_with_bare_ints(tower32):
    # a bare int was once taken mod p: u + 4 meant u + 1 over F_3
    tw = tower32
    u = tower_element(tw, tw.enumerate_level(2)[4])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: a == b):
        for a, b in ((u, 4), (4, u), (u, True)):
            with pytest.raises(TypeError):
                op(a, b)
    assert u + tower_element(tw, 1) == tower_element(tw, tw._add(u.val, 1))
    assert u != "4" and not hasattr(tw, "from_int")


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


# -- the single definitions: units, escape searches, inverse, digits ----------

SMALL_TOWERS = {(2, 2): Tower(2, 2), (3, 2): Tower(3, 2), (4, 2): Tower(4, 2),
                (2, 3): Tower(2, 3), (3, 3): Tower(3, 3)}


def _oracle_frobenius_fixed(tw, v, d):
    """x^(p^d) == x by polynomial powering, without the log tables."""
    vec = polyutil.trim(_digits(tw, v))
    return polyutil.pow_mod(vec, tw.p ** d, list(tw.poly), tw.p) == vec


@pytest.mark.parametrize("key", [(2, 2), (3, 2), (4, 2)], ids=lambda k: f"Tower{k}")
def test_raw_inverse_exhaustive(key):
    tw = SMALL_TOWERS[key]
    for v in range(1, tw.size):
        vec = polyutil.trim(_digits(tw, v))
        expect = _encode(tw, polyutil.pow_mod(vec, tw.size - 2, list(tw.poly), tw.p))
        assert tw._inv(v) == expect and tw._mul(v, tw._inv(v)) == 1
        assert tower_element(tw, v).inverse().val == expect
    with pytest.raises(ZeroDivisionError):
        tw._inv(0)


@pytest.mark.parametrize("key", sorted(SMALL_TOWERS), ids=lambda k: f"Tower{k}")
def test_units_are_the_nonzero_level_elements(key):
    tw = SMALL_TOWERS[key]
    for i in range(1, tw.imax + 1):
        units = tw.units(i)
        assert units == [x for x in tw.enumerate_level(i) if x != 0]
        assert len(units) == tw.q ** math.factorial(i) - 1
        assert all(tw.value(x, level=i) == x for x in units)


@pytest.mark.parametrize("key", sorted(SMALL_TOWERS) + [(4, 3)], ids=lambda k: f"Tower{k}")
def test_the_level_table_is_the_subfield_rule(key):
    # value and the module actions read level membership from one table per
    # level; it answers _frobenius_fixed at level_degree(i) for every value
    tw = SMALL_TOWERS.get(key) or Tower(*key)
    for i in range(1, tw.imax + 1):
        d, mask = tw.level_degree(i), tw._level_mask(i)
        assert len(mask) == tw.size and tw._level_mask(i) is mask
        assert [bool(b) for b in mask] == [tw._frobenius_fixed(v, d) for v in range(tw.size)]


@pytest.mark.parametrize("key", sorted(SMALL_TOWERS), ids=lambda k: f"Tower{k}")
def test_level_membership_matches_polynomial_frobenius(key):
    tw = SMALL_TOWERS[key]
    for i in range(1, tw.imax + 1):
        d = tw.level_degree(i)
        expect = [v for v in range(tw.size) if _oracle_frobenius_fixed(tw, v, d)]
        assert tw.enumerate_level(i) == expect
    for v in range(tw.size):
        lowest = next(i for i in range(1, tw.imax + 1)
                      if _oracle_frobenius_fixed(tw, v, tw.level_degree(i)))
        for i in range(1, tw.imax + 1):
            if i >= lowest:
                assert tw.value(v, level=i) == v
                assert tower_element(tw, v, level=i).val == v
            else:
                for check in (tw.value, partial(tower_element, tw)):
                    with pytest.raises(ValueError, match="not fixed"):
                        check(v, level=i)


@pytest.mark.parametrize("key", sorted(SMALL_TOWERS), ids=lambda k: f"Tower{k}")
def test_escape_searches_match_a_brute_force_scan(key):
    tw = SMALL_TOWERS[key]

    def scan(i, d):
        """First level-(i+1) encoding not fixed by Frobenius^d, or None."""
        return next((v for v in range(tw.size)
                     if _oracle_frobenius_fixed(tw, v, tw.level_degree(i + 1))
                     and not _oracle_frobenius_fixed(tw, v, d)), None)

    for i in range(1, tw.imax):
        a = tw.first_outside_subfield(i)
        assert a == scan(i, tw.level_degree(i))
        if i < 2:
            assert scan(i, 2 * tw.level_degree(i)) is None  # all of level 2 is quadratic
            with pytest.raises(ValueError):
                tw.first_outside_double_subfield(i)
        else:
            b = tw.first_outside_double_subfield(i)
            assert b == scan(i, 2 * tw.level_degree(i))
    for search in (tw.first_outside_subfield, tw.first_outside_double_subfield):
        with pytest.raises(ValueError):
            search(tw.imax)


@pytest.mark.parametrize("key", sorted(SMALL_TOWERS), ids=lambda k: f"Tower{k}")
def test_digits_round_trip_with_encode(key):
    tw = SMALL_TOWERS[key]
    for v in range(tw.size):
        ds = polyutil.digits(v, tw.p, tw.degree)
        assert len(ds) == tw.degree and all(0 <= c < tw.p for c in ds)
        assert ds == _digits(tw, v) and tw._encode(ds) == v


@pytest.mark.parametrize("q,level", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2),
                                     (5, 1), (5, 2)])
def test_the_fused_cell_map_matches_the_raw_ops(q, level):
    """_mobius at every (x, t, y, L) of the level, y None for the small
    cell, against the raw ops composed; this meets x = 0, y = 0 and
    y + L = 0 (the big cell's None)."""
    tw = Tower(q, 2)
    add, neg, mul, inv = tw._add, tw._neg, tw._mul, tw._inv
    elements = tw.enumerate_level(level)
    nones = 0
    for x in elements:
        for t in tw.units(level):
            t2 = mul(t, t)
            small = tw._mobius(x, t)
            assert [small(L) for L in elements] == [add(x, mul(t2, L)) for L in elements]
            for y in elements:
                big = tw._mobius(x, t, y)
                for L in elements:
                    l = add(y, L)
                    if l == 0:
                        assert big(L) is None
                        nones += 1
                    else:
                        assert big(L) == (add(x, neg(mul(t2, inv(l)))), mul(l, inv(t)))
    assert elements[0] == 0 and nones == len(elements) ** 2 * len(tw.units(level))
