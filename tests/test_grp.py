import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import grp
from sl2ext.grp import (
    BruhatForm,
    bruhat,
    center_quotient_reps,
    check_big_cell_rewrite,
    enumerate_subgroup,
    identity,
    reassemble,
    subgroup_order,
    torus,
    unip,
    weyl,
)
from sl2_helpers import group_inverse, tower_element


def test_generator_relations(tower32):
    tw = tower32
    s = weyl(tw)
    # s^2 = h(-1)
    assert s * s == torus(tw, tw._neg(1))
    for t in tw.units(2):
        for x in tw.enumerate_level(2):
            h = torus(tw, t)
            assert h * unip(tw, x) * group_inverse(h) == unip(tw, tw._mul(tw._mul(t, t), x))
    for x in tw.enumerate_level(2):
        for y in tw.enumerate_level(2):
            assert unip(tw, x) * unip(tw, y) == unip(tw, tw._add(x, y))


@pytest.mark.parametrize("fix", ["tower22", "tower32", "tower52"])
def test_big_cell_rewrite_exhaustive(fix, request):
    tw = request.getfixturevalue(fix)
    for i in (1, 2):
        for a in tw.units(i):
            assert check_big_cell_rewrite(tw, a)
    with pytest.raises(ValueError):
        check_big_cell_rewrite(tw, 0)


def test_bruhat_special_forms(tower32):
    tw = tower32
    f = bruhat(identity(tw))
    assert not f.big_cell and f.x == 0 and f.t == 1
    f = bruhat(weyl(tw))
    assert f.big_cell and f.x == 0 and f.t == 1 and f.y == 0
    # y = 0 is still the big cell; only y None is the small one
    assert BruhatForm(0, 1, 0) == f and not BruhatForm(0, 1, None).big_cell
    with pytest.raises(AttributeError):
        f.y = None


def test_bruhat_frozen_example(tower32):
    # [[-1, 0], [1, -1]] over F_3: x = a/c = -1, t = 1/c = 1, y = d/c = -1
    tw = tower32
    m1 = tw._neg(1)
    g = grp.GroupElement(tw, m1, 0, 1, m1)
    f = bruhat(g)
    assert f.big_cell
    assert (f.x, f.t, f.y) == (2, 1, 2)
    assert reassemble(f, tw) == g


@pytest.mark.parametrize("fix,i", [("tower22", 1), ("tower22", 2), ("tower32", 1)])
def test_bruhat_roundtrip_and_cells(fix, i, request):
    tw = request.getfixturevalue(fix)
    n = tw.level_size(i)
    small = big = 0
    for g in enumerate_subgroup(tw, "G", i):
        assert reassemble(bruhat(g), tw) == g
        if bruhat(g).big_cell:
            big += 1
        else:
            small += 1
    assert small == n * (n - 1)
    assert big == n * n * (n - 1)
    assert small + big == subgroup_order("G", tw.q, i)


def test_subgroup_orders_and_enumeration(tower32):
    tw = tower32
    assert len(enumerate_subgroup(tw, "B", 2)) == 72 == subgroup_order("B", 3, 2)
    assert subgroup_order("G", 2, 1) == 6
    assert subgroup_order("G", 3, 2) == 720
    assert subgroup_order("G", 3, 2, pgl=True) == 360
    # the PGL enumeration keeps exactly one of each pair {g, -g}
    reps = enumerate_subgroup(tw, "G", 1, pgl=True)
    pairs = {frozenset((g.key(), (g * torus(tw, tw._neg(1))).key())) for g in reps}
    assert len(reps) == len(pairs) == subgroup_order("G", 3, 1, pgl=True) == 12
    for which in ("U", "T"):
        with pytest.raises(ValueError, match="unknown subgroup"):
            enumerate_subgroup(tw, which, 1)


@pytest.mark.parametrize("fix", ["tower22", "tower32"])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("pgl", [False, True])
def test_enumeration_order_is_pinned(fix, level, pgl, request):
    # act-oracle draws with rng.choice from this list and GroupTable's index
    # and BFS order follow it, while the goldens pin only PASS counts
    tw = request.getfixturevalue(fix)
    xs = tw.enumerate_level(level)
    ts = center_quotient_reps(tw, level) if pgl else tw.units(level)
    borel = [reassemble(BruhatForm(x, t, None), tw) for x in xs for t in ts]
    big = [reassemble(BruhatForm(x, t, y), tw) for x in xs for t in ts for y in xs]
    assert enumerate_subgroup(tw, "B", level, pgl=pgl) == borel
    assert enumerate_subgroup(tw, "G", level, pgl=pgl) == borel + big


@pytest.mark.parametrize("fix", ["tower22", "tower32"])
@pytest.mark.parametrize("level", [1, 2])
def test_generators_generate_the_level_group(fix, level, request):
    # span_closure and GroupTable's BFS rest on this
    tw = request.getfixturevalue(fix)
    gens = grp.generators(tw, level)
    whole = set(enumerate_subgroup(tw, "G", level))
    seen = {identity(tw)}
    frontier = list(seen)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = g * s
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    assert seen <= whole
    assert len(seen) == subgroup_order("G", tw.q, level)


def test_center_quotient_reps(tower32, tower23, tower52):
    # q = 3, level 1: T = {1, 2} with 2 = -1, one class
    assert center_quotient_reps(tower32, 1) == [1]
    # q = 2, level 2: the center is trivial
    assert len(center_quotient_reps(tower23, 2)) == 3
    # q = 5, level 1: pairs {1, 4} and {2, 3}
    assert center_quotient_reps(tower52, 1) == [1, 2]


def test_determinant_enforced(tower22):
    tw = tower22
    with pytest.raises(ValueError):
        grp.GroupElement(tw, 1, 1, 1, 1)


def _entries(g):
    """g's entries as TowerElems, for the operator reference below."""
    return [tower_element(g.tower, v) for v in g.key()]


def _vals(*elems):
    return tuple(None if x is None else x.val for x in elems)


def _old_product(g, h):
    """The product through TowerElem operators, the reference for the raw one."""
    a, b, c, d = _entries(g)
    e, f, x, y = _entries(h)
    return _vals(a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y)


def _old_bruhat(g):
    a, b, c, d = _entries(g)
    if not c:
        return _vals(a * b, a, None)
    cinv = c.inverse()
    return _vals(a * cinv, cinv, d * cinv)


def _level(g):
    """The lowest level holding every entry of g, read from the values."""
    tw = g.tower
    return next(i for i in range(1, tw.imax + 1)
                if all(tw._frobenius_fixed(v, tw.level_degree(i)) for v in g.key()))


@pytest.mark.parametrize("fix", ["tower22", "tower32"])
def test_raw_arithmetic_matches_towerelem_operators(fix, request):
    tw = request.getfixturevalue(fix)
    rng = random.Random(fix)
    low, high = enumerate_subgroup(tw, "G", 1), enumerate_subgroup(tw, "G", 2)
    # u(x) and the generators hold level-1 and level-2 entries side by side
    mixed = [unip(tw, x) for x in tw.enumerate_level(2)] + grp.generators(tw, 1) + grp.generators(tw, 2)
    others = low + mixed + rng.sample(high, 4)
    for g in low + high + mixed:
        for h in others:
            for x, y in ((g, h), (h, g)):
                prod = x * y
                assert prod.key() == _old_product(x, y)
                assert _level(prod) <= max(_level(x), _level(y))
        a, b, c, d = _entries(g)
        inv = group_inverse(g)
        assert inv.key() == _vals(d, -b, -c, a) and g * inv == identity(tw)
        assert _level(inv) == _level(g)
        form = bruhat(g)
        assert (form.x, form.t, form.y) == _old_bruhat(g)


def test_raw_arithmetic_still_rejects_bad_matrices(tower22, tower32):
    with pytest.raises(ValueError, match="determinant"):
        grp.GroupElement(tower22, 1, 1, 0, tower22.generator(2))
    with pytest.raises(ValueError, match="different towers"):
        _ = identity(tower22) * identity(tower32)


@pytest.mark.parametrize("bad", [-1, "size"])
def test_out_of_range_entries_rejected(tower22, tower23, bad):
    # -1 would read _log[-1] and pass as an SL2 element; size would index
    # past the tables
    tw = tower22
    val = tw.size if bad == "size" else bad
    for entries in ((val, 0, 0, 1), (1, val, 0, 1), (1, 0, val, 1), (1, 0, 0, val)):
        with pytest.raises(ValueError, match="out of range"):
            grp.GroupElement(tw, *entries)
    for make in (unip, torus):
        with pytest.raises(ValueError, match="out of range"):
            make(tw, val)
    with pytest.raises(ValueError, match="out of range"):
        grp.GroupElement(tower23, -1, 0, 0, 32)


@st.composite
def _sl2_elements(draw, tw, level):
    """A uniform-ish SL2 element at the level: a, c not both zero, then b, d."""
    els = [tower_element(tw, x) for x in tw.enumerate_level(level)]
    nonzero = els[1:]
    a = draw(st.sampled_from(els))
    if a.val:
        b, c = draw(st.sampled_from(els)), draw(st.sampled_from(els))
        d = (tower_element(tw, 1) + b * c) / a
    else:
        c = draw(st.sampled_from(nonzero))
        b, d = -c.inverse(), draw(st.sampled_from(els))
    return grp.GroupElement(tw, a.val, b.val, c.val, d.val)


@pytest.mark.parametrize("fix,level", [("tower23", 1), ("tower23", 2), ("tower32", 1), ("tower32", 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bruhat_reassemble_roundtrip_property(fix, level, data, request):
    tw = request.getfixturevalue(fix)
    g = data.draw(_sl2_elements(tw, level))
    form = bruhat(g)
    assert reassemble(form, tw) == g
    assert form.big_cell == bool(g.c)
