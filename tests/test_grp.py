import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import grp
from sl2ext.grp import (
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
from sl2ext.tower import BudgetError


def test_generator_relations(tower32):
    tw = tower32
    s = weyl(tw)
    # s^2 = h(-1)
    assert s * s == torus(-tw.one)
    for t in tw.enumerate_level(2):
        if not t.val:
            continue
        for x in tw.enumerate_level(2):
            h = torus(t)
            assert h * unip(x) * h.inverse() == unip(t * t * x)
    for x in tw.enumerate_level(2):
        for y in tw.enumerate_level(2):
            assert unip(x) * unip(y) == unip(x + y)


@pytest.mark.parametrize("fix", ["tower22", "tower32", "tower52"])
def test_big_cell_rewrite_exhaustive(fix, request):
    tw = request.getfixturevalue(fix)
    for i in (1, 2):
        for a in tw.enumerate_level(i):
            if a.val:
                assert check_big_cell_rewrite(a)
    with pytest.raises(ValueError):
        check_big_cell_rewrite(tw.zero)


def test_bruhat_special_forms(tower32):
    tw = tower32
    f = bruhat(identity(tw))
    assert not f.big_cell and f.x.val == 0 and f.t.val == 1
    f = bruhat(weyl(tw))
    assert f.big_cell and f.x.val == 0 and f.t.val == 1 and f.y.val == 0


def test_bruhat_frozen_example(tower32):
    # [[-1, 0], [1, -1]] over F_3: x = a/c = -1, t = 1/c = 1, y = d/c = -1
    tw = tower32
    m1 = -tw.one
    g = grp.GroupElement(m1, tw.zero, tw.one, m1)
    f = bruhat(g)
    assert f.big_cell
    assert (f.x.val, f.t.val, f.y.val) == (2, 1, 2)
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
    assert len(enumerate_subgroup(tw, "U", 2)) == 9
    assert len(enumerate_subgroup(tw, "T", 1)) == 2
    assert len(enumerate_subgroup(tw, "B", 2)) == 72
    assert subgroup_order("G", 2, 1) == 6
    assert subgroup_order("G", 3, 2) == 720
    assert subgroup_order("G", 3, 2, pgl=True) == 360
    # the PGL enumeration keeps exactly one of each pair {g, -g}
    reps = enumerate_subgroup(tw, "G", 1, pgl=True)
    pairs = {frozenset((g.key(), (g * torus(-tw.one)).key())) for g in reps}
    assert len(reps) == len(pairs) == subgroup_order("G", 3, 1, pgl=True) == 12
    with pytest.raises(BudgetError):
        enumerate_subgroup(tw, "G", 2, budget=100)


def test_center_quotient_reps(tower32, tower23, tower52):
    # q = 3, level 1: T = {1, 2} with 2 = -1, one class
    assert [t.val for t in center_quotient_reps(tower32, 1)] == [1]
    # q = 2, level 2: the center is trivial
    assert len(center_quotient_reps(tower23, 2)) == 3
    # q = 5, level 1: pairs {1, 4} and {2, 3}
    assert [t.val for t in center_quotient_reps(tower52, 1)] == [1, 2]


def test_determinant_enforced(tower22):
    tw = tower22
    with pytest.raises(ValueError):
        grp.GroupElement(tw.one, tw.one, tw.one, tw.one)


@st.composite
def _sl2_elements(draw, tw, level):
    """A uniform-ish SL2 element at the level: a, c not both zero, then b, d."""
    els = tw.enumerate_level(level)
    nonzero = [x for x in els if x.val]
    a = draw(st.sampled_from(els))
    if a.val:
        b, c = draw(st.sampled_from(els)), draw(st.sampled_from(els))
        d = (tw.one + b * c) / a
    else:
        c = draw(st.sampled_from(nonzero))
        b, d = -c.inverse(), draw(st.sampled_from(els))
    return grp.GroupElement(a, b, c, d)


@pytest.mark.parametrize("fix,level", [("tower23", 1), ("tower23", 2), ("tower32", 1), ("tower32", 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bruhat_reassemble_roundtrip_property(fix, level, data, request):
    tw = request.getfixturevalue(fix)
    g = data.draw(_sl2_elements(tw, level))
    form = bruhat(g)
    assert reassemble(form, tw) == g
    assert form.big_cell == bool(g.c.val)
