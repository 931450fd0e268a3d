import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import grp
from sl2ext.charmod import TorusCharacter
from sl2ext.coeff import CyclotomicField, PrimeField, RationalField
from sl2ext.grp import torus, unip, weyl
from sl2ext.indmod import HIGHEST, InducedModule
from sl2ext.linalg import SparseSpan, nullspace


def _module(tw, field, exp, level):
    return InducedModule(tw, TorusCharacter(tw, field, exp), level)


def test_dimension_and_labels(tower32, cyc8):
    mod = _module(tower32, cyc8, 1, 2)
    assert mod.dim == 10
    labels = mod.labels()
    assert labels[0] == HIGHEST and len(labels) == 10


def test_action_rules_frozen(tower32, cyc8):
    tw = tower32
    mod = _module(tw, cyc8, 0, 1)
    s = weyl(tw)
    one = mod.highest_vector()
    # s.(s.1) picks up the value at -1 (trivial character: just 1)
    assert mod.act(s, mod.act(s, one)) == one
    # trivial character: s.cell(1) = cell(-1) = cell(2) over F_3
    v = mod.act(s, mod.basis_vector(1))
    assert v == mod.basis_vector(2)


def test_torus_scales_highest_line(tower32, cyc8):
    mod = _module(tower32, cyc8, 3, 2)
    for t in tower32.enumerate_level(2):
        if t.val:
            got = mod.act(torus(t), mod.highest_vector())
            assert got == mod.theta.eval(t) * mod.highest_vector()


@pytest.mark.parametrize("foreign", [CyclotomicField(4), RationalField()], ids=repr)
def test_action_rejects_scalars_of_another_field(tower32, cyc8, foreign):
    mod = _module(tower32, cyc8, 1, 2)
    for g in (weyl(tower32), unip(tower32.one)):
        with pytest.raises(ValueError, match="coefficient mode mismatch"):
            mod.act(g, mod.vec({HIGHEST: foreign.one}))


def test_weyl_square_on_cell0(tower32, cyc8):
    # s.(s.1) = theta(-1).1 for every exponent
    tw = tower32
    s = weyl(tw)
    for e in range(8):
        mod = _module(tw, cyc8, e, 2)
        got = mod.act(s, mod.act(s, mod.highest_vector()))
        assert got == mod.theta.eval(-tw.one) * mod.highest_vector()


@pytest.mark.parametrize("fix,exps", [("tower22", (0, 1)), ("tower32", (0, 1, 3))])
def test_oracle_agreement_exhaustive(fix, exps, request):
    tw = request.getfixturevalue(fix)
    field = CyclotomicField(tw.size - 1)
    for i in (1, 2):
        for e in exps:
            mod = _module(tw, field, e, i)
            for g in grp.enumerate_subgroup(tw, "G", i, budget=1000):
                for label in mod.labels():
                    assert mod.act_label(g, label) == mod.oracle_act_label(g, label)


def test_associativity_random(tower32, cyc8):
    tw = tower32
    mod = _module(tw, cyc8, 1, 2)
    rng = random.Random(7)
    elements = grp.enumerate_subgroup(tw, "G", 2)
    for _ in range(50):
        g1, g2 = rng.choice(elements), rng.choice(elements)
        for label in mod.labels():
            v = mod.basis_vector(label)
            assert mod.act(g1 * g2, v) == mod.act(g1, mod.act(g2, v))


def test_alternating_vector(tower32, cyc8):
    tw = tower32
    mod_tr = _module(tw, cyc8, 0, 1)
    eta = mod_tr.alternating_vector(frozenset({1}))
    assert eta.coeff(HIGHEST) == cyc8.one and eta.coeff(0) == -cyc8.one
    assert mod_tr.alternating_vector(frozenset()) == mod_tr.highest_vector()
    mod_nt = _module(tw, cyc8, 1, 1)
    with pytest.raises(ValueError):
        mod_nt.alternating_vector(frozenset({1}))


@pytest.mark.parametrize("fix,i,expected", [("tower22", 1, 2), ("tower22", 2, 4), ("tower32", 2, 9)])
def test_steinberg_dimension(fix, i, expected, request):
    tw = request.getfixturevalue(fix)
    field = CyclotomicField(tw.size - 1)
    mod = _module(tw, field, 0, i)
    from sl2ext.linalg import SparseSpan

    span = SparseSpan(field)
    for v in mod.steinberg_vectors():
        span.insert(v.support)
    assert span.dim == expected
    closure = mod.span_closure(mod.steinberg_vectors())
    assert closure.dim == expected  # the span is already stable


def test_module_closure_is_everything(tower32, cyc8):
    mod = _module(tower32, cyc8, 1, 2)
    closure = mod.span_closure([mod.highest_vector()])
    assert closure.dim == mod.dim


def test_unipotent_invariants(tower22):
    field = CyclotomicField(3)
    tw = tower22
    mod = _module(tw, field, 1, 2)
    inv = mod.invariant_subspace("U")
    assert inv.dim == 2
    assert inv.contains({HIGHEST: field.one})
    orbit_sum = {x.val: field.one for x in tw.enumerate_level(2)}
    assert inv.contains(orbit_sum)


def test_torus_invariants_contain_highest_for_trivial(tower32, cyc8):
    mod = _module(tower32, cyc8, 0, 1)
    inv = mod.invariant_subspace("T")
    assert inv.contains({HIGHEST: cyc8.one})


def test_group_invariants(tower32, cyc8):
    # nontrivial character: no fixed vectors at all
    assert _module(tower32, cyc8, 1, 1).invariant_subspace("G").dim == 0
    # trivial character: exactly the all-cells sum
    mod = _module(tower32, cyc8, 0, 1)
    inv = mod.invariant_subspace("G")
    assert inv.dim == 1
    allsum = {l: cyc8.one for l in mod.labels()}
    assert inv.contains(allsum)


def _invariant_subspace_dense(mod, which):
    """The fixed space of a subgroup by a literal stacked kernel solve of
    (action - identity) over its generators."""
    field = mod.field
    labels = mod.labels()
    rows: dict = {}
    for gi, g in enumerate(mod._subgroup_generators(which)):
        for l in labels:
            l2, c = mod.act_label(g, l)
            row = rows.setdefault((gi, l2), {})
            row[l] = row.get(l, field.zero) + c
        for l in labels:
            row = rows.setdefault((gi, l), {})
            row[l] = row.get(l, field.zero) - field.one
    sys_rows = [{k: v.rep for k, v in r.items() if v} for r in rows.values()]
    span = SparseSpan(field)
    for v in nullspace(sys_rows, labels, field):
        span.insert_raw(v)
    return span


@pytest.mark.parametrize("which", ["U", "T", "G"])
def test_invariants_match_dense_solver(tower32, cyc8, which):
    for e in (0, 1):
        mod = _module(tower32, cyc8, e, 2)
        fast = mod.invariant_subspace(which)
        dense = _invariant_subspace_dense(mod, which)
        assert fast.dim == dense.dim
        for row in fast.basis():
            assert dense.contains(row)


def test_quotient_by_steinberg_is_trivial_line(tower32, cyc8):
    tw = tower32
    mod = _module(tw, cyc8, 0, 2)
    st = mod.span_closure(mod.steinberg_vectors())
    hv = mod.highest_vector()
    for g in grp.generators(tw, 2):
        assert st.contains((mod.act(g, hv) - hv).support)


def test_lowering_and_alternating_relations(tower32, cyc8):
    tw = tower32
    for e in (0, 1, 2):
        mod = _module(tw, cyc8, e, 2)
        for x in tw.enumerate_level(2):
            if x.val:
                assert mod.check_lowering_formula(x)
    mod_tr = _module(tw, cyc8, 0, 2)
    for x in tw.enumerate_level(2):
        if x.val:
            assert mod_tr.check_alternating_relation(x)


def test_level_mismatch_rejected(tower23, cyc63):
    tw = tower23
    mod = _module(tw, cyc63, 0, 1)
    g = unip(tw.enumerate_level(2)[2])
    with pytest.raises(ValueError):
        mod.act(g, mod.highest_vector())


def test_vector_serialization(tower22):
    field = CyclotomicField(3)
    mod = _module(tower22, field, 0, 1)
    v = mod.highest_vector() - mod.basis_vector(0)
    js = v.to_json()
    assert js == [[{"cell": 0}, "[1/1,0/1]"], [{"cell": 1, "x": 0}, "[-1/1,0/1]"]]


# -- canonical supports and the action as a group action -------------------------


def test_vec_drops_zero_values(tower32, cyc8):
    mod = _module(tower32, cyc8, 1, 2)
    label = mod.labels()[3]
    assert mod.vec({label: cyc8.zero}).support == {}
    v = mod.vec({HIGHEST: cyc8.one, label: cyc8.zero})
    assert v.support == {HIGHEST: cyc8.one}
    assert (v - v).support == {} and (cyc8.zero * v).support == {}


def test_int_multiple_that_vanishes_in_the_field_is_dropped(tower22):
    F2 = PrimeField(2)
    mod = _module(tower22, F2, 0, 1)
    assert (2 * mod.highest_vector()).support == {}


@st.composite
def _module_vectors(draw, mod):
    field = mod.field
    values = st.integers(-3, 3).map(field.scalar)
    return mod.vec(draw(st.dictionaries(st.sampled_from(mod.labels()), values, max_size=5)))


_ELEMENTS = {}


def _level_elements(tw, level):
    key = (tw.q, tw.imax, level)
    if key not in _ELEMENTS:
        _ELEMENTS[key] = grp.enumerate_subgroup(tw, "G", level)
    return _ELEMENTS[key]


@pytest.mark.parametrize("fix,exp,field", [
    ("tower32", 4, PrimeField(7)), ("tower32", 4, RationalField()),
    ("tower22", 1, PrimeField(7)), ("tower22", 0, RationalField()),
], ids=lambda x: repr(x) if not isinstance(x, str) else x)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_action_is_associative_property(fix, exp, field, data, request):
    tw = request.getfixturevalue(fix)
    mod = _module(tw, field, exp, 2)
    elements = _level_elements(tw, 2)
    g, h = data.draw(st.sampled_from(elements)), data.draw(st.sampled_from(elements))
    v = data.draw(_module_vectors(mod))
    hv = mod.act(h, v)
    assert mod.act(g, hv) == mod.act(g * h, v)
    for w in (hv, mod.act(g, hv)):
        assert all(w.support.values())
