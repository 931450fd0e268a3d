import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext import grp, towerext
from sl2ext.charmod import TorusCharacter
from sl2ext.coeff import CyclotomicField, PrimeField, RationalField
from sl2ext.grp import GroupElement, torus, unip, weyl
from sl2ext.indmod import HIGHEST, InducedModule, Vec
from sl2ext.linalg import SparseSpan, _acc, monomial_invariants, nullspace
from sl2_helpers import group_inverse
from test_coeff import _elements, integral_fraction_cases


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
    for t in tower32.units(2):
        got = mod.act(torus(tower32, t), mod.highest_vector())
        assert got == mod.highest_vector().scale(mod.theta.eval(t))


def test_weyl_square_on_cell0(tower32, cyc8):
    # s.(s.1) = theta(-1).1 for every exponent
    tw = tower32
    s = weyl(tw)
    for e in range(8):
        mod = _module(tw, cyc8, e, 2)
        got = mod.act(s, mod.act(s, mod.highest_vector()))
        assert got == mod.highest_vector().scale(mod.theta.eval(tw._neg(1)))


# levels 1 and 2, but only level 1 at q = 5, whose level-2 group has 15,600 elements
ORACLE_LEVELS = {"tower52": (1,)}


@pytest.mark.parametrize("fix,exps", [("tower22", (0, 1)), ("tower32", (0, 1, 3)),
                                      ("tower42", (0, 1, 5)), ("tower52", (0, 1, 6))])
def test_oracle_agreement_exhaustive(fix, exps, request):
    tw = request.getfixturevalue(fix)
    field = CyclotomicField(tw.size - 1)
    for i in ORACLE_LEVELS.get(fix, (1, 2)):
        for e in exps:
            mod = _module(tw, field, e, i)
            for g in grp.enumerate_subgroup(tw, "G", i):
                image = mod.action(g).label
                for label in mod.labels():
                    assert image(label) == mod.oracle_act_label(g, label)


def _oracle_image(mod, g, v):
    """g . v as the sum of the matrix oracle over v's support."""
    f = mod.field
    out = {}
    for label, c in v.support.items():
        l2, k = mod.oracle_act_label(g, label)
        _acc(out, l2, f._mul(c, k), f._add, f.zero)
    return Vec(mod, out)


# (tower, field, character order at levels 1-2, exponents): p = 2 and odd p
# in each coefficient mode; over Q only characters of order <= 2 exist
ORACLE_MODES = {
    "q2-cyclo": ("tower22", CyclotomicField(15), 15, (1, 4)),
    "q2-fp": ("tower22", PrimeField(31), 15, (1,)),
    "q2-rat": ("tower22", RationalField(), 2, (0,)),
    "q3-cyclo": ("tower32", CyclotomicField(8), 8, (1, 3)),
    "q3-fp": ("tower32", PrimeField(17), 8, (1, 2)),
    "q3-rat": ("tower32", RationalField(), 2, (0, 4)),
}


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_act_on_vectors_matches_oracle_sum(mode, request):
    fix, field, order, exps = ORACLE_MODES[mode]
    tw = request.getfixturevalue(fix)
    rng = random.Random(mode)

    def coeff():
        return field._mul(field.root_of_unity(order, rng.randrange(order)), field.scalar(rng.randint(1, 5)))

    for i in (1, 2):
        for e in exps:
            mod = _module(tw, field, e, i)
            labels = mod.labels()
            for g in grp.enumerate_subgroup(tw, "G", i):
                form = grp.bruhat(g)
                support = set(rng.sample(labels, rng.randint(2, len(labels))))
                if form.big_cell:
                    support.add(tw._neg(form.y))  # the label with y + L = 0
                v = Vec(mod, {l: coeff() for l in support})
                assert mod.act(g, v) == _oracle_image(mod, g, v)
                # images that cancel: the part of v on half its support
                half = set(sorted(support)[::2])
                part = Vec(mod, {l: c for l, c in v.support.items() if l in half})
                rest = mod.act(g, v) - mod.act(g, part)
                assert rest == mod.act(g, v - part) == _oracle_image(mod, g, v - part)
                assert not mod.act(g, v) - _oracle_image(mod, g, v)


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
    # eta = (1 - s).1 is the Steinberg vector at x = 0; its relation needs
    # the trivial character and a nonzero x
    tw = tower32
    mod_tr = _module(tw, cyc8, 0, 1)
    hv = mod_tr.highest_vector()
    eta = mod_tr.steinberg_vectors()[0]
    assert eta == hv - mod_tr.act(weyl(tw), hv)
    assert eta.support == {HIGHEST: cyc8.one, 0: cyc8._sub(cyc8.zero, cyc8.one)}
    with pytest.raises(ValueError):
        mod_tr.check_alternating_relation([1, 0])
    mod_nt = _module(tw, cyc8, 1, 1)
    with pytest.raises(ValueError):
        mod_nt.check_alternating_relation([1])


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


def test_steinberg_batch_costs_linear_row_operations(tower33, monkeypatch):
    # every Steinberg vector holds the highest line, the smallest key:
    # inserted one by one in ascending x they cost 266,084 row operations
    field = PrimeField(7)
    mod = _module(tower33, field, 0, 3)
    vecs = [v.support for v in mod.steinberg_vectors()]
    assert len(vecs) == 729 and vecs == sorted(vecs, key=max)
    calls = 0
    sub_scaled = field._sub_scaled

    def counted(*args):
        nonlocal calls
        calls += 1
        return sub_scaled(*args)

    monkeypatch.setattr(field, "_sub_scaled", counted)
    span = SparseSpan(field)
    assert len(span.extend(vecs)) == span.dim == 729
    assert calls <= 2 * 729


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
    orbit_sum = {x: field.one for x in tw.enumerate_level(2)}
    assert inv.contains(orbit_sum)


def test_torus_invariants_contain_highest_for_trivial(tower32, cyc8):
    mod = _module(tower32, cyc8, 0, 1)
    inv = mod.invariant_subspace("T")
    assert inv.contains({HIGHEST: cyc8.one})


def _group_invariants(mod):
    """The fixed space of the whole level group, by the combinatorial
    kernel of its generators."""
    span = SparseSpan(mod.field)
    maps = [mod.action(g).label for g in grp.generators(mod.tower, mod.level)]
    for comp in monomial_invariants(mod.labels(), maps, mod.field):
        span.insert(comp)
    return span


def test_group_invariants(tower32, cyc8):
    # nontrivial character: no fixed vectors at all
    assert _group_invariants(_module(tower32, cyc8, 1, 1)).dim == 0
    # trivial character: exactly the all-cells sum
    mod = _module(tower32, cyc8, 0, 1)
    inv = _group_invariants(mod)
    assert inv.dim == 1
    allsum = {l: cyc8.one for l in mod.labels()}
    assert inv.contains(allsum)


def _subgroup_generators(mod, which):
    tw = mod.tower
    return {"U": grp.unipotent_generators(tw, mod.level),
            "T": [torus(tw, tw.generator(mod.level))],
            "G": grp.generators(tw, mod.level)}[which]


def _invariant_subspace_dense(mod, which):
    """The fixed space of a subgroup by a literal stacked kernel solve of
    (action - identity) over its generators."""
    field = mod.field
    labels = mod.labels()
    rows: dict = {}
    for gi, g in enumerate(_subgroup_generators(mod, which)):
        image = mod.action(g).label
        for l in labels:
            l2, c = image(l)
            row = rows.setdefault((gi, l2), {})
            row[l] = field._add(row.get(l, field.zero), c)
        for l in labels:
            row = rows.setdefault((gi, l), {})
            row[l] = field._sub(row.get(l, field.zero), field.one)
    sys_rows = [{k: v for k, v in r.items() if v != field.zero} for r in rows.values()]
    span = SparseSpan(field)
    for v in nullspace(sys_rows, labels, field):
        span.insert(v)
    return span


@pytest.mark.parametrize("which", ["U", "T", "G"])
def test_invariants_match_dense_solver(tower32, cyc8, which):
    for e in (0, 1):
        mod = _module(tower32, cyc8, e, 2)
        fast = _group_invariants(mod) if which == "G" else mod.invariant_subspace(which)
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
        assert mod.check_lowering_formula(tw.units(2)) is None
    mod_tr = _module(tw, cyc8, 0, 2)
    assert mod_tr.check_alternating_relation(tw.units(2)) is None


def test_relations_return_the_first_failing_x(tower32, cyc8, monkeypatch):
    # a broken action for s makes every x fail: the first one is reported
    tw = tower32
    xs = tw.units(2)
    mod = _module(tw, cyc8, 1, 2)
    mod_tr = _module(tw, cyc8, 0, 2)
    compile_ = InducedModule._compile

    def broken(self, g):
        image = compile_(self, g)
        if g != weyl(tw):
            return image

        def shifted(label):  # s . label picks up one more
            l2, c = image(label)
            return l2, self.field._add(c, self.field.one)
        return shifted

    monkeypatch.setattr(InducedModule, "_compile", broken)
    assert mod.check_lowering_formula(xs[::-1]) == xs[-1]
    assert mod_tr.check_alternating_relation(xs) == xs[0]
    assert mod_tr.check_reflection_relation([], mod_tr.highest_vector()) is None


@pytest.mark.parametrize("check", ["lowering", "alternating", "reflection"])
def test_relations_compile_s_once_per_call(tower32, cyc8, monkeypatch, check):
    tw = tower32
    mod = _module(tw, cyc8, 0, 2)
    run = {"lowering": lambda xs: mod.check_lowering_formula(xs),
           "alternating": lambda xs: mod.check_alternating_relation(xs),
           "reflection": lambda xs: mod.check_reflection_relation(xs, mod.steinberg_vectors()[0].scale(cyc8.scalar(3)))}[check]
    counts = _count_compiles(monkeypatch)
    assert run(tw.units(2)) is None
    # s once; u(x) and u(-1/x) once each per x, through the single-use act
    assert counts[(id(mod), weyl(tw).key())] == 1
    assert sum(counts.values()) == 1 + 2 * len(tw.units(2))


def test_integral_fraction_reps_compare_equal_in_vectors(tower32, cyc8):
    mod = _module(tower32, cyc8, 0, 1)
    (p1, one), (pz, zeta), (p0, _) = integral_fraction_cases(cyc8)
    for got, want in ((p1, one), (pz, zeta)):
        v, w = Vec(mod, {0: got, 1: cyc8.one}), Vec(mod, {0: want, 1: cyc8.one})
        assert v == w
        assert hash(frozenset(v.support.items())) == hash(frozenset(w.support.items()))
        assert not (v - w).support and v + w == w.scale(cyc8.scalar(2))
    # a zero with integral Fraction coefficients scales a vector to nothing
    assert not Vec(mod, {0: one}).scale(p0).support


def test_level_mismatch_rejected(tower23, cyc63):
    tw = tower23
    mod = _module(tw, cyc63, 0, 1)
    g = unip(tw, tw.enumerate_level(2)[2])
    with pytest.raises(ValueError, match="above the module level"):
        mod.act(g, mod.highest_vector())


@pytest.mark.parametrize("fix", ["tower23", "tower32"])
@pytest.mark.parametrize("position", "abcd")
def test_one_entry_above_the_level_is_rejected(fix, position, cyc63, request):
    # u(x)s, u(x), the lower unipotent and s u(x) put x outside level i in
    # one entry, and 0 and +-1, which lie in every level, in the others
    tw = request.getfixturevalue(fix)
    one, minus_one = 1, tw._neg(1)
    for i in range(1, tw.imax):
        x = tw.first_outside_subfield(i)
        entries = {"a": (x, minus_one, one, 0), "b": (one, x, 0, one),
                   "c": (one, 0, x, one), "d": (0, minus_one, one, x)}[position]
        g = GroupElement(tw, *entries)
        with pytest.raises(ValueError, match="above the module level"):
            _module(tw, cyc63, 0, i).action(g)
        above = _module(tw, cyc63, 0, i + 1)
        assert above.action(g)(above.highest_vector())


def test_action_rejects_an_element_of_another_tower(tower22, tower32):
    # the raw values of F_9 read as F_4 values once gave cell(0) -> (1, 1)
    mod = _module(tower22, RationalField(), 0, 1)
    g = unip(tower32, 1)
    with pytest.raises(ValueError, match="different tower"):
        mod.act(g, mod.highest_vector())
    with pytest.raises(ValueError, match="different tower"):
        mod.action(g)


def test_compiled_action_matches_the_single_use_calls(tower32, cyc8):
    tw = tower32
    mod = _module(tw, cyc8, 3, 2)
    v = Vec(mod, {HIGHEST: cyc8.one, 0: cyc8.root_of_unity(8, 1), 4: cyc8._sub(cyc8.zero, cyc8.one)})
    for g in grp.generators(tw, 2) + [unip(tw, 1) * weyl(tw) * torus(tw, tw.generator(2))]:
        action = mod.action(g)
        assert all(mod.act(g, mod.basis_vector(l)).support == dict([action.label(l)])
                   for l in mod.labels())
        assert action(v) == mod.act(g, v) and action(v) == action(v)
    other = _module(tw, cyc8, 3, 1)
    with pytest.raises(ValueError, match="different module"):
        mod.action(weyl(tw))(other.highest_vector())


def _count_compiles(monkeypatch):
    """Patch InducedModule._compile to count (module, element) compiles."""
    counts = {}
    compile_ = InducedModule._compile

    def counted(self, g):
        key = (id(self), g.key())
        counts[key] = counts.get(key, 0) + 1
        return compile_(self, g)

    monkeypatch.setattr(InducedModule, "_compile", counted)
    return counts


def test_span_closure_compiles_each_generator_once(tower33, monkeypatch):
    mod = _module(tower33, PrimeField(7), 0, 2)
    counts = _count_compiles(monkeypatch)
    assert mod.span_closure([mod.highest_vector()]).dim == mod.dim
    gens = grp.generators(tower33, 2)
    assert counts == {(id(mod), g.key()): 1 for g in gens}


def test_level_is_read_from_the_entries(tower23, cyc63):
    # products of level-2 factors whose entries all lie in level 1 act on M_1
    tw = tower23
    mod = _module(tw, cyc63, 1, 1)
    x = tw.first_outside_subfield(1)
    t = tw.generator(2)
    t_2 = tw._inv(tw._mul(t, t))
    for g, expect in ((unip(tw, x) * unip(tw, tw._neg(x)), grp.identity(tw)),
                      (torus(tw, t) * unip(tw, t_2) * group_inverse(torus(tw, t)), unip(tw, 1))):
        assert g == expect
        for label in mod.labels():
            v = mod.basis_vector(label)
            assert mod.act(g, v) == mod.act(expect, v)


# -- canonical supports and the action as a group action -------------------------


def test_vec_drops_zero_values(tower32, cyc8):
    mod = _module(tower32, cyc8, 1, 2)
    label = mod.labels()[3]
    v = Vec(mod, {HIGHEST: cyc8.one, label: cyc8.root_of_unity(8, 1)})
    assert (v - v).support == {} and v.scale(cyc8.zero).support == {}
    assert (v + (-v)).support == {} and (v - v.scale(cyc8.one)).support == {}


def test_steinberg_coordinates_roundtrip(tower22):
    F = CyclotomicField(3)
    tw = tower22
    mod = _module(tw, F, 0, 2)
    vecs = mod.steinberg_vectors()
    v = vecs[0].scale(F.scalar(2)) - vecs[2].scale(F.scalar(5))
    coords = mod.steinberg_coordinates(v)
    xs = tw.enumerate_level(2)
    assert coords == {xs[0]: F.scalar(2), xs[2]: F.scalar(-5)}
    with pytest.raises(ValueError):
        mod.steinberg_coordinates(mod.highest_vector())
    with pytest.raises(ValueError):
        _module(tw, F, 0, 1).steinberg_coordinates(v)


# -- scaling, and the field check where a character's values enter --------------


@pytest.mark.parametrize("foreign", [CyclotomicField(4), RationalField()], ids=repr)
def test_action_rejects_scalars_of_another_field(tower32, cyc8, foreign):
    # a raw rep carries no field: the values of a character over another
    # field are stopped before they are summed or scaled under the action
    mod = _module(tower32, cyc8, 1, 2)
    a = tower32.first_outside_subfield(1)
    eta = towerext.borel_average(TorusCharacter(tower32, cyc8, 0), 1, mod, a)
    chi = TorusCharacter(tower32, foreign, 0)
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        towerext.borel_average(chi, 1, mod, a)
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        towerext.check_borel_weight(eta, chi, 1)


@pytest.mark.parametrize("foreign", [PrimeField(11), RationalField()], ids=repr)
@pytest.mark.parametrize("filled", [False, True], ids=["empty", "nonempty"])
def test_vec_and_scaling_reject_scalars_of_another_field(tower22, foreign, filled):
    # scaling a vector by a character's values checks the character's field,
    # also when the vector is empty and no value would be scaled
    F7 = PrimeField(7)
    mod = _module(tower22, F7, 1, 2)
    label = mod.labels()[2]
    own = {HIGHEST: F7.one, label: F7.scalar(3)} if filled else {}
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        towerext.check_borel_weight(Vec(mod, own), TorusCharacter(tower22, foreign, 0), 1)


def test_vec_and_scaling_accept_an_equal_field_instance(tower22):
    # the field check compares fields by value: a second F_7 instance passes
    mod = _module(tower22, PrimeField(7), 1, 2)
    theta = TorusCharacter(tower22, PrimeField(7), 1)
    v = Vec(mod, {HIGHEST: PrimeField(7).scalar(2)})
    assert v.scale(PrimeField(7).scalar(3)).support == {HIGHEST: 6}
    assert v.scale(PrimeField(7).zero).support == {}
    eta = towerext.borel_average(theta, 1, mod, tower22.first_outside_subfield(1))
    assert eta and towerext.check_borel_weight(eta, theta, 1)


def test_int_multiple_that_vanishes_in_the_field_is_dropped(tower22):
    F2 = PrimeField(2)
    mod = _module(tower22, F2, 0, 1)
    assert mod.highest_vector().scale(F2.scalar(2)).support == {}


@st.composite
def _module_vectors(draw, mod):
    field = mod.field
    values = st.integers(-3, 3).map(field.scalar).filter(lambda c: c != field.zero)
    return Vec(mod, draw(st.dictionaries(st.sampled_from(mod.labels()), values, max_size=5)))


def _assert_raw(v):
    """Every value of v is a nonzero raw rep of its module's field."""
    field = v.module.field
    for r in v.support.values():
        assert r != field.zero
        if isinstance(field, PrimeField):
            # a residue, or the encoding sum(c_j * l^j) of an F_{l^m} element
            assert type(r) is int and 0 <= r < field.size
        elif isinstance(field, RationalField):
            assert type(r) is int or (type(r) is Fraction and r.denominator > 1)
        else:
            # a cyclotomic product with a non-integral factor may leave an
            # integral Fraction coefficient, equal and hashed alike to the int
            assert isinstance(r, tuple) and len(r) == field.degree
            assert all(type(x) in (int, Fraction) for x in r)


_ELEMENTS = {}
_BUILT = {}


def _level_elements(tw, level):
    key = (tw.q, tw.imax, level)
    if key not in _ELEMENTS:
        _ELEMENTS[key] = grp.enumerate_subgroup(tw, "G", level)
    return _ELEMENTS[key]


def _builder_vectors(tw, field, exp):
    """The towerext builders' vectors: the Borel average into level 2, and
    where the tower has a level 3 the group average and the Steinberg
    weight vector into it."""
    key = (tw.q, tw.imax, exp, field)
    if key not in _BUILT:
        theta = TorusCharacter(tw, field, exp)
        mod2 = InducedModule(tw, theta, 2)
        out = [towerext.borel_average(theta, 1, mod2, tw.first_outside_subfield(1))]
        if tw.imax >= 3:
            mod3 = InducedModule(tw, theta, 3)
            out += [towerext.group_average_vector(theta, 2, mod3),
                    towerext.steinberg_weight_vector(theta, 2, mod3)]
        _BUILT[key] = out
    return _BUILT[key]


@pytest.mark.parametrize("fix,exp,field", [
    ("tower32", 4, PrimeField(7)), ("tower32", 4, RationalField()),
    ("tower22", 1, PrimeField(7)), ("tower22", 0, RationalField()),
    ("tower32", 4, PrimeField(5, 2)), ("tower32", 1, CyclotomicField(8)),
    ("tower23", 21, PrimeField(7)), ("tower23", 21, PrimeField(5, 2)),
    ("tower23", 0, RationalField()), ("tower23", 0, CyclotomicField(8)),
], ids=lambda x: repr(x) if not isinstance(x, str) else x)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_action_is_associative_property(fix, exp, field, data, request):
    tw = request.getfixturevalue(fix)
    mod = _module(tw, field, exp, 2)
    elements = _level_elements(tw, 2)
    g, h = data.draw(st.sampled_from(elements)), data.draw(st.sampled_from(elements))
    v, w = data.draw(_module_vectors(mod)), data.draw(_module_vectors(mod))
    c = data.draw(_elements(field))
    hv = mod.act(h, v)
    assert mod.act(g, hv) == mod.act(g * h, v)
    # every vector holds raw reps of the module's field, never a zero rep
    for x in (hv, mod.act(g, hv), v + w, v - w, v - v, -v, v.scale(c)):
        _assert_raw(x)
    for b in _builder_vectors(tw, field, exp):
        assert b
        for x in (b, b.module.act(g, b), b.scale(c) - b, b + b.module.act(h, b)):
            _assert_raw(x)


class _CountingRows(dict):
    """A span's rows that count every row read: by key or by iteration."""

    visited = 0

    def __getitem__(self, key):
        _CountingRows.visited += 1
        return super().__getitem__(key)

    def items(self):
        for item in super().items():
            _CountingRows.visited += 1
            yield item


def test_growing_insert_visits_only_the_rows_holding_its_pivot(tower33, monkeypatch):
    # the Steinberg closure of M-dims at q=3 i=3: a scan of every row each
    # time the span grows reads ~dim^2/2 = 265,356 rows over the closure;
    # through the holders index a growing insert reads the rows that hold
    # its pivot and the rows its reduction subtracts, 728 in all
    init, insert = SparseSpan.__init__, SparseSpan.insert
    visits, scans = [], []

    def counting_init(self, field):
        init(self, field)
        self._rows = _CountingRows()

    def counted_insert(self, vec):
        before, dim = _CountingRows.visited, self.dim
        grew = insert(self, vec)
        if grew:
            visits.append(_CountingRows.visited - before)
            scans.append(dim)
        return grew

    monkeypatch.setattr(SparseSpan, "__init__", counting_init)
    monkeypatch.setattr(SparseSpan, "insert", counted_insert)
    mod = _module(tower33, PrimeField(7), 0, 3)
    closure = mod.span_closure(mod.steinberg_vectors())
    assert closure.dim == len(visits) == 729
    assert sum(visits) <= sum(scans) // 100
