import random
from functools import partial

import pytest

from sl2ext import grp
from sl2ext.charmod import TorusCharacter
from sl2ext.coeff import CyclotomicField, PrimeField, RationalField, choose_prime_for_order
from sl2ext.grp import torus, unip, weyl
from sl2ext.indmod import InducedModule, Vec
from sl2ext.towerext import (
    CenterMismatchError,
    DirectSystem,
    borel_average,
    borel_weight_vector,
    check_borel_weight,
    check_steinberg_relations,
    expansion_support,
    group_average_vector,
    naive_group_average,
    nonsplit_certificate,
    steinberg_weight_vector,
)
from sl2_helpers import tower_element
from test_indmod import _count_compiles


def _char(tw, field, e):
    return TorusCharacter(tw, field, e)


# -- the Borel weight vector ---------------------------------------------------


def test_eta_frozen_at_q2_level1(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    m2 = InducedModule(tw, tr, 2)
    eta = borel_weight_vector(tr, tr, 1, m2)
    a = tw.first_outside_subfield(1)
    # one representative, two unipotent shifts: cell(a) + cell(a + 1)
    assert sorted(eta.support) == sorted([a, tw._add(a, 1)])
    assert all(c == cyc63.one for c in eta.support.values())


def test_eta_support_size_and_units(tower33):
    tw = tower33
    F = RationalField()
    lam = _char(tw, F, 364)
    mu = _char(tw, F, 364)
    m3 = InducedModule(tw, mu, 3)
    eta = borel_weight_vector(lam, mu, 2, m3)
    reps = len(grp.center_quotient_reps(tw, 2))
    assert len(eta.support) == reps * tw.level_size(2)
    assert all(c != F.zero for c in eta.support.values())


def test_eta_weight_checks(tower23, tower32, cyc63, cyc8):
    tr23 = _char(tower23, cyc63, 0)
    m2 = InducedModule(tower23, tr23, 2)
    eta = borel_weight_vector(tr23, tr23, 1, m2)
    assert check_borel_weight(eta, tr23, 1)
    # q = 3 with matching nontrivial characters
    lam = _char(tower32, cyc8, 2)
    mu = _char(tower32, cyc8, 2)
    m2b = InducedModule(tower32, mu, 2)
    eta2 = borel_weight_vector(lam, mu, 1, m2b)
    assert check_borel_weight(eta2, lam, 1)
    # the wrong character fails the weight check
    assert not check_borel_weight(eta2, _char(tower32, cyc8, 1), 1)


def test_eta_center_mismatch_rejected(tower32, cyc8):
    lam = _char(tower32, cyc8, 1)  # odd: nontrivial at -1
    mu = _char(tower32, cyc8, 0)
    m2 = InducedModule(tower32, mu, 2)
    with pytest.raises(CenterMismatchError):
        borel_weight_vector(lam, mu, 1, m2)


# each entry: a boundary where a character's values enter a module vector
FIELD_BOUNDARIES = {
    "borel_average": lambda ch, i, mod, eta: borel_average(ch, i, mod, mod.tower.first_outside_subfield(i)),
    "steinberg_weight_vector": lambda ch, i, mod, eta: steinberg_weight_vector(ch, i, mod),
    "check_borel_weight": lambda ch, i, mod, eta: check_borel_weight(eta, ch, i),
}


@pytest.mark.parametrize("foreign", [CyclotomicField(63), RationalField(), PrimeField(7, 2)], ids=repr)
@pytest.mark.parametrize("boundary", FIELD_BOUNDARIES)
def test_a_character_of_another_field_is_rejected(tower23, foreign, boundary):
    # a raw rep does not carry its field, so each boundary compares fields
    tw, own = tower23, PrimeField(7)
    mod = InducedModule(tw, _char(tw, own, 0), 3)
    eta = borel_average(_char(tw, own, 0), 2, mod, tw.first_outside_subfield(2))
    assert check_borel_weight(eta, _char(tw, PrimeField(7), 0), 2)
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        FIELD_BOUNDARIES[boundary](_char(tw, foreign, 0), 2, mod, eta)


def test_eta_scaling_insensitivity(tower23, cyc63):
    # scaling the vector changes neither the weight check nor membership
    tw = tower23
    tr = _char(tw, cyc63, 0)
    m3 = InducedModule(tw, tr, 3)
    eta = borel_weight_vector(tr, tr, 2, m3)
    scaled = eta.scale(cyc63.scalar(7))
    assert check_borel_weight(scaled, tr, 2)
    inv = m3.invariant_subspace("U")
    from sl2ext.linalg import SparseSpan

    span = SparseSpan(cyc63)
    m2 = InducedModule(tw, tr, 2)
    for label in m2.labels():
        span.insert({label: cyc63.one})
    for row in inv.basis():
        span.insert(row)
    assert span.contains(eta.support) == span.contains(scaled.support)


# -- the group average ---------------------------------------------------------


def test_xi_structured_equals_naive_and_invariant(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    m3 = InducedModule(tw, th, 3)
    xi = group_average_vector(th, 2, m3)
    assert xi
    b = tw.first_outside_double_subfield(2)
    assert xi == naive_group_average(2, m3, b)
    for g in grp.enumerate_subgroup(tw, "G", 2, pgl=True):
        assert m3.act(g, xi) == xi
    # support: one label per group element of the central quotient
    assert len(xi.support) == grp.subgroup_order("G", 2, 2, pgl=True)


def test_xi_needs_level_two(tower23, cyc63):
    th = _char(tower23, cyc63, 1)
    m2 = InducedModule(tower23, th, 2)
    with pytest.raises(ValueError):
        group_average_vector(th, 1, m2)


_BUILDERS = {
    "borel_average": lambda chi, m3: borel_average(chi, 2, m3, m3.tower.first_outside_subfield(2)),
    "group_average_vector": lambda chi, m3: group_average_vector(chi, 2, m3),
    "steinberg_weight_vector": lambda chi, m3: steinberg_weight_vector(chi, 2, m3),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
def test_builder_rejects_a_character_of_another_field(tower23, cyc63, builder):
    tw = tower23
    m3 = InducedModule(tw, _char(tw, cyc63, 0), 3)
    build = _BUILDERS[builder]
    for foreign in (PrimeField(7), RationalField()):
        with pytest.raises(ValueError, match="coefficient mode mismatch"):
            build(_char(tw, foreign, 0), m3)
    # an equal field instance is accepted
    assert build(_char(tw, CyclotomicField(63), 0), m3) == build(_char(tw, cyc63, 0), m3)


def test_systems_take_the_field_of_their_characters(tower23):
    F7 = PrimeField(7)
    tr = _char(tower23, F7, 0)
    for tag, kw in (("F", {"lam": tr, "mu": tr}), ("H", {"theta": tr}), ("L", {"theta": tr})):
        system = DirectSystem(tag, tower23, 2, **kw)
        assert system.field is F7 and system.conn.module.field is F7
        assert system.check_injective()


def test_xi_center_condition(tower33):
    F = RationalField()
    th = _char(tower33, F, 1)  # odd exponent: nontrivial at -1
    m3 = InducedModule(tower33, th, 3)
    with pytest.raises(CenterMismatchError):
        group_average_vector(th, 2, m3)


# -- the Steinberg weight vector ------------------------------------------------


def test_zeta_support_and_relations_q2(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    m3 = InducedModule(tw, th, 3)
    zeta = steinberg_weight_vector(th, 2, m3)
    # 2 terms x 3 representatives x 4 shifts, pairwise distinct
    assert len(zeta.support) == 24
    assert check_steinberg_relations(zeta, 2)
    b = tw.first_outside_double_subfield(2)
    assert expansion_support(tw, 2, b)["distinct"]


def test_steinberg_relations_compile_s_once(tower23, cyc63, monkeypatch):
    tw = tower23
    th = _char(tw, cyc63, 1)
    m3 = InducedModule(tw, th, 3)
    zeta = steinberg_weight_vector(th, 2, m3)
    counts = _count_compiles(monkeypatch)
    assert check_steinberg_relations(zeta, 2)
    # the s-negation and the reflection relation share one compiled s
    assert counts[(id(m3), weyl(tw).key())] == 1
    # and the module keeps it for the next check
    assert check_steinberg_relations(zeta, 2)
    assert counts[(id(m3), weyl(tw).key())] == 1


def test_zeta_matches_one_minus_s(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    m3 = InducedModule(tw, th, 3)
    b = tw.first_outside_double_subfield(2)
    borel = m3.zero()
    b_elem = tower_element(tw, b)
    for t in map(partial(tower_element, tw), grp.center_quotient_reps(tw, 2)):
        c = th.eval(t.inverse().val)
        for u in tw.enumerate_level(2):
            borel = borel + m3.basis_vector((b_elem * t * t + tower_element(tw, u)).val).scale(c)
    assert steinberg_weight_vector(th, 2, m3) == borel - m3.act(weyl(tw), borel)


def test_zeta_coefficient_routes_agree(tower33):
    # theta(t)^-1 theta(b t^2 + a) equals theta(b t + a / t) term by term
    tw = tower33
    F = RationalField()
    th = _char(tw, F, 364)
    b = tower_element(tw, tw.first_outside_double_subfield(2))
    for t in map(partial(tower_element, tw), grp.center_quotient_reps(tw, 2)):
        for a in map(partial(tower_element, tw), tw.enumerate_level(2)):
            c = b * t * t + a
            assert F._mul(th.eval(t.inverse().val), th.eval(c.val)) == th.eval((b * t + a * t.inverse()).val)


def test_zeta_negative_control_collides(tower23, tower33):
    for tw in (tower23, tower33):
        assert not expansion_support(tw, 2, tw.generator(2))["distinct"]


# -- the generator tests against the exhaustive sweeps ---------------------------


def _sweep_borel_weight(v, chi, i) -> bool:
    """The weight test on every element of U_i and T_i: the oracle of
    ``check_borel_weight``."""
    mod, tw = v.module, v.module.tower
    return (all(mod.act(unip(tw, u), v) == v for u in tw.enumerate_level(i))
            and all(mod.act(torus(tw, t), v) == v.scale(chi.eval(t)) for t in tw.units(i)))


def _sweep_steinberg_relations(v, i) -> bool:
    """``check_steinberg_relations`` with the torus part on every element
    of T_i."""
    mod, tw = v.module, v.module.tower
    return (mod.weyl_action(v) == -v
            and all(mod.act(torus(tw, t), v) == v for t in tw.units(i))
            and mod.check_reflection_relation(tw.units(i), v) is None)


def _level_characters(tw, i):
    """Exponents 0 .. n_i - 1, one per character of the level-i torus (of
    order n_i), over a prime field that holds the top-level roots."""
    field = PrimeField(choose_prime_for_order(tw.size - 1))
    return [_char(tw, field, e) for e in range(tw.level_size(i) - 1)]


def _one_label_perturbations(v):
    """v, and v plus one basis vector at a label in its support and at the
    first label outside it."""
    mod = v.module
    outside = next(label for label in mod.labels() if label not in v.support)
    return [v] + [v + mod.basis_vector(label) for label in (min(v.support), outside)]


@pytest.mark.parametrize("q,i", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_borel_weight_on_generators_equals_the_sweep(q, i, request):
    tw = request.getfixturevalue(f"tower{q}3")
    chars = _level_characters(tw, i)
    verdicts = set()
    for lam in chars[:3:2]:  # the pairs (0, 0) and, where the level has it, (2, 2)
        eta = borel_weight_vector(lam, lam, i, InducedModule(tw, lam, i + 1))
        for v in _one_label_perturbations(eta):
            for chi in chars:  # every level-i weight, the wrong ones included
                verdict = check_borel_weight(v, chi, i)
                assert verdict == _sweep_borel_weight(v, chi, i), (lam, chi)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [2, 3])
def test_steinberg_torus_relation_on_the_generator_equals_the_sweep(q, request):
    tw = request.getfixturevalue(f"tower{q}3")
    verdicts = set()
    for theta in _level_characters(tw, 2):
        if not theta.is_trivial_on_center():
            continue
        mod = InducedModule(tw, theta, 3)
        zeta = steinberg_weight_vector(theta, 2, mod)
        for label in (min(zeta.support), max(zeta.support)):
            # s negates w, so the torus part is reached, and the torus
            # average of w is fixed by all of T_2 as well
            w = mod.basis_vector(label) - mod.weyl_action(mod.basis_vector(label))
            average = mod.zero()
            for t in tw.units(2):
                average = average + mod.act(torus(tw, t), w)
            for v in (zeta, zeta + w, zeta + average):
                verdict = check_steinberg_relations(v, 2)
                assert verdict == _sweep_steinberg_relations(v, 2), (theta, label)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# -- connecting maps -------------------------------------------------------------


def test_connect_F_restriction_is_inclusion(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    sys_f = DirectSystem("F", tw, 1, lam=tr, mu=tr)
    # a bottom element keeps its key: the labels embed
    assert sys_f.connect({(1, 0): cyc63.one}) == {(1, 0): cyc63.one}


def test_connect_H_definition(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    sys_h = DirectSystem("H", tw, 2, theta=th)
    out = sys_h.connect({(0, 0): cyc63.one})
    assert out == {(0, 0): cyc63.one, **{(1, k): c for k, c in sys_h.conn.support.items()}}


def test_connect_L_definition(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    sys_l = DirectSystem("L", tw, 2, theta=th)
    eta = sys_l.st_i.steinberg_vectors()[0]  # (1 - s).1, at x = 0
    top = {(0, k): c for k, c in eta.support.items()}
    assert sys_l.connect(top) == {**top, **{(1, k): c for k, c in sys_l.conn.support.items()}}


def test_injectivity_all_systems(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    th = _char(tw, cyc63, 1)
    assert DirectSystem("F", tw, 1, lam=tr, mu=tr).check_injective()
    assert DirectSystem("F", tw, 2, lam=tr, mu=tr).check_injective()
    assert DirectSystem("H", tw, 2, theta=th).check_injective()
    assert DirectSystem("L", tw, 2, theta=th).check_injective()


def test_equivariance_F_exhaustive_borel(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    sys_f = DirectSystem("F", tw, 1, lam=tr, mu=tr)
    assert sys_f.check_equivariance(grp.enumerate_subgroup(tw, "B", 1))
    with pytest.raises(ValueError):
        sys_f.action(weyl(tw))


def test_equivariance_H_exhaustive(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    sys_h = DirectSystem("H", tw, 2, theta=th)
    assert sys_h.check_equivariance(grp.enumerate_subgroup(tw, "G", 2, pgl=True))


def test_equivariance_L_sampled(tower23, cyc63):
    tw = tower23
    th = _char(tw, cyc63, 1)
    sys_l = DirectSystem("L", tw, 2, theta=th)
    rng = random.Random(11)
    elements = grp.generators(tw, 2)
    pool = grp.enumerate_subgroup(tw, "G", 2, pgl=True)
    elements += [rng.choice(pool) for _ in range(20)]
    assert sys_l.check_equivariance(elements)


# (tower fixture, field, i, system, character exponent): H and L start at i = 2
CACHED_SYSTEMS = [
    ("tower23", CyclotomicField(63), 1, "F", 0),
    ("tower23", CyclotomicField(63), 2, "F", 0),
    ("tower23", CyclotomicField(63), 2, "H", 1),
    ("tower23", CyclotomicField(63), 2, "L", 1),
    ("tower32", CyclotomicField(8), 1, "F", 2),
    ("tower33", PrimeField(7), 2, "L", 0),
]


def _system(request, fix, field, i, tag, e):
    tw = request.getfixturevalue(fix)
    ch = _char(tw, field, e)
    chars = {"lam": ch, "mu": ch} if tag == "F" else {"theta": ch}
    return DirectSystem(tag, tw, i, **chars)


def _equivariance_elements(system):
    tw, i = system.tower, system.i
    if system.tag == "F":
        return grp.enumerate_subgroup(tw, "B", i)[:40]
    return grp.generators(tw, i)


def _direct_connect(system, v):
    """The connecting map from its definition, every shifted image fresh."""
    tw, mod_next = system.tower, system.mod_next
    top = {k: c for (side, k), c in v.items() if side == 0}
    bottom = Vec(mod_next, {k: c for (side, k), c in v.items() if side == 1})
    if system.tag != "L":
        if top:
            bottom = bottom + system.conn.scale(top[0])
    else:
        for x, a in system.st_i.steinberg_coordinates(Vec(system.st_i, top)).items():
            bottom = bottom + mod_next.act(unip(tw, x), system.conn).scale(a)
    return {**{(0, k): c for k, c in top.items()}, **{(1, k): c for k, c in bottom.support.items()}}


@pytest.mark.parametrize("fix,field,i,tag,e", CACHED_SYSTEMS, ids=lambda x: repr(x) if not isinstance(x, str) else x)
def test_cached_connect_equals_the_direct_map(fix, field, i, tag, e, request):
    system = _system(request, fix, field, i, tag, e)
    assert system.check_injective()
    vectors = system.basis()
    vectors += [system.action(g)(v) for g in _equivariance_elements(system)[:6] for v in vectors]
    for v in vectors:
        assert system.connect(v) == _direct_connect(system, v)
    for v, image in system._connected:
        assert image == _direct_connect(system, v)
    assert system.check_equivariance(_equivariance_elements(system))


@pytest.mark.parametrize("fix,field,i,tag,e", CACHED_SYSTEMS, ids=lambda x: repr(x) if not isinstance(x, str) else x)
def test_perturbed_caches_break_equivariance(fix, field, i, tag, e, request):
    system = _system(request, fix, field, i, tag, e)
    elements = _equivariance_elements(system)
    assert system.check_injective()
    k = len(system._connected) - 1  # a bottom basis vector
    v, image = system._connected[k]
    bump = (1, system.mod_next.labels()[-1])  # above level i, so outside image
    assert bump not in image
    system._connected[k] = (v, {**image, bump: field.one})
    assert not system.check_equivariance(elements)
    # every system reads its shifted connecting vectors from one cache
    system = _system(request, fix, field, i, tag, e)
    assert system.check_injective()
    x = max(system._shifted)
    bump = system.mod_next.basis_vector(system.mod_next.labels()[-1])
    system._shifted[x] = system._shifted[x] + bump
    assert not system.check_equivariance(elements)


def test_equivariance_compiles_each_element_once_per_module(tower23, cyc63, monkeypatch):
    tw = tower23
    sys_l = DirectSystem("L", tw, 2, theta=_char(tw, cyc63, 1))
    pool = grp.enumerate_subgroup(tw, "G", 2, pgl=True)
    elements = list(dict.fromkeys(grp.generators(tw, 2) + pool[::7]))
    counts = _count_compiles(monkeypatch)
    assert sys_l.check_injective()
    # connecting the basis shifts conn once per nonzero level-2 x, in
    # mod_next; u(0) is the identity, and conn is its own shift
    shifts = {(id(sys_l.mod_next), unip(tw, x).key()) for x in tw.enumerate_level(2) if x}
    assert counts == dict.fromkeys(shifts, 1)
    counts.clear()
    assert sys_l.check_equivariance(elements)
    modules = (sys_l.mod_i, sys_l.mod_next, sys_l.st_i, sys_l.st_next)
    assert counts == {(id(m), g.key()): 1 for m in modules for g in elements}


def test_coherence_two_steps(tower23, cyc63):
    # composing level-1 and level-2 steps of F is equivariant for level-1 Borel
    tw = tower23
    tr = _char(tw, cyc63, 0)
    f1 = DirectSystem("F", tw, 1, lam=tr, mu=tr)
    f2 = DirectSystem("F", tw, 2, lam=tr, mu=tr)

    def two_step(v):
        return f2.connect(f1.connect(v))

    for g in grp.enumerate_subgroup(tw, "B", 1):
        for v in f1.basis():
            assert two_step(f1.action(g)(v)) == f2.action(g, at_next=True)(two_step(v))


# -- certificates ------------------------------------------------------------------


def test_certificates_pass_q2(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    th = _char(tw, cyc63, 1)
    for tag, kw in (("F", {"lam": tr, "mu": tr}), ("H", {"theta": th}), ("L", {"theta": th})):
        cert = nonsplit_certificate(tag, tw, 2, **kw)
        assert cert["verdict"] == "PASS" and not cert["member"]
        assert cert["inequality"]["holds"]


def test_certificate_degenerate_cases(tower23, cyc63):
    tw = tower23
    tr = _char(tw, cyc63, 0)
    # the level-1 F instance is tight: membership genuinely holds
    cert = nonsplit_certificate("F", tw, 1, lam=tr, mu=tr)
    assert cert["verdict"] == "SKIPPED" and cert["member"] and cert["coverage"]["tight"]
    # the trivial-character H instance at level 2 is the other tight case
    cert = nonsplit_certificate("H", tw, 2, theta=tr)
    assert cert["verdict"] == "SKIPPED" and cert["member"] and cert["coverage"]["tight"]


def test_certificates_pass_q3(tower33):
    F = RationalField()
    tr = _char(tower33, F, 0)
    th = _char(tower33, F, 364)
    for tag, kw in (("F", {"lam": tr, "mu": tr}), ("H", {"theta": th})):
        cert = nonsplit_certificate(tag, tower33, 2, **kw)
        assert cert["verdict"] == "PASS", cert
    # level-1 F at q=3 is not degenerate and passes
    cert = nonsplit_certificate("F", tower33, 1, lam=tr, mu=tr)
    assert cert["verdict"] == "PASS"
