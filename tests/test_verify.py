import json
import pathlib

import pytest

from sl2ext.cli import _config_from_args, _selected_lemmas, make_parser
from sl2ext.grp import subgroup_order
from sl2ext.verify import (
    CHECKS,
    COUNTING_BITS_CAP,
    REGISTRY,
    REGISTRY_IDS,
    CheckSpec,
    Context,
    Report,
    RunConfig,
    run_all,
    run_lemma,
    summarize,
)

EXPECTED_IDS = [
    "sus",
    "bruhat",
    "act-oracle",
    "M-dims",
    "P2.1-suw",
    "L3.3-normalize",
    "L4.4-basis",
    "L4.4-neg-control",
    "eta-weight",
    "eta-weight-neg-control",
    "clm-4",
    "ineq-36",
    "ineq-37",
    "L4.6-noFU",
    "L5.3-xi",
    "L5.5-zeta",
    "L5.5-neg-control",
    "L5.7-noHG",
    "L5.8-noLG",
    "connect-inj",
    "ext1-maschke",
]


def test_registry_covers_expected_ids():
    assert REGISTRY_IDS == EXPECTED_IDS


def test_unknown_lemma_id_rejected():
    ctx = Context(RunConfig(q=2, imax=2))
    with pytest.raises(ValueError):
        run_lemma(ctx, CheckSpec("no-such-lemma", {}))
    with pytest.raises(ValueError):
        run_all(ctx, ["no-such-lemma"])


@pytest.mark.parametrize("q, coeff", [(2, "fp:2:6"), (3, "fp:3"), (9, "fp:3:2")])
def test_a_field_of_the_defining_characteristic_is_a_config_error(q, coeff, capsys):
    # outside the paper's hypothesis: the library refuses to build the
    # context, and the CLI turns the same message into exit 2
    message = "fp characteristic must differ from the defining one"
    with pytest.raises(ValueError, match=message):
        Context(RunConfig(q=q, imax=2, coeff=coeff))
    with pytest.raises(SystemExit) as exc:
        _config_from_args(make_parser().parse_args(["verify", "--q", str(q), "--coeff", coeff]))
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("imax", [2, 4], ids=["runnable", "module-blocked"])
@pytest.mark.parametrize("system", [None, "X"], ids=["no-system", "unknown-system"])
def test_connect_system_rejected_before_any_rule(imax, system):
    # a bad system is a bad request, like an unknown lemma id: it raises
    # before the module rule (which SKIPs every check at imax=4) runs
    ctx = Context(RunConfig(q=2, imax=imax))
    params = {"q": 2, "i": 1} if system is None else {"q": 2, "i": 1, "system": system}
    with pytest.raises(ValueError, match="F, H, L"):
        run_lemma(ctx, CheckSpec("connect-inj", params))


def test_counting_values_frozen():
    ctx = Context(RunConfig(q=2, imax=2))
    r = run_lemma(ctx, CheckSpec("ineq-36", {"q": 2, "i": 2}))
    assert r.verdict == "PASS"
    assert (r.payload["lhs_doubled"], r.payload["rhs_doubled"]) == (60, 128)
    r = run_lemma(ctx, CheckSpec("ineq-37", {"q": 2, "i": 2}))
    assert (r.payload["lhs_doubled"], r.payload["rhs_doubled"]) == (32, 63)
    r = run_lemma(ctx, CheckSpec("clm-4", {"q": 2, "i": 2}))
    assert (r.payload["lhs"], r.payload["rhs"]) == (12, 64)


def test_counting_skip_note_at_level_one():
    ctx = Context(RunConfig(q=3, imax=2))
    r = run_lemma(ctx, CheckSpec("ineq-36", {"q": 3, "i": 1}))
    assert r.verdict == "SKIPPED"
    # the reported halves: 3 * 8 = 24 against 2 * 9 = 18 fails
    assert r.payload["lhs_doubled"] == 24 and r.payload["rhs_doubled"] == 18
    assert not r.payload["holds"]


def test_counting_beyond_module_levels():
    # big-integer regime: nothing but arithmetic, any level
    ctx = Context(RunConfig(q=9, imax=2))
    for i in range(2, 7):
        for lemma in ("clm-4", "ineq-36", "ineq-37"):
            r = run_lemma(ctx, CheckSpec(lemma, {"q": 9, "i": i}))
            assert r.verdict == "PASS", (lemma, i)


def test_counting_cap_skips_by_size():
    # at q = 2, level 8's largest integer has 9! = 362,880 bits, under the
    # cap; level 9's would have 10! bits, and the level SKIPs unbuilt
    ctx = Context(RunConfig(q=2, imax=2))
    for lemma in ("clm-4", "ineq-36", "ineq-37"):
        assert run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": 8})).verdict == "PASS"
        r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": 9}))
        assert r.verdict == "SKIPPED" and r.payload == {}
        assert r.reason == ("counting cap: level 9 builds integers of about 3628800 * log2(2) bits, "
                            f"over the cap of {COUNTING_BITS_CAP} bits")


def test_l44_explicit_counts():
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec("L4.4-basis", {"q": 2, "i": 2}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 3
    ctx3 = Context(RunConfig(q=3, imax=3))
    r = run_lemma(ctx3, CheckSpec("L4.4-basis", {"q": 3, "i": 1}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 1
    r = run_lemma(ctx3, CheckSpec("L4.4-basis", {"q": 3, "i": 2}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 4


def test_clm_counts_cosets_exactly_where_l44_basis_runs():
    # at q=2, L4.4-basis at i=1 costs |level 2| + 1 = 5: at budget 4 it
    # SKIPs and clm-4 i=1 reports no explicit count; at budget 5 both count
    for budget, runs in ((4, False), (5, True)):
        reports = run_all(Context(RunConfig(q=2, imax=3, budget=budget)), ["L4.4-basis", "clm-4"])
        l44 = [r for r in reports if r.lemma_id == "L4.4-basis" and r.verdict != "SKIPPED"]
        clm = next(r for r in reports if r.lemma_id == "clm-4" and r.params["i"] == 1)
        assert bool(l44) is runs and ("explicit" in clm.payload) is runs
        if runs:
            assert clm.payload["explicit"]["total_cosets"] == 2


def test_run_all_skips_a_check_only_on_its_own_tower_or_module_rule():
    # at q=4 imax=3 the auto cyclotomic order 4095 is over the field cap:
    # the module checks SKIP on it, but the tower-only checks run, with
    # run_lemma's reports, and clm-4 counts cosets where L4.4-basis runs
    ctx = Context(RunConfig(q=4, imax=3))
    assert ctx.tower_error is None and "4095" in ctx.blocked()
    tower_only = ["sus", "bruhat", "L4.4-basis", "L4.4-neg-control"]
    reports = run_all(ctx, tower_only + ["act-oracle", "clm-4"])
    ran = [r for r in reports if r.lemma_id in tower_only]
    assert {r.lemma_id for r in ran} == set(tower_only)
    for r in ran:
        again = run_lemma(ctx, CheckSpec(r.lemma_id, r.params))
        assert r.verdict == again.verdict == "PASS" and r.payload == again.payload
    module = [r for r in reports if r.lemma_id == "act-oracle"]
    assert [(r.verdict, r.reason) for r in module] == [("SKIPPED", ctx.blocked())]
    l44_levels = {r.params["i"] for r in ran if r.lemma_id == "L4.4-basis"}
    clm = [r for r in reports if r.lemma_id == "clm-4"]
    assert l44_levels == {1, 2}
    assert {r.params["i"] for r in clm if "explicit" in r.payload} == l44_levels


def test_l44_negative_control_catches():
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec("L4.4-neg-control", {"q": 2, "i": 2}))
    assert r.verdict == "PASS"
    assert r.payload["distinct_cosets"] < r.payload["expected_if_valid"]


@pytest.mark.parametrize("lemma, reason", [
    ("L4.4-neg-control", "a collision needs at least two quotient representatives"),
    ("eta-weight-neg-control", "every character agrees on a trivial level torus"),
])
def test_negative_controls_skip_where_they_cannot_fail(lemma, reason):
    # at q=2, i=1 the level torus is trivial: one quotient representative
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": 1}))
    assert (r.verdict, r.reason, r.payload) == ("SKIPPED", reason, {})
    # run_all schedules the first level where the same rule passes
    assert [r.params["i"] for r in run_all(ctx, [lemma])] == [2]


def test_degenerate_certificates_are_skipped():
    ctx = Context(RunConfig(q=2, imax=3, theta_exp=0))
    r = run_lemma(ctx, CheckSpec("L4.6-noFU", {"q": 2, "i": 1}))
    assert r.verdict == "SKIPPED" and r.payload["coverage"]["tight"]
    r = run_lemma(ctx, CheckSpec("L5.7-noHG", {"q": 2, "i": 2}))
    assert r.verdict == "SKIPPED"  # trivial theta at the tight parameters
    ctx2 = Context(RunConfig(q=2, imax=3, theta_exp=1))
    r = run_lemma(ctx2, CheckSpec("L5.7-noHG", {"q": 2, "i": 2}))
    assert r.verdict == "PASS"


@pytest.mark.parametrize("lemma, i, reason", [
    ("eta-weight", 2, "level budget: the construction needs level i+1 inside the tower"),
    ("L5.3-xi", 1, "level budget: needs 2 <= i < imax"),
    ("L4.6-noFU", 2, "level budget: the connecting vector needs a feasible level"),
])
def test_level_preconditions_skip_direct_calls(lemma, i, reason):
    # run_all never schedules these levels; run_lemma still refuses them
    ctx = Context(RunConfig(q=2, imax=2, theta_exp=1))
    r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": i}))
    assert (r.verdict, r.reason, r.payload) == ("SKIPPED", reason, {})


_ALL = "level budget: needs 1 <= i <= imax"
_NEXT = "level budget: the construction needs level i+1 inside the tower"
_QF = "level budget: needs 2 <= i < imax"
_CONNECT = "level budget: the connecting vector needs a feasible level"
_ANY = "level budget: needs i >= 1"
LEVEL_REASONS = {_ALL, _NEXT, _QF, _CONNECT, _ANY}

# (check, extra params, level reason, levels outside its range at q=2
# imax=2): i=0; i=imax+1 unless the check counts (any i >= 1); i=imax where
# it builds level i+1; i=1 where it needs i >= 2.
OUT_OF_RANGE = [
    *[(lemma, {}, _ALL, [0, 3]) for lemma in
      ("sus", "bruhat", "act-oracle", "M-dims", "P2.1-suw", "L3.3-normalize")],
    *[(lemma, {}, _NEXT, [0, 2, 3]) for lemma in
      ("L4.4-basis", "L4.4-neg-control", "eta-weight", "eta-weight-neg-control")],
    *[(lemma, {}, _ANY, [0]) for lemma in ("clm-4", "ineq-36", "ineq-37")],
    ("L4.6-noFU", {}, _CONNECT, [0, 2, 3]),
    *[(lemma, {}, _QF, [0, 1, 2, 3]) for lemma in ("L5.3-xi", "L5.5-zeta", "L5.5-neg-control")],
    *[(lemma, {}, _CONNECT, [0, 1, 2, 3]) for lemma in ("L5.7-noHG", "L5.8-noLG")],
    ("connect-inj", {"system": "F"}, _CONNECT, [0, 2, 3]),
    ("connect-inj", {"system": "H"}, _CONNECT, [0, 1, 2, 3]),
    ("connect-inj", {"system": "L"}, _CONNECT, [0, 1, 2, 3]),
]


def test_every_leveled_check_has_out_of_range_cases():
    # ext1-maschke has no level parameter
    assert {case[0] for case in OUT_OF_RANGE} == set(EXPECTED_IDS) - {"ext1-maschke"}


@pytest.mark.parametrize("lemma, extra, reason, i", [
    pytest.param(lemma, extra, reason, i, id="-".join([lemma, *extra.values(), f"i{i}"]))
    for lemma, extra, reason, levels in OUT_OF_RANGE for i in levels
])
def test_out_of_range_levels_skip(lemma, extra, reason, i):
    ctx = Context(RunConfig(q=2, imax=2, theta_exp=1))
    r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": i, **extra}))
    assert (r.verdict, r.reason, r.payload) == ("SKIPPED", reason, {})


def test_module_rule_comes_before_the_level_range():
    # ambient degree 24 is over the module cap, and i=4 is outside 1 <= i < imax
    ctx = Context(RunConfig(q=2, imax=4))
    for lemma in ("sus", "eta-weight", "L5.3-xi", "ext1-maschke"):
        r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": 4}))
        assert (r.verdict, r.reason) == ("SKIPPED", ctx.blocked())


GOLDEN_CONFIGS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "configs.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_run_all_schedules_no_level_outside_its_range(name):
    config = _config_from_args(make_parser().parse_args(["verify", *GOLDEN_CONFIGS[name].split()]))
    reports = run_all(Context(config), _selected_lemmas(config))
    assert reports and not [r.lemma_id for r in reports if r.reason in LEVEL_REASONS]
    # nor one over its cost
    assert not [r.lemma_id for r in reports if r.reason.startswith("level budget: level ")]


def test_run_all_small_config_no_failures():
    ctx = Context(RunConfig(q=2, imax=2))
    reports = run_all(ctx)
    s = summarize(reports)
    assert s["fail"] == 0
    assert {r.lemma_id for r in reports} == set(EXPECTED_IDS)


def test_run_all_lemma_selection():
    ctx = Context(RunConfig(q=2, imax=2))
    reports = run_all(ctx, ["sus", "clm-4"])
    assert {r.lemma_id for r in reports} == {"sus", "clm-4"}


def test_reports_deterministic_json():
    def doc():
        ctx = Context(RunConfig(q=2, imax=2, theta_exp=1))
        return json.dumps([r.to_json() for r in run_all(ctx)], sort_keys=True)

    assert doc() == doc()


def test_report_json_shape():
    r = Report("sus", {"q": 2, "i": 1}, "PASS", {"cases": 1})
    js = r.to_json()
    assert set(js) == {"id", "params", "verdict", "payload"}
    r2 = Report("sus", {}, "SKIPPED", reason="because")
    assert r2.to_json()["reason"] == "because"


def test_run_lemma_budget_overrun_is_skipped():
    # level 3 at q=2 has 262080 elements, over the default budget
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec("bruhat", {"q": 2, "i": 3}))
    assert r.verdict == "SKIPPED" and "budget" in r.reason


def _costed_cases():
    """Every costed record (each system of connect-inj) at the top level
    of its range at q=2 imax=3, where its other rules pass at theta 0."""
    for check in REGISTRY:
        if check.cost is None:
            continue
        ranges = check.levels.items() if isinstance(check.levels, dict) else [(None, check.levels)]
        for system, levels in ranges:
            extra = {"system": system} if system else {}
            i = 3 - levels.margin
            yield pytest.param(check.lemma_id, extra, i, id="-".join([check.lemma_id, *extra.values(), f"i{i}"]))


@pytest.mark.parametrize("lemma, extra, i", _costed_cases())
def test_direct_call_over_its_cost_skips_on_budget(lemma, extra, i):
    check = CHECKS[lemma]
    ctx = Context(RunConfig(q=2, imax=3, budget=2))
    cost = check.cost(ctx, i)
    r = run_lemma(ctx, CheckSpec(lemma, {"q": 2, "i": i, **extra}))
    assert cost > 2
    assert (r.verdict, r.reason, r.payload) == ("SKIPPED", f"level budget: level {i} costs {cost}, over budget 2", {})
    # a budget of exactly the cost admits the level
    assert check.unmet(Context(RunConfig(q=2, imax=3, budget=cost)), {"q": 2, "i": i, **extra}) is None


def test_negative_controls_skip_their_fallback_level_over_budget():
    # no level fits budget 5, so each schedules its lowest level, costed 4^2 + 1
    ctx = Context(RunConfig(q=4, imax=2, budget=5))
    reports = run_all(ctx, ["L4.4-neg-control", "eta-weight-neg-control"])
    reason = "level budget: level 1 costs 17, over budget 5"
    assert [(r.lemma_id, r.params, r.verdict, r.reason) for r in reports] == [
        (lemma, {"q": 4, "i": 1}, "SKIPPED", reason)
        for lemma in ("L4.4-neg-control", "eta-weight-neg-control")]


def test_cocycle_oracle_skips_a_level_one_group_over_budget():
    ctx = Context(RunConfig(q=2, imax=2, budget=5))
    r = run_lemma(ctx, CheckSpec("ext1-maschke", {"q": 2}))
    assert (r.verdict, r.reason) == ("SKIPPED", "level budget: |G_1| = 6 exceeds budget 5")


# (check, system, subgroup, PGL mode): every element sweep of a check body
SWEEPS = [
    ("bruhat", None, "G", False),
    ("act-oracle", None, "G", False),
    ("L5.3-xi", None, "G", True),
    ("connect-inj", "F", "B", False),
    ("connect-inj", "H", "G", True),
    ("connect-inj", "L", "G", True),
]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("lemma, system, which, pgl", SWEEPS)
def test_each_sweep_stays_within_its_records_cost(lemma, system, which, pgl, q):
    # the costs are arithmetic in q and i: no tower is built
    check = CHECKS[lemma]
    levels = check.levels[system] if system else check.levels
    ctx = Context(RunConfig(q=q, imax=4))
    for i in range(levels.lowest, 4):
        assert subgroup_order(which, q, i, pgl=pgl) <= check.cost(ctx, i)


def test_package_exports():
    import sl2ext

    assert sl2ext.REGISTRY_IDS[0] == "sus"
    tw = sl2ext.Tower(2, 2)
    assert sl2ext.check_big_cell_rewrite(tw, 2)


def test_tower_too_large_only_counting_runs():
    # ambient degree 24 is over the module cap: module checks SKIP, counting PASSes
    ctx = Context(RunConfig(q=2, imax=4))
    reports = run_all(ctx)
    s = summarize(reports)
    assert s["fail"] == 0
    by_id = {}
    for r in reports:
        by_id.setdefault(r.lemma_id, []).append(r)
    assert all(r.verdict == "SKIPPED" for r in by_id["bruhat"])
    assert all(r.verdict == "PASS" for r in by_id["clm-4"])
