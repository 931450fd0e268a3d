import json

import pytest

from sl2ext.verify import (
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


def test_l44_explicit_counts():
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec("L4.4-basis", {"q": 2, "i": 2}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 3
    ctx3 = Context(RunConfig(q=3, imax=3))
    r = run_lemma(ctx3, CheckSpec("L4.4-basis", {"q": 3, "i": 1}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 1
    r = run_lemma(ctx3, CheckSpec("L4.4-basis", {"q": 3, "i": 2}))
    assert r.verdict == "PASS" and r.payload["distinct_cosets"] == 4


def test_l44_negative_control_catches():
    ctx = Context(RunConfig(q=2, imax=3))
    r = run_lemma(ctx, CheckSpec("L4.4-neg-control", {"q": 2, "i": 2}))
    assert r.verdict == "PASS"
    assert r.payload["distinct_cosets"] < r.payload["expected_if_valid"]


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


def test_package_exports():
    import sl2ext

    assert sl2ext.REGISTRY_IDS[0] == "sus"
    tw = sl2ext.Tower(2, 2)
    assert sl2ext.check_big_cell_rewrite(tw.element(2))


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
