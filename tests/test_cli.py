import json
import math
import os
import sys
import threading
import time

import pytest

from sl2ext import cli, verify
from sl2ext.cli import main
from sl2ext.verify import RunConfig


def test_verify_small_run_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--q", "2", "--imax", "2", "--theta-exp", "0",
        "--coeff", "cyclo", "--lemmas", "all", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "config", "reports", "summary"}
    assert doc["summary"]["fail"] == 0
    assert doc["config"]["q"] == 2
    for rep in doc["reports"]:
        assert rep["verdict"] in ("PASS", "FAIL", "SKIPPED")
        assert "id" in rep and "params" in rep
    capsys.readouterr()


def test_q_must_be_prime_power():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "6"])
    assert exc.value.code == 2


def test_imax_validation():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--imax", "1"])
    assert exc.value.code == 2
    for budget in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "2", "--budget", budget])
        assert exc.value.code == 2


@pytest.mark.parametrize("coeff", ["fp:2:21", "fp:3:13", "fp:2:" + "9" * 30])
def test_a_coefficient_field_over_the_table_budget_is_a_usage_error(coeff, capsys):
    # F_{l^m} runs on exp/log tables, so l^m is capped like the tower
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--imax", "2", "--coeff", coeff])
    assert exc.value.code == 2
    assert "exceeds the table budget" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--q", "1000000000000000003"], "q must be at most 4294967296"),
    (["--coeff", "fp:1000000000000000003"], "fp characteristic must be at most 4294967296"),
    (["--coeff", "cyclo:30000"], "cyclotomic order 30000 exceeds the cap 2000"),
], ids=["q", "fp", "cyclo"])
def test_an_argument_past_its_cap_exits_2_at_once(flags, message, capsys):
    # trial division of q or l would run for seconds, and Q(zeta_30000)'s
    # table of roots would hold 30000 x 8000 coefficients
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--imax", "2", *flags])
    assert time.monotonic() - t0 < 1
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("changes", [{"q": 4294967291}, {"coeff": "fp:4294967291"}, {"coeff": "cyclo:2000"}],
                         ids=["q", "fp", "cyclo"])
def test_each_cap_admits_its_bound(changes):
    # 4294967291 is the largest prime below 2^32
    t0 = time.monotonic()
    verify.Context(RunConfig(**{"imax": 2, **changes}))
    assert time.monotonic() - t0 < 1


def test_prime_power_q_allowed(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--q", "4", "--imax", "2", "--lemmas", "sus,bruhat,clm-4",
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()


def test_counting_payloads_past_the_int_digit_limit(capsys, tmp_path):
    # clm-4 at q=8 holds an integer of 4,552 digits, past the default limit
    out = tmp_path / "report.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["verify", "--q", "8", "--imax", "2", "--lemmas", "clm-4", "--out", str(out)])
        assert sys.get_int_max_str_digits() == 4300  # lifted for the report only
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and '"fail": 0' in out.read_text()
    capsys.readouterr()


def test_counting_levels_over_the_cap_skip(capsys, tmp_path):
    # --imax 30 schedules the counting checks up to level 30, where
    # q^((i+1)!) would have 31! bits: past the counting cap they SKIP and
    # the run ends in seconds
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    code = main(["verify", "--q", "2", "--imax", "30", "--out", str(out)])
    assert code == 0 and time.monotonic() - t0 < 30
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out.read_text())
    finally:
        sys.set_int_max_str_digits(limit)
    counting = [r for r in doc["reports"] if r["id"] in ("clm-4", "ineq-36", "ineq-37")]
    assert len(counting) == 3 * 30
    for r in counting:
        i = r["params"]["i"]
        if i <= 8:
            assert r["verdict"] == "PASS" or (i == 1 and r["id"] != "clm-4")
        else:
            assert r["verdict"] == "SKIPPED" and r["reason"].startswith(f"counting cap: level {i} ")
    assert doc["summary"]["fail"] == 0
    capsys.readouterr()


def test_the_torus_cochain_law_is_bounded_at_imax_2(capsys, tmp_path):
    # the law is tested on the torus generator: |T_2| = 4,095 tests, not
    # 4,095^2, so the check ends at once
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    code = main(["verify", "--q", "64", "--imax", "2", "--theta-exp", "1", "--coeff", "fp",
                 "--lemmas", "L3.3-normalize", "--out", str(out)])
    assert code == 0 and time.monotonic() - t0 < 1
    doc = json.loads(out.read_text())
    assert [r["verdict"] for r in doc["reports"]] == ["PASS"]
    capsys.readouterr()


def test_the_torus_cochain_recovery_is_bounded_at_cyclo_q32(capsys, tmp_path):
    # a = phi(g) / (theta(g) - 1) over Q(zeta_1023): the closed-form inverse
    # of a root minus one, not 599 conjugate products of degree 600 (50 s)
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    code = main(["verify", "--q", "32", "--imax", "2", "--theta-exp", "1",
                 "--lemmas", "L3.3-normalize", "--out", str(out)])
    assert code == 0 and time.monotonic() - t0 < 10
    doc = json.loads(out.read_text())
    assert [r["verdict"] for r in doc["reports"]] == ["PASS"]
    capsys.readouterr()


def test_rational_subfields_give_the_rational_reports(capsys, tmp_path):
    # Q(zeta_3) = Q(zeta_6) holds -1, like Q = Q(zeta_1): every character of
    # order dividing 6 runs in all four modes, with the same verdicts
    reports = {}
    for coeff in ("rat", "cyclo:1", "cyclo:3", "cyclo:6"):
        out = tmp_path / f"{coeff.replace(':', '-')}.json"
        assert main(["verify", "--q", "3", "--imax", "2", "--theta-exp", "4", "--lambda-exp", "4",
                     "--coeff", coeff, "--out", str(out)]) == 0
        reports[coeff] = json.loads(out.read_text())["reports"]
    capsys.readouterr()
    assert all(r.get("reason") != "mode lacks the character order" for r in reports["rat"])
    assert reports["cyclo:1"] == reports["cyclo:3"] == reports["cyclo:6"] == reports["rat"]


def test_unknown_lemma_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--lemmas", "sus,unknown-thing"])
    assert exc.value.code == 2


@pytest.mark.parametrize("lemmas", ["", ",", "sus,", "sus,sus", "sus, bruhat,sus"])
def test_empty_or_repeated_lemma_ids_rejected(lemmas, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--imax", "2", "--lemmas", lemmas])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty or repeated lemma id") and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-dir/r.json", "."])
def test_unwritable_out_exits_2_before_any_check(where, tmp_path, monkeypatch, capsys):
    def no_checks(ctx):
        raise AssertionError("a check ran before --out was checked")

    monkeypatch.setattr(cli, "run_all", no_checks)
    path = tmp_path / where
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {path}: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_a_crash_keeps_the_previous_report(tmp_path, monkeypatch, capsys):
    # the report file is only rewritten once the new report is complete
    out = tmp_path / "report.json"
    assert main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus,bruhat", "--out", str(out)]) == 0
    before = out.read_text()

    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_all", broken)
    assert main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(out)]) == 3
    assert out.read_text() == before
    monkeypatch.undo()
    # a shorter report replaces the longer one whole
    capsys.readouterr()
    assert main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(out)]) == 0
    after = out.read_text()
    assert after == capsys.readouterr().out and len(after) < len(before)


def test_a_crash_leaves_no_new_report_file(tmp_path, monkeypatch, capsys):
    # a --out path this run created is removed when the run crashes
    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_all", broken)
    out = tmp_path / "report.json"
    assert main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(out)]) == 3
    assert not out.exists()
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_out_on_a_fifo_gets_the_report(tmp_path, capsys):
    # a FIFO cannot be truncated: the report is written to it as it is
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(fifo)])
    reader.join(timeout=60)
    assert code == 0 and not reader.is_alive()
    assert received == [capsys.readouterr().out.encode()]


def test_one_context_per_verify(tmp_path, monkeypatch, capsys):
    built = []

    def counted(config):
        built.append(config)
        return verify.Context(config)

    monkeypatch.setattr(cli, "Context", counted)
    assert main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert built == [RunConfig(q=2, imax=2, lemmas="sus")]
    capsys.readouterr()


def test_a_bad_config_exits_2_before_out_is_opened(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "6", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert capsys.readouterr().err == "error: q must be a prime power\n"


def test_fp_mode_validation():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--coeff", "fp:4"])  # 4 is not prime
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--coeff", "fp:2"])  # matches the defining prime
    assert exc.value.code == 2
    for spec in ("fp:abc", "bogus", "fp:7:0", "cyclo:0", "cyclo:-5", "rat:1", "fp:7:2:1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "2", "--coeff", spec])
        assert exc.value.code == 2, spec


def test_fp_mode_runs(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--q", "2", "--imax", "2", "--coeff", "fp:7",
        "--lemmas", "sus,act-oracle,M-dims", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    capsys.readouterr()


def test_fp2_runs_at_odd_q(capsys, tmp_path):
    # F_2* is trivial: only the trivial character fits, the rest SKIPs
    out = tmp_path / "report.json"
    code = main(["verify", "--q", "3", "--imax", "2", "--coeff", "fp:2",
                 "--lemmas", "sus,act-oracle,L3.3-normalize", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    capsys.readouterr()


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr("sl2ext.cli.run_all", broken)
    assert main(["verify", "--q", "2", "--imax", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_text_format_renders_json(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main([
        "verify", "--q", "2", "--imax", "2", "--lemmas", "sus",
        "--format", "text", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("workbench report")
    assert "[PASS] sus" in text
    assert "summary:" in text
    capsys.readouterr()


def test_table_command(capsys):
    code = main(["table", "--q", "2", "--imax", "3", "--theta-exp", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {tuple(e["pair"]): e for e in doc["table"]}
    assert rows[("tr", "tr")]["value"] == "0"
    assert rows[("tr", "St")]["value"] == "nonzero"
    assert rows[("tr", "M(theta)")]["value"] == "nonzero"
    assert rows[("tr", "M(theta)")]["witness"] == "L5.7-noHG"
    assert rows[("M(lambda)", "M(mu)")]["value"] == "nonzero"


@pytest.mark.parametrize("flag", [["--lemmas", "sus"], ["--budget", "5"], ["--out", "f.json"]])
def test_table_takes_only_the_flags_it_reads(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--q", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_verify_builds_every_context_through_the_cli_name(tmp_path, monkeypatch, capsys):
    # the benchmark child reads the config with _config_from_args, builds
    # the Context itself, and hands it to cmd_verify through cli.Context
    args = cli.make_parser().parse_args(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus",
                                         "--out", str(tmp_path / "r.json")])
    config = cli._config_from_args(args)
    assert config == RunConfig(q=2, imax=2, lemmas="sus")
    ctx = cli.Context(config)
    built = []

    def prebuilt(cfg):
        built.append(cfg)
        return ctx

    def refused(self, cfg):
        raise AssertionError("a Context was built outside cli.Context")

    monkeypatch.setattr(cli, "Context", prebuilt)
    monkeypatch.setattr(verify.Context, "__init__", refused)
    assert args.fn(args) == 0
    assert built and all(cfg == config for cfg in built)
    capsys.readouterr()


def test_table_center_mismatch(capsys):
    code = main(["table", "--q", "3", "--imax", "2", "--theta-exp", "1",
                 "--lambda-exp", "1", "--mu-exp", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {tuple(e["pair"]): e for e in doc["table"]}
    assert rows[("tr", "M(theta)")]["value"] == "0"
    assert rows[("M(lambda)", "M(mu)")]["value"] == "0"


def test_table_trivial_theta_marks_na(capsys):
    code = main(["table", "--q", "2", "--imax", "2", "--theta-exp", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {tuple(e["pair"]): e for e in doc["table"]}
    assert rows[("tr", "M(theta)")]["value"] == "n/a"


@pytest.mark.parametrize("q, coeff, ell", [(2, "fp:3", 3), (3, "fp:2", 2), (2, "fp:3:2", 3)])
def test_table_claims_no_vanishing_below_char_5(q, coeff, ell, capsys):
    assert main(["table", "--q", str(q), "--imax", "2", "--theta-exp", "1", "--coeff", coeff]) == 0
    rows = {tuple(e["pair"]): e for e in json.loads(capsys.readouterr().out)["table"]}
    for m in ("tr", "St", "M(theta)"):
        assert rows[(m, "tr")]["value"] == "unknown"
        assert rows[(m, "tr")]["basis"].endswith(f"char k = {ell}")
    # an explicit l >= 5 meets the hypothesis, as auto fp always does
    for other in ("fp:5", "fp", "cyclo", "rat"):
        assert main(["table", "--q", str(q), "--imax", "2", "--coeff", other]) == 0
        rows = {tuple(e["pair"]): e for e in json.loads(capsys.readouterr().out)["table"]}
        assert [rows[(m, "tr")]["value"] for m in ("tr", "St", "M(theta)")] == ["0"] * 3


def test_table_at_imax_11_is_fast(capsys):
    # q^(11!) - 1 has about 19 million digits; the table must not build it
    t0 = time.monotonic()
    assert main(["table", "--q", "3", "--imax", "11", "--theta-exp", "5"]) == 0
    assert time.monotonic() - t0 < 2
    rows = {tuple(e["pair"]): e for e in json.loads(capsys.readouterr().out)["table"]}
    assert rows[("tr", "M(theta)")]["value"] == "0"


def test_table_matches_the_direct_order_test(capsys, monkeypatch):
    def table_json(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    runs = [["table", "--q", str(q), "--imax", str(imax), "--theta-exp", str(te)]
            for q in (2, 3, 4) for imax in (2, 3)
            for te in (0, 1, 2, 3, -3, q ** math.factorial(imax) - 1, 2 * (q ** math.factorial(imax) - 1))]
    fast = [table_json(argv) for argv in runs]
    monkeypatch.setattr(cli, "_order_divides", lambda te, q, k: te % (q ** k - 1) == 0)
    assert fast == [table_json(argv) for argv in runs]
