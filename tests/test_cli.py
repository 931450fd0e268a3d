import json
import math
import time

import pytest

from sl2ext import cli
from sl2ext.cli import main


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


def test_prime_power_q_allowed(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--q", "4", "--imax", "2", "--lemmas", "sus,bruhat,clm-4",
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()


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
    def no_checks(ctx, lemmas):
        raise AssertionError("a check ran before --out was checked")

    monkeypatch.setattr(cli, "run_all", no_checks)
    path = tmp_path / where
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--imax", "2", "--lemmas", "sus", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {path}: ")
    assert "Traceback" not in captured.err and captured.out == ""


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
    def broken(ctx, lemmas):
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
