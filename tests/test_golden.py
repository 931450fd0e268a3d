"""Golden reports: each configuration of tests/golden/configs.json must
reproduce its committed report byte for byte.

The Frobenius twist x -> x^p is an automorphism of every level that fixes
B, T and U, so it carries M_i(theta) to M_i(p theta) with the labels
permuted.  Each golden configuration that runs module checks, rerun with
theta, lambda and mu multiplied by p mod q^{imax!} - 1, must give the same
entries: id, params, verdict, reason and payload, except for the payload
fields that echo or count the exponents.  The golden report stands for
the untwisted run, as the byte test above pins it to this code.

A second coefficient mode that holds the same characters must give the
same entries too.  Characteristic enters Ext^1, so this is an
observation on these configurations, not a theorem: each golden
configuration in auto cyclo, auto fp or fp:5:2 is rerun with cyclo and
fp swapped, unless one of the two modes blocks the module checks (the
cyclotomic cap).  rat holds no character of order above 2."""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

from make_goldens import HERE, load_configs, run_config  # noqa: E402
from sl2ext import verify  # noqa: E402
from sl2ext.cli import _config_from_args, make_parser  # noqa: E402

CONFIGS = load_configs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report_bytes(name, tmp_path):
    out = tmp_path / "report.json"
    code = run_config(CONFIGS[name], str(out))
    assert code == 0
    with open(os.path.join(HERE, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


EXPONENTS = ("theta_exp", "lambda_exp", "mu_exp")
MODULE_CHECKS = {check.lemma_id for check in verify.REGISTRY if check.needs is verify._module}
# payload fields that echo or count the character exponents, per check id
ECHOED = {
    "act-oracle": {"exponents", "oracle_pairs", "random_pairs"},  # the exponent list, and pairs per exponent
    "P2.1-suw": {"cases"},  # (exponents + 1) cases per level unit
    "L4.6-noFU": {"characters"},
    "L5.7-noHG": {"characters"},
    "L5.8-noLG": {"characters"},
}
ECHOED_PAIR = "pair"  # eta-weight's [lambda, mu], in each entry of its "pairs"


def _twist(args: str) -> str | None:
    """The argument string with theta, lambda and mu multiplied by p mod
    q^{imax!} - 1, or None when the run has no module check to twist or
    every exponent is 0, which the twist fixes."""
    config = _config_from_args(make_parser().parse_args(["verify", *args.split()]))
    ctx = verify.Context(config)
    if not any(getattr(config, e) for e in EXPONENTS) or ctx.blocked() or not MODULE_CHECKS & set(ctx.lemmas):
        return None
    p, n = ctx.p, config.q ** math.factorial(config.imax) - 1
    return " ".join([args, *(f"--{e.replace('_', '-')} {getattr(config, e) * p % n}" for e in EXPONENTS)])


TWISTED = {name: twisted for name, args in sorted(CONFIGS.items()) if (twisted := _twist(args))}


def _without_echoes(entry: dict) -> dict:
    payload = {k: v for k, v in entry["payload"].items() if k not in ECHOED.get(entry["id"], ())}
    if entry["id"] == "eta-weight":
        payload["pairs"] = [{k: v for k, v in pair.items() if k != ECHOED_PAIR} for pair in payload["pairs"]]
    return {**entry, "payload": payload}


@pytest.mark.parametrize("name", sorted(TWISTED))
def test_the_frobenius_twist_keeps_every_entry(name, tmp_path):
    out = tmp_path / "twisted.json"
    assert run_config(TWISTED[name], str(out)) == 0
    # the counting integers stay digit strings: some are past the int -> str limit
    with open(os.path.join(HERE, f"{name}.json")) as fh:
        plain = json.load(fh, parse_int=str)["reports"]
    twisted = json.loads(out.read_text(), parse_int=str)["reports"]
    assert [_without_echoes(e) for e in twisted] == [_without_echoes(e) for e in plain]


SWAPPED_MODE = {"cyclo": "fp", "fp": "cyclo", "fp:5:2": "cyclo"}


def _swap_mode(args: str) -> str | None:
    """The argument string with cyclo and fp swapped, or None when the
    mode is rat or the two modes do not block the same module checks."""
    config = _config_from_args(make_parser().parse_args(["verify", *args.split()]))
    if config.coeff not in SWAPPED_MODE:
        return None
    swapped = f"{args} --coeff {SWAPPED_MODE[config.coeff]}"
    other = _config_from_args(make_parser().parse_args(["verify", *swapped.split()]))
    return swapped if verify.Context(config).blocked() == verify.Context(other).blocked() else None


SWAPPED = {name: swapped for name, args in sorted(CONFIGS.items()) if (swapped := _swap_mode(args))}


def test_the_mode_swap_leaves_out_only_rat_and_the_cap():
    assert set(CONFIGS) - set(SWAPPED) == {
        "q2-i3-rat-theta1-lambda1", "q3-i2-rat-theta1-ext1", "q4-i3-field-cap", "q5-i3-fp-theta2-modules"}


@pytest.mark.parametrize("name", sorted(SWAPPED))
def test_the_mode_swap_keeps_every_entry(name, tmp_path):
    out = tmp_path / "swapped.json"
    assert run_config(SWAPPED[name], str(out)) == 0
    # the counting integers stay digit strings: some are past the int -> str limit
    with open(os.path.join(HERE, f"{name}.json")) as fh:
        plain = json.load(fh, parse_int=str)["reports"]
    assert json.loads(out.read_text(), parse_int=str)["reports"] == plain
