"""Golden reports: each configuration of tests/golden/configs.json must
reproduce its committed report byte for byte."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

from make_goldens import HERE, load_configs, run_config  # noqa: E402

CONFIGS = load_configs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_report_bytes(name, tmp_path):
    out = tmp_path / "report.json"
    code = run_config(CONFIGS[name], str(out))
    assert code == 0
    with open(os.path.join(HERE, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
