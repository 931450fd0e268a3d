"""The benchmark's pinned reports, reproduced in-process.

perfbench/reference.json pins the sha256 of the report of every
(workload, theta) the benchmark seeds can draw; the benchmark gate
compares each run with it.  Here each of those reports is rebuilt with
`cli.main` and compared with its pin, so that a report drift fails the
tests and not only the benchmark.  Nothing under perfbench/ is written.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from sl2ext.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import WORKLOADS, cli_args  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)

PINNED = [(name, theta) for name in sorted(REFERENCE) for theta in sorted(REFERENCE[name], key=int)]


def test_every_workload_is_pinned():
    assert set(REFERENCE) == set(WORKLOADS) and len(PINNED) == 16


@pytest.mark.parametrize("name, theta", PINNED)
def test_the_pinned_report_is_reproduced(name, theta, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", *cli_args(dict(WORKLOADS[name], theta_exp=int(theta))), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE[name][theta]["sha256"]
