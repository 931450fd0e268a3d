"""Tests of the benchmark itself, on the tiny `smoke` workload (q=2, imax=2).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from child import PROBE_BURST  # noqa: E402
from workloads import cli_args, config_for  # noqa: E402

SMOKE = cli_args(config_for("smoke", 0))


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)["smoke"]["1"]


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    lines, out = _bench(trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in _contract()[section]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_ratio = 0 ") for line in lines)


def test_gate_accepts_reference_and_rejects_tampering(workdir, smoke_reference):
    inv = run.invoke(workdir, SMOKE)
    n = len(smoke_reference["entries"])
    assert run.gate(inv, smoke_reference) == (n, 0, "")

    doc = json.loads(inv.report)
    doc["reports"][3]["payload"]["tampered"] = True
    inv.report = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    attempted, failed, reason = run.gate(inv, smoke_reference)
    assert (attempted, failed) == (n, 1) and reason

    doc["reports"][3]["payload"].pop("tampered")
    inv.report = json.dumps(doc, indent=1, sort_keys=True).encode()
    assert run.gate(inv, smoke_reference)[1] == n  # same entries, other bytes

    crashed = run.Invocation(1, 0.0, None, None, "Traceback ...")
    assert run.gate(crashed, smoke_reference)[:2] == (n, n)


def test_times_are_scaled_by_the_speed_probe(workdir):
    inv = run.invoke(workdir, SMOKE)
    for phase, wall in (("setup", inv.setup_wall_s), ("verify", inv.verify_wall_s)):
        slices, total = inv.result[f"probe_{phase}"]
        assert slices >= 2 * PROBE_BURST if phase == "setup" else slices >= PROBE_BURST
        assert 0 < total < wall
    slices, total = inv.result["probe_verify"]
    assert inv.verify_s == pytest.approx(
        (inv.verify_wall_s - total) * run.PROBE_REF_S * slices / total)


def test_tracing_leaves_report_bytes_unchanged(workdir):
    plain = run.invoke(workdir, SMOKE)
    traces = []
    for k in range(2):
        path = os.path.join(workdir, f"trace{k}.json")
        traced = run.invoke(workdir, SMOKE, trace_path=path)
        assert traced.rc == 0, traced.stderr
        assert traced.report == plain.report
        with open(path) as fh:
            traces.append(json.load(fh))
    first, second = traces
    assert first["counts"] == second["counts"]
    assert first["extra"] == second["extra"]
    assert first["spans"] and all(end >= start for _, start, end, _ in first["spans"])


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "child.py", "tracer.py", "reference.json"):
        (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
