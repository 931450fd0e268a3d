"""Benchmark of `sl2ext verify`: time to verdict, set-up time and memory,
with a correctness gate on every run, and a traced per-layer run.

    python3 perfbench/run.py --workload default-cyclo --seed 0 --seconds 36 --trace 0

The package is imported from `src/` of the checkout holding this file.
Every verify is a fresh interpreter (module-level caches are paid on every
CLI invocation), run one at a time from this process: a closed loop with
one client.

--trace 0 times untraced runs and reports the end-to-end metrics, each the
median over the run's invocations.  Times are in reference seconds: the
phase's wall time, less the speed probe's own slices, scaled by
PROBE_REF_S over the mean slice duration the probe measured in that phase
(see child.py).  This cancels the host's CPU-speed drift, which moves raw
wall times by 20% and more between minutes; the raw wall times are printed
alongside.  --trace 1 runs the verify untraced,
traced, and untraced again, and reports the per-layer metrics of the
traced run; the spans are left in perfbench/_runs/trace-<workload>-<seed>.json.

Every invocation passes the gate or is left out of the timings: exit code
0, no FAIL entry, and every report entry equal to the pinned reference
(perfbench/reference.json, written by perfbench/pin.py).  Entries that
fail the gate are counted in `failed`; a crash counts all of them.  The
last line of stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, cli_args, config_for  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RUNS_DIR = os.path.join(HERE, "_runs")
SETUP_ONLY_RUNS = 20  # extra set-up samples per timed run, besides one per verify
INVOKE_TIMEOUT_S = 170
PROBE_REF_S = 0.0006  # nominal duration of one speed-probe slice

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Invocation:
    """One finished child process: exit code, stamps, report bytes."""

    def __init__(self, rc, t_start, result, report, stderr):
        self.rc = rc
        self.t_start = t_start
        self.result = result
        self.report = report
        self.stderr = stderr

    @property
    def setup_wall_s(self):
        return self.result["t_setup"] - self.t_start

    @property
    def verify_wall_s(self):
        return self.result["t_end"] - self.result["t_setup"]

    @property
    def setup_s(self):
        return reference_seconds(self.setup_wall_s, *self.result["probe_setup"])

    @property
    def verify_s(self):
        return reference_seconds(self.verify_wall_s, *self.result["probe_verify"])

    @property
    def peak_rss_mb(self):
        return self.result["peak_rss_kb"] / 1024


def reference_seconds(wall: float, slices: int, slice_total: float) -> float:
    """A phase's wall time without the probe's slices, at the reference speed."""
    return (wall - slice_total) * PROBE_REF_S * slices / slice_total


def invoke(workdir, argv, setup_only=False, trace_path="") -> Invocation:
    result_path = os.path.join(workdir, "result.json")
    report_path = os.path.join(workdir, "report.json")
    for path in (result_path, report_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, CHILD, result_path]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    cmd += ["--", "verify", *argv, "--out", report_path]
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    t_start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Invocation(None, t_start, None, None, "timed out")
    result = report = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report = fh.read()
    return Invocation(proc.returncode, t_start, result, report,
                      proc.stderr.decode(errors="replace"))


def entry_hashes(report: bytes) -> list:
    doc = json.loads(report)
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
            for r in doc["reports"]]


def gate(inv: Invocation, ref: dict) -> tuple:
    """(instances attempted, instances failed, reason or '') for one verify."""
    expected = ref["entries"]
    if inv.rc not in (0, 1) or inv.result is None or inv.report is None:
        tail = inv.stderr.strip().splitlines()[-1:] if inv.stderr else []
        return len(expected), len(expected), f"crashed (exit {inv.rc}) {' '.join(tail)}"
    try:
        doc = json.loads(inv.report)
        got = entry_hashes(inv.report)
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected), "unreadable report"
    bad = {k for k, r in enumerate(doc["reports"]) if r.get("verdict") == "FAIL"}
    bad |= {k for k in range(max(len(got), len(expected)))
            if k >= len(got) or k >= len(expected) or got[k] != expected[k]}
    attempted = max(len(got), len(expected))
    if hashlib.sha256(inv.report).hexdigest() != ref["sha256"] and not bad:
        bad = set(range(attempted))  # the entries match but the document does not
    if inv.rc != 0 and not bad:
        bad = set(range(attempted))
    reason = f"{len(bad)} report entries FAIL or differ from the reference" if bad else ""
    return attempted, len(bad), reason


class Tally:
    def __init__(self, ref):
        self.ref = ref
        self.attempted = 0
        self.failed = 0

    def check(self, inv: Invocation) -> bool:
        attempted, failed, reason = gate(inv, self.ref)
        self.attempted += attempted
        self.failed += failed
        if reason:
            print(f"gate: {reason}", file=sys.stderr)
        return not failed


def timed_run(workdir, argv, tally: Tally, seconds: float) -> dict:
    setup, verify, rss = [], [], []
    warm = invoke(workdir, argv, setup_only=True)  # fills __pycache__ and the page cache
    if warm.rc != 0:
        raise SystemExit(f"set-up failed: {warm.stderr.strip()}")
    t0 = time.monotonic()
    for _ in range(SETUP_ONLY_RUNS):
        inv = invoke(workdir, argv, setup_only=True)
        if inv.rc != 0 or inv.result is None:
            raise SystemExit(f"set-up failed: {inv.stderr.strip()}")
        setup.append(inv.setup_s)
    # Start verifies while the last one would still end within the budget:
    # a closed loop, one client.
    last = 0.0
    while not tally.attempted or time.monotonic() - t0 + last < seconds:
        t_inv = time.monotonic()
        inv = invoke(workdir, argv)
        last = time.monotonic() - t_inv
        if tally.check(inv):
            setup.append(inv.setup_s)
            verify.append(inv.verify_s)
            rss.append(inv.peak_rss_mb)
            print(f"verify {len(verify)}: setup {inv.setup_s:.4f} s (wall {inv.setup_wall_s:.4f}),"
                  f" verify {inv.verify_s:.3f} s (wall {inv.verify_wall_s:.3f}),"
                  f" peak rss {inv.peak_rss_mb:.1f} MB", file=sys.stderr)
        elif inv.result is None:
            break  # crashed: repeating will not help
    if not verify:
        return {}
    return {"setup_s": statistics.median(setup), "verify_s": statistics.median(verify),
            "peak_rss_mb": statistics.median(rss)}


def traced_run(workdir, argv, tally: Tally, trace_path) -> dict:
    # Untraced runs on both sides, so that drift in machine speed cancels
    # out of the overhead to first order.
    before = invoke(workdir, argv)
    traced = invoke(workdir, argv, trace_path=trace_path)
    after = invoke(workdir, argv)
    if not all([tally.check(inv) for inv in (before, traced, after)]):
        return {}
    if not before.report == traced.report == after.report:
        tally.failed += len(tally.ref["entries"])
        print("gate: the traced report differs from the untraced one", file=sys.stderr)
        return {}
    metrics = dict(traced.result["trace"])
    metrics["trace.overhead_s"] = traced.verify_s - (before.verify_s + after.verify_s) / 2
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sl2ext", "__init__.py")):
        print("error: run from the root of an sl2ext checkout (src/sl2ext not found)",
              file=sys.stderr)
        return 2
    config = config_for(opts.workload, opts.seed)
    with open(REFERENCE) as fh:
        ref = json.load(fh)[opts.workload][str(config["theta_exp"])]
    argv_cli = cli_args(config)
    print(f"workload {opts.workload} seed {opts.seed}: sl2ext verify {' '.join(argv_cli)}")

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS_DIR)
    tally = Tally(ref)
    try:
        if opts.trace:
            trace_path = os.path.join(RUNS_DIR, f"trace-{opts.workload}-{opts.seed}.json")
            metrics = traced_run(workdir, argv_cli, tally, trace_path)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = timed_run(workdir, argv_cli, tally, opts.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} check instances)")
    out = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
