"""Write perfbench/reference.json: the pinned reports the gate compares with.

    python3 perfbench/pin.py [WORKLOAD ...]

For each workload and each exponent its seeds can draw, runs
`sl2ext verify` once and records the sha256 of the report bytes, the
sha256 of every report entry and the verdict summary.  Run it only when
a change is meant to alter report bytes; a speed-up must leave this file
as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

from run import REFERENCE, RUNS_DIR, entry_hashes, invoke
from workloads import WORKLOADS, cli_args, order_exponents


def main(names) -> int:
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS_DIR)
    try:
        for name in names or list(WORKLOADS):
            w = WORKLOADS[name]
            ref[name] = {}
            for theta in order_exponents(w["q"], w["imax"], w["theta_exp"]):
                config = dict(w, theta_exp=theta)
                t0 = time.monotonic()
                inv = invoke(workdir, cli_args(config))
                if inv.rc != 0 or inv.report is None:
                    print(f"{name} theta={theta}: exit {inv.rc}\n{inv.stderr}", file=sys.stderr)
                    return 1
                summary = json.loads(inv.report)["summary"]
                ref[name][str(theta)] = {
                    "sha256": hashlib.sha256(inv.report).hexdigest(),
                    "entries": entry_hashes(inv.report),
                    "summary": summary,
                }
                print(f"{name} theta={theta}: {summary} {time.monotonic() - t0:.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
