"""One `sl2ext verify` invocation in a fresh interpreter, with set-up split out.

    python3 perfbench/child.py RESULT_JSON [--setup-only] [--trace TRACE_JSON] \
        -- verify --q 2 --imax 3 ... --out REPORT

The arguments after `--` are exactly those of the `sl2ext` command line.
Set-up is `import sl2ext` plus building the run's Context tower and
coefficient field; the verify phase is the unchanged `cmd_verify` path,
handed the already-built Context, up to the report bytes being written.
RESULT_JSON receives CLOCK_MONOTONIC stamps (comparable with the parent's),
the exit code, peak RSS and the speed probe's samples of each phase.  It is
written only when the CLI returns, so a crash leaves no result.  The process
exits with the CLI's exit code.

The speed probe measures how fast this CPU runs plain Python at the moment:
a fixed slice of Fraction and dict work (about 0.6 ms), run PROBE_BURST
times at each phase boundary and every PROBE_PERIOD_S from a SIGALRM
handler in between.  The host's CPU speed drifts by 20% and more over
seconds to minutes, so `run.py` scales each phase's time by the slices'
mean duration measured in that same phase, on the same CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.05
PROBE_BURST = 4


def probe_work():
    """The fixed slice of work the speed probe times."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(1, i + 2)
    d = {}
    for i in range(600):
        k = (i % 37, i % 11)
        d[k] = d.get(k, 0) + i * i % 65521
    return acc


class SpeedProbe:
    """Slices timed so far: their number and summed duration."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:  # a tick that lands inside a burst is dropped
            return
        self.busy = True
        t = time.perf_counter()
        probe_work()
        self.total += time.perf_counter() - t
        self.count += 1
        self.busy = False

    def burst(self):
        for _ in range(PROBE_BURST):
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> list:
        """[count, total] since the last take."""
        out = [self.count, self.total]
        self.count, self.total = 0, 0.0
        return out


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default="")
    split = argv.index("--")
    opts = ap.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    probe = SpeedProbe()
    probe.burst()
    probe.start()
    from sl2ext import cli, verify

    tracer = None
    if opts.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    args = cli.make_parser().parse_args(cli_args)
    config = cli._config_from_args(args)
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        ctx = cli.Context(config)
        ctx.blocked()  # builds the tower and the coefficient field
    probe.burst()
    t_setup = time.monotonic()
    result = {"t_setup": t_setup, "probe_setup": probe.take()}
    rc = 0
    if not opts.setup_only:

        def prebuilt(cfg):
            if cfg != config:
                raise RuntimeError("verify asked for a different configuration")
            return ctx

        cli.Context = prebuilt
        rc = args.fn(args)
        probe.burst()
        result["t_end"] = time.monotonic()
        result["probe_verify"] = probe.take()
    probe.stop()
    result["rc"] = rc
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.dump(opts.trace, verify.REGISTRY_IDS)["metrics"]
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
