"""Write the golden reports: one `<name>.json` per entry of configs.json.

Each entry is the argument string of one `sl2ext verify` run; the golden
file holds that run's JSON report bytes.  Regenerate only when a change to
the reports is intended:

    PYTHONPATH=src python3 tests/golden/make_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_configs() -> dict:
    with open(os.path.join(HERE, "configs.json")) as fh:
        return json.load(fh)


def run_config(args: str, out_path: str) -> int:
    from sl2ext.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(["verify", *args.split(), "--out", out_path])


def main() -> int:
    for name, args in load_configs().items():
        code = run_config(args, os.path.join(HERE, f"{name}.json"))
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
