"""Workloads of the `sl2ext verify` benchmark and the inputs each seed draws.

Each workload is one `sl2ext verify` configuration.  Seed 0 runs it
exactly; any other seed draws `--theta-exp` from the POOL_SIZE smallest
exponents whose character has the same order as the default one (the
default is always the first of them), so the registry does the same
kinds of work on a different character.
"""

from __future__ import annotations

import math
import random

POOL_SIZE = 6

# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {
    "default-cyclo": {"q": 2, "imax": 3, "theta_exp": 1, "coeff": "cyclo"},
    "odd-fp": {"q": 3, "imax": 3, "theta_exp": 2, "coeff": "fp"},
    "cocycle-q3": {"q": 3, "imax": 2, "theta_exp": 2, "coeff": "cyclo"},
    # under a second, for the benchmark's own tests; not in BENCHMARK.json
    "smoke": {"q": 2, "imax": 2, "theta_exp": 1, "coeff": "cyclo"},
}


def order_exponents(q: int, imax: int, theta_exp: int) -> list:
    """The POOL_SIZE smallest exponents with the same character order."""
    n = q ** math.factorial(imax) - 1
    g = math.gcd(theta_exp, n)
    return [e for e in range(1, n) if math.gcd(e, n) == g][:POOL_SIZE]


def config_for(name: str, seed: int) -> dict:
    """The workload's configuration for a seed; seed 0 is the default."""
    config = dict(WORKLOADS[name])
    if seed != 0:
        pool = order_exponents(config["q"], config["imax"], config["theta_exp"])
        config["theta_exp"] = pool[random.Random(f"{name}:{seed}").randrange(len(pool))]
    return config


def cli_args(config: dict) -> list:
    return ["--q", str(config["q"]), "--imax", str(config["imax"]),
            "--theta-exp", str(config["theta_exp"]), "--coeff", config["coeff"]]
