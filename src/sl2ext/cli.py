"""Command line entry point.

`verify` runs the selected checks and writes a deterministic report
(JSON, or a text rendering of the same JSON).  `table` prints the
summary grid of extension statements between the simple objects at the
configured characters, each row tied to the check id that backs it.

Exit codes: 0 all PASS/SKIPPED, 1 some FAIL, 2 usage or config error,
3 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import traceback

from . import polyutil
from .charmod import trivial_on_center
from .verify import Context, REGISTRY_IDS, RunConfig, run_all, summarize

SCHEMA_VERSION = "1"


def _config_from_args(args) -> RunConfig:
    if args.imax < 2:
        raise SystemExit(_usage_error("imax must be >= 2"))
    if args.budget < 1:
        raise SystemExit(_usage_error("budget must be >= 1"))
    config = RunConfig(
        q=args.q,
        imax=args.imax,
        coeff=args.coeff,
        theta_exp=args.theta_exp,
        lambda_exp=args.lambda_exp,
        mu_exp=args.mu_exp,
        lemmas=args.lemmas,
        budget=args.budget,
    )
    try:
        Context(config)  # the library's check of q and the coefficient mode
    except ValueError as e:
        raise SystemExit(_usage_error(str(e)))
    return config


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _selected_lemmas(config: RunConfig):
    if config.lemmas == "all":
        return None
    chosen = [x.strip() for x in config.lemmas.split(",")]
    if not all(chosen) or len(set(chosen)) < len(chosen):
        raise SystemExit(_usage_error(f"empty or repeated lemma id in --lemmas {config.lemmas!r}"))
    unknown = [x for x in chosen if x not in REGISTRY_IDS]
    if unknown:
        raise SystemExit(_usage_error(f"unknown lemma ids: {', '.join(unknown)}"))
    return chosen


def _open_out(path: str):
    """The --out file, opened before any check runs; a context manager."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as e:
        raise SystemExit(_usage_error(f"cannot write --out {path}: {e.strerror or e}"))


def _report_json(config: RunConfig, reports) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "config": config.to_json(),
        "reports": [r.to_json() for r in reports],
        "summary": summarize(reports),
    }


def render_text(doc: dict) -> str:
    lines = [f"workbench report v{doc['version']}"]
    cfg = doc["config"]
    lines.append(
        f"config: q={cfg['q']} imax={cfg['imax']} coeff={cfg['coeff']} "
        f"theta={cfg['theta_exp']} lambda={cfg['lambda_exp']} mu={cfg['mu_exp']} "
        f"budget={cfg['budget']}"
    )
    for r in doc["reports"]:
        params = " ".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
        line = f"[{r['verdict']}] {r['id']} {params}"
        if r.get("reason"):
            line += f" ({r['reason']})"
        lines.append(line)
    s = doc["summary"]
    lines.append(f"summary: pass={s['pass']} fail={s['fail']} skipped={s['skipped']}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    lemmas = _selected_lemmas(config)
    with _open_out(args.out) as out:
        reports = run_all(Context(config), lemmas)
        doc = _report_json(config, reports)
        if args.format == "json":
            # counting payloads hold exact integers past the int -> str digit limit
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            finally:
                sys.set_int_max_str_digits(limit)
        else:
            rendered = render_text(doc)
        if out:
            out.write(rendered)
    print(rendered, end="")
    return 0 if doc["summary"]["fail"] == 0 else 1


def _order_divides(te: int, q: int, k: int) -> bool:
    """Whether q^k - 1 divides te, building q^k only when it is below |te| + 1."""
    digits, rest = 0, abs(te) + 1
    while rest:
        rest //= q
        digits += 1
    if digits <= k:  # 0 <= |te| < q^k - 1
        return te == 0
    return te % (q ** k - 1) == 0


def build_table(config: RunConfig) -> list:
    """The pairwise extension grid at the configured characters.

    Entries report the statement's status and the id of the artifact
    check that witnesses the nonzero cases at finite level; the zero
    cases carry the hypothesis that forces them.  Nothing here computes
    a limit extension; the grid is bookkeeping over the check suite.
    """
    q, imax = config.q, config.imax
    te, le, me = config.theta_exp, config.lambda_exp, config.mu_exp
    p = polyutil.prime_power(q)[0]
    theta_central = trivial_on_center(p, te)
    theta_trivial = _order_divides(te, q, math.factorial(imax))
    rows = []

    def row(pair, value, basis, witness=None):
        entry = {"pair": pair, "value": value, "basis": basis}
        if witness:
            entry["witness"] = witness
        rows.append(entry)

    for m in ("tr", "St", "M(theta)"):
        row([m, "tr"], "0", "finite-dimensional-target vanishing (char >= 5 or 0)")
    row(["tr", "St"], "nonzero", "the full induced module is itself a nontrivial extension", "M-dims")
    row(["St", "St"], "nonzero", "follows from the Steinberg-by-induced case", "L5.8-noLG")
    if theta_trivial:
        for m in ("tr", "St"):
            row([m, "M(theta)"], "n/a", "theta is trivial: the induced module is not simple")
        row(["M(theta)", "St"], "n/a", "theta is trivial: the induced module is not simple")
    elif theta_central:
        row(["tr", "M(theta)"], "nonzero", "theta agrees with tr on the center", "L5.7-noHG")
        row(["St", "M(theta)"], "nonzero", "theta agrees with tr on the center", "L5.8-noLG")
        row(["M(theta)", "St"], "nonzero", "center condition via the induced-by-induced case", "L4.6-noFU")
    else:
        row(["tr", "M(theta)"], "0", "theta differs from tr on the center")
        row(["St", "M(theta)"], "0", "theta differs from tr on the center")
        row(["M(theta)", "St"], "0", "theta differs from tr on the center")
    if trivial_on_center(p, le + me):
        row(["M(lambda)", "M(mu)"], "nonzero", "the characters agree on the center", "L4.6-noFU")
    else:
        row(["M(lambda)", "M(mu)"], "0", "the characters differ on the center")
    return rows


def cmd_table(args) -> int:
    config = _config_from_args(args)
    doc = {
        "version": SCHEMA_VERSION,
        "config": config.to_json(),
        "table": build_table(config),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"extension grid at q={config.q}, theta={config.theta_exp}, "
              f"lambda={config.lambda_exp}, mu={config.mu_exp}")
        for entry in doc["table"]:
            pair = f"({entry['pair'][0]}, {entry['pair'][1]})"
            witness = f"  [{entry['witness']}]" if "witness" in entry else ""
            print(f"  {pair:28s} {entry['value']:8s} {entry['basis']}{witness}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2ext",
        description="exact finite-level verification for induced-module extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("table", cmd_table)):
        p = sub.add_parser(name)
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--imax", type=int, default=3)
        p.add_argument("--coeff", default="cyclo", help="rat | cyclo[:N] | fp[:L[:M]]")
        p.add_argument("--theta-exp", type=int, default=0, dest="theta_exp")
        p.add_argument("--lambda-exp", type=int, default=0, dest="lambda_exp")
        p.add_argument("--mu-exp", type=int, default=0, dest="mu_exp")
        p.add_argument("--lemmas", default="all")
        p.add_argument("--budget", type=int, default=100000)
        p.add_argument("--out", default="")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception:  # a crash must not read as "a check FAILed"
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
