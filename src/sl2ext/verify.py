"""The check registry: every finitely verifiable statement the workbench
covers, as one `Check` record.

`Context` checks a run's configuration, the lemma list included, and
raises ValueError on the first bad field; `run_all` runs that list.
A record holds the check's stable id, its body, the level range it
accepts, its other SKIP preconditions, a level's cost and its schedule.
`run_lemma` tests the tower or module rule, the level range, the other
preconditions and last the cost against the budget, and SKIPs with the
first reason it meets, also at a level `run_all` would never schedule.
Otherwise the body returns `(verdict, payload)` or `(verdict, payload,
reason)` and `run_lemma` builds the Report.  `run_all` schedules the
range's levels whose cost fits the budget unless the record names its
own schedule.  Only the registry reads the budget; no lower layer takes
it.  Counting certificates run at any level i >= 1 with big integers
up to the counting cap; module level checks stop at the budget and the
ambient-degree cap.
Negative controls are their own records: they PASS exactly when the
sabotaged input is caught.

`run_all` plans in registry order, then runs the planned instances on one
process per CPU this process may run on (at most one per instance): this
one and forked children, which pull instance indices from one pipe, the
last planned first, and send their reports back pickled.  The reports
come back in plan order, so the JSON bytes do not depend on the number of
processes.  On one CPU, without `os.fork`, or while a tracer wraps
`run_lemma`, the instances run here, one after another.  A worker's crash
raises RuntimeError with its traceback.
"""

from __future__ import annotations

import math
import os
import random
from functools import partial
from typing import Callable, NamedTuple

from . import cohom, grp, polyutil, towerext
from .charmod import TorusCharacter, trivial_on_center
from .coeff import (CyclotomicField, PrimeField, RationalField, choose_prime_for_order,
                    field_from_spec, parse_coeff_spec)
from .indmod import InducedModule
from .linalg import SparseSpan
from .tower import BudgetError, Tower

MODULE_DEGREE_CAP = 12  # ambient F_p-degree cap for explicit module work
CYCLOTOMIC_ORDER_CAP = 2000  # cap for the cyclotomic order, auto-selected or explicit
EXT_GROUP_CAP = 60  # largest level-1 group the cocycle oracle enumerates
COUNTING_LEVELS = 6
COUNTING_BITS_CAP = 1 << 19  # largest integer, in bits, a counting check builds


class RunConfig(NamedTuple):
    q: int = 2
    imax: int = 3
    coeff: str = "cyclo"
    theta_exp: int = 0
    lambda_exp: int = 0
    mu_exp: int = 0
    lemmas: str = "all"
    budget: int = 100000

    def to_json(self):
        return self._asdict()


class CheckSpec(NamedTuple):
    lemma_id: str
    params: dict


class Report(NamedTuple):
    lemma_id: str
    params: dict
    verdict: str  # PASS | FAIL | SKIPPED
    payload: dict
    reason: str = ""

    def to_json(self):
        out = {
            "id": self.lemma_id,
            "params": self.params,
            "verdict": self.verdict,
            "payload": self.payload,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


class Context:
    """The checked configuration of one run, with its lazy tower, field and
    characters."""

    def __init__(self, config: RunConfig):
        """ValueError on the first of: imax < 2, budget < 1, q over the
        trial-division cap or no prime power, a malformed coefficient mode,
        one of the defining characteristic or a cyclotomic order over the
        cap, an empty, repeated or unknown lemma id."""
        if config.imax < 2:
            raise ValueError("imax must be >= 2")
        if config.budget < 1:
            raise ValueError("budget must be >= 1")
        if config.q > polyutil.TRIAL_DIVISION_CAP:
            raise ValueError(f"q must be at most {polyutil.TRIAL_DIVISION_CAP}")
        pk = polyutil.prime_power(config.q)
        if pk is None:
            raise ValueError("q must be a prime power")
        kind, coeff_args = parse_coeff_spec(config.coeff)
        if kind == "fp" and coeff_args and coeff_args[0] == pk[0]:
            raise ValueError("fp characteristic must differ from the defining one")
        if kind == "cyclo" and coeff_args and coeff_args[0] > CYCLOTOMIC_ORDER_CAP:
            raise ValueError(f"cyclotomic order {coeff_args[0]} exceeds the cap {CYCLOTOMIC_ORDER_CAP}")
        self.lemmas = REGISTRY_IDS  # the checks run_all runs, in registry order
        if config.lemmas != "all":
            chosen = [x.strip() for x in config.lemmas.split(",")]
            if not all(chosen) or len(set(chosen)) < len(chosen):
                raise ValueError(f"empty or repeated lemma id in --lemmas {config.lemmas!r}")
            unknown = [x for x in chosen if x not in CHECKS]
            if unknown:
                raise ValueError(f"unknown lemma ids: {', '.join(unknown)}")
            self.lemmas = chosen
        self.config = config
        self.p, self.d0 = pk
        self._tower = None
        self._tower_error = None
        self._field = None
        self._field_error = None
        self._chars = {}  # exponent mod q^{imax!} - 1 -> its one TorusCharacter

    @property
    def q(self):
        return self.config.q

    @property
    def imax(self):
        return self.config.imax

    @property
    def budget(self):
        return self.config.budget

    def module_degree(self, i: int) -> int:
        return math.factorial(i) * self.d0

    @property
    def tower(self) -> Tower | None:
        if self._tower is None and self._tower_error is None:
            if self.module_degree(self.imax) > MODULE_DEGREE_CAP:
                self._tower_error = (
                    f"ambient degree {self.module_degree(self.imax)} exceeds the "
                    f"module cap {MODULE_DEGREE_CAP}; only counting checks run"
                )
            else:
                try:
                    self._tower = Tower(self.q, self.imax)
                except BudgetError as e:
                    self._tower_error = str(e)
        return self._tower

    @property
    def tower_error(self) -> str | None:
        _ = self.tower
        return self._tower_error

    @property
    def field(self):
        if self._field is None and self._field_error is None:
            order = self.q ** math.factorial(self.imax) - 1
            if self.config.coeff == "cyclo" and order > CYCLOTOMIC_ORDER_CAP:
                self._field_error = (
                    f"auto cyclotomic order {order} exceeds the cap "
                    f"{CYCLOTOMIC_ORDER_CAP}; pick rat, fp, or an explicit cyclo:N"
                )
            else:
                self._field = field_from_spec(self.config.coeff, order)
        return self._field

    def blocked(self) -> str | None:
        """Reason module-level checks cannot run at this configuration."""
        if self.tower is None:
            return self.tower_error
        _ = self.field
        return self._field_error

    def char(self, exp: int) -> TorusCharacter:
        """The run's one character of this exponent, so that its value
        cache serves every check."""
        key = exp % (self.tower.size - 1)
        chi = self._chars.get(key)
        if chi is None:
            chi = self._chars[key] = TorusCharacter(self.tower, self.field, key)
        return chi

    def char_supported(self, exp: int) -> bool:
        """Whether every value of the exponent-exp character fits the mode."""
        n = self.tower.size - 1
        return self.field.supports_order(n // math.gcd(n, exp))

    @property
    def theta(self):
        return self.char(self.config.theta_exp)

    @property
    def lam(self):
        return self.char(self.config.lambda_exp)

    @property
    def mu(self):
        return self.char(self.config.mu_exp)

    def group_order(self, i: int, pgl=False) -> int:
        return grp.subgroup_order("G", self.q, i, pgl=pgl)


# -- preconditions --------------------------------------------------------------
# Each takes (ctx, params) and returns the reason the check must SKIP, or
# None.  run_lemma tests a record's tower or module rule, then its level
# range, then its other rules, in that order, before the check body runs.


def _tower(ctx: Context, params: dict) -> str | None:
    return ctx.tower_error


def _module(ctx: Context, params: dict) -> str | None:
    return ctx.blocked()


class Levels(NamedTuple):
    """The levels a check accepts: lowest <= i <= imax - margin, or every
    i >= lowest when margin is None (the counting checks, which the
    counting cap bounds instead)."""

    lowest: int
    margin: int | None
    reason: str

    def __call__(self, ctx: Context, params: dict) -> str | None:
        i = params.get("i")
        inside = isinstance(i, int) and self.lowest <= i and (
            self.margin is None or i <= ctx.imax - self.margin)
        return None if inside else self.reason

    def candidates(self, ctx: Context) -> range:
        """The levels run_all may schedule, before the budget."""
        top = max(COUNTING_LEVELS, ctx.imax) if self.margin is None else ctx.imax - self.margin
        return range(self.lowest, top + 1)


_LACKS_ORDER = "mode lacks the character order"


def _theta_characters(ctx: Context, params: dict) -> str | None:
    """theta fits the mode and is trivial on the center (systems H and L)."""
    if not ctx.char_supported(ctx.config.theta_exp):
        return _LACKS_ORDER
    if not ctx.theta.is_trivial_on_center():
        return "theta is nontrivial on the center"
    return None


def _pair_characters(ctx: Context, params: dict) -> str | None:
    """lambda and mu fit the mode and agree on the center (system F)."""
    el, em = ctx.config.lambda_exp, ctx.config.mu_exp
    if not (ctx.char_supported(el) and ctx.char_supported(em)):
        return _LACKS_ORDER
    if not trivial_on_center(ctx.p, el + em):
        return towerext.CENTER_MISMATCH
    return None


def _system_characters(ctx: Context, params: dict) -> str | None:
    rule = _pair_characters if params["system"] == "F" else _theta_characters
    return rule(ctx, params)


def _two_quotient_reps(ctx: Context, params: dict) -> str | None:
    if len(grp.center_quotient_reps(ctx.tower, params["i"])) < 2:
        return "a collision needs at least two quotient representatives"
    return None


def _nontrivial_level_torus(ctx: Context, params: dict) -> str | None:
    if ctx.tower.level_size(params["i"]) - 1 < 2:
        return "every character agrees on a trivial level torus"
    return None


def _distinguishing_exponent(ctx: Context, i: int) -> int | None:
    """The first exponent whose character fits the mode and is nontrivial
    on the level-i torus, or None."""
    n_i = ctx.tower.level_size(i) - 1
    return next((e for e in range(1, ctx.tower.size - 1) if e % n_i and ctx.char_supported(e)), None)


def _distinguishing_character(ctx: Context, params: dict) -> str | None:
    if _distinguishing_exponent(ctx, params["i"]) is None:
        return "no representable character distinguishes the level torus in this mode"
    return None


def _counting_size(ctx: Context, params: dict) -> str | None:
    """The counting integers fit the cap.  The largest, ineq-36's
    q^i! (q^(2 i!) - 1) or 2 q^(i+1)!, has about k log2(q) bits for
    k = max(i + 1, 3) i!; the test compares k, an int, without a power."""
    i = params["i"]
    k = max(i + 1, 3) * math.factorial(i)
    if k > COUNTING_BITS_CAP / math.log2(ctx.q):
        return (f"counting cap: level {i} builds integers of about {k} * log2({ctx.q}) bits, "
                f"over the cap of {COUNTING_BITS_CAP} bits")
    return None


def _ext_group(ctx: Context, params: dict) -> str | None:
    order = grp.subgroup_order("G", ctx.q, 1)
    if order > EXT_GROUP_CAP:
        return (f"the cocycle oracle is budgeted for level-1 groups of order "
                f"<= {EXT_GROUP_CAP}")
    if order > ctx.budget:
        return f"level budget: |G_1| = {order} exceeds budget {ctx.budget}"
    return None


# -- individual checks --------------------------------------------------------


def _exponents(ctx: Context) -> list:
    """The character exponents 0, 1, 2 and theta's that fit the mode."""
    return [e for e in sorted({0, 1, 2, ctx.config.theta_exp}) if ctx.char_supported(e)]


def _chk_sus(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    for a in tw.units(i):
        if not grp.check_big_cell_rewrite(tw, a):
            return "FAIL", {"counterexample": a}
    return "PASS", {"cases": tw.level_size(i) - 1}


def _chk_bruhat(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    n = tw.level_size(i)
    small = big = 0
    for g in grp.enumerate_subgroup(tw, "G", i):
        form = grp.bruhat(g)
        if grp.reassemble(form, tw) != g:
            return "FAIL", {"element": g.key()}
        if form.big_cell:
            big += 1
        else:
            small += 1
    expect_small = n * (n - 1)
    expect_big = n * n * (n - 1)
    ok = small == expect_small and big == expect_big
    payload = {
        "group_order": small + big,
        "small_cell": small,
        "big_cell": big,
        "expected": [expect_small, expect_big],
    }
    return ("PASS" if ok else "FAIL"), payload


def _chk_act_oracle(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    exps = _exponents(ctx)
    gens = grp.generators(tw, i)
    elements = grp.enumerate_subgroup(tw, "G", i)
    checked = 0
    for e in exps:
        mod = InducedModule(tw, ctx.char(e), i)
        for g in gens:
            image = mod.action(g).label
            for label in mod.labels():
                if image(label) != mod.oracle_act_label(g, label):
                    return "FAIL", {"exp": e, "label": label, "generator": g.key()}
                checked += 1
        rng = random.Random(20240 + i)
        labels = mod.labels()
        for _ in range(200):
            g1 = rng.choice(elements)
            g2 = rng.choice(elements)
            label = rng.choice(labels)
            v = mod.basis_vector(label)
            if mod.act(g1 * g2, v) != mod.act(g1, mod.act(g2, v)):
                return "FAIL", {"exp": e, "associativity": [g1.key(), g2.key(), label]}
    return "PASS", {"exponents": exps, "oracle_pairs": checked, "random_pairs": 200 * len(exps)}


def _chk_m_dims(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    n = tw.level_size(i)
    theta = ctx.theta if ctx.char_supported(ctx.config.theta_exp) else ctx.char(0)
    mod = InducedModule(tw, theta, i)
    closure = mod.span_closure([mod.highest_vector()])
    trivial = ctx.char(0)
    mod_tr = InducedModule(tw, trivial, i)
    st = SparseSpan(ctx.field)
    st.extend(v.support for v in mod_tr.steinberg_vectors())
    st_closure = mod_tr.span_closure(mod_tr.steinberg_vectors())
    # the quotient by the Steinberg piece carries the trivial action
    hv = mod_tr.highest_vector()
    quotient_ok = all(st_closure.contains((mod_tr.act(g, hv) - hv).support) for g in grp.generators(tw, i))
    payload = {
        "dim_module": closure.dim,
        "dim_steinberg": st.dim,
        "expected": [n + 1, n],
        "steinberg_stable": st_closure.dim == st.dim,
        "quotient_trivial": quotient_ok,
    }
    ok = closure.dim == n + 1 and st.dim == n and payload["steinberg_stable"] and quotient_ok
    return ("PASS" if ok else "FAIL"), payload


def _chk_suw(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    exps = _exponents(ctx)
    for e in exps:
        x = InducedModule(tw, ctx.char(e), i).check_lowering_formula(tw.units(i))
        if x is not None:
            return "FAIL", {"exp": e, "x": x, "part": "lowering"}
    x = InducedModule(tw, ctx.char(0), i).check_alternating_relation(tw.units(i))
    if x is not None:
        return "FAIL", {"x": x, "part": "alternating"}
    return "PASS", {"cases": (len(exps) + 1) * (tw.level_size(i) - 1)}


def _chk_normalize(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    field = ctx.field
    sub, mul, one = field._sub, field._mul, field.one
    rng = random.Random(3301 + i)
    rounds = 0
    for _ in range(5):
        e = rng.randrange(1, tw.size - 1)
        if not ctx.char_supported(e):
            continue
        theta = ctx.char(e)
        if theta.is_trivial_on_level(i):
            continue
        a = field.scalar(rng.randrange(-9, 10))  # may vanish mod small characteristics
        phi = {t: mul(a, sub(theta.eval(t), one)) for t in tw.units(i)}
        out = cohom.normalize_torus_cochain(theta, i, phi)
        if a != field.zero and (out.status != "corrected" or out.correction != a):
            return "FAIL", {"round_trip_exp": e}
        rounds += 1
    theta0 = ctx.char(0)
    zero_phi = {t: field.zero for t in tw.units(i)}
    if cohom.normalize_torus_cochain(theta0, i, zero_phi).status != "normal":
        return "FAIL", {"case": "zero cochain"}
    # a non-cochain must be rejected: theta(x)^2 - 1 for theta of order
    # n / gcd(n, e) > 2 on the level torus, of order n
    n = tw.level_size(i) - 1
    rejected = None
    for e in range(1, tw.size - 1):
        if not ctx.char_supported(e) or n // math.gcd(n, e) <= 2:
            continue
        theta = ctx.char(e)
        bad = {t: sub(mul(theta.eval(t), theta.eval(t)), one) for t in tw.units(i)}
        try:
            cohom.normalize_torus_cochain(theta, i, bad)
            rejected = False
        except ValueError:
            rejected = True
        break
    # m * x = 0 forces x = 0 exactly when m * 1 != 0 in the characteristic
    fields = {c: PrimeField(c) if c else RationalField() for c in (0, 2, 3, 5, 7)}
    table_ok = all(cohom.order_condition_forces_zero(m, c) == (f.scalar(m) != f.zero)
                   for m in (2, 3, 4, 6) for c, f in fields.items())
    ok = rejected is not False and table_ok
    payload = {"round_trips": rounds, "non_cochain_rejected": rejected, "order_table": table_ok}
    return ("PASS" if ok else "FAIL"), payload


def _coset_distinct_count(tw: Tower, i: int, a) -> int:
    """Number of distinct unipotent cosets among the shifted elements
    a t^2 (t over central-quotient reps); coset key is the smallest
    label of a t^2 + (level i)."""
    return len({min(labels) for _, labels in towerext.shifted_cosets(tw, i, a)})


def _chk_l44(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    reps = grp.center_quotient_reps(tw, i)
    count = _coset_distinct_count(tw, i, tw.first_outside_subfield(i))
    ok = count == len(reps)
    payload = {"distinct_cosets": count, "expected": len(reps), "mode": "explicit"}
    return ("PASS" if ok else "FAIL"), payload


def _chk_l44_neg(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    reps = grp.center_quotient_reps(tw, i)
    bad = tw.generator(i)  # deliberately inside level i
    count = _coset_distinct_count(tw, i, bad)
    caught = count < len(reps)
    return ("PASS" if caught else "FAIL"), {"distinct_cosets": count, "expected_if_valid": len(reps)}


def _chk_eta_weight(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    pairs = [(0, 0)]
    if (ctx.config.lambda_exp, ctx.config.mu_exp) != (0, 0):
        pairs.append((ctx.config.lambda_exp, ctx.config.mu_exp))
    results = []
    for (el, em) in pairs:
        if not (ctx.char_supported(el) and ctx.char_supported(em)):
            results.append({"pair": [el, em], "status": "skipped: mode lacks the order"})
            continue
        if not trivial_on_center(ctx.p, el + em):
            results.append({"pair": [el, em], "status": "rejected: center mismatch"})
            continue
        lam, mu = ctx.char(el), ctx.char(em)
        eta = towerext.borel_weight_vector(lam, mu, i, InducedModule(tw, mu, i + 1))
        ok = bool(eta) and towerext.check_borel_weight(eta, lam, i)
        results.append({"pair": [el, em], "status": "ok" if ok else "failed", "support": len(eta.support)})
        if not ok:
            return "FAIL", {"pairs": results}
    return "PASS", {"pairs": results}


def _chk_eta_weight_neg(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    wrong = ctx.char(_distinguishing_exponent(ctx, i))
    lam, mu = ctx.char(0), ctx.char(0)
    mod_next = InducedModule(ctx.tower, mu, i + 1)
    eta = towerext.borel_weight_vector(lam, mu, i, mod_next)
    caught = not towerext.check_borel_weight(eta, wrong, i)
    return ("PASS" if caught else "FAIL"), {}


def _chk_clm(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    ineq = towerext.counting_inequality("F", ctx.q, i)
    payload = {"lhs": ineq["lhs"], "rhs": ineq["rhs"], "holds": ineq["holds"]}
    # the explicit coset count is L4.4-basis's, run where that check would run
    if CHECKS["L4.4-basis"].unmet(ctx, params) is None:
        tw = ctx.tower
        a = tw.first_outside_subfield(i)
        covered = _coset_distinct_count(tw, i, a)
        total = tw.level_size(i + 1) // tw.level_size(i)
        payload["explicit"] = {"covered_cosets": covered, "total_cosets": total, "proper": covered < total}
        if not payload["explicit"]["proper"]:
            return "FAIL", payload
    return ("PASS" if payload["holds"] else "FAIL"), payload


def _chk_ineq(tag: str, ctx: Context, params: dict) -> tuple:
    """The counting inequality of system H or L, both sides doubled."""
    ineq = towerext.counting_inequality(tag, ctx.q, params["i"])
    payload = {"lhs_doubled": ineq["lhs"], "rhs_doubled": ineq["rhs"], "holds": ineq["holds"]}
    if params["i"] == 1:
        return ("SKIPPED", payload, "below level 2 the quadratic-free element does not exist; "
                "the inequality is reported, not asserted")
    return ("PASS" if payload["holds"] else "FAIL"), payload


def _chk_xi(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    theta = ctx.theta
    tw = ctx.tower
    mod_next = InducedModule(tw, theta, i + 1)
    xi = towerext.group_average_vector(theta, i, mod_next)
    if not xi:
        return "FAIL", {"nonzero": False}
    pgl_order = ctx.group_order(i, pgl=True)
    payload = {"support": len(xi.support), "group_order": pgl_order}
    naive = towerext.naive_group_average(i, mod_next, tw.first_outside_double_subfield(i))
    payload["structured_equals_naive"] = xi == naive
    if not payload["structured_equals_naive"]:
        return "FAIL", payload
    payload["invariance"] = "exhaustive"
    for g in grp.enumerate_subgroup(tw, "G", i, pgl=True):
        if mod_next.act(g, xi) != xi:
            return "FAIL", {"moved_by": g.key()}
    return "PASS", payload


def _sample_group(tw: Tower, i: int, rng: random.Random, count: int) -> list:
    """Deterministic PGL-representative sample via random Bruhat data."""
    out = []
    nonzero = grp.center_quotient_reps(tw, i)
    level = tw.enumerate_level(i)
    for _ in range(count):
        x, t = rng.choice(level), rng.choice(nonzero)
        y = rng.choice(level) if rng.random() < 0.8 else None
        out.append(grp.reassemble(grp.BruhatForm(x, t, y), tw))
    return out


def _chk_zeta(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    theta = ctx.theta
    tw = ctx.tower
    mod_next = InducedModule(tw, theta, i + 1)
    b = tw.first_outside_double_subfield(i)
    zeta = towerext.steinberg_weight_vector(theta, i, mod_next)
    support = towerext.expansion_support(tw, i, b)
    reps = len(grp.center_quotient_reps(tw, i))
    expected_terms = 2 * reps * tw.level_size(i)
    payload = {"support": support, "expected_terms": expected_terms}
    if (not support["distinct"] or len(zeta.support) != expected_terms
            or not towerext.check_steinberg_relations(zeta, i)):
        return "FAIL", payload
    # (1 - s) applied to the plain Borel average reproduces the expansion
    borel = towerext.borel_average(theta, i, mod_next, b)
    alt = borel - mod_next.weyl_action(borel)
    payload["matches_one_minus_s"] = alt == zeta
    ok = payload["matches_one_minus_s"]
    return ("PASS" if ok else "FAIL"), payload


def _chk_zeta_neg(ctx: Context, params: dict) -> tuple:
    i = params["i"]
    tw = ctx.tower
    bad = tw.generator(i)  # inside level i, hence quadratic over it
    support = towerext.expansion_support(tw, i, bad)
    caught = not support["distinct"]
    return ("PASS" if caught else "FAIL"), {"support": support}


def _character_args(ctx: Context, tag: str) -> dict:
    """The character arguments of system tag."""
    return {"lam": ctx.lam, "mu": ctx.mu} if tag == "F" else {"theta": ctx.theta}


def _chk_certificate(tag: str, ctx: Context, params: dict) -> tuple:
    """The escape certificate that system tag does not split."""
    payload = towerext.nonsplit_certificate(tag, ctx.tower, params["i"], **_character_args(ctx, tag))
    verdict = payload.pop("verdict")
    return verdict, payload, payload.pop("note", "")


def _chk_connect(ctx: Context, params: dict) -> tuple:
    i, tag = params["i"], params["system"]
    tw = ctx.tower
    system = towerext.DirectSystem(tag, tw, i, **_character_args(ctx, tag))
    if not system.check_injective():
        return "FAIL", {"stage": "injectivity"}
    if tag == "F":
        elements = grp.enumerate_subgroup(tw, "B", i)
        mode = "exhaustive-borel"
    else:
        order = ctx.group_order(i, pgl=True)
        if order <= 200:
            elements = grp.enumerate_subgroup(tw, "G", i, pgl=True)
            mode = "exhaustive"
        else:
            rng = random.Random(7001 + i)
            elements = grp.generators(tw, i) + _sample_group(tw, i, rng, 50)
            mode = "generators+sampled-50"
    if not system.check_equivariance(elements):
        return "FAIL", {"stage": "equivariance", "mode": mode}
    return "PASS", {"mode": mode, "elements": len(elements)}


def _level1_reps(group, tw, field) -> dict:
    """The level-1 trivial and Steinberg representations over one field."""
    trivial = TorusCharacter(tw, field, 0)
    return {
        "tr": cohom.FiniteRep.trivial(group, field),
        "St": cohom.FiniteRep.steinberg(group, InducedModule(tw, trivial, 1)),
    }


def _chk_ext1(ctx: Context, params: dict) -> tuple:
    q = ctx.q
    tw = ctx.tower
    group = cohom.GroupTable(tw)
    order = len(group)
    torus_order = q - 1
    ell = choose_prime_for_order(max(torus_order, 1), order)
    fields = [("char0", CyclotomicField(max(torus_order, 1)) if torus_order > 2 else RationalField()),
              (f"char{ell}", PrimeField(ell))]
    dims, level1 = {}, {}
    for tag_f, field in fields:
        reps = level1[tag_f] = _level1_reps(group, tw, field)
        theta1 = TorusCharacter(tw, field, ctx.config.theta_exp)
        reps["M"] = cohom.FiniteRep.from_induced(group, InducedModule(tw, theta1, 1))
        for name_m, M in reps.items():
            for name_n, N in reps.items():
                d, _ = cohom.ext1_bfs(M, N)
                dims[f"{tag_f}:{name_m}->{name_n}"] = d
                if d != 0:
                    return "FAIL", {"dims": dims}
    # dual-solver agreement on tr and St, over Q, the field both are defined
    # over, and in a modular case; at q <= 3 the sweep's char-0 field is Q,
    # and its reps and BFS dimensions serve here too
    known = dims
    if fields[0][1] != RationalField():
        level1["char0"], known = _level1_reps(group, tw, RationalField()), {}
    # a modular prime dividing |G_1| = q(q^2 - 1) other than p: 2 for odd q,
    # and 3 for even q, as 3 divides one of q - 1, q, q + 1 and not q
    field_mod = PrimeField(3 if ctx.p == 2 else 2)
    level1["modular"] = _level1_reps(group, tw, field_mod)
    agreements = {}
    for tag_f in ("char0", "modular"):
        reps = level1[tag_f]
        for name_m in ("tr", "St"):
            for name_n in ("tr", "St"):
                key = f"{tag_f}:{name_m}->{name_n}"
                M, N = reps[name_m], reps[name_n]
                d1 = known[key] if key in known else cohom.ext1_bfs(M, N)[0]
                d2 = cohom.ext1_unreduced(M, N)
                agreements[key] = [d1, d2]
                if d1 != d2:
                    return "FAIL", {"agreement": agreements}
    # Hom dimensions against the torus-twist count
    chars = [TorusCharacter(tw, fields[0][1], e) for e in range(max(torus_order, 1))]
    induced = [cohom.FiniteRep.from_induced(group, InducedModule(tw, c, 1)) for c in chars]
    hom_ok = all(
        len(cohom.hom_space(Ml, Mm)) == cohom.mackey_hom_dim(lam, mu, 1)
        for lam, Ml in zip(chars, induced)
        for mu, Mm in zip(chars, induced)
    )
    payload = {"maschke_dims": dims, "agreement": agreements, "hom_matches_twist_count": hom_ok}
    return ("PASS" if hom_ok else "FAIL"), payload


# -- registry -----------------------------------------------------------------


class Check(NamedTuple):
    """One registry record: the check's id and body, the level range it
    accepts (per system for connect-inj; None for a check without a
    level), the tower or module rule, its other SKIP preconditions, the
    cost of a level and an optional schedule."""

    lemma_id: str
    body: Callable  # (ctx, params) -> (verdict, payload[, reason])
    needs: Callable | None
    levels: Levels | dict | None
    rules: tuple = ()
    cost: Callable | None = None  # (ctx, i) -> the level's cost; over the budget it SKIPs
    schedule: Callable | None = None  # (ctx, check) -> instance params

    def unmet(self, ctx: Context, params: dict) -> str | None:
        """The reason of the first precondition the instance fails (cost last), if any."""
        levels = self.levels
        if isinstance(levels, dict):  # one range per system
            if params.get("system") not in levels:
                raise ValueError(f"{self.lemma_id}: the system must be one of {', '.join(levels)}")
            levels = levels[params["system"]]
        for rule in (self.needs, levels, *self.rules):
            reason = rule and rule(ctx, params)
            if reason:
                return reason
        return self.over_budget(ctx, params.get("i"))

    def over_budget(self, ctx: Context, i: int | None) -> str | None:
        """The SKIP reason when level i costs more than the budget."""
        cost = self.cost(ctx, i) if self.cost else 0
        return f"level budget: level {i} costs {cost}, over budget {ctx.budget}" if cost > ctx.budget else None

    def fitting(self, ctx: Context, levels: Levels | None = None) -> list:
        """The levels of the range whose cost fits the budget."""
        return [i for i in (levels or self.levels).candidates(ctx) if not self.over_budget(ctx, i)]

    def instances(self, ctx: Context) -> list:
        if self.needs and self.needs(ctx, {}):
            return []
        if self.schedule:
            return self.schedule(ctx, self)
        if self.levels is None:
            return [{"q": ctx.q}]
        return [{"q": ctx.q, "i": i} for i in self.fitting(ctx)]


_ALL_LEVELS = Levels(1, 0, "level budget: needs 1 <= i <= imax")
_NEXT_LEVEL = Levels(1, 1, "level budget: the construction needs level i+1 inside the tower")
_QUADRATIC_FREE = Levels(2, 1, "level budget: needs 2 <= i < imax")
_CONNECT_F = Levels(1, 1, "level budget: the connecting vector needs a feasible level")
_CONNECT_HL = Levels(2, 1, _CONNECT_F.reason)
_ANY_LEVEL = Levels(1, None, "level budget: needs i >= 1")
_THETA = (_theta_characters,)


def _module_cost(ctx: Context, i: int) -> int:
    return ctx.q ** math.factorial(i) + 1


def _next_cost(ctx: Context, i: int) -> int:
    return _module_cost(ctx, i + 1)


def _first_where(rule):
    """Schedule the first fitting level where the rule passes, else the lowest."""

    def schedule(ctx: Context, check: Check) -> list:
        i = next((i for i in check.fitting(ctx) if not rule(ctx, {"i": i})), check.levels.lowest)
        return [{"q": ctx.q, "i": i}]

    return schedule


def _connect_schedule(ctx: Context, check: Check) -> list:
    """System F at each fitting level, then H and L at each quadratic-free one."""
    out = [{"q": ctx.q, "i": i, "system": "F"} for i in check.fitting(ctx, _CONNECT_F)]
    return out + [{"q": ctx.q, "i": i, "system": tag}
                  for i in check.fitting(ctx, _CONNECT_HL) for tag in "HL"]


REGISTRY = [
    Check("sus", _chk_sus, _tower, _ALL_LEVELS, cost=_module_cost),
    Check("bruhat", _chk_bruhat, _tower, _ALL_LEVELS, cost=Context.group_order),
    Check("act-oracle", _chk_act_oracle, _module, _ALL_LEVELS, cost=Context.group_order),
    Check("M-dims", _chk_m_dims, _module, _ALL_LEVELS, cost=_module_cost),
    Check("P2.1-suw", _chk_suw, _module, _ALL_LEVELS, cost=_module_cost),
    Check("L3.3-normalize", _chk_normalize, _module, _ALL_LEVELS,
          schedule=lambda ctx, check: [{"q": ctx.q, "i": min(2, ctx.imax)}]),
    Check("L4.4-basis", _chk_l44, _tower, _NEXT_LEVEL, cost=_next_cost),
    Check("L4.4-neg-control", _chk_l44_neg, _tower, _NEXT_LEVEL, (_two_quotient_reps,),
          _next_cost, _first_where(_two_quotient_reps)),
    Check("eta-weight", _chk_eta_weight, _module, _NEXT_LEVEL, cost=_next_cost),
    Check("eta-weight-neg-control", _chk_eta_weight_neg, _module, _NEXT_LEVEL,
          (_nontrivial_level_torus, _distinguishing_character), _next_cost,
          _first_where(_nontrivial_level_torus)),
    Check("clm-4", _chk_clm, None, _ANY_LEVEL, (_counting_size,)),
    Check("ineq-36", partial(_chk_ineq, "H"), None, _ANY_LEVEL, (_counting_size,)),
    Check("ineq-37", partial(_chk_ineq, "L"), None, _ANY_LEVEL, (_counting_size,)),
    Check("L4.6-noFU", partial(_chk_certificate, "F"), _module, _CONNECT_F,
          (_pair_characters,), _next_cost),
    Check("L5.3-xi", _chk_xi, _module, _QUADRATIC_FREE, _THETA, _next_cost),
    Check("L5.5-zeta", _chk_zeta, _module, _QUADRATIC_FREE, _THETA, _next_cost),
    Check("L5.5-neg-control", _chk_zeta_neg, _module, _QUADRATIC_FREE, cost=_next_cost),
    Check("L5.7-noHG", partial(_chk_certificate, "H"), _module, _CONNECT_HL, _THETA, _next_cost),
    Check("L5.8-noLG", partial(_chk_certificate, "L"), _module, _CONNECT_HL, _THETA, _next_cost),
    Check("connect-inj", _chk_connect, _module, {"F": _CONNECT_F, "H": _CONNECT_HL, "L": _CONNECT_HL},
          (_system_characters,), _next_cost, _connect_schedule),
    Check("ext1-maschke", _chk_ext1, _module, None, (_ext_group,)),
]

REGISTRY_IDS = [check.lemma_id for check in REGISTRY]
CHECKS = {check.lemma_id: check for check in REGISTRY}


def run_lemma(ctx: Context, spec: CheckSpec) -> Report:
    check = CHECKS.get(spec.lemma_id)
    if check is None:
        raise ValueError(f"unknown lemma id {spec.lemma_id!r}")
    reason = check.unmet(ctx, spec.params)
    outcome = ("SKIPPED", {}, reason) if reason else check.body(ctx, spec.params)
    return Report(spec.lemma_id, spec.params, *outcome)


_RUN_LEMMA = run_lemma  # as defined here, not as a tracer may rebind it


def run_all(ctx: Context) -> list:
    """The reports of the checks in the run's lemma list, in registry order.

    A check with no schedulable level gets its SKIP report in place; the
    planned instances run on `_workers` processes (`_run_specs`)."""
    plan = []
    for check in REGISTRY:
        if check.lemma_id not in ctx.lemmas:
            continue
        instances = check.instances(ctx)
        if not instances:
            reason = check.needs and check.needs(ctx, {}) or "no valid level at this configuration"
            plan.append(Report(check.lemma_id, {"q": ctx.q}, "SKIPPED", {}, reason))
        plan.extend(CheckSpec(check.lemma_id, params) for params in instances)
    ran = iter(_run_specs(ctx, [entry for entry in plan if isinstance(entry, CheckSpec)]))
    return [next(ran) if isinstance(entry, CheckSpec) else entry for entry in plan]


def _workers(count: int) -> int:
    """Processes for `count` instances: one per CPU this process may run
    on, at most one per instance.  One without `os.fork` or
    `os.sched_getaffinity`, and one while `run_lemma` is wrapped from
    outside: a tracer that counts its calls sees only this process."""
    if run_lemma is not _RUN_LEMMA or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _run_specs(ctx: Context, specs: list) -> list:
    """The instances' reports, in order.

    With one worker, or a queue longer than one atomic pipe write holds,
    the instances run here in order.  Otherwise the queue (4-byte indices,
    the last instance first) is written to a pipe in one write, and this
    process and `_workers - 1` forked children read 4 bytes at a time until
    EOF.  A child sends its `{index: Report}` or its traceback down a pipe
    of its own and leaves through `os._exit`, so it never returns into the
    caller.  The package starts no thread, so forking is safe.  A child's
    traceback, or an empty pipe from a child that died, raises RuntimeError
    here; when this process raises, it kills and reaps the children first.
    """
    workers = _workers(len(specs))
    if workers > 1:
        import select  # only a spread run reads it: start-up stays without it

        if 4 * len(specs) > select.PIPE_BUF:
            workers = 1
    if workers <= 1:
        return [run_lemma(ctx, spec) for spec in specs]
    import pickle
    import signal

    queue, head = os.pipe()
    os.write(head, b"".join(i.to_bytes(4, "little") for i in reversed(range(len(specs)))))
    os.close(head)

    def pulled():
        return (int.from_bytes(chunk, "little") for chunk in iter(partial(os.read, queue, 4), b""))

    children = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            back, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                status = 1
                try:
                    os.close(back)
                    index = None
                    try:
                        done = {}
                        for index in pulled():
                            done[index] = run_lemma(ctx, specs[index])
                        index = None
                        data = pickle.dumps(done)
                    except BaseException:
                        import traceback

                        at = "" if index is None else f" in {specs[index].lemma_id} {specs[index].params}"
                        data = pickle.dumps(f"worker {os.getpid()} crashed{at}:\n{traceback.format_exc()}")
                    with open(out, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(out)
            children[pid] = back
        reports = {index: run_lemma(ctx, specs[index]) for index in pulled()}
        for pid, back in list(children.items()):
            data = b"".join(iter(partial(os.read, back, 1 << 16), b""))
            os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if not data:
                raise RuntimeError(f"worker {pid} died without a result")
            done = pickle.loads(data)
            if isinstance(done, str):
                raise RuntimeError(done)
            reports.update(done)
    finally:
        os.close(queue)
        for pid, back in children.items():  # left only when this process raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(back)
    return [reports[index] for index in range(len(specs))]


def summarize(reports: list) -> dict:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.verdict.lower()] += 1
    return out
