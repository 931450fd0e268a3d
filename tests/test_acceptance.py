"""Acceptance suite: one test per criterion, exact arithmetic throughout,
each printing its own pass line (run with -s to see them inline)."""

import json
import random
import time

import pytest

from sl2ext import cohom, grp, towerext
from sl2ext.charmod import TorusCharacter
from sl2ext.cli import main as cli_main
from sl2ext.coeff import CyclotomicField, PrimeField, RationalField
from sl2ext.grp import bruhat, check_big_cell_rewrite, enumerate_subgroup, reassemble
from sl2ext.indmod import InducedModule
from sl2ext.linalg import SparseSpan
from sl2ext.tower import Tower
from sl2ext.towerext import CenterMismatchError
from sl2ext.verify import CheckSpec, Context, RunConfig, run_lemma


@pytest.fixture(scope="module")
def towers():
    return {
        (2, 2): Tower(2, 2),
        (2, 3): Tower(2, 3),
        (3, 2): Tower(3, 2),
        (3, 3): Tower(3, 3),
        (5, 2): Tower(5, 2),
    }


def _ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


def test_c01_big_cell_rewrite_exhaustive(towers):
    t0 = time.monotonic()
    cases = 0
    for q in (2, 3, 5):
        tw = towers[(q, 2)]
        for i in (1, 2):
            for a in tw.units(i):
                assert check_big_cell_rewrite(tw, a), (q, i, a)
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"cell rewrite identity, {cases} cases across q in (2,3,5), i <= 2 ({elapsed:.2f}s)")


def test_c02_bruhat_roundtrip(towers):
    t0 = time.monotonic()
    total = 0
    for q in (2, 3):
        tw = towers[(q, 2)]
        for i in (1, 2):
            order = grp.subgroup_order("G", q, i)
            if order > 10 ** 5:
                continue
            n = tw.level_size(i)
            small = big = 0
            for g in enumerate_subgroup(tw, "G", i):
                assert reassemble(bruhat(g), tw) == g
                if bruhat(g).big_cell:
                    big += 1
                else:
                    small += 1
            assert small == n * (n - 1)
            assert big == n * n * (n - 1)
            total += small + big
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(2, f"round trip and cell partition over {total} elements ({elapsed:.2f}s)")


def test_c03_action_matches_oracle(towers):
    t0 = time.monotonic()
    oracle_pairs = assoc_pairs = 0
    for q, order in ((2, 3), (3, 8)):
        tw = towers[(q, 2)]
        field = CyclotomicField(order)
        for i in (1, 2):
            elements = enumerate_subgroup(tw, "G", i)
            for e in (0, 1, 2):
                mod = InducedModule(tw, TorusCharacter(tw, field, e), i)
                for g in grp.generators(tw, i):
                    image = mod.action(g).label
                    for label in mod.labels():
                        assert image(label) == mod.oracle_act_label(g, label)
                        oracle_pairs += 1
                rng = random.Random(1000 * q + i)
                for _ in range(200):
                    g1, g2 = rng.choice(elements), rng.choice(elements)
                    for label in mod.labels():
                        v = mod.basis_vector(label)
                        assert mod.act(g1 * g2, v) == mod.act(g1, mod.act(g2, v))
                    assoc_pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _ok(3, f"{oracle_pairs} oracle pairs, {assoc_pairs} associativity pairs, exact ({elapsed:.1f}s)")


def test_c04_dimensions(towers):
    for q, order in ((2, 3), (3, 8)):
        tw = towers[(q, 2)]
        field = CyclotomicField(order)
        for i in (1, 2):
            n = tw.level_size(i)
            mod = InducedModule(tw, TorusCharacter(tw, field, 1), i)
            assert mod.span_closure([mod.highest_vector()]).dim == n + 1
            mod_tr = InducedModule(tw, TorusCharacter(tw, field, 0), i)
            st = SparseSpan(field)
            for v in mod_tr.steinberg_vectors():
                st.insert(v.support)
            assert st.dim == n
    _ok(4, "module rank q^(i!)+1 and Steinberg rank q^(i!) at q in (2,3), i <= 2")


def test_c05_coset_distinctness(towers):
    expected = {(2, 2): 3, (3, 1): 1, (3, 2): 4}
    for (q, i), want in expected.items():
        ctx = Context(RunConfig(q=q, imax=3))
        r = run_lemma(ctx, CheckSpec("L4.4-basis", {"q": q, "i": i}))
        assert r.verdict == "PASS" and r.payload["distinct_cosets"] == want, r.payload
    ctx = Context(RunConfig(q=2, imax=3))
    neg = run_lemma(ctx, CheckSpec("L4.4-neg-control", {"q": 2, "i": 2}))
    assert neg.verdict == "PASS"
    assert neg.payload["distinct_cosets"] < neg.payload["expected_if_valid"]
    _ok(5, "coset counts match the central quotient at (2,2),(3,1),(3,2); control caught")


def test_c06_weight_vector_property(towers):
    runs = 0
    for (q, i, order, pairs) in (
        (2, 1, 63, [(0, 0), (2, 2)]),
        (2, 2, 63, [(0, 0), (2, 2)]),
        (3, 1, 8, [(0, 0), (1, 1)]),
    ):
        tw = towers[(q, 3)] if q == 2 else towers[(3, 2)]
        field = CyclotomicField(order)
        for el, em in pairs:
            lam = TorusCharacter(tw, field, el)
            mu = TorusCharacter(tw, field, em)
            mod_next = InducedModule(tw, mu, i + 1)
            eta = towerext.borel_weight_vector(lam, mu, i, mod_next)
            assert eta and towerext.check_borel_weight(eta, lam, i), (q, i, el, em)
            runs += 1
    # a center-mismatched pair must be rejected outright
    tw3 = towers[(3, 2)]
    f8 = CyclotomicField(8)
    with pytest.raises(CenterMismatchError):
        towerext.borel_weight_vector(
            TorusCharacter(tw3, f8, 1), TorusCharacter(tw3, f8, 0), 1,
            InducedModule(tw3, TorusCharacter(tw3, f8, 0), 2),
        )
    _ok(6, f"weight property on the Borel generators for {runs} (level, pair) runs; mismatch rejected")


def test_c07_group_average_invariance(towers):
    # q = 2: every one of the 60 elements fixes it; structured == naive bytes
    tw = towers[(2, 3)]
    field = CyclotomicField(63)
    th = TorusCharacter(tw, field, 1)
    m3 = InducedModule(tw, th, 3)
    xi = towerext.group_average_vector(th, 2, m3)
    assert xi
    elements = enumerate_subgroup(tw, "G", 2, pgl=True)
    assert len(elements) == 60
    for g in elements:
        assert m3.act(g, xi) == xi
    naive = towerext.naive_group_average(2, m3, tw.first_outside_double_subfield(2))
    assert xi == naive
    # q = 3: sampled 200 of the 360 central-quotient representatives
    tw3 = towers[(3, 3)]
    rat = RationalField()
    th3 = TorusCharacter(tw3, rat, 364)
    m33 = InducedModule(tw3, th3, 3)
    xi3 = towerext.group_average_vector(th3, 2, m33)
    assert xi3
    pool = enumerate_subgroup(tw3, "G", 2, pgl=True)
    assert len(pool) == 360
    rng = random.Random(73)
    for g in rng.sample(pool, 200):
        assert m33.act(g, xi3) == xi3
    naive3 = towerext.naive_group_average(2, m33, tw3.first_outside_double_subfield(2))
    assert xi3 == naive3
    _ok(7, "group average fixed by all 60 (q=2) and 200 sampled (q=3); structured and naive builds equal")


def test_c08_steinberg_weight_relations(towers):
    for q, field, exp in ((2, CyclotomicField(63), 1), (3, RationalField(), 364)):
        tw = towers[(q, 3)]
        th = TorusCharacter(tw, field, exp)
        m3 = InducedModule(tw, th, 3)
        b = tw.first_outside_double_subfield(2)
        zeta = towerext.steinberg_weight_vector(th, 2, m3)
        support = towerext.expansion_support(tw, 2, b)
        reps = len(grp.center_quotient_reps(tw, 2))
        assert support["distinct"]
        assert len(zeta.support) == 2 * reps * tw.level_size(2)
        assert towerext.check_steinberg_relations(zeta, 2), q
        # negative control: a quadratic element collides
        bad = tw.generator(2)
        assert not towerext.expansion_support(tw, 2, bad)["distinct"]
    _ok(8, "reflection relations for every x, torus relation at h(g_2), at (2,2) and (3,2); collisions caught")


def test_c09_escape_certificates(towers):
    t0 = time.monotonic()
    f63 = CyclotomicField(63)
    tw2 = towers[(2, 3)]
    tr2 = TorusCharacter(tw2, f63, 0)
    th2 = TorusCharacter(tw2, f63, 1)
    certs = [
        towerext.nonsplit_certificate("F", tw2, 2, lam=tr2, mu=tr2),
        towerext.nonsplit_certificate("H", tw2, 2, theta=th2),
        towerext.nonsplit_certificate("L", tw2, 2, theta=th2),
    ]
    rat = RationalField()
    tw3 = towers[(3, 3)]
    tr3 = TorusCharacter(tw3, rat, 0)
    th3 = TorusCharacter(tw3, rat, 364)
    certs += [
        towerext.nonsplit_certificate("F", tw3, 2, lam=tr3, mu=tr3),
        towerext.nonsplit_certificate("H", tw3, 2, theta=th3),
    ]
    for cert in certs:
        assert cert["verdict"] == "PASS", cert
        assert not cert["member"]
        dims = cert["dims"]
        for key in ("ambient", "lower_module", "invariants", "sum"):
            assert isinstance(dims[key], int)
        assert cert["inequality"]["holds"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    _ok(9, f"all five escape certificates PASS with exact dims ({elapsed:.1f}s)")


def test_c10_counting_certificates():
    for q in (2, 3, 5, 7, 9):
        ctx = Context(RunConfig(q=q, imax=2))
        for i in range(2, 7):
            for lemma in ("clm-4", "ineq-36", "ineq-37"):
                r = run_lemma(ctx, CheckSpec(lemma, {"q": q, "i": i}))
                assert r.verdict == "PASS", (q, i, lemma, r.payload)
    ctx3 = Context(RunConfig(q=3, imax=2))
    r = run_lemma(ctx3, CheckSpec("ineq-36", {"q": 3, "i": 1}))
    assert r.verdict == "SKIPPED" and not r.payload["holds"]
    assert (r.payload["lhs_doubled"], r.payload["rhs_doubled"]) == (24, 18)
    _ok(10, "all three inequalities hold for q in (2,3,5,7,9), 2 <= i <= 6; level-1 note kept")


def test_c11_cohomology_oracle(towers):
    for q, theta_exp in ((2, 0), (3, 1)):
        tw = towers[(q, 2)]
        group = cohom.GroupTable(tw)
        order = len(group)
        fields = [RationalField(), PrimeField(5)]  # 5 divides neither 6 nor 24
        for field in fields:
            tr = TorusCharacter(tw, field, 0)
            th = TorusCharacter(tw, field, theta_exp)
            reps = {
                "tr": cohom.FiniteRep.trivial(group, field),
                "St": cohom.FiniteRep.steinberg(group, InducedModule(tw, tr, 1)),
                "M": cohom.FiniteRep.from_induced(group, InducedModule(tw, th, 1)),
            }
            for nm, M in reps.items():
                for nn, N in reps.items():
                    d, _ = cohom.ext1_bfs(M, N)
                    assert d == 0, (q, field, nm, nn)
                    assert cohom.ext1_unreduced(M, N) == 0, (q, field, nm, nn)
        # the modular instance: characteristic dividing the group order
        mod_char = 3 if q == 2 else 2
        assert order % mod_char == 0
        field = PrimeField(mod_char)
        tr = TorusCharacter(tw, field, 0)
        reps = {
            "tr": cohom.FiniteRep.trivial(group, field),
            "St": cohom.FiniteRep.steinberg(group, InducedModule(tw, tr, 1)),
            "M": cohom.FiniteRep.from_induced(group, InducedModule(tw, tr, 1)),
        }
        for nm, M in reps.items():
            for nn, N in reps.items():
                d1, _ = cohom.ext1_bfs(M, N)
                d2 = cohom.ext1_unreduced(M, N)
                assert d1 == d2, (q, mod_char, nm, nn, d1, d2)
        # Hom dimensions against the independent twist count, char 0
        rat = RationalField()
        for el in range(max(q - 1, 1)):
            for em in range(max(q - 1, 1)):
                lam = TorusCharacter(tw, rat, el)
                mu = TorusCharacter(tw, rat, em)
                Ml = cohom.FiniteRep.from_induced(group, InducedModule(tw, lam, 1))
                Mm = cohom.FiniteRep.from_induced(group, InducedModule(tw, mu, 1))
                assert len(cohom.hom_space(Ml, Mm)) == cohom.mackey_hom_dim(lam, mu, 1)
    _ok(11, "Maschke zeros, dual-solver agreement (incl. modular), Hom vs twist count")


def test_c12_normalization(towers):
    tw = towers[(3, 2)]
    field = CyclotomicField(8)
    sub, mul = field._sub, field._mul
    rng = random.Random(12)
    done = 0
    while done < 20:
        e = rng.randrange(1, 8)
        theta = TorusCharacter(tw, field, e)
        a = mul(field.scalar(rng.randrange(1, 9)), field.root_of_unity(8, rng.randrange(8)))
        phi = {t: mul(a, sub(theta.eval(t), field.one)) for t in tw.units(2)}
        out = cohom.normalize_torus_cochain(theta, 2, phi)
        assert out.status == "corrected" and out.correction == a
        done += 1
    theta = TorusCharacter(tw, field, 1)
    bad = {t: sub(mul(theta.eval(t), theta.eval(t)), field.one) for t in tw.units(2)}
    with pytest.raises(ValueError, match="not a cochain"):
        cohom.normalize_torus_cochain(theta, 2, bad)
    for m in (2, 3, 4, 6):
        for char in (0, 2, 3, 5, 7):
            assert cohom.order_condition_forces_zero(m, char) == (char == 0 or m % char != 0)
    _ok(12, "20 round trips recover the constant; non-cochain rejected; order table exact")


def test_c13_determinism(tmp_path, capsys):
    args = ["verify", "--q", "2", "--imax", "3", "--theta-exp", "1",
            "--coeff", "cyclo", "--lemmas", "all"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    _ok(13, f"two full runs produced byte-identical JSON ({len(b1)} bytes)")
