import functools
import itertools
import random
from fractions import Fraction

import pytest

from sl2ext import cohom
from sl2ext.charmod import TorusCharacter
from sl2ext.coeff import PrimeField, RationalField
from sl2ext.indmod import InducedModule
from sl2ext.linalg import SparseSpan, nullspace


def _reps(tw, field, theta_exp):
    group = cohom.GroupTable(tw)
    tr = TorusCharacter(tw, field, 0)
    th = TorusCharacter(tw, field, theta_exp)
    return group, {
        "tr": cohom.FiniteRep.trivial(group, field),
        "St": cohom.FiniteRep.steinberg(group, InducedModule(tw, tr, 1)),
        "M": cohom.FiniteRep.from_induced(group, InducedModule(tw, th, 1)),
    }


def test_group_table_covers_group(tower22, tower32):
    for tw, size in ((tower22, 6), (tower32, 24)):
        group = cohom.GroupTable(tw)
        assert len(group) == size
        assert len(group.bfs_order) == size


def test_hom_dims_q2(tower22, rat):
    _, reps = _reps(tower22, rat, 0)
    assert len(cohom.hom_space(reps["tr"], reps["tr"])) == 1
    # at q = 2 every character restricts trivially at level 1: End has both twists
    assert len(cohom.hom_space(reps["M"], reps["M"])) == 2
    assert len(cohom.hom_space(reps["tr"], reps["St"])) == 0


def test_hom_dims_q3(tower32, rat):
    _, reps = _reps(tower32, rat, 1)  # the level-1 quadratic character
    assert len(cohom.hom_space(reps["M"], reps["M"])) == 2
    assert len(cohom.hom_space(reps["St"], reps["M"])) == 0
    assert len(cohom.hom_space(reps["tr"], reps["M"])) == 0


def test_mackey_matches_hom(tower32, rat):
    group = cohom.GroupTable(tower32)
    for el in (0, 1):
        for em in (0, 1):
            lam = TorusCharacter(tower32, rat, el)
            mu = TorusCharacter(tower32, rat, em)
            Ml = cohom.FiniteRep.from_induced(group, InducedModule(tower32, lam, 1))
            Mm = cohom.FiniteRep.from_induced(group, InducedModule(tower32, mu, 1))
            assert len(cohom.hom_space(Ml, Mm)) == cohom.mackey_hom_dim(lam, mu, 1)


@pytest.mark.parametrize("fix,exp", [("tower22", 0), ("tower32", 1)])
def test_maschke_char0(fix, exp, rat, request):
    tw = request.getfixturevalue(fix)
    _, reps = _reps(tw, rat, exp)
    for M in reps.values():
        for N in reps.values():
            d, _ = cohom.ext1_bfs(M, N)
            assert d == 0


def test_maschke_coprime_characteristic(tower22):
    F5 = PrimeField(5)  # 5 does not divide |SL2(F_2)| = 6
    _, reps = _reps(tower22, F5, 0)
    for M in reps.values():
        for N in reps.values():
            d, _ = cohom.ext1_bfs(M, N)
            assert d == 0


def test_solvers_agree_modular(tower22):
    F3 = PrimeField(3)  # 3 divides 6
    _, reps = _reps(tower22, F3, 0)
    for nm, M in reps.items():
        for nn, N in reps.items():
            d1, _ = cohom.ext1_bfs(M, N)
            d2 = cohom.ext1_unreduced(M, N)
            assert d1 == d2, (nm, nn)


# (tower, characteristic, theta exponent) -> the nonzero Ext1 dimensions,
# keyed by (M, N); every other pair of tr, St and M(theta) has Ext1 = 0
MODULAR_EXTENSIONS = {
    ("tower22", 3, 0): {("tr", "St"): 1},
    ("tower22", 2, 0): {("tr", "tr"): 1, ("tr", "M"): 1, ("M", "tr"): 1, ("M", "M"): 1},
    ("tower32", 2, 0): {("tr", "St"): 2, ("tr", "M"): 1, ("St", "tr"): 1, ("St", "M"): 1,
                        ("M", "tr"): 1, ("M", "St"): 1, ("M", "M"): 2},
    ("tower32", 3, 1): {("tr", "tr"): 1, ("M", "M"): 1},
}


def test_nonzero_extension_exists_modular(request):
    # over SL2(F_2) in characteristic 3 the trivial-by-Steinberg space is
    # 1-dim; the other cases put the characteristic at 2 or at q = 3
    for (fix, ell, exp), nonzero in MODULAR_EXTENSIONS.items():
        _, reps = _reps(request.getfixturevalue(fix), PrimeField(ell), exp)
        for (nm, M), (nn, N) in itertools.product(reps.items(), repeat=2):
            d, transversal = cohom.ext1_bfs(M, N)
            assert d == len(transversal) == nonzero.get((nm, nn), 0), (fix, ell, nm, nn)
            # every transversal cocycle, and every sum of distinct ones,
            # satisfies the law and is not a coboundary (exhaustive when
            # d = 1 or the field is F_2)
            cocycles = [_cocycle_from_vector(M, N, z) for z in transversal]
            for C in cocycles:
                assert _is_cocycle(M, N, C)
            for n in range(1, d + 1):
                for part in itertools.combinations(cocycles, n):
                    C = [functools.reduce(lambda X, Y: _entrywise(M.field._add, X, Y), mats)
                         for mats in zip(*part)]
                    assert _find_splitting(M, N, C) is None, (fix, ell, nm, nn)


@pytest.mark.parametrize("fix,field", [("tower22", PrimeField(3)), ("tower32", PrimeField(5))])
def test_steinberg_rep_follows_its_vector_order(fix, field, monkeypatch, request):
    # the basis order is the vector list's: a permuted list is the same rep
    tw = request.getfixturevalue(fix)
    group, reps = _reps(tw, field, 1)
    mod = InducedModule(tw, TorusCharacter(tw, field, 0), 1)
    vecs = mod.steinberg_vectors()[::-1]
    monkeypatch.setattr(mod, "steinberg_vectors", lambda: vecs)
    permuted = cohom.FiniteRep.steinberg(group, mod)
    for other in reps.values():
        assert cohom.ext1_bfs(permuted, other)[0] == cohom.ext1_bfs(reps["St"], other)[0]
        assert cohom.ext1_bfs(other, permuted)[0] == cohom.ext1_bfs(other, reps["St"])[0]


# -- an independent cocycle and splitting oracle on raw reps -------------------


def _cocycle_from_vector(M, N, vec):
    zero = M.field.zero
    return [tuple(tuple(vec.get((k, r, c), zero) for c in range(M.dim)) for r in range(N.dim))
            for k in range(len(M.group.gens))]


def _zero(field, n, m):
    return tuple(tuple(field.zero for _ in range(m)) for _ in range(n))


def _entrywise(op, A, B):
    return tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def _coboundary_of(M, N, phi):
    """rho_N(s) phi - phi rho_M(s) on each generator s, by matrix products."""
    f = M.field
    return [_entrywise(f._sub, cohom.mat_mul(f, A, phi), cohom.mat_mul(f, phi, B))
            for A, B in zip(N._gen_mats, M._gen_mats)]


def _is_cocycle(M, N, gen_values):
    """Propagate generator values along the BFS tree and verify every cross
    edge of the cocycle law."""
    f, group = M.field, M.group
    vals = [None] * len(group)
    vals[group.identity_index] = _zero(f, N.dim, M.dim)

    def step(pi, k):
        return _entrywise(f._add, cohom.mat_mul(f, N._mats[pi], gen_values[k]),
                          cohom.mat_mul(f, vals[pi], M._gen_mats[k]))

    for ci in group.bfs_order[1:]:
        vals[ci] = step(*group.tree[ci])
    return all(step(pi, k) == vals[ci] for pi, k, ci in group.cross)


def _find_splitting(M, N, gen_values):
    """A map phi whose coboundary is the given cocycle, or None.

    The columns of the system are the coboundaries of the elementary maps,
    computed by `_coboundary_of`; the cocycle enters through a slack
    variable pinned to 1.  A found phi is re-checked before it is returned.
    """
    if not _is_cocycle(M, N, gen_values):
        raise ValueError("the generator values do not satisfy the cocycle law")
    f = M.field
    zero = f.zero
    entries = [(r, c) for r in range(N.dim) for c in range(M.dim)]
    slack = "slack"
    rows = {}

    def put(column, values):
        for k, D in enumerate(values):
            for r, c in entries:
                if D[r][c] != zero:
                    rows.setdefault((k, r, c), {})[column] = D[r][c]

    for r0, c0 in entries:
        E = tuple(tuple(f.one if (r, c) == (r0, c0) else zero for c in range(M.dim))
                  for r in range(N.dim))
        put((r0, c0), _coboundary_of(M, N, E))
    put(slack, [_entrywise(f._sub, _zero(f, N.dim, M.dim), C) for C in gen_values])
    for v in nullspace(list(rows.values()), entries + [slack], f):
        if slack in v:
            inv = f._inv(v[slack])
            phi = tuple(tuple(f._mul(v.get((r, c), zero), inv) for c in range(M.dim))
                        for r in range(N.dim))
            assert _coboundary_of(M, N, phi) == list(gen_values)
            return phi
    return None


def test_find_splitting_roundtrip(tower32, rat):
    rng = random.Random(3)
    _, reps = _reps(tower32, rat, 1)
    M, N = reps["M"], reps["St"]
    phi = tuple(
        tuple(rat.scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
              for _ in range(M.dim))
        for _ in range(N.dim)
    )
    C = _coboundary_of(M, N, phi)
    found = _find_splitting(M, N, C)
    assert found is not None
    assert _coboundary_of(M, N, found) == C


def test_find_splitting_zero_cocycle(tower22, rat):
    _, reps = _reps(tower22, rat, 0)
    M, N = reps["tr"], reps["St"]
    zero = [_zero(rat, N.dim, M.dim) for _ in M.group.gens]
    assert _find_splitting(M, N, zero) == _zero(rat, N.dim, M.dim)


def test_non_cocycle_rejected(tower22, rat):
    _, reps = _reps(tower22, rat, 0)
    M, N = reps["tr"], reps["St"]
    bad = [tuple(tuple(rat.scalar(r + c + k) for c in range(M.dim)) for r in range(N.dim))
           for k in range(len(M.group.gens))]
    with pytest.raises(ValueError):
        _find_splitting(M, N, bad)


def test_char0_splitting_always_found(tower32, rat):
    # consistency with the vanishing extension space: every cocycle splits
    _, reps = _reps(tower32, rat, 1)
    M, N = reps["tr"], reps["M"]
    rng = random.Random(8)
    phi = tuple(tuple(rat.scalar(rng.randrange(-3, 4)) for _ in range(M.dim))
                for _ in range(N.dim))
    C = _coboundary_of(M, N, phi)
    assert _find_splitting(M, N, C) is not None


def test_hom_space_intertwines_every_element(tower22, tower32, rat):
    for tw, exp in ((tower22, 0), (tower32, 1)):
        _, reps = _reps(tw, rat, exp)
        found = 0
        for M in reps.values():
            for N in reps.values():
                for vec in cohom.hom_space(M, N):
                    X = tuple(tuple(vec.get((r, c), 0) for c in range(M.dim)) for r in range(N.dim))
                    for A, B in zip(N._mats, M._mats):
                        assert cohom.mat_mul(rat, A, X) == cohom.mat_mul(rat, X, B)
                    found += 1
        assert found >= 4  # at least End(tr), End(St) and the 2-dimensional End(M)


def test_group_product_table_matches_multiplication(tower22, tower32):
    for tw in (tower22, tower32):
        group = cohom.GroupTable(tw)
        for gi, g in enumerate(group.elements):
            for hi, h in enumerate(group.elements):
                assert group.product[gi][hi] == group.index[(g * h).key()]


# -- torus cochain normalization ---------------------------------------------


def test_normalize_roundtrip(tower32, cyc8):
    tw = tower32
    sub, mul = cyc8._sub, cyc8._mul
    rng = random.Random(17)
    for _ in range(10):
        e = rng.randrange(1, 8)
        theta = TorusCharacter(tw, cyc8, e)
        a = mul(cyc8.scalar(rng.randrange(-6, 7)), cyc8.root_of_unity(8, rng.randrange(8)))
        phi = {t: mul(a, sub(theta.eval(t), cyc8.one)) for t in tw.units(2)}
        out = cohom.normalize_torus_cochain(theta, 2, phi)
        if a != cyc8.zero:
            assert out.status == "corrected" and out.correction == a
            # idempotence: after applying the correction the cochain is zero
            fixed = {k: sub(v, mul(a, sub(theta.eval(tw.value(k, 2)), cyc8.one)))
                     for k, v in phi.items()}
            assert cohom.normalize_torus_cochain(theta, 2, fixed).status == "normal"
        else:
            assert out.status == "normal"


def test_normalize_zero_is_normal(tower32, cyc8):
    theta = TorusCharacter(tower32, cyc8, 0)
    phi = {t: cyc8.zero for t in tower32.units(2)}
    assert cohom.normalize_torus_cochain(theta, 2, phi).status == "normal"


def test_normalize_rejects_non_cochain(tower32, cyc8):
    theta = TorusCharacter(tower32, cyc8, 1)  # order 8 > 2
    phi = {t: cyc8._sub(cyc8._mul(theta.eval(t), theta.eval(t)), cyc8.one) for t in tower32.units(2)}
    with pytest.raises(ValueError, match="not a cochain"):
        cohom.normalize_torus_cochain(theta, 2, phi)


def test_normalize_additive_obstruction(tower22):
    # trivial character, characteristic 3 = |F_4^x|: a genuine obstruction
    F3 = PrimeField(3)
    tw = tower22
    theta = TorusCharacter(tw, F3, 0)
    g = tw.generator(2)
    phi = {tw._pow(g, j): F3.scalar(j) for j in range(3)}
    out = cohom.normalize_torus_cochain(theta, 2, phi)
    assert out.status == "obstruction"


# -- the mod-l certificate of the unreduced solver ------------------------------


def _spy_ranks(monkeypatch):
    """The fields the unreduced system is eliminated over, call by call."""
    fields, rank = [], cohom._rank

    def spied(rows, field, most):
        fields.append(field)
        return rank(rows, field, most)

    monkeypatch.setattr(cohom, "_rank", spied)
    return fields


@pytest.mark.parametrize("fix,exp", [("tower22", 0), ("tower32", 1)])
def test_certificate_decides_every_char0_pair_mod_l(fix, exp, rat, monkeypatch, request):
    _, reps = _reps(request.getfixturevalue(fix), rat, exp)
    fields = _spy_ranks(monkeypatch)
    for M, N in itertools.product(reps.values(), repeat=2):
        assert cohom.ext1_unreduced(M, N) == 0 == cohom.ext1_bfs(M, N)[0]
    # one elimination per pair, every one over F_5: none over Q
    assert fields == [PrimeField(5)] * 9


def test_inconclusive_certificate_falls_back_to_the_exact_field(tower32, rat, monkeypatch):
    # l = 2 divides |SL2(F_3)| = 24: mod 2 the cocycle space grows exactly
    # for the pairs with a modular extension (MODULAR_EXTENSIONS), where the
    # bound proves nothing and the exact elimination over Q decides
    _, reps = _reps(tower32, rat, 0)
    monkeypatch.setattr(cohom, "choose_prime_for_order", lambda n, avoid: 2)
    fields = _spy_ranks(monkeypatch)
    for nm, M in reps.items():
        for nn, N in reps.items():
            fields.clear()
            assert cohom.ext1_unreduced(M, N) == cohom.ext1_bfs(M, N)[0] == 0
            nonzero_mod_2 = (nm, nn) in MODULAR_EXTENSIONS[("tower32", 2, 0)]
            assert fields == [PrimeField(2)] + [rat] * nonzero_mod_2, (nm, nn)


def test_denominator_divisible_by_l_falls_back(tower22, rat, monkeypatch):
    # St conjugated by diag(5, 1) has entries with denominator 5 = l, which
    # the reduction mod 5 cannot map: the system is eliminated over Q
    group, reps = _reps(tower22, rat, 0)
    P, P_inv = ((5, 0), (0, 1)), ((Fraction(1, 5), 0), (0, 1))
    conj = [cohom.mat_mul(rat, cohom.mat_mul(rat, P_inv, X), P) for X in reps["St"]._gen_mats]
    St5 = cohom.FiniteRep(group, rat, conj, "St^P")
    assert any(type(x) is Fraction for X in St5._gen_mats for r in X for x in r)
    fields = _spy_ranks(monkeypatch)
    for M, N in ((St5, St5), (St5, reps["tr"]), (reps["tr"], St5)):
        fields.clear()
        assert cohom.ext1_unreduced(M, N) == cohom.ext1_bfs(M, N)[0] == 0
        assert fields == [rat]


# -- the rank bound of the unreduced solver ---------------------------------------


@pytest.mark.parametrize("fix,exp,ells", [("tower22", 0, (2, 3, 5)), ("tower32", 0, (2, 3, 5)),
                                          ("tower32", 1, (3, 5))])  # F_2 has no character of order 2
def test_rank_bound_stop_gives_the_full_elimination(fix, exp, ells, request, monkeypatch):
    # over Q and the fields of MODULAR_EXTENSIONS, the whole system is
    # eliminated here with a plain span: its rank never passes
    # unknowns - dim B1 (B1 lies in Z1), and the stopped solver returns
    # the full elimination's nullity less dim B1
    consumed = []
    rank = cohom._rank

    def counted(rows, field, most):
        rows = list(rows)
        left = iter(rows)
        r = rank(left, field, most)
        consumed.append((len(rows) - sum(1 for _ in left), len(rows)))
        return r

    monkeypatch.setattr(cohom, "_rank", counted)
    stopped = 0
    for field in (RationalField(), *map(PrimeField, ells)):
        group, reps = _reps(request.getfixturevalue(fix), field, exp)
        for (nm, M), (nn, N) in itertools.product(reps.items(), repeat=2):
            unknowns = (len(group) - 1) * N.dim * M.dim
            bdim = N.dim * M.dim - len(cohom.hom_space(M, N))
            span = SparseSpan(field)
            for row in cohom._unreduced_rows(group, field, M._mats, N._mats):
                span.insert(row)
            assert span.dim <= unknowns - bdim, (field, nm, nn)
            consumed.clear()
            d = cohom.ext1_unreduced(M, N)
            assert d == unknowns - span.dim - bdim == cohom.ext1_bfs(M, N)[0], (field, nm, nn)
            if d == 0:
                stopped += all(used < built for used, built in consumed)
            else:  # the bound is never reached: every row is eliminated
                assert all(used == built for used, built in consumed), (field, nm, nn)
    assert stopped > 0


def test_short_hom_space_is_caught(tower32, rat, monkeypatch):
    # a Hom space one vector short would make the nullity look one short
    # of dim B1; the coboundary rank in the unreduced frame disagrees
    _, reps = _reps(tower32, PrimeField(2), 0)
    hom_space = cohom.hom_space
    monkeypatch.setattr(cohom, "hom_space", lambda M, N: hom_space(M, N)[1:])
    with pytest.raises(RuntimeError, match="coboundary rank is inconsistent with the Hom space"):
        cohom.ext1_unreduced(reps["tr"], reps["tr"])


# -- the rank bound of the BFS solver ----------------------------------------------


@pytest.mark.parametrize("fix,exp,ells", [("tower22", 0, (2, 3, 5)), ("tower32", 0, (2, 3, 5)),
                                          ("tower32", 1, (3, 5))])  # F_2 has no character of order 2
def test_bfs_rank_stop_gives_the_full_elimination(fix, exp, ells, request, monkeypatch):
    # every cross-edge row is eliminated here with a plain span: the
    # stopped solver returns the full elimination's Ext1 and, where it is
    # nonzero, its transversal; it stops only where Ext1 = 0, and there it
    # can leave tree forms unbuilt
    read = trees = 0
    cross_rows, tree_forms = cohom._cross_rows, cohom._tree_forms

    def counted_rows(M, N):
        nonlocal read
        for row in cross_rows(M, N):
            read += 1
            yield row

    def counted_forms(M, N):
        nonlocal trees
        for ci, forms in tree_forms(M, N):
            trees += ci != M.group.identity_index
            yield ci, forms

    monkeypatch.setattr(cohom, "_cross_rows", counted_rows)
    monkeypatch.setattr(cohom, "_tree_forms", counted_forms)
    stopped = short = 0
    for field in (RationalField(), *map(PrimeField, ells)):
        group, reps = _reps(request.getfixturevalue(fix), field, exp)
        for (nm, M), (nn, N) in itertools.product(reps.items(), repeat=2):
            variables = [(k, r, c) for k in range(len(group.gens))
                         for r in range(N.dim) for c in range(M.dim)]
            rows = list(cross_rows(M, N))
            full = SparseSpan(field)
            for row in rows:
                full.insert(row)
            b1 = SparseSpan(field)  # the coboundaries of the matrix units
            for r0, c0 in itertools.product(range(N.dim), range(M.dim)):
                E = [[field.one if (r, c) == (r0, c0) else field.zero for c in range(M.dim)]
                     for r in range(N.dim)]
                b1.insert({(k, r, c): x for k, D in enumerate(_coboundary_of(M, N, E))
                           for r, Dr in enumerate(D) for c, x in enumerate(Dr) if x != field.zero})
            bdim = b1.dim
            expected = [z for z in full.kernel(variables) if b1.insert(z)]
            read = trees = 0
            d, transversal = cohom.ext1_bfs(M, N)
            assert d == len(expected) == len(variables) - full.dim - bdim, (field, nm, nn)
            assert transversal == expected, (field, nm, nn)
            if d == 0 and read < len(rows):
                stopped += 1
                short += trees < len(group) - 1
            else:  # the bound is never reached: every row is eliminated
                assert read == len(rows), (field, nm, nn)
    assert stopped > 0 and short > 0


@pytest.mark.parametrize("solver", [cohom.ext1_bfs, cohom.ext1_unreduced], ids=lambda f: f.__name__)
def test_short_hom_kernel_is_caught_by_both_solvers(tower32, monkeypatch, solver):
    # each solver checks its own dim B1 against the Hom space before it
    # bounds the rank with it; a kernel one vector short must raise
    _, reps = _reps(tower32, PrimeField(2), 0)
    kernel = cohom._kernel
    monkeypatch.setattr(cohom, "_kernel", lambda delta, M, N: kernel(delta, M, N)[1:])
    with pytest.raises(RuntimeError, match="coboundary rank is inconsistent with the Hom space"):
        solver(reps["tr"], reps["tr"])


def test_order_condition_table():
    for m in (2, 3, 4, 6):
        for char in (0, 2, 3, 5, 7):
            expected = char == 0 or m % char != 0
            assert cohom.order_condition_forces_zero(m, char) == expected


# -- coefficient fields of the solvers --------------------------------------------


@pytest.mark.parametrize("solver", [cohom.hom_space, cohom.ext1_bfs, cohom.ext1_unreduced],
                         ids=lambda f: f.__name__)
def test_solvers_reject_reps_over_different_fields(tower22, rat, solver):
    _, reps7 = _reps(tower22, PrimeField(7), 0)
    _, reps_q = _reps(tower22, rat, 0)
    for M, N in ((reps7["tr"], reps_q["St"]), (reps_q["St"], reps7["tr"])):
        with pytest.raises(ValueError, match="coefficient mode mismatch between representations"):
            solver(M, N)
