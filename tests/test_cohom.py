import random
from fractions import Fraction

import pytest

from sl2ext import cohom
from sl2ext.charmod import TorusCharacter
from sl2ext.coeff import PrimeField
from sl2ext.indmod import InducedModule
from sl2ext.linalg import nullspace


def _reps(tw, field, theta_exp):
    group = cohom.GroupTable(tw, level=1)
    tr = TorusCharacter(tw, field, 0)
    th = TorusCharacter(tw, field, theta_exp)
    return group, {
        "tr": cohom.FiniteRep.trivial(group, field),
        "St": cohom.FiniteRep.steinberg(group, InducedModule(tw, tr, 1)),
        "M": cohom.FiniteRep.from_induced(group, InducedModule(tw, th, 1)),
    }


def test_group_table_covers_group(tower22, tower32):
    for tw, size in ((tower22, 6), (tower32, 24)):
        group = cohom.GroupTable(tw, level=1)
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
    group = cohom.GroupTable(tower32, level=1)
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


def test_nonzero_extension_exists_modular(tower22):
    # over SL2(F_2) in characteristic 3 the trivial-by-Steinberg space is 1-dim
    F3 = PrimeField(3)
    _, reps = _reps(tower22, F3, 0)
    d, transversal = cohom.ext1_bfs(reps["tr"], reps["St"])
    assert d == 1 and len(transversal) == 1
    # the transversal class really is not a coboundary
    C = _cocycle_from_vector(reps["tr"], reps["St"], transversal[0])
    assert _is_cocycle(reps["tr"], reps["St"], C)
    assert _find_splitting(reps["tr"], reps["St"], C) is None


# -- an independent cocycle and splitting oracle on raw reps -------------------


def _cocycle_from_vector(M, N, vec):
    zero = M.field.zero.rep
    return [tuple(tuple(vec.get((k, r, c), zero) for c in range(M.dim)) for r in range(N.dim))
            for k in range(len(M.group.gens))]


def _zero(field, n, m):
    return tuple(tuple(field.zero.rep for _ in range(m)) for _ in range(n))


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
    zero = f.zero.rep
    entries = [(r, c) for r in range(N.dim) for c in range(M.dim)]
    slack = "slack"
    rows = {}

    def put(column, values):
        for k, D in enumerate(values):
            for r, c in entries:
                if D[r][c] != zero:
                    rows.setdefault((k, r, c), {})[column] = D[r][c]

    for r0, c0 in entries:
        E = tuple(tuple(f.one.rep if (r, c) == (r0, c0) else zero for c in range(M.dim))
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
        tuple(rat.scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))).rep
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
    bad = [tuple(tuple(rat.scalar(r + c + k).rep for c in range(M.dim)) for r in range(N.dim))
           for k in range(len(M.group.gens))]
    with pytest.raises(ValueError):
        _find_splitting(M, N, bad)


def test_char0_splitting_always_found(tower32, rat):
    # consistency with the vanishing extension space: every cocycle splits
    _, reps = _reps(tower32, rat, 1)
    M, N = reps["tr"], reps["M"]
    rng = random.Random(8)
    phi = tuple(tuple(rat.scalar(rng.randrange(-3, 4)).rep for _ in range(M.dim))
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
        group = cohom.GroupTable(tw, level=1)
        for gi, g in enumerate(group.elements):
            for hi, h in enumerate(group.elements):
                assert group.product[gi][hi] == group.index[(g * h).key()]


# -- torus cochain normalization ---------------------------------------------


def test_normalize_roundtrip(tower32, cyc8):
    tw = tower32
    rng = random.Random(17)
    for _ in range(10):
        e = rng.randrange(1, 8)
        theta = TorusCharacter(tw, cyc8, e)
        a = cyc8.scalar(rng.randrange(-6, 7)) * cyc8.root_of_unity(8, rng.randrange(8))
        phi = {t.val: a * (theta.eval(t) - cyc8.one)
               for t in tw.enumerate_level(2) if t.val}
        out = cohom.normalize_torus_cochain(theta, 2, phi)
        if a:
            assert out.status == "corrected" and out.correction == a
            # idempotence: after applying the correction the cochain is zero
            fixed = {k: v - a * (theta.eval(tw.element(k, 2)) - cyc8.one)
                     for k, v in phi.items()}
            assert cohom.normalize_torus_cochain(theta, 2, fixed).status == "normal"
        else:
            assert out.status == "normal"


def test_normalize_zero_is_normal(tower32, cyc8):
    theta = TorusCharacter(tower32, cyc8, 0)
    phi = {t.val: cyc8.zero for t in tower32.enumerate_level(2) if t.val}
    assert cohom.normalize_torus_cochain(theta, 2, phi).status == "normal"


def test_normalize_rejects_non_cochain(tower32, cyc8):
    theta = TorusCharacter(tower32, cyc8, 1)  # order 8 > 2
    phi = {t.val: theta.eval(t) * theta.eval(t) - cyc8.one
           for t in tower32.enumerate_level(2) if t.val}
    with pytest.raises(ValueError, match="not a cochain"):
        cohom.normalize_torus_cochain(theta, 2, phi)


def test_normalize_additive_obstruction(tower22):
    # trivial character, characteristic 3 = |F_4^x|: a genuine obstruction
    F3 = PrimeField(3)
    tw = tower22
    theta = TorusCharacter(tw, F3, 0)
    g = tw.generator(2)
    phi = {(g ** j).val: F3.scalar(j) for j in range(3)}
    out = cohom.normalize_torus_cochain(theta, 2, phi)
    assert out.status == "obstruction"


def test_order_condition_table():
    for m in (2, 3, 4, 6):
        for char in (0, 2, 3, 5, 7):
            expected = char == 0 or m % char != 0
            assert cohom.order_condition_forces_zero(m, char) == expected


# -- coefficient fields of the raw system builders ------------------------------


def test_foreign_scalar_in_generator_matrices_raises(tower22):
    F7, F11 = PrimeField(7), PrimeField(11)
    group = cohom.GroupTable(tower22, level=1)
    gens = [((F11.one,),) for _ in group.gens]
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        cohom.FiniteRep(group, F7, gens, "foreign")


def test_raw_matrix_checks_every_entry():
    F7, F11 = PrimeField(7), PrimeField(11)
    assert cohom._raw_matrix(F7, ((F7.one, F7.zero),)) == ((1, 0),)
    with pytest.raises(ValueError, match="coefficient mode mismatch"):
        cohom._raw_matrix(F7, ((F7.one, F11.one),))


@pytest.mark.parametrize("solver", [cohom.hom_space, cohom.ext1_bfs, cohom.ext1_unreduced],
                         ids=lambda f: f.__name__)
def test_solvers_reject_reps_over_different_fields(tower22, rat, solver):
    _, reps7 = _reps(tower22, PrimeField(7), 0)
    _, reps_q = _reps(tower22, rat, 0)
    for M, N in ((reps7["tr"], reps_q["St"]), (reps_q["St"], reps7["tr"])):
        with pytest.raises(ValueError, match="coefficient mode mismatch between representations"):
            solver(M, N)
