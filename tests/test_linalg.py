from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext.coeff import CyclotomicField, PrimeField, RationalField, Scalar
from sl2ext.linalg import SparseSpan, monomial_invariants, nullspace, solve_affine, vec_add, vec_scale
from test_coeff import _elements

F = RationalField()


def v(**kw):
    return {k: F.scalar(x) for k, x in kw.items()}


def test_span_insert_and_membership():
    span = SparseSpan(F)
    assert span.insert({0: F.one, 1: F.scalar(2)})
    assert span.insert({1: F.one})
    assert not span.insert({0: F.scalar(3), 1: F.scalar(-1)})
    assert span.dim == 2
    assert span.contains({0: F.scalar(5)})
    assert not span.contains({2: F.one})


def test_span_is_reduced():
    span = SparseSpan(F)
    span.insert({0: F.one, 2: F.one})
    span.insert({0: F.one, 1: F.one})
    # after reduction no row contains another row's pivot
    for p, row in span.rows.items():
        for p2 in span.rows:
            if p2 != p:
                assert p2 not in row


def test_nullspace_small():
    # x + y = 0, y + z = 0 -> one free variable
    rows = [v(x=1, y=1), v(y=1, z=1)]
    basis = nullspace(rows, ["x", "y", "z"], F)
    assert len(basis) == 1
    sol = basis[0]
    assert sol["x"] == sol["z"] and sol["y"] == -sol["z"]


def test_nullspace_full_rank():
    rows = [v(x=1), v(y=2)]
    assert nullspace(rows, ["x", "y"], F) == []


def test_solve_affine():
    # x + y = 3, x - y = 1 -> x = 2, y = 1
    rows = [v(x=1, y=1), v(x=1, y=-1)]
    rhs = {0: F.scalar(3), 1: F.scalar(1)}
    sol = solve_affine(rows, rhs, ["x", "y"], F)
    assert sol["x"] == F.scalar(2) and sol["y"] == F.one
    # inconsistent system
    rows = [v(x=1), v(x=1)]
    assert solve_affine(rows, {0: F.one, 1: F.scalar(2)}, ["x", "y"], F) is None
    # zero right side always solvable
    assert solve_affine(rows, {}, ["x", "y"], F) == {}


def test_monomial_invariants_cycle():
    # a 3-cycle with trivial scalars has the orbit sum as its fixed line
    labels = [0, 1, 2]
    mp = {0: (1, F.one), 1: (2, F.one), 2: (0, F.one)}
    out = monomial_invariants(labels, [lambda l: mp[l]], F)
    assert len(out) == 1
    assert out[0] == {0: F.one, 1: F.one, 2: F.one}


def test_monomial_invariants_inconsistent_cycle():
    # going around the 2-cycle multiplies by -1: the component dies
    mp = {0: (1, F.one), 1: (0, F.scalar(-1))}
    out = monomial_invariants([0, 1], [lambda l: mp[l]], F)
    assert out == []


def test_monomial_invariants_weighted():
    # the transposition 0 <-> 1 with scalars 2 and 1/2; 2 is fixed alone
    mp = {0: (1, F.scalar(2)), 1: (0, F.scalar(Fraction(1, 2))), 2: (2, F.one)}
    out = monomial_invariants([0, 1, 2], [lambda l: mp[l]], F)
    assert len(out) == 2
    comp = next(c for c in out if 0 in c)
    assert comp[0] == F.one and comp[1] == F.scalar(2)


# -- the field of an incoming vector -------------------------------------------


@pytest.mark.parametrize("foreign", [PrimeField(11), RationalField()], ids=repr)
@pytest.mark.parametrize("filled", [False, True], ids=["empty", "nonempty"])
def test_span_rejects_scalars_of_another_field(foreign, filled):
    F7 = PrimeField(7)
    span = SparseSpan(F7)
    if filled:
        span.insert({0: F7.one, 1: F7.scalar(3)})
    for op in (span.insert, span.contains, span.reduce):
        with pytest.raises(ValueError, match="coefficient mode mismatch"):
            op({0: foreign.one})
    assert span.dim == int(filled)


def test_span_accepts_an_equal_field_instance():
    span = SparseSpan(PrimeField(7))
    assert span.insert({0: PrimeField(7).scalar(2)})
    assert span.contains({0: PrimeField(7).one})


# -- random sparse systems -----------------------------------------------------

SYSTEM_FIELDS = [PrimeField(7), PrimeField(5, 2), RationalField(), CyclotomicField(12)]


@st.composite
def _sparse_vector(draw, field, nvars):
    keys = draw(st.lists(st.integers(0, nvars - 1), max_size=nvars, unique=True))
    vec = {k: draw(_elements(field)) for k in keys}
    return {k: c for k, c in vec.items() if c}


def _dense_rank(rows, nvars, field):
    """Rank by plain Gaussian elimination on a dense Scalar matrix."""
    m = [[r.get(j, field.zero) for j in range(nvars)] for r in rows]
    rank = 0
    for col in range(nvars):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.one / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", SYSTEM_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_of_random_sparse_systems(field, data):
    nvars = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(_sparse_vector(field, nvars), max_size=7))
    variables = list(range(nvars))
    basis = nullspace(rows, variables, field)
    for v in basis:
        assert all(isinstance(c, Scalar) and c.field == field for c in v.values())
        for r in rows:
            total = field.zero
            for k, c in r.items():
                total = total + c * v.get(k, field.zero)
            assert total == field.zero
    assert len(basis) == nvars - _dense_rank(rows, nvars, field)


@pytest.mark.parametrize("field", SYSTEM_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_span_rows_membership_and_insert_agree(field, data):
    nvars = data.draw(st.integers(1, 6))
    vecs = data.draw(st.lists(_sparse_vector(field, nvars), max_size=6))
    span = SparseSpan(field)
    for w in vecs:
        span.insert(w)
    for row in list(span.rows.values()) + span.basis():
        assert all(isinstance(c, Scalar) and c.field is field for c in row.values())
    assert span.dim == _dense_rank(vecs, nvars, field)
    # probe with random vectors and with a combination of inserted ones
    probes = data.draw(st.lists(_sparse_vector(field, nvars), max_size=3))
    if vecs:
        c1, c2 = data.draw(_elements(field)), data.draw(_elements(field))
        probes.append(vec_add(vec_scale(vecs[0], c1), vec_scale(vecs[-1], c2)))
    for w in probes:
        before = span.dim
        inside = span.contains(w)
        assert span.insert(w) == (not inside)
        assert span.dim == before + (not inside)
