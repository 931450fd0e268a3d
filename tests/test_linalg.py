from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2ext.coeff import CyclotomicField, PrimeField, RationalField
from sl2ext.linalg import SparseSpan, _acc, monomial_invariants, nullspace
from test_coeff import _elements

F = RationalField()


def test_span_insert_and_membership():
    # vectors of raw reps: a rational rep is the int or Fraction itself
    span = SparseSpan(F)
    assert span.insert({0: 1, 1: 2})
    assert span.insert({1: 1})
    assert not span.insert({0: 3, 1: -1})
    assert span.dim == 2
    assert span.contains({0: 5})
    assert not span.contains({2: 1})
    assert span.reduce({0: 5, 2: Fraction(1, 2)}) == {2: Fraction(1, 2)}


def test_span_is_reduced():
    span = SparseSpan(F)
    span.insert({0: 1, 2: 1})
    span.insert({0: 1, 1: 1})
    # after reduction no row contains another row's pivot
    for p, row in span._rows.items():
        for p2 in span._rows:
            if p2 != p:
                assert p2 not in row


def test_acc_drops_zero_reps_and_cancelling_sums():
    F7 = PrimeField(7)
    add, zero = F7._add, F7.zero
    d = {}
    _acc(d, "a", zero, add, zero)
    assert d == {}
    _acc(d, "a", 3, add, zero)
    _acc(d, "b", 1, add, zero)
    _acc(d, "a", 4, add, zero)
    assert d == {"b": 1}


def test_nullspace_small():
    # x + y = 0, y + z = 0 -> one free variable; rows and basis hold raw reps
    rows = [{"x": 1, "y": 1}, {"y": 1, "z": 1}]
    basis = nullspace(rows, ["x", "y", "z"], F)
    assert basis == [{"z": 1, "x": 1, "y": -1}]


def test_nullspace_full_rank():
    rows = [{"x": 1}, {"y": 2}]
    assert nullspace(rows, ["x", "y"], F) == []


def test_monomial_invariants_cycle():
    # a 3-cycle with trivial scalars has the orbit sum as its fixed line
    labels = [0, 1, 2]
    mp = {0: (1, 1), 1: (2, 1), 2: (0, 1)}
    out = monomial_invariants(labels, [lambda l: mp[l]], F)
    assert len(out) == 1
    assert out[0] == {0: 1, 1: 1, 2: 1}


def test_monomial_invariants_inconsistent_cycle():
    # going around the 2-cycle multiplies by -1: the component dies
    mp = {0: (1, 1), 1: (0, -1)}
    out = monomial_invariants([0, 1], [lambda l: mp[l]], F)
    assert out == []


def test_monomial_invariants_weighted():
    # the transposition 0 <-> 1 with scalars 2 and 1/2; 2 is fixed alone
    mp = {0: (1, 2), 1: (0, Fraction(1, 2)), 2: (2, 1)}
    out = monomial_invariants([0, 1, 2], [lambda l: mp[l]], F)
    assert len(out) == 2
    comp = next(c for c in out if 0 in c)
    assert comp[0] == 1 and comp[1] == 2


# -- random sparse systems -----------------------------------------------------

SYSTEM_FIELDS = [PrimeField(7), PrimeField(5, 2), RationalField(), CyclotomicField(12)]


@st.composite
def _sparse_vector(draw, field, nvars):
    """A vector of nonzero raw reps."""
    keys = draw(st.lists(st.integers(0, nvars - 1), max_size=nvars, unique=True))
    vec = {k: draw(_elements(field)) for k in keys}
    return {k: c for k, c in vec.items() if c != field.zero}


def _assert_raw(field, vec):
    assert all(r != field.zero for r in vec.values())


def _dense_rref(rows, nvars, field):
    """The reduced row echelon form, by plain Gaussian elimination on a
    dense matrix of raw reps; its nonzero rows as {column: rep}."""
    sub, mul, zero = field._sub, field._mul, field.zero
    m = [[r.get(j, zero) for j in range(nvars)] for r in rows]
    rank = 0
    for col in range(nvars):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != zero), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field._inv(m[rank][col])
        m[rank] = [mul(x, inv) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != zero:
                c = m[i][col]
                m[i] = [sub(x, mul(c, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return [{j: x for j, x in enumerate(row) if x != zero} for row in m[:rank]]


@pytest.mark.parametrize("field", SYSTEM_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_of_random_sparse_systems(field, data):
    nvars = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(_sparse_vector(field, nvars), max_size=7))
    variables = list(range(nvars))
    basis = nullspace(rows, variables, field)
    for v in basis:
        _assert_raw(field, v)
        for r in rows:
            total = field.zero
            for k, c in r.items():
                total = field._add(total, field._mul(c, v.get(k, field.zero)))
            assert total == field.zero
    assert len(basis) == nvars - len(_dense_rref(rows, nvars, field))


@pytest.mark.parametrize("field", SYSTEM_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_span_rows_membership_and_insert_agree(field, data):
    nvars = data.draw(st.integers(1, 6))
    vecs = data.draw(st.lists(_sparse_vector(field, nvars), max_size=6))
    span = SparseSpan(field)
    for w in vecs:
        span.insert(w)
    for row in span.basis():
        _assert_raw(field, row)
    assert span.dim == len(_dense_rref(vecs, nvars, field))
    # probe with random vectors and with a combination of inserted ones
    probes = data.draw(st.lists(_sparse_vector(field, nvars), max_size=3))
    if vecs:
        c1, c2 = data.draw(_elements(field)), data.draw(_elements(field))
        add, mul, zero = field._add, field._mul, field.zero
        combo = {k: add(mul(c1, vecs[0].get(k, zero)), mul(c2, vecs[-1].get(k, zero)))
                 for k in set(vecs[0]) | set(vecs[-1])}
        probes.append({k: c for k, c in combo.items() if c != zero})
    for w in probes:
        before = span.dim
        inside = span.contains(w)
        assert (span.reduce(w) == {}) == inside
        assert span.insert(w) == (not inside)
        assert span.dim == before + (not inside)


@pytest.mark.parametrize("field", SYSTEM_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_insert_builds_the_dense_reduced_basis(field, data):
    nvars = data.draw(st.integers(1, 6))
    vecs = data.draw(st.lists(_sparse_vector(field, nvars), max_size=6))
    span = SparseSpan(field)
    for w in vecs:
        span.insert(w)
    # the reduced echelon form of a span is unique: rows agree value by value
    dense = _dense_rref(vecs, nvars, field)
    assert span.basis() == dense
    # so a batch gives the same rows in any order, and reports each growth
    batch = SparseSpan(field)
    grew = batch.extend(list(data.draw(st.permutations(vecs))))
    assert batch.basis() == dense
    assert len(grew) == batch.dim


# -- the elimination kernel: in-place rows and the holders index -------------

KERNEL_FIELDS = [RationalField(), PrimeField(7), PrimeField(5, 2), CyclotomicField(8)]


def _holders_of(rows):
    """Each non-pivot key -> the pivots of the rows holding it."""
    out = {}
    for p, row in rows.items():
        for k in row:
            if k != p:
                out.setdefault(k, set()).add(p)
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_holders_index_the_rows_through_inserts_and_extends(field, data):
    nvars = data.draw(st.integers(1, 8))
    batches = data.draw(st.lists(st.lists(_sparse_vector(field, nvars), max_size=4), max_size=4))
    span = SparseSpan(field)
    given_vecs, copies = [], []
    for batch in batches:
        given_vecs += batch
        copies += [dict(v) for v in batch]
        if data.draw(st.booleans()):
            span.extend(batch)
        else:
            for v in batch:
                span.insert(v)
        assert span._holders == _holders_of(span._rows)
        assert [span._rows[p] for p in sorted(span._rows)] == _dense_rref(given_vecs, nvars, field)
    # rows are updated in place, but never a caller's vector
    assert given_vecs == copies


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_never_changes_the_callers_vector(field, data):
    nvars = data.draw(st.integers(1, 6))
    span = SparseSpan(field)
    span.extend(data.draw(st.lists(_sparse_vector(field, nvars), max_size=5)))
    vec = data.draw(_sparse_vector(field, nvars))
    copy = dict(vec)
    rem = span.reduce(vec)
    assert vec == copy
    # a vector that holds no pivot comes back as it is; any other is copied
    assert (rem is vec) == (not set(vec) & set(span._rows))
