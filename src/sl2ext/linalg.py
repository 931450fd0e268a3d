"""Sparse exact linear algebra over the coefficient fields.

SparseSpan keeps a reduced echelon basis with deterministic pivoting
(smallest coordinate first), which makes dimensions, membership tests and
serialized bases reproducible bit for bit.

A vector is a dict of raw reps of one field (see ``coeff``) and never
holds a zero rep.  Fields are checked where a character's values enter a
module vector (``indmod``, ``towerext``), never here.  ``_acc`` is the one
add-and-drop-on-cancel accumulator of the vector and cocycle builders.

One elimination kernel serves every span: the field's ``_sub_scaled``,
a -= c*b, which updates its first argument in place (this module is its
only caller).  ``reduce`` copies a caller's vector on its first pivot hit
and returns it as it is when it holds none, so a caller's dict is never
changed.  ``insert`` keeps the holders index, from each non-pivot key to
the pivots of the rows holding it, and back-substitutes a new pivot into
those rows only.  The reduced echelon form under the smallest-key pivot
rule is unique, so neither changes a row, a dimension or a report byte.
"""

from __future__ import annotations

from .coeff import CoeffField


def _acc(dst: dict, key, rep, add, zero):
    """dst[key] += rep on raw reps; a zero rep or a sum that cancels leaves
    no entry."""
    if rep != zero:
        prev = dst.get(key)
        if prev is None:
            dst[key] = rep
        else:
            s = add(prev, rep)
            if s != zero:
                dst[key] = s
            else:
                del dst[key]


class SparseSpan:
    """A reduced echelon spanning set; rows indexed by their pivots, and
    each non-pivot key indexed by the rows holding it."""

    def __init__(self, field: CoeffField):
        self.field = field
        self._rows: dict = {}  # pivot key -> raw row with that pivot normalized to 1
        self._holders: dict = {}  # non-pivot key -> set of pivots of the rows holding it

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: dict) -> dict:
        """The remainder of a vector modulo the span; empty when the vector
        lies in it.  `vec` is never changed: it is copied on the first pivot
        it holds, and returned as it is when it holds none."""
        rows, sub_scaled = self._rows, self.field._sub_scaled
        out = vec
        for k in sorted(vec):
            if k in out and k in rows:
                if out is vec:
                    out = dict(vec)
                sub_scaled(out, out[k], rows[k])
        # reductions cannot reintroduce pivot keys: rows are mutually reduced
        return out

    def insert(self, vec: dict) -> bool:
        """Add a vector; returns True when the span grows."""
        rem = self.reduce(vec)
        if not rem:
            return False
        f = self.field
        pivot = min(rem)
        inv, mul = f._inv(rem[pivot]), f._mul
        row = {k: mul(v, inv) for k, v in rem.items()}
        rows, holders, sub_scaled = self._rows, self._holders, f._sub_scaled
        for j in row:
            if j != pivot:
                holders.setdefault(j, set()).add(pivot)
        for k in holders.pop(pivot, ()):
            other = rows[k]
            sub_scaled(other, other[pivot], row)
            # only the keys of `row` can enter or leave `other`; the pivot
            # always leaves it and is no longer a holders key
            for j in row:
                if j in other:
                    holders[j].add(k)
                elif j != pivot:
                    holders[j].discard(k)
        rows[pivot] = row
        return True

    def extend(self, vecs) -> list:
        """Insert a batch, largest key first (ties in input order); returns
        the vectors that grew the span.  Zero vectors never do.

        The echelon form does not depend on the order, but the cost does: a
        new pivot is back-substituted into every row holding it, so a batch
        sharing a small key (the Steinberg vectors all hold the highest line)
        inserted smallest key first costs quadratically many row operations.
        """
        return [v for v in sorted(filter(None, vecs), key=max, reverse=True) if self.insert(v)]

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list:
        return [dict(self._rows[k]) for k in sorted(self._rows)]


def nullspace(rows: list, variables: list, field: CoeffField) -> list:
    """Basis of the solution space of a homogeneous sparse system.

    `rows` are dicts var->raw rep, and so are the basis vectors returned.
    Variables are ranked by their position in `variables` (pivots prefer
    earlier ones), so the reduced basis is deterministic regardless of the
    key types.
    """
    pos = {v: i for i, v in enumerate(variables)}
    span = SparseSpan(field)
    for r in rows:
        if r:
            span.insert({pos[k]: c for k, c in r.items()})
    echelon = span._rows
    one, zero, sub = field.one, field.zero, field._sub
    basis = []
    for f in range(len(variables)):
        if f in echelon:
            continue
        v = {variables[f]: one}
        for p, row in echelon.items():
            c = row.get(f)
            if c is not None:
                v[variables[p]] = sub(zero, c)
        basis.append(v)
    return basis


def monomial_invariants(labels, maps, field: CoeffField) -> list:
    """Joint fixed vectors of monomial operators.

    Each map sends a label l to (l2, c) meaning: the operator carries the
    basis vector at l to c times the one at l2, c a nonzero raw rep.  A
    vector fixed by all of them satisfies v[l2] = c * v[l] along every
    edge; components where the scalar constraints close up inconsistently
    are forced to zero.  Returns one weighted component-sum per consistent
    component, rooted at the component's smallest label (coefficient 1
    there).
    """
    mul, inv, one = field._mul, field._inv, field.one
    parent = {l: l for l in labels}
    weight = {l: one for l in labels}  # v[l] = weight[l] * v[root]
    dead = set()

    def find(l):
        path = []
        while parent[l] != l:
            path.append(l)
            l = parent[l]
        w = one
        for node in reversed(path):
            w = mul(w, weight[node])
            # compress: point directly at the root with the combined weight
            parent[node] = l
            weight[node] = w
        return l

    for mp in maps:
        for l in labels:
            l2, c = mp(l)
            r1 = find(l)
            r2 = find(l2)
            if r1 == r2:
                if weight[l2] != mul(c, weight[l]):
                    dead.add(r1)
            else:
                # v[l2] = c v[l]: express r2 through r1
                weight[r2] = mul(mul(c, weight[l]), inv(weight[l2]))
                parent[r2] = r1
                if r2 in dead:
                    dead.discard(r2)
                    dead.add(r1)

    comps = {}
    for l in labels:
        r = find(l)
        comps.setdefault(r, []).append(l)
    out = []
    for r in sorted(comps):
        if r in dead:
            continue
        members = comps[r]
        base = min(members)
        scale = inv(weight[base])
        out.append({l: mul(weight[l], scale) for l in sorted(members)})
    return out
