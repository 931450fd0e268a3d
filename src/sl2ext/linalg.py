"""Sparse exact linear algebra over the coefficient fields.

SparseSpan keeps a reduced echelon basis with deterministic pivoting
(smallest coordinate first), which makes dimensions, membership tests and
serialized bases reproducible bit for bit.

Elimination is raw.  Scalars enter it only through SparseSpan's ``insert``,
``contains`` and ``reduce``, which check the field of every value once
(``_unwrap``); below them ``insert_raw`` is the one elimination entry point
and ``nullspace`` takes and returns dicts of raw reps, never a zero rep.
Rows are wrapped as Scalars again only where they leave through ``basis()``
and ``reduce``.  ``vec_add``, ``vec_scale`` and ``monomial_invariants``
are Scalar helpers of the module layer.
"""

from __future__ import annotations

from .coeff import CoeffField, Scalar


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def vec_scale(a: dict, c: Scalar) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _unwrap(field: CoeffField, vec: dict) -> dict:
    """The raw reps of a Scalar vector; a value from another field raises."""
    out = {}
    for k, v in vec.items():
        f = v.field
        if f is not field and f != field:
            raise ValueError(f"coefficient mode mismatch: {field} vs {f}")
        out[k] = v.rep
    return out


def _wrap(field: CoeffField, raw: dict) -> dict:
    return {k: Scalar(field, r) for k, r in raw.items()}


class SparseSpan:
    """A reduced echelon spanning set; rows indexed by their pivots."""

    def __init__(self, field: CoeffField):
        self.field = field
        self._rows: dict = {}  # pivot key -> raw row with that pivot normalized to 1

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, out: dict) -> dict:
        rows, sub_scaled = self._rows, self.field._sub_scaled
        for k in sorted(out):
            if k in out and k in rows:
                out = sub_scaled(out, out[k], rows[k])
        # reductions cannot reintroduce pivot keys: rows are mutually reduced
        return out

    def reduce(self, vec: dict) -> dict:
        return _wrap(self.field, self._reduce(_unwrap(self.field, vec)))

    def insert(self, vec: dict) -> bool:
        """Add a Scalar vector; returns True when the span grows."""
        return self.insert_raw(_unwrap(self.field, vec))

    def insert_raw(self, vec: dict) -> bool:
        """Add a vector of raw reps of the span's field; True when it grows."""
        rem = self._reduce(vec)
        if not rem:
            return False
        f = self.field
        pivot = min(rem)
        # one / pivot, computed as Scalar division computes it
        inv = f._mul(f.one.rep, f._inv(rem[pivot]))
        mul = f._mul
        row = {k: mul(v, inv) for k, v in rem.items()}
        rows, sub_scaled = self._rows, f._sub_scaled
        for k, other in rows.items():
            c = other.get(pivot)
            if c is not None:
                rows[k] = sub_scaled(other, c, row)
        rows[pivot] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(_unwrap(self.field, vec))

    def basis(self) -> list:
        return [_wrap(self.field, self._rows[k]) for k in sorted(self._rows)]


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
            span.insert_raw({pos[k]: c for k, c in r.items()})
    echelon = span._rows
    one, zero, sub = field.one.rep, field.zero.rep, field._sub
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
    basis vector at l to c times the one at l2.  A vector fixed by all of
    them satisfies v[l2] = c * v[l] along every edge; components where the
    scalar constraints close up inconsistently are forced to zero.
    Returns one weighted component-sum per consistent component, rooted at
    the component's smallest label (coefficient 1 there).
    """
    parent = {l: l for l in labels}
    weight = {l: field.one for l in labels}  # v[l] = weight[l] * v[root]
    dead = set()

    def find(l):
        path = []
        while parent[l] != l:
            path.append(l)
            l = parent[l]
        w = field.one
        for node in reversed(path):
            w = w * weight[node]
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
                if weight[l2] != c * weight[l]:
                    dead.add(r1)
            else:
                # v[l2] = c v[l]: express r2 through r1
                weight[r2] = c * weight[l] / weight[l2]
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
        scale = field.one / weight[base]
        out.append({l: weight[l] * scale for l in sorted(members)})
    return out
