"""Sparse exact linear algebra over the coefficient fields.

Vectors that callers pass in and get back are dicts keyed by sortable
coordinates with nonzero Scalar values.  SparseSpan keeps a reduced echelon
basis with deterministic pivoting (smallest coordinate first), which makes
dimensions, membership tests and serialized bases reproducible bit for bit.

The rows SparseSpan keeps are dicts of raw field reps: elimination calls
the field's ``_sub_scaled``/``_mul``/``_inv`` directly and zero-tests a rep
against the field's zero rep.  An incoming vector is unwrapped once, after
checking that its values belong to the span's field, and rows are wrapped
as Scalars again only where they leave: ``rows``, ``basis()``, ``reduce``
and ``nullspace``.
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
    def rows(self) -> dict:
        return {k: _wrap(self.field, row) for k, row in self._rows.items()}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

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
        """Add a vector; returns True when the span grows."""
        rem = self._reduce(_unwrap(self.field, vec))
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

    `rows` are dicts var->Scalar.  Variables are ranked by their position
    in `variables` (pivots prefer earlier ones), so the reduced basis is
    deterministic regardless of the key types.
    """
    pos = {v: i for i, v in enumerate(variables)}
    span = SparseSpan(field)
    for r in rows:
        if r:
            span.insert({pos[k]: v for k, v in r.items()})
    echelon = span._rows
    zero, sub = field.zero.rep, field._sub
    basis = []
    for f in range(len(variables)):
        if f in echelon:
            continue
        v = {variables[f]: field.one}
        for p, row in echelon.items():
            c = row.get(f)
            if c is not None:
                v[variables[p]] = Scalar(field, sub(zero, c))
        basis.append(v)
    return basis


def solve_affine(rows: list, rhs: dict, variables: list, field: CoeffField):
    """One solution x of (row . x) = rhs[i] per row, or None.

    Implemented as a homogeneous solve with a slack variable pinned to 1;
    deterministic like nullspace.
    """
    slack = object()
    aug = []
    for idx, r in enumerate(rows):
        row = dict(r)
        c = rhs.get(idx)
        if c:
            row[slack] = -c
        if row:
            aug.append(row)
    base = nullspace(aug, variables + [slack], field)
    for v in base:
        c = v.get(slack)
        if c:
            inv = field.one / c
            return {k: val * inv for k, val in v.items() if k is not slack}
    if not rhs or all(not c for c in rhs.values()):
        return {}
    return None


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
