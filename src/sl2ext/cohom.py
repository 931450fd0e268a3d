"""Brute-force Hom and degree-1 extension oracle for the level-1 groups.

Extensions are computed through 1-cocycles C: G -> Hom(M, N) with
C(gh) = rho_N(g) C(h) + C(g) rho_M(h).  Two independent solvers:

  * BFS-reduced: unknowns are the generator values only; every non-tree
    edge of the right Cayley graph contributes a consistency equation.
  * unreduced: one unknown matrix per group element and the full
    |G|^2 set of law equations, no reduction.

The quotient by coboundaries rho_N(g) phi - phi rho_M(g) gives the
extension dimension.  Maschke cases (|G| invertible in the field) are
the built-in zero controls.

The equation systems are built on raw field reps: a FiniteRep unwraps its
matrices once, after checking that every entry belongs to its field, and
the builders multiply and accumulate reps through the field's raw ops
(``_acc`` is the one accumulator).  Each finished row is wrapped once, as
it is appended, with one Scalar per distinct rep within a system, and
handed to the public ``nullspace``/``solve_affine``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import grp
from .charmod import TorusCharacter
from .coeff import CoeffField, Scalar
from .indmod import HIGHEST, InducedModule
from .linalg import SparseSpan, nullspace, solve_affine
from .tower import Tower


# -- small dense matrices over a coefficient field ---------------------------


def mat_mul(field, A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for r in range(n):
        row = []
        for c in range(m):
            s = field.zero
            for j in range(k):
                s = s + A[r][j] * B[j][c]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_sub(A, B):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_identity(field, n):
    return tuple(
        tuple(field.one if r == c else field.zero for c in range(n)) for r in range(n)
    )


def mat_zero(field, n, m):
    return tuple(tuple(field.zero for _ in range(m)) for _ in range(n))


# -- raw reps -----------------------------------------------------------------


def _raw_matrix(field, A):
    """The raw reps of a Scalar matrix; an entry from another field raises."""
    for row in A:
        for v in row:
            f = v.field
            if f is not field and f != field:
                raise ValueError(f"coefficient mode mismatch: {field} vs {f}")
    return tuple(tuple(v.rep for v in row) for row in A)


def _acc(dst: dict, var, rep, add, zero):
    """dst[var] += rep on raw reps; a zero rep or a sum that cancels leaves
    no entry."""
    if rep != zero:
        prev = dst.get(var)
        if prev is None:
            dst[var] = rep
        else:
            s = add(prev, rep)
            if s != zero:
                dst[var] = s
            else:
                del dst[var]


def _row_wrapper(field):
    """Wraps raw rows as Scalar rows, sharing one Scalar per distinct rep."""
    shared = {}

    def wrap(raw: dict) -> dict:
        out = {}
        for k, r in raw.items():
            sc = shared.get(r)
            if sc is None:
                sc = shared[r] = Scalar(field, r)
            out[k] = sc
        return out

    return wrap


class GroupTable:
    """An enumerated level group with its generator set and a BFS order."""

    def __init__(self, tower: Tower, level: int = 1, budget: int = 100000):
        self.tower = tower
        self.level = level
        self.elements = grp.enumerate_subgroup(tower, "G", level, budget=budget)
        self.index = {g.key(): i for i, g in enumerate(self.elements)}
        self.gens = grp.generators(tower, level)
        self.identity_index = self.index[grp.identity(tower).key()]
        # BFS over right multiplication by the generators
        order = [self.identity_index]
        seen = {self.identity_index}
        tree = {}   # child index -> (parent index, generator position)
        cross = []  # (parent index, generator position, child index)
        pos = 0
        while pos < len(order):
            gi = order[pos]
            pos += 1
            g = self.elements[gi]
            for k, s in enumerate(self.gens):
                ci = self.index[(g * s).key()]
                if ci in seen:
                    cross.append((gi, k, ci))
                else:
                    seen.add(ci)
                    tree[ci] = (gi, k)
                    order.append(ci)
        if len(order) != len(self.elements):
            raise RuntimeError("generators do not generate the enumerated group")
        self.bfs_order = order
        self.tree = tree
        self.cross = cross

    def __len__(self):
        return len(self.elements)


class FiniteRep:
    """Exact matrices for every element, expanded from the generators along
    the BFS tree with every cross edge verified."""

    def __init__(self, group: GroupTable, field: CoeffField, gen_mats: list, name: str):
        self.group = group
        self.field = field
        self.dim = len(gen_mats[0])
        self.name = name
        mats = [None] * len(group)
        mats[group.identity_index] = mat_identity(field, self.dim)
        for ci in group.bfs_order[1:]:
            pi, k = group.tree[ci]
            mats[ci] = mat_mul(field, mats[pi], gen_mats[k])
        for pi, k, ci in group.cross:
            if mat_mul(field, mats[pi], gen_mats[k]) != mats[ci]:
                raise ValueError(f"relation check failed for representation {name!r}")
        self.mats = mats
        self.gen_mats = [mats[group.index[s.key()]] for s in group.gens]
        # raw views for the system builders
        self._mats = [_raw_matrix(field, m) for m in mats]
        self._gen_mats = [self._mats[group.index[s.key()]] for s in group.gens]

    @classmethod
    def trivial(cls, group: GroupTable, field: CoeffField) -> "FiniteRep":
        one = ((field.one,),)
        return cls(group, field, [one for _ in group.gens], "trivial")

    @classmethod
    def from_induced(cls, group: GroupTable, module: InducedModule) -> "FiniteRep":
        if module.level != group.level:
            raise ValueError("module level does not match the group level")
        labels = module.labels()
        col = {l: j for j, l in enumerate(labels)}
        field = module.field
        mats = []
        for s in group.gens:
            m = [[field.zero] * len(labels) for _ in labels]
            for l in labels:
                l2, c = module.act_label(s, l)
                m[col[l2]][col[l]] = c
            mats.append(tuple(tuple(r) for r in m))
        return cls(group, field, mats, f"induced[{module.theta.exp}]")

    @classmethod
    def steinberg(cls, group: GroupTable, module_tr: InducedModule) -> "FiniteRep":
        """The span of the shifted alternating generators inside the
        trivial-character module, in that basis."""
        vecs = module_tr.steinberg_vectors()
        xs = [x.val for x in module_tr.tower.enumerate_level(module_tr.level)]
        col = {x: j for j, x in enumerate(xs)}
        field = module_tr.field
        mats = []
        for s in group.gens:
            m = [[field.zero] * len(xs) for _ in xs]
            for j, v in enumerate(vecs):
                w = module_tr.act(s, v)
                # coordinates: coefficient of cell(x) is minus the coordinate
                total = field.zero
                for label, c in w.support.items():
                    if label == HIGHEST:
                        continue
                    m[col[label]][j] = -c
                    total = total - c
                if w.coeff(HIGHEST) != total:
                    raise ValueError("the alternating span is not stable")
            mats.append(tuple(tuple(r) for r in m))
        return cls(group, field, mats, "steinberg")


# -- Hom spaces ---------------------------------------------------------------


def hom_space(M: FiniteRep, N: FiniteRep):
    """Basis of intertwiners N(g) X = X M(g); solved on the generators."""
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    field = M.field
    add, sub, zero = field._add, field._sub, field.zero.rep
    wrap = _row_wrapper(field)
    variables = [(r, c) for r in range(N.dim) for c in range(M.dim)]
    rows = []
    for k in range(len(M.group.gens)):
        A, B = N._gen_mats[k], M._gen_mats[k]
        for r in range(N.dim):
            for c in range(M.dim):
                row = {}
                for j in range(N.dim):
                    v = A[r][j]
                    if v != zero:
                        row[(j, c)] = add(row.get((j, c), zero), v)
                for j in range(M.dim):
                    v = B[j][c]
                    if v != zero:
                        row[(r, j)] = sub(row.get((r, j), zero), v)
                row = {k2: v for k2, v in row.items() if v != zero}
                if row:
                    rows.append(wrap(row))
    return nullspace(rows, variables, field)


def mackey_hom_dim(lam: TorusCharacter, mu: TorusCharacter, level: int) -> int:
    """Independent count of intertwiners between two induced modules at a
    level: one per Weyl chamber element whose twist matches on the whole
    level torus, by direct value comparison."""
    tw = lam.tower
    count = 0
    for twisted in (False, True):
        ok = True
        for t in tw.enumerate_level(level):
            if t.val == 0:
                continue
            lv = lam.eval(t.inverse()) if twisted else lam.eval(t)
            if lv != mu.eval(t):
                ok = False
                break
        if ok:
            count += 1
    return count


# -- cocycles -----------------------------------------------------------------


def _expr_left(field, A, k, dM):
    """rho_N(g) * C_k as a matrix of linear forms in the (k, *, *) vars;
    A and the forms hold raw reps."""
    add, zero = field._add, field.zero.rep
    n = len(A)
    out = [[{} for _ in range(dM)] for _ in range(n)]
    for r in range(n):
        for c in range(dM):
            for j in range(n):
                _acc(out[r][c], (k, j, c), A[r][j], add, zero)
    return out


def _expr_right(field, E, B):
    """E * rho_M(s) for a matrix E of linear forms (raw reps)."""
    mul, add, zero = field._mul, field._add, field.zero.rep
    n, dM = len(E), len(B)
    out = [[{} for _ in range(dM)] for _ in range(n)]
    for r in range(n):
        for c in range(dM):
            acc = out[r][c]
            for j in range(dM):
                b = B[j][c]
                if b != zero:
                    for var, coeff in E[r][j].items():
                        _acc(acc, var, mul(coeff, b), add, zero)
    return out


def _expr_add(field, E, F):
    add, zero = field._add, field.zero.rep
    out = []
    for re_, rf in zip(E, F):
        row = []
        for a, b in zip(re_, rf):
            d = dict(a)
            for var, coeff in b.items():
                _acc(d, var, coeff, add, zero)
            row.append(d)
        out.append(row)
    return out


def coboundary_vector(M: FiniteRep, N: FiniteRep, r0: int, c0: int) -> dict:
    """The coboundary of the elementary map E_{r0 c0}, restricted to the
    generators, as a vector over the (k, r, c) variables."""
    field = M.field
    add, sub, zero = field._add, field._sub, field.zero.rep
    out = {}
    for k in range(len(M.group.gens)):
        A, B = N._gen_mats[k], M._gen_mats[k]
        for r in range(N.dim):
            _acc(out, (k, r, c0), A[r][r0], add, zero)
        for c in range(M.dim):
            _acc(out, (k, r0, c), sub(zero, B[c0][c]), add, zero)
    return _row_wrapper(field)(out)


def _coboundary_span(M: FiniteRep, N: FiniteRep) -> SparseSpan:
    span = SparseSpan(M.field)
    for r0 in range(N.dim):
        for c0 in range(M.dim):
            span.insert(coboundary_vector(M, N, r0, c0))
    return span


def ext1_bfs(M: FiniteRep, N: FiniteRep):
    """(dimension, transversal cocycles) of Z1/B1 with generator unknowns."""
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    field = M.field
    add, sub, zero = field._add, field._sub, field.zero.rep
    wrap = _row_wrapper(field)
    group = M.group
    ngen = len(group.gens)
    variables = [(k, r, c) for k in range(ngen) for r in range(N.dim) for c in range(M.dim)]
    zero_expr = [[{} for _ in range(M.dim)] for _ in range(N.dim)]
    exprs = [None] * len(group)
    exprs[group.identity_index] = zero_expr
    rows = []
    for ci in group.bfs_order[1:]:
        pi, k = group.tree[ci]
        left = _expr_left(field, N._mats[pi], k, M.dim)
        right = _expr_right(field, exprs[pi], M._gen_mats[k])
        exprs[ci] = _expr_add(field, left, right)
    for pi, k, ci in group.cross:
        left = _expr_left(field, N._mats[pi], k, M.dim)
        right = _expr_right(field, exprs[pi], M._gen_mats[k])
        combined = _expr_add(field, left, right)
        for r in range(N.dim):
            for c in range(M.dim):
                row = dict(combined[r][c])
                for var, coeff in exprs[ci][r][c].items():
                    _acc(row, var, sub(zero, coeff), add, zero)
                if row:
                    rows.append(wrap(row))
    zbasis = nullspace(rows, variables, field)
    bspan = _coboundary_span(M, N)
    hom_dim = len(hom_space(M, N))
    if bspan.dim != N.dim * M.dim - hom_dim:
        raise RuntimeError("coboundary rank is inconsistent with the Hom space")
    transversal = []
    span = SparseSpan(field)
    for row in bspan.basis():
        span.insert(row)
    for z in zbasis:
        if span.insert(z):
            transversal.append(z)
    return len(transversal), transversal


def ext1_unreduced(M: FiniteRep, N: FiniteRep) -> int:
    """Extension dimension from the unreduced |G|^2 cocycle system."""
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    field = M.field
    add, zero = field._add, field.zero.rep
    minus_one = field._sub(zero, field.one.rep)
    wrap = _row_wrapper(field)
    group = M.group
    e = group.identity_index
    # one key tuple per unknown, shared by every row that mentions it: these
    # rows are the largest live data of the check
    var = [[[(gi, r, c) for c in range(M.dim)] for r in range(N.dim)] for gi in range(len(group))]
    variables = [v for gi, vg in enumerate(var) if gi != e for vr in vg for v in vr]
    rows = []
    for gi, g in enumerate(group.elements):
        if gi == e:
            continue
        for hi, h in enumerate(group.elements):
            if hi == e:
                continue
            ki = group.index[(g * h).key()]
            A, B = N._mats[gi], M._mats[hi]
            for r in range(N.dim):
                for c in range(M.dim):
                    row = {}
                    if ki != e:
                        _acc(row, var[ki][r][c], minus_one, add, zero)
                    for j in range(N.dim):
                        _acc(row, var[hi][j][c], A[r][j], add, zero)
                    for j in range(M.dim):
                        _acc(row, var[gi][r][j], B[j][c], add, zero)
                    if row:
                        rows.append(wrap(row))
    zbasis = nullspace(rows, variables, field)
    bdim = N.dim * M.dim - len(hom_space(M, N))
    return len(zbasis) - bdim


def is_cocycle(M: FiniteRep, N: FiniteRep, gen_values: list) -> bool:
    """Propagate generator values along the BFS tree and verify every
    cross edge of the cocycle law."""
    field = M.field
    group = M.group
    vals = [None] * len(group)
    vals[group.identity_index] = mat_zero(field, N.dim, M.dim)

    def step(pi, k):
        left = mat_mul(field, N.mats[pi], gen_values[k])
        right = mat_mul(field, vals[pi], M.gen_mats[k])
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(left, right))

    for ci in group.bfs_order[1:]:
        pi, k = group.tree[ci]
        vals[ci] = step(pi, k)
    for pi, k, ci in group.cross:
        if step(pi, k) != vals[ci]:
            return False
    return True


def find_splitting(M: FiniteRep, N: FiniteRep, gen_values: list):
    """A map phi with coboundary(phi) equal to the given cocycle, or None.

    When found, the graph of phi is a complement subrepresentation in the
    extension the cocycle describes; the coboundary identity is re-checked
    on every generator before returning.
    """
    if not is_cocycle(M, N, gen_values):
        raise ValueError("the generator values do not satisfy the cocycle law")
    field = M.field
    add, sub, zero = field._add, field._sub, field.zero.rep
    wrap = _row_wrapper(field)
    variables = [(r, c) for r in range(N.dim) for c in range(M.dim)]
    rows, rhs = [], {}
    idx = 0
    for k in range(len(M.group.gens)):
        A, B = N._gen_mats[k], M._gen_mats[k]
        for r in range(N.dim):
            for c in range(M.dim):
                row = {}
                for j in range(N.dim):
                    _acc(row, (j, c), A[r][j], add, zero)
                for j in range(M.dim):
                    _acc(row, (r, j), sub(zero, B[j][c]), add, zero)
                rows.append(wrap(row))
                rhs[idx] = gen_values[k][r][c]
                idx += 1
    sol = solve_affine(rows, rhs, variables, field)
    if sol is None:
        return None
    phi = tuple(
        tuple(sol.get((r, c), field.zero) for c in range(M.dim)) for r in range(N.dim)
    )
    for k in range(len(M.group.gens)):
        A, B = N.gen_mats[k], M.gen_mats[k]
        if mat_sub(mat_mul(field, A, phi), mat_mul(field, phi, B)) != gen_values[k]:
            raise RuntimeError("reconstructed splitting fails the coboundary identity")
    return phi


def coboundary_of(M: FiniteRep, N: FiniteRep, phi) -> list:
    field = M.field
    out = []
    for k in range(len(M.group.gens)):
        A, B = N.gen_mats[k], M.gen_mats[k]
        out.append(mat_sub(mat_mul(field, A, phi), mat_mul(field, phi, B)))
    return out


# -- torus cochain normalization ----------------------------------------------


@dataclass
class NormalizeOutcome:
    status: str  # "normal" | "corrected" | "obstruction"
    correction: Scalar | None
    note: str = ""


def normalize_torus_cochain(theta: TorusCharacter, level: int, phi: dict) -> NormalizeOutcome:
    """Normalize a twisted torus cochain phi: values on the level torus,
    satisfying phi(xy) = theta(y) phi(x) + phi(y).

    For a character nontrivial on the level torus, phi is a(theta(x) - 1)
    for one constant a, recovered and verified on the whole torus.  For
    the trivial character, an additive phi must vanish unless the
    coefficient characteristic divides the torus order, which is reported
    as an obstruction.
    """
    tw = theta.tower
    field = theta.field
    torus_vals = [t for t in tw.enumerate_level(level) if t.val != 0]
    for t in torus_vals:
        if t.val not in phi:
            raise ValueError("cochain must be defined on the whole level torus")
    for x in torus_vals:
        for y in torus_vals:
            if phi[(x * y).val] != theta.eval(y) * phi[x.val] + phi[y.val]:
                raise ValueError(
                    f"not a cochain: twisted additivity fails at ({x.val}, {y.val})"
                )
    if all(not phi[t.val] for t in torus_vals):
        return NormalizeOutcome("normal", None)
    one = field.one
    if not theta.is_trivial_on_level(level):
        x0 = next(t for t in torus_vals if theta.eval(t) != one)
        a = phi[x0.val] / (theta.eval(x0) - one)
        for t in torus_vals:
            if phi[t.val] != a * (theta.eval(t) - one):
                raise ValueError("cochain is not of the normal shape despite the law")
        return NormalizeOutcome("corrected", a)
    n = len(torus_vals)
    char = field.characteristic()
    if char == 0 or n % char:
        raise ValueError("nonzero additive cochain on a torus of invertible order")
    return NormalizeOutcome(
        "obstruction",
        None,
        f"nonzero additive character: characteristic {char} divides the torus order {n}",
    )


def order_condition_forces_zero(m: int, characteristic: int) -> bool:
    """Whether m * x = 0 forces x = 0: always in characteristic zero, and
    exactly when the characteristic does not divide m otherwise.  The
    relevant orders of reflection products are m in {2, 3, 4, 6}."""
    if characteristic == 0:
        return True
    return m % characteristic != 0
