"""Brute-force Hom and degree-1 extension oracle for the level-1 groups.

Extensions are computed through 1-cocycles C: G -> Hom(M, N) with
C(gh) = rho_N(g) C(h) + C(g) rho_M(h).  Two independent solvers:

  * BFS-reduced: unknowns are the generator values only; every non-tree
    edge of the right Cayley graph contributes a consistency equation.
  * unreduced: one unknown matrix per group element and the full
    |G|^2 set of law equations, no reduction.

The coboundary map phi -> rho_N(s) phi - phi rho_M(s) on the generators is
built once (``_coboundary_map``): the Hom space is its kernel and the
coboundaries B1 are the span of its columns, whose dimension gives the
extension dimension as a quotient.  Maschke cases (|G| invertible in the
field) are the built-in zero controls.

Both solvers eliminate in the reps' own field; nothing here maps one
field into another.  Every coboundary is a cocycle, so B1 lies in Z1 and
the rank of either system's rows is at most its unknowns - dim B1.  Both
stop eliminating when the rank reaches that bound
(``linalg._insert_until``): the rows left are dependent and Ext1 = 0.
The rank of a set of rows does not depend on their order, so the order
only decides how many rows are read before the stop: the unreduced rows
start at the last element g of ``group.elements``, which reaches the
bound after about 7% of them at q = 3, against 23-24% from the first.
Each takes dim B1 in its own frame and checks it against the Hom space
first: the BFS solver as the rank of the coboundary map's columns, the
unreduced one as the rank of the coboundaries of the matrix units.  A
Hom space short of a vector raises instead of shifting the answer.  The
BFS tree is walked once, in ``GroupTable``; the reps expand along
``group.tree`` and the BFS solver streams its rows in ``group.cross``
order, building a tree form C(g) from its parent's the first time a row
reads it.  When the bound is not reached, Z1 is read off the same
echelon form.

Everything here is raw: a FiniteRep is given raw generator matrices (the
induced and Steinberg ones are read off the raw module action), and the
builders multiply and accumulate raw reps through the field's raw ops and
``linalg._acc``, and hand raw rows to ``linalg.nullspace`` and
``SparseSpan.insert``.  The torus-cochain normalization reads and
returns raw reps as well.
"""

from __future__ import annotations

from typing import NamedTuple

from . import grp
from .charmod import TorusCharacter
from .coeff import CoeffField
from .indmod import HIGHEST, InducedModule
from .linalg import SparseSpan, _acc, _insert_until, nullspace
from .tower import Tower


# -- small dense matrices of raw reps -----------------------------------------


def mat_mul(field, A, B):
    mul, add, zero = field._mul, field._add, field.zero
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for r in range(n):
        row = []
        for c in range(m):
            s = zero
            for j in range(k):
                s = add(s, mul(A[r][j], B[j][c]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_identity(field, n):
    one, zero = field.one, field.zero
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


class GroupTable:
    """The enumerated level-1 group with its generator set, its
    multiplication table, and its BFS tree and cross edges in BFS order."""

    def __init__(self, tower: Tower):
        self.tower = tower
        self.elements = grp.enumerate_subgroup(tower, "G", 1)
        self.index = {g.key(): i for i, g in enumerate(self.elements)}
        # product[gi][hi] is the index of elements[gi] * elements[hi]
        self.product = [[self.index[(g * h).key()] for h in self.elements] for g in self.elements]
        self.gens = grp.generators(tower, 1)
        gen_index = [self.index[s.key()] for s in self.gens]
        self.identity_index = self.index[grp.identity(tower).key()]
        # BFS over right multiplication by the generators; `order` grows as it is read
        order = [self.identity_index]
        self.tree = {}   # child index -> (parent index, generator position)
        self.cross = []  # (parent index, generator position, child index)
        for gi in order:
            for k, si in enumerate(gen_index):
                ci = self.product[gi][si]
                if ci == self.identity_index or ci in self.tree:
                    self.cross.append((gi, k, ci))
                else:
                    self.tree[ci] = (gi, k)
                    order.append(ci)
        if len(order) != len(self.elements):
            raise RuntimeError("generators do not generate the enumerated group")

    def __len__(self):
        return len(self.elements)


class FiniteRep:
    """Exact matrices for every element, expanded from the raw generator
    matrices along the BFS tree with every cross edge verified."""

    def __init__(self, group: GroupTable, field: CoeffField, generator_matrices: list, name: str):
        self.group = group
        self.field = field
        self.dim = len(generator_matrices[0])
        self.name = name
        mats = [None] * len(group)
        mats[group.identity_index] = mat_identity(field, self.dim)
        for ci, (pi, k) in group.tree.items():
            mats[ci] = mat_mul(field, mats[pi], generator_matrices[k])
        for pi, k, ci in group.cross:
            if mat_mul(field, mats[pi], generator_matrices[k]) != mats[ci]:
                raise ValueError(f"relation check failed for representation {name!r}")
        self._mats = mats
        self._gen_mats = [mats[group.index[s.key()]] for s in group.gens]

    @classmethod
    def trivial(cls, group: GroupTable, field: CoeffField) -> "FiniteRep":
        one = ((field.one,),)
        return cls(group, field, [one for _ in group.gens], "trivial")

    @classmethod
    def from_induced(cls, group: GroupTable, module: InducedModule) -> "FiniteRep":
        if module.level != 1:
            raise ValueError("module level does not match the group level")
        labels = module.labels()
        return cls._on_basis(group, module, [module.basis_vector(l) for l in labels],
                             {l: j for j, l in enumerate(labels)}, lambda v: v.support,
                             f"induced[{module.theta.exp}]")

    @classmethod
    def steinberg(cls, group: GroupTable, module_tr: InducedModule) -> "FiniteRep":
        """The span of the shifted alternating generators inside the
        trivial-character module, in that basis, ordered as
        ``steinberg_vectors`` lists it."""
        vecs = module_tr.steinberg_vectors()
        # vector j is u(x).(1 - s).1, the basis vector at x
        col = {x: j for j, v in enumerate(vecs) for x in v.support if x != HIGHEST}
        return cls._on_basis(group, module_tr, vecs, col, module_tr.steinberg_coordinates, "steinberg")

    @classmethod
    def _on_basis(cls, group: GroupTable, module: InducedModule, vecs: list, col: dict,
                  coordinates, name: str) -> "FiniteRep":
        """The rep on the span of `vecs`: each generator's matrix has in
        column j the coordinates of its image of vecs[j], read off as
        key -> raw rep and placed at row col[key]."""
        zero = module.field.zero
        mats = []
        for s in group.gens:
            m = [[zero] * len(vecs) for _ in vecs]
            act_s = module.action(s)
            for j, v in enumerate(vecs):
                for x, c in coordinates(act_s(v)).items():
                    m[col[x]][j] = c
            mats.append(tuple(tuple(r) for r in m))
        return cls(group, module.field, mats, name)


# -- Hom spaces and coboundaries ---------------------------------------------


def _coboundary_map(M: FiniteRep, N: FiniteRep) -> dict:
    """phi -> rho_N(s_k) phi - phi rho_M(s_k) as its rows: (k, r, c) -> the
    raw row over the entries (r0, c0) of phi; zero rows are left out."""
    field = M.field
    add, sub, zero = field._add, field._sub, field.zero
    rows = {}
    for k in range(len(M.group.gens)):
        A, B = N._gen_mats[k], M._gen_mats[k]
        for r in range(N.dim):
            for c in range(M.dim):
                row = {}
                for j in range(N.dim):
                    _acc(row, (j, c), A[r][j], add, zero)
                for j in range(M.dim):
                    _acc(row, (r, j), sub(zero, B[j][c]), add, zero)
                if row:
                    rows[(k, r, c)] = row
    return rows


def _kernel(delta: dict, M: FiniteRep, N: FiniteRep) -> list:
    variables = [(r, c) for r in range(N.dim) for c in range(M.dim)]
    return nullspace(list(delta.values()), variables, M.field)


def hom_space(M: FiniteRep, N: FiniteRep):
    """Basis of intertwiners N(g) X = X M(g), as raw dicts over the entries
    (r, c) of X: the kernel of the coboundary map on the generators."""
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    return _kernel(_coboundary_map(M, N), M, N)


def mackey_hom_dim(lam: TorusCharacter, mu: TorusCharacter, level: int) -> int:
    """Independent count of intertwiners between two induced modules at a
    level: one per Weyl chamber element whose twist of lam is mu on the
    level torus, by direct value comparison.  Characters of the cyclic
    torus agree when they agree at its generator g, so lam(g^{+-1}) is
    compared with mu(g)."""
    tw = lam.tower
    g = tw.generator(level)
    return sum(lam.eval(h) == mu.eval(g) for h in (g, tw._inv(g)))


# -- cocycles -----------------------------------------------------------------


def _edge_forms(field, A, k, E, B):
    """C(g s_k) = rho_N(g) C_k + C(g) rho_M(s_k) as a matrix of linear forms
    in the generator unknowns, both terms accumulated into one dict per
    entry: A is rho_N(g), E the forms of C(g) and B is rho_M(s_k), all raw
    reps.  The unknown C_k[r][c] is the int key (k dN + r) dM + c, its
    position in the (k, r, c) order."""
    mul, add, zero = field._mul, field._add, field.zero
    dN, dM = len(A), len(B)
    out = []
    for A_r, E_r in zip(A, E):
        row = []
        for c in range(dM):
            acc = {}
            for j, a in enumerate(A_r):
                _acc(acc, (k * dN + j) * dM + c, a, add, zero)
            for j, forms in enumerate(E_r):
                b = B[j][c]
                if b != zero:
                    for var, coeff in forms.items():
                        _acc(acc, var, mul(coeff, b), add, zero)
            row.append(acc)
        out.append(row)
    return out


def _cross_rows(M: FiniteRep, N: FiniteRep):
    """The rows of the BFS system: C(g s_k) - C(h) = 0 entry by entry, for
    each cross edge g s_k = h in ``group.cross`` order.  A tree form C(g)
    is built from its tree parent's the first time a row reads it."""
    field, group = M.field, M.group
    add, sub, zero = field._add, field._sub, field.zero
    exprs = {group.identity_index: [[{} for _ in range(M.dim)] for _ in range(N.dim)]}

    def forms(gi):
        if gi not in exprs:
            pi, k = group.tree[gi]
            exprs[gi] = _edge_forms(field, N._mats[pi], k, forms(pi), M._gen_mats[k])
        return exprs[gi]

    for pi, k, ci in group.cross:
        out = _edge_forms(field, N._mats[pi], k, forms(pi), M._gen_mats[k])
        for form_r, known_r in zip(out, forms(ci)):
            for row, known in zip(form_r, known_r):
                for var, coeff in known.items():
                    _acc(row, var, sub(zero, coeff), add, zero)
                if row:
                    yield row


def ext1_bfs(M: FiniteRep, N: FiniteRep):
    """(dimension, transversal cocycles) of Z1/B1 with generator unknowns;
    the cocycles are raw dicts over the (k, r, c) variables.

    B1 is spanned first and checked against the Hom space.  As B1 lies in
    Z1, the rank of the cross-edge rows is at most unknowns - dim B1, and
    their elimination stops when it gets there: Ext1 = 0.  Otherwise every
    row is eliminated and Z1 is read off the same echelon form."""
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    field = M.field
    ngen = len(M.group.gens)
    variables = [(k, r, c) for k in range(ngen) for r in range(N.dim) for c in range(M.dim)]
    delta = _coboundary_map(M, N)
    columns = {}
    for key, row in delta.items():
        for entry, v in row.items():
            columns.setdefault(entry, {})[key] = v
    span = SparseSpan(field)  # B1, then extended to Z1 in place
    for entry in sorted(columns):
        span.insert(columns[entry])
    if span.dim != N.dim * M.dim - len(_kernel(delta, M, N)):
        raise RuntimeError("coboundary rank is inconsistent with the Hom space")
    most = len(variables) - span.dim
    law = SparseSpan(field)
    if _insert_until(law, _cross_rows(M, N), most) == most:
        return 0, []
    transversal = [z for z in law.kernel(variables) if span.insert(z)]
    return len(transversal), transversal


def _unreduced_rows(group: GroupTable, field, mats_M: list, mats_N: list):
    """The rows of the unreduced system: C(gh) = rho_N(g) C(h) + C(g) rho_M(h)
    entry by entry, for g, h != 1, over raw reps of `field`.  The unknown
    C(g)[r][c] is the int key (g dN + r) dM + c, which orders the unknowns
    as the tuples (g, r, c) would.

    g runs from the last element of ``group.elements`` down to the first.
    A rank does not depend on the order of the rows, so neither does
    ``ext1_unreduced``'s answer; this order reaches the rank bound after
    fewer of them."""
    add, zero = field._add, field.zero
    minus_one = field._sub(zero, field.one)
    e = group.identity_index
    dN, dM = len(mats_N[0]), len(mats_M[0])
    # one key per unknown, shared by every row that mentions it
    var = [[[(gi * dN + r) * dM + c for c in range(dM)] for r in range(dN)]
           for gi in range(len(group))]
    for gi in reversed(range(len(group))):
        if gi == e:
            continue
        for hi, ki in enumerate(group.product[gi]):
            if hi == e:
                continue
            A, B = mats_N[gi], mats_M[hi]
            for r in range(dN):
                for c in range(dM):
                    row = {}
                    if ki != e:
                        _acc(row, var[ki][r][c], minus_one, add, zero)
                    for j in range(dN):
                        _acc(row, var[hi][j][c], A[r][j], add, zero)
                    for j in range(dM):
                        _acc(row, var[gi][r][j], B[j][c], add, zero)
                    if row:
                        yield row


def _rank(rows, field, most: int) -> int:
    """The rank of the rows, or `most` as soon as they reach it: `most`
    is a bound the rank cannot pass, so every row left is dependent."""
    return _insert_until(SparseSpan(field), rows, most)


def _coboundary_rank(M: FiniteRep, N: FiniteRep) -> int:
    """dim B1 in the unreduced frame: the rank of the coboundaries
    g -> rho_N(g) E - E rho_M(g) of the dN dM matrix units E, over every
    g != 1, keyed as ``_unreduced_rows`` keys the unknowns."""
    field, group = M.field, M.group
    add, sub, zero = field._add, field._sub, field.zero
    dN, dM = N.dim, M.dim
    span = SparseSpan(field)
    for r0 in range(dN):
        for c0 in range(dM):
            vec = {}
            for gi in range(len(group)):
                if gi == group.identity_index:
                    continue
                A, B = N._mats[gi], M._mats[gi]
                # (A E)[r][c] = A[r][r0] at c = c0; (E B)[r][c] = B[c0][c] at r = r0
                for r in range(dN):
                    _acc(vec, (gi * dN + r) * dM + c0, A[r][r0], add, zero)
                for c in range(dM):
                    _acc(vec, (gi * dN + r0) * dM + c, sub(zero, B[c0][c]), add, zero)
            span.insert(vec)
    return span.dim


def ext1_unreduced(M: FiniteRep, N: FiniteRep) -> int:
    """Extension dimension from the unreduced |G|^2 cocycle system: the
    nullity of its rows, dim Z1, less dim B1 = dN dM - dim Hom(M, N).

    dim B1 is the rank of the coboundaries of the matrix units in the
    system's own unknowns; a RuntimeError is raised when it differs from
    dN dM - dim Hom(M, N).  As B1 lies in Z1, the rank of the rows is at
    most unknowns - dim B1, and the elimination stops when it gets there:
    the nullity is then dim B1 and the extension dimension 0.
    """
    if M.field != N.field:
        raise ValueError("coefficient mode mismatch between representations")
    field, group = M.field, M.group
    bdim = _coboundary_rank(M, N)
    if bdim != N.dim * M.dim - len(hom_space(M, N)):
        raise RuntimeError("coboundary rank is inconsistent with the Hom space")
    most = (len(group) - 1) * N.dim * M.dim - bdim  # unknowns - dim B1
    return most - _rank(_unreduced_rows(group, field, M._mats, N._mats), field, most)


# -- torus cochain normalization ----------------------------------------------


class NormalizeOutcome(NamedTuple):
    status: str  # "normal" | "corrected" | "obstruction"
    correction: object  # the constant a, a raw rep; None unless corrected
    note: str = ""


def normalize_torus_cochain(theta: TorusCharacter, level: int, phi: dict) -> NormalizeOutcome:
    """Normalize a twisted torus cochain phi: values on the level torus,
    satisfying phi(xy) = theta(y) phi(x) + phi(y).

    The law is tested at y = g, the generator of the cyclic level torus,
    for every x: that is the whole law, as x = 1 gives phi(1) = 0 and
    induction on k gives it at y = g^k.  For a character nontrivial on the
    level torus, phi is a(theta(x) - 1) for one constant a, recovered at g
    and verified on the whole torus.  For the trivial character, an
    additive phi must vanish unless the coefficient characteristic divides
    the torus order, which is reported as an obstruction.
    """
    tw = theta.tower
    field = theta.field
    add, sub, mul = field._add, field._sub, field._mul
    torus_vals = tw.units(level)
    for t in torus_vals:
        if t not in phi:
            raise ValueError("cochain must be defined on the whole level torus")
    g = tw.generator(level)
    theta_g, phi_g = theta.eval(g), phi[g]
    for x in torus_vals:
        if phi[tw._mul(x, g)] != add(mul(theta_g, phi[x]), phi_g):
            raise ValueError(f"not a cochain: twisted additivity fails at ({x}, {g})")
    if all(phi[t] == field.zero for t in torus_vals):
        return NormalizeOutcome("normal", None)
    one = field.one
    if not theta.is_trivial_on_level(level):
        a = mul(phi_g, field._inv(sub(theta_g, one)))
        for t in torus_vals:
            if phi[t] != mul(a, sub(theta.eval(t), one)):
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
