"""Induced modules with Bruhat-cell bases and exact group actions.

M_i(theta) has basis: the highest line (label -1) and one vector u(x)s.1
per level-i element x (label = the encoding of x).  Every group element
acts monomially on this basis; the rules below are the generator actions,
and a matrix-coset oracle (multiply out, refactor, read off) provides an
independent route for the same computation.

Generator rules, theta the inducing character:
    h(t).1        = theta(t) . 1
    u(a).1        = 1
    s.1           = cell(0)
    h(t).cell(x)  = theta(t)^-1 . cell(t^2 x)
    u(a).cell(x)  = cell(a + x)
    s.cell(0)     = theta(-1) . 1
    s.cell(x)     = theta(x) . cell(-1/x)        (x != 0)
"""

from __future__ import annotations

from . import grp
from .charmod import TorusCharacter
from .coeff import Scalar
from .grp import GroupElement, bruhat, weyl, unip, torus
from .linalg import SparseSpan, monomial_invariants, vec_add, vec_scale, nullspace
from .tower import Tower, TowerElem, BudgetError

HIGHEST = -1  # label of the highest line; cell labels are element encodings


def label_json(label: int):
    if label == HIGHEST:
        return {"cell": 0}
    return {"cell": 1, "x": label}


class Vec:
    """A finitely supported combination of basis labels, canonical form."""

    __slots__ = ("module", "support")

    def __init__(self, module: "InducedModule", support: dict):
        self.module = module
        self.support = {k: v for k, v in support.items() if v}

    @classmethod
    def _clean(cls, module: "InducedModule", support: dict) -> "Vec":
        """A Vec on a support that holds no zero value; skips the filter."""
        v = cls.__new__(cls)
        v.module = module
        v.support = support
        return v

    def __add__(self, other: "Vec") -> "Vec":
        self._same(other)
        return Vec._clean(self.module, vec_add(self.support, other.support))

    def __sub__(self, other: "Vec") -> "Vec":
        self._same(other)
        return self + (-other)

    def __neg__(self) -> "Vec":
        return Vec._clean(self.module, {k: -v for k, v in self.support.items()})

    def __rmul__(self, c: Scalar) -> "Vec":
        # a nonzero field element times nonzero values gives nonzero values;
        # an int is coerced into the field first and may vanish there
        if isinstance(c, Scalar):
            return Vec._clean(self.module, vec_scale(self.support, c))
        return Vec(self.module, vec_scale(self.support, c))

    def _same(self, other):
        if not isinstance(other, Vec) or other.module is not self.module:
            raise ValueError("vectors from different modules")

    def __bool__(self):
        return bool(self.support)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.module is other.module and self.support == other.support

    def coeff(self, label: int) -> Scalar:
        return self.support.get(label, self.module.field.zero)

    def to_json(self):
        return [[label_json(k), self.support[k].serialize()] for k in sorted(self.support)]

    def __repr__(self):
        if not self.support:
            return "0"
        bits = []
        for k in sorted(self.support):
            name = "hi" if k == HIGHEST else f"c({k})"
            bits.append(f"{self.support[k]}*{name}")
        return " + ".join(bits)


class InducedModule:
    """M_level(theta) over the given tower and coefficient field."""

    def __init__(self, tower: Tower, theta: TorusCharacter, level: int):
        if theta.tower is not tower:
            raise ValueError("character lives on a different tower")
        if not 1 <= level <= tower.imax:
            raise ValueError("level out of range")
        self.tower = tower
        self.field = theta.field
        self.theta = theta
        self.level = level
        self._theta_val = {}
        self._theta_inv = {}

    @property
    def dim(self) -> int:
        return self.tower.level_size(self.level) + 1

    def labels(self) -> list:
        return [HIGHEST] + [x.val for x in self.tower.enumerate_level(self.level)]

    def _th(self, val: int):
        """theta at a level element, as a raw field rep."""
        v = self._theta_val.get(val)
        if v is None:
            v = self.theta.eval(self.tower.element(val, self.level)).rep
            self._theta_val[val] = v
        return v

    def _th_inv(self, val: int):
        v = self._theta_inv.get(val)
        if v is None:
            v = self.theta.eval(self.tower.element(val, self.level).inverse()).rep
            self._theta_inv[val] = v
        return v

    def zero(self) -> Vec:
        return Vec(self, {})

    def vec(self, items) -> Vec:
        return Vec(self, dict(items))

    def basis_vector(self, label: int) -> Vec:
        return Vec(self, {label: self.field.one})

    def highest_vector(self) -> Vec:
        return self.basis_vector(HIGHEST)

    def cell_vector(self, x: TowerElem) -> Vec:
        return self.basis_vector(x.val)

    # -- action ------------------------------------------------------------

    def _act_label_atoms(self, atoms, label: int, scalar):
        """Apply the atoms to scalar . label; the scalar is a raw field rep."""
        tw = self.tower
        mul = self.field._mul
        for kind, arg in atoms:
            if kind == "u":
                if label != HIGHEST:
                    label = tw._add(arg, label)
            elif kind == "h":
                if label == HIGHEST:
                    scalar = mul(scalar, self._th(arg))
                else:
                    scalar = mul(scalar, self._th_inv(arg))
                    label = tw._mul(tw._mul(arg, arg), label)
            else:  # s
                if label == HIGHEST:
                    label = 0
                elif label == 0:
                    label = HIGHEST
                    scalar = mul(scalar, self._th((-tw.one).val))
                else:
                    scalar = mul(scalar, self._th(label))
                    label = tw._neg(tw._exp[(-tw._log[label]) % (tw.size - 1)])
        return label, scalar

    def _atoms(self, g: GroupElement):
        """g as a right-to-left list of generator actions."""
        form = bruhat(g)
        atoms = []
        if form.big_cell:
            atoms.append(("u", form.y.val))
            atoms.append(("s", None))
        atoms.append(("h", form.t.val))
        atoms.append(("u", form.x.val))
        return atoms

    def _act_label_scalar(self, atoms, label: int):
        l2, c = self._act_label_atoms(atoms, label, self.field.one.rep)
        return l2, Scalar(self.field, c)

    def act_label(self, g: GroupElement, label: int):
        return self._act_label_scalar(self._atoms(g), label)

    def act(self, g: GroupElement, v: Vec) -> Vec:
        if g.level > self.level:
            raise ValueError("group element lives above the module level")
        if v.module is not self:
            raise ValueError("vector from a different module")
        atoms = self._atoms(g)
        field = self.field
        add, zero = field._add, field.zero.rep
        out: dict = {}
        for label, c in v.support.items():
            f = c.field
            if f is not field and f != field:
                raise ValueError(f"coefficient mode mismatch: {field} vs {f}")
            l2, c2 = self._act_label_atoms(atoms, label, c.rep)
            w = out.get(l2)
            if w is None:
                out[l2] = c2
            else:
                w = add(w, c2)
                if w != zero:
                    out[l2] = w
                else:
                    del out[l2]
        return Vec._clean(self, {k: Scalar(field, r) for k, r in out.items()})

    def oracle_act_label(self, g: GroupElement, label: int):
        """Independent route: realize the basis vector as a coset
        representative, multiply matrices, refactor, and read the result
        from the Borel action alone."""
        tw = self.tower
        if label == HIGHEST:
            m = g
        else:
            m = g * (unip(tw.element(label, self.level)) * weyl(tw))
        form = bruhat(m)
        if not form.big_cell:
            return HIGHEST, Scalar(self.field, self._th(form.t.val))
        return form.x.val, Scalar(self.field, self._th_inv(form.t.val))

    # -- distinguished vectors ----------------------------------------------

    def alternating_vector(self, J: frozenset) -> Vec:
        """Sum over the parabolic Weyl subgroup with sign; J must sit inside
        the character's support set."""
        if not J <= self.theta.parabolic_support():
            raise ValueError("J is not contained in the character's support set")
        if not J:
            return self.highest_vector()
        return Vec(self, {HIGHEST: self.field.one, 0: -self.field.one})

    def steinberg_vectors(self) -> list:
        """u(x) . (1 - s).1 for x at this level; trivial character only."""
        if not self.theta.is_trivial():
            raise ValueError("the alternating generator needs the trivial character")
        one = self.field.one
        return [Vec(self, {HIGHEST: one, x.val: -one}) for x in self.tower.enumerate_level(self.level)]

    # -- subspaces -----------------------------------------------------------

    def span_closure(self, vecs) -> SparseSpan:
        """Close a set of vectors under the level's generators; echelon basis."""
        gens = grp.generators(self.tower, self.level)
        span = SparseSpan(self.field)
        queue = []
        for v in vecs:
            if span.insert(v.support):
                queue.append(v)
        while queue:
            v = queue.pop()
            for g in gens:
                w = self.act(g, v)
                if span.insert(w.support):
                    queue.append(w)
                    if span.dim > self.dim:
                        raise BudgetError("closure exceeded the dimension cap")
        return span

    def _subgroup_generators(self, which: str) -> list:
        tw = self.tower
        if which == "U":
            return grp.unipotent_generators(tw, self.level)
        if which == "T":
            return [torus(tw.generator(self.level))]
        if which == "G":
            return grp.generators(tw, self.level)
        raise ValueError(f"unknown subgroup {which!r}")

    def invariant_subspace(self, which: str) -> SparseSpan:
        """Joint fixed space of the subgroup, via its generators.

        Each generator acts monomially, so the stacked kernel of
        (action - identity) is computed combinatorially: weighted label
        components that close up consistently.
        """
        gens = self._subgroup_generators(which)
        labels = self.labels()
        maps = []
        for g in gens:
            atoms = self._atoms(g)
            maps.append(lambda l, a=atoms: self._act_label_scalar(a, l))
        span = SparseSpan(self.field)
        for comp in monomial_invariants(labels, maps, self.field):
            span.insert(comp)
        return span

    def invariant_subspace_dense(self, which: str) -> SparseSpan:
        """Same fixed space by a literal stacked kernel solve; cross-check."""
        gens = self._subgroup_generators(which)
        labels = self.labels()
        rows: dict = {}
        one = self.field.one
        for gi, g in enumerate(gens):
            for l in labels:
                l2, c = self.act_label(g, l)
                row = rows.setdefault((gi, l2), {})
                row[l] = row.get(l, self.field.zero) + c
            for l in labels:
                row = rows.setdefault((gi, l), {})
                row[l] = row.get(l, self.field.zero) - one
        sys_rows = [{k: v for k, v in r.items() if v} for r in rows.values()]
        span = SparseSpan(self.field)
        for v in nullspace(sys_rows, labels, self.field):
            span.insert(v)
        return span

    # -- identities -----------------------------------------------------------

    def check_lowering_formula(self, x: TowerElem) -> bool:
        """s u(x) s . 1 = theta(x) u(-1/x) s . 1 for x != 0, with the scalar
        produced through the twisted character at the matrix-computed torus
        part (not through the action rules)."""
        if x.val == 0:
            raise ValueError("x must be nonzero")
        tw = self.tower
        s = weyl(tw)
        lhs = self.act(s, self.act(unip(x), self.act(s, self.highest_vector())))
        conj = s * torus(-x) * s  # the torus part of the refactored product
        if conj.b.val or conj.c.val:
            return False
        scalar = self.theta.weyl_twist().eval(conj.a)
        rhs = scalar * self.act(unip(-x.inverse()), self.act(s, self.highest_vector()))
        return lhs == rhs

    def check_alternating_relation(self, x: TowerElem) -> bool:
        """s u(x) . eta = (u(-1/x) - 1) . eta for x != 0, eta = (1 - s).1."""
        if x.val == 0:
            raise ValueError("x must be nonzero")
        if not self.theta.is_trivial():
            raise ValueError("the relation lives in the trivial-character module")
        tw = self.tower
        eta = self.alternating_vector(frozenset({1}))
        lhs = self.act(weyl(tw), self.act(unip(x), eta))
        rhs = self.act(unip(-x.inverse()), eta) - eta
        return lhs == rhs
