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

Composed along the Bruhat form of g, they give the closed form that
``_compile`` turns each g into (l = y + L):
    u(x)h(t).1          = theta(t) . 1
    u(x)h(t).cell(L)    = theta(t)^-1 . cell(x + t^2 L)
    u(x)h(t)su(y).1       = theta(t)^-1 . cell(x)
    u(x)h(t)su(y).cell(L) = theta(-t) . 1                 (l = 0)
    u(x)h(t)su(y).cell(L) = theta(l/t) . cell(x - t^2/l)  (l != 0)
The label part of a cell's form runs on the tower's fused map
(``Tower._mobius``, table lookups only); ``_compile`` adds the highest
line, the l = 0 case and theta.  ``oracle_act_label`` does not use the
fused map: it multiplies matrices and refactors them on the raw ops.

``InducedModule.action(g)`` compiles g once and returns an ``Action``
that applies it to many labels or vectors; a loop that repeats an element
takes its action once, and ``act`` is the single-use wrapper.  An action
lives as long as the loop that holds it.  The one action kept with the
module is s's, ``weyl_action``: the relation checks and the (1 - s)
builders apply it in turn.

A vector holds raw reps of the module's field, never a zero rep, and so
do ``Action.label`` and ``oracle_act_label``.  A rep does not carry its
field: the module reads its own character's values, and a caller that
scales by or writes another character's values checks that character's
field against the module's first (``coeff.require_field``), as the
``towerext`` builders and checks do.
"""

from __future__ import annotations

import functools

from . import grp
from .charmod import TorusCharacter
from .grp import GroupElement, bruhat, weyl, unip, torus
from .linalg import SparseSpan, _acc, monomial_invariants
from .tower import Tower

HIGHEST = -1  # label of the highest line; cell labels are element encodings


class Vec:
    """A finitely supported combination of basis labels: label -> nonzero
    raw rep of the module's field."""

    __slots__ = ("module", "support")

    def __init__(self, module: "InducedModule", support: dict):
        self.module = module
        self.support = support

    def __add__(self, other: "Vec") -> "Vec":
        return self._combine(other, False)

    def __sub__(self, other: "Vec") -> "Vec":
        return self._combine(other, True)

    def _combine(self, other: "Vec", minus: bool) -> "Vec":
        """self + other, or self - other, in one pass over other."""
        self._same(other)
        f = self.module.field
        add, sub, zero = f._add, f._sub, f.zero
        out = dict(self.support)
        for k, r in other.support.items():
            _acc(out, k, sub(zero, r) if minus else r, add, zero)
        return Vec(self.module, out)

    def __neg__(self) -> "Vec":
        f = self.module.field
        sub, zero = f._sub, f.zero
        return Vec(self.module, {k: sub(zero, r) for k, r in self.support.items()})

    def scale(self, c) -> "Vec":
        """c * self, for a raw rep c of the module's field."""
        f = self.module.field
        if c == f.zero:
            return Vec(self.module, {})
        mul = f._mul
        return Vec(self.module, {k: mul(v, c) for k, v in self.support.items()})

    def _same(self, other):
        if not isinstance(other, Vec) or other.module is not self.module:
            raise ValueError("vectors from different modules")

    def __bool__(self):
        return bool(self.support)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.module is other.module and self.support == other.support

    def __repr__(self):
        return f"Vec({self.support!r})"


class Action:
    """One group element's action on one module, compiled once: ``label``
    maps a basis label to (label, raw rep), and calling the action on a
    vector of the module maps the vector."""

    __slots__ = ("module", "label")

    def __init__(self, module: "InducedModule", image):
        self.module = module
        self.label = image

    def __call__(self, v: Vec) -> Vec:
        return self.module._apply(self.label, v)


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
        # theta at a level element, as a raw field rep, memoized by encoding
        self._th = functools.lru_cache(maxsize=None)(
            lambda val: theta.eval(tower.value(val, level)))

    @property
    def dim(self) -> int:
        return self.tower.level_size(self.level) + 1

    def labels(self) -> list:
        return [HIGHEST] + self.tower.enumerate_level(self.level)

    def zero(self) -> Vec:
        return Vec(self, {})

    def basis_vector(self, label: int) -> Vec:
        return Vec(self, {label: self.field.one})

    def highest_vector(self) -> Vec:
        return self.basis_vector(HIGHEST)

    # -- action ------------------------------------------------------------

    def _compile(self, g: GroupElement):
        """g's action as one map label -> (label, raw rep), in the closed
        form of g's Bruhat cell.  g's four entries are looked up in the
        tower's table of the module's level (``Tower._level_mask``)."""
        tw, th = self.tower, self._th
        if g.tower is not tw:
            raise ValueError("group element of a different tower")
        inside = tw._level_mask(self.level)
        if not (inside[g.a] and inside[g.b] and inside[g.c] and inside[g.d]):
            raise ValueError("group element lives above the module level")
        form = bruhat(g)
        x, t = form.x, form.t
        t_inv = tw._inv(t)
        if not form.big_cell:
            cell_map, top, cell = tw._mobius(x, t), th(t), th(t_inv)

            def small(label):
                if label == HIGHEST:
                    return HIGHEST, top
                return cell_map(label), cell
            return small
        cell_map, top, bottom = tw._mobius(x, t, form.y), th(t_inv), th(tw._neg(t))

        def big(label):
            if label == HIGHEST:
                return x, top
            image = cell_map(label)
            if image is None:
                return HIGHEST, bottom
            return image[0], th(image[1])
        return big

    def _apply(self, image, v: Vec) -> Vec:
        """The compiled map image applied to v."""
        if v.module is not self:
            raise ValueError("vector from a different module")
        mul = self.field._mul
        out = {}
        for label, c in v.support.items():
            # g permutes the basis lines, so no two labels share an image
            l2, k = image(label)
            out[l2] = mul(c, k)
        return Vec(self, out)

    def action(self, g: GroupElement) -> "Action":
        """g's action compiled once, to apply to many labels or vectors."""
        return Action(self, self._compile(g))

    @functools.cached_property
    def weyl_action(self) -> "Action":
        """s's action, compiled on first use and kept with the module."""
        return self.action(weyl(self.tower))

    def act(self, g: GroupElement, v: Vec) -> Vec:
        return self._apply(self._compile(g), v)

    def oracle_act_label(self, g: GroupElement, label: int):
        """Independent route: realize the basis vector as a coset
        representative, multiply matrices, refactor, and read the result
        from the Borel action alone."""
        tw = self.tower
        if label == HIGHEST:
            m = g
        else:
            m = g * (unip(tw, tw.value(label, self.level)) * weyl(tw))
        form = bruhat(m)
        if not form.big_cell:
            return HIGHEST, self._th(form.t)
        return form.x, self._th(tw._inv(form.t))

    # -- distinguished vectors ----------------------------------------------

    def steinberg_vectors(self) -> list:
        """u(x) . (1 - s).1 for x at this level; trivial character only."""
        if not self.theta.is_trivial():
            raise ValueError("the alternating generator needs the trivial character")
        f = self.field
        one, minus_one = f.one, f._sub(f.zero, f.one)
        return [Vec(self, {HIGHEST: one, x: minus_one})
                for x in self.tower.enumerate_level(self.level)]

    def steinberg_coordinates(self, v: Vec) -> dict:
        """Coordinates of a Steinberg-span vector in the shifted-generator
        basis u(x).(1 - s).1, as x -> raw rep; raises when the vector is
        outside the span."""
        if v.module is not self:
            raise ValueError("vector from a different module")
        f = self.field
        add, sub, zero = f._add, f._sub, f.zero
        # the coordinate at x is minus the coefficient of cell(x)
        coords = {}
        total = zero
        for label, c in v.support.items():
            if label != HIGHEST:
                coords[label] = sub(zero, c)
                total = add(total, coords[label])
        if v.support.get(HIGHEST, zero) != total:
            raise ValueError("vector is not in the alternating-generator span")
        return coords

    # -- subspaces -----------------------------------------------------------

    def span_closure(self, vecs) -> SparseSpan:
        """Close a set of vectors under the level's generators; echelon basis."""
        actions = [self.action(g) for g in grp.generators(self.tower, self.level)]
        span = SparseSpan(self.field)
        queue = [Vec(self, s) for s in span.extend(v.support for v in vecs)]
        while queue:
            v = queue.pop()
            for act in actions:
                w = act(v)
                if span.insert(w.support):
                    queue.append(w)
        return span

    def invariant_subspace(self, which: str) -> SparseSpan:
        """Joint fixed space of the unipotents ("U") or the torus ("T")
        of the level, via their generators.

        Each generator acts monomially, so the stacked kernel of
        (action - identity) is computed combinatorially: weighted label
        components that close up consistently.
        """
        tw = self.tower
        if which == "U":
            gens = grp.unipotent_generators(tw, self.level)
        elif which == "T":
            gens = [torus(tw, tw.generator(self.level))]
        else:
            raise ValueError(f"unknown subgroup {which!r}")
        maps = [self._compile(g) for g in gens]
        span = SparseSpan(self.field)
        for comp in monomial_invariants(self.labels(), maps, self.field):
            span.insert(comp)
        return span

    # -- identities -----------------------------------------------------------

    def check_lowering_formula(self, xs):
        """The first x of xs at which s u(x) s . 1 = theta(x) u(-1/x) s . 1
        fails, or None when it holds at every x (each x != 0).  The scalar
        is produced through the twisted character at the matrix-computed
        torus part (not through the action rules)."""
        tw = self.tower
        s = weyl(tw)
        act_s = self.weyl_action
        s_one = act_s(self.highest_vector())
        twist = self.theta.weyl_twist()
        for x in xs:
            if x == 0:
                raise ValueError("x must be nonzero")
            lhs = act_s(self.act(unip(tw, x), s_one))
            conj = s * torus(tw, tw._neg(x)) * s  # the torus part of the refactored product
            if conj.b or conj.c:
                return x
            rhs = self.act(unip(tw, tw._neg(tw._inv(x))), s_one).scale(twist.eval(conj.a))
            if lhs != rhs:
                return x
        return None

    def check_reflection_relation(self, xs, v: Vec):
        """The first x of xs at which s u(x) . v = (u(-1/x) - 1) . v fails,
        or None when it holds at every x (each x != 0)."""
        tw = self.tower
        act_s = self.weyl_action
        for x in xs:
            if x == 0:
                raise ValueError("x must be nonzero")
            if act_s(self.act(unip(tw, x), v)) != self.act(unip(tw, tw._neg(tw._inv(x))), v) - v:
                return x
        return None

    def check_alternating_relation(self, xs):
        """The reflection relation at eta = (1 - s).1, in the
        trivial-character module: the first x of xs where it fails, or
        None."""
        if not self.theta.is_trivial():
            raise ValueError("the relation lives in the trivial-character module")
        f = self.field
        eta = Vec(self, {HIGHEST: f.one, 0: f._sub(f.zero, f.one)})
        return self.check_reflection_relation(xs, eta)
