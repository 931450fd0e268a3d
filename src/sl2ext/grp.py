"""SL2 over tower levels: standard generators, Bruhat normal forms,
subgroup enumeration, and the central-quotient (PGL2-style) views.

The big-cell rewrite s u(a) s = u(-1/a) s h(a) u(-1/a) drives both the
Bruhat factorization and the module action rules downstream, so it gets
its own checker here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tower import Tower, TowerElem, BudgetError


class GroupElement:
    """A 2x2 determinant-1 matrix over the tower.

    Products, inverses, the determinant check and the Bruhat factorization
    run on the tower's raw values; each result entry is wrapped once, at
    the largest level among the entries it was computed from."""

    __slots__ = ("a", "b", "c", "d", "level")

    def __init__(self, a: TowerElem, b: TowerElem, c: TowerElem, d: TowerElem):
        tw = a.tower
        if b.tower is not tw or c.tower is not tw or d.tower is not tw:
            raise ValueError("elements of different towers")
        if tw._add(tw._mul(a.val, d.val), tw._neg(tw._mul(b.val, c.val))) != 1:
            raise ValueError("matrix does not have determinant 1")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.level = max(a.level, b.level, c.level, d.level)

    @property
    def tower(self) -> Tower:
        return self.a.tower

    def key(self):
        return (self.a.val, self.b.val, self.c.val, self.d.val)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        tw = self.a.tower
        if other.a.tower is not tw:
            raise ValueError("elements of different towers")
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return GroupElement(_dot(tw, a, e, b, g), _dot(tw, a, f, b, h),
                            _dot(tw, c, e, d, g), _dot(tw, c, f, d, h))

    def inverse(self) -> "GroupElement":
        tw, b, c = self.a.tower, self.b, self.c
        return GroupElement(self.d, TowerElem(tw, tw._neg(b.val), b.level),
                            TowerElem(tw, tw._neg(c.val), c.level), self.a)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def _dot(tw: Tower, p: TowerElem, q: TowerElem, r: TowerElem, s: TowerElem) -> TowerElem:
    """p q + r s on raw values."""
    return TowerElem(tw, tw._add(tw._mul(p.val, q.val), tw._mul(r.val, s.val)),
                     max(p.level, q.level, r.level, s.level))


def identity(tw: Tower) -> GroupElement:
    return GroupElement(tw.one, tw.zero, tw.zero, tw.one)


def unip(x: TowerElem) -> GroupElement:
    """Upper unitriangular u(x) = [[1, x], [0, 1]]."""
    tw = x.tower
    return GroupElement(tw.one, x, tw.zero, tw.one)


def torus(t: TowerElem) -> GroupElement:
    """Diagonal h(t) = [[t, 0], [0, 1/t]]."""
    tw = t.tower
    return GroupElement(t, tw.zero, tw.zero, t.inverse())


def weyl(tw: Tower) -> GroupElement:
    """The fixed Weyl representative s = [[0, -1], [1, 0]]."""
    return GroupElement(tw.zero, -tw.one, tw.one, tw.zero)


@dataclass(frozen=True)
class BruhatForm:
    """Either u(x) h(t) (small cell, y is None) or u(x) h(t) s u(y)."""

    x: TowerElem
    t: TowerElem
    y: TowerElem | None

    @property
    def big_cell(self) -> bool:
        return self.y is not None


def bruhat(g: GroupElement) -> BruhatForm:
    """The unique Bruhat factorization of g; total on SL2."""
    tw, a, c = g.tower, g.a, g.c
    if c.val == 0:
        return BruhatForm(x=TowerElem(tw, tw._mul(a.val, g.b.val), max(a.level, g.b.level)), t=a, y=None)
    cinv = tw._inv(c.val)
    return BruhatForm(x=TowerElem(tw, tw._mul(a.val, cinv), max(a.level, c.level)),
                      t=TowerElem(tw, cinv, c.level),
                      y=TowerElem(tw, tw._mul(g.d.val, cinv), max(g.d.level, c.level)))


def reassemble(form: BruhatForm, tw: Tower) -> GroupElement:
    g = unip(form.x) * torus(form.t)
    if form.big_cell:
        g = g * weyl(tw) * unip(form.y)
    return g


def check_big_cell_rewrite(a: TowerElem) -> bool:
    """Exact identity s u(a) s = u(-1/a) s h(a) u(-1/a) for a != 0."""
    if a.val == 0:
        raise ValueError("the rewrite needs a != 0")
    tw = a.tower
    s = weyl(tw)
    lhs = s * unip(a) * s
    ainv = a.inverse()
    rhs = unip(-ainv) * s * torus(a) * unip(-ainv)
    return lhs == rhs


def unipotent_generators(tw: Tower, level: int) -> list:
    """u(g_i^j) for j < [level degree]; an F_p-basis of the level."""
    g = tw.generator(level)
    out = []
    x = tw.one
    for _ in range(tw.level_degree(level)):
        out.append(unip(TowerElem(tw, x.val, level)))
        x = x * g
    return out


def generators(tw: Tower, level: int) -> list:
    """s, h(g_level), and the unipotent basis; generates SL2 of the level."""
    return [weyl(tw), torus(tw.generator(level))] + unipotent_generators(tw, level)


def subgroup_order(which: str, q: int, i: int, pgl: bool = False) -> int:
    import math

    n = q ** math.factorial(i)
    if which == "U":
        return n
    if which == "T":
        return (n - 1) // 2 if (pgl and q % 2) else n - 1
    if which == "B":
        return n * ((n - 1) // 2 if (pgl and q % 2) else n - 1)
    if which == "G":
        order = n * (n * n - 1)
        return order // 2 if (pgl and q % 2) else order
    raise ValueError(f"unknown subgroup {which!r}")


def center_quotient_reps(tw: Tower, i: int) -> list:
    """One torus value per pair {t, -t} (all of F* when -1 = 1), the
    smaller encoding first."""
    return [t for t in tw.units(i) if tw.p == 2 or t.val <= (-t).val]


def enumerate_subgroup(tw: Tower, which: str, level: int, budget: int = 100000, pgl: bool = False):
    """Deterministic enumeration of U, T, B, G at a level.

    PGL mode restricts torus values to center-quotient representatives,
    which picks exactly one of each {g, -g} pair.
    """
    size = subgroup_order(which, tw.q, level, pgl=pgl)
    if size > budget:
        raise BudgetError(f"|{which}_{level}| = {size} exceeds budget {budget}")
    s = weyl(tw)
    torus_vals = center_quotient_reps(tw, level) if pgl else tw.units(level)
    if which == "U":
        return [unip(x) for x in tw.enumerate_level(level)]
    if which == "T":
        return [torus(t) for t in torus_vals]
    if which == "B":
        return [unip(x) * torus(t) for x in tw.enumerate_level(level) for t in torus_vals]
    if which == "G":
        out = []
        for x in tw.enumerate_level(level):
            for t in torus_vals:
                out.append(unip(x) * torus(t))
        for x in tw.enumerate_level(level):
            for t in torus_vals:
                base = unip(x) * torus(t) * s
                for y in tw.enumerate_level(level):
                    out.append(base * unip(y))
        return out
    raise ValueError(f"unknown subgroup {which!r}")
