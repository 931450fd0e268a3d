"""SL2 over tower levels: standard generators, Bruhat normal forms,
subgroup enumeration, and the central-quotient (PGL2-style) views.

The big-cell rewrite s u(a) s = u(-1/a) s h(a) u(-1/a) drives both the
Bruhat factorization and the module action rules downstream, so it gets
its own checker here.

Tower elements enter and leave as raw values, as at every module
boundary (see ``tower``, whose operator class is the tests' front only):
`unip`, `torus` and the checker take the tower and a raw value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .tower import Tower


class GroupElement:
    """A 2x2 determinant-1 matrix over the tower, held as the raw values
    of its entries.  Its level is not stored: g lies in SL2 of level i
    exactly when all four values are fixed by Frobenius^level_degree(i)."""

    __slots__ = ("tower", "a", "b", "c", "d")

    def __init__(self, tw: Tower, a: int, b: int, c: int, d: int):
        n = tw.size
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            raise ValueError("matrix entry out of range")
        if tw._add(tw._mul(a, d), tw._neg(tw._mul(b, c))) != 1:
            raise ValueError("matrix does not have determinant 1")
        self.tower = tw
        self.a, self.b, self.c, self.d = a, b, c, d

    def key(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        tw = self.tower
        if other.tower is not tw:
            raise ValueError("elements of different towers")
        add, mul = tw._add, tw._mul
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return GroupElement(tw, add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"[[t{self.a},t{self.b}],[t{self.c},t{self.d}]]"


def identity(tw: Tower) -> GroupElement:
    return GroupElement(tw, 1, 0, 0, 1)


def unip(tw: Tower, x: int) -> GroupElement:
    """Upper unitriangular u(x) = [[1, x], [0, 1]]."""
    return GroupElement(tw, 1, x, 0, 1)


def torus(tw: Tower, t: int) -> GroupElement:
    """Diagonal h(t) = [[t, 0], [0, 1/t]]."""
    return GroupElement(tw, t, 0, 0, tw._inv(tw.value(t)))


def weyl(tw: Tower) -> GroupElement:
    """The fixed Weyl representative s = [[0, -1], [1, 0]]."""
    return GroupElement(tw, 0, tw._neg(1), 1, 0)


class BruhatForm(NamedTuple):
    """Either u(x) h(t) (small cell, y is None) or u(x) h(t) s u(y), as
    raw tower values."""

    x: int
    t: int
    y: int | None

    @property
    def big_cell(self) -> bool:
        return self.y is not None


def bruhat(g: GroupElement) -> BruhatForm:
    """The unique Bruhat factorization of g; total on SL2."""
    tw, a, c = g.tower, g.a, g.c
    if c == 0:
        return BruhatForm(x=tw._mul(a, g.b), t=a, y=None)
    cinv = tw._inv(c)
    return BruhatForm(x=tw._mul(a, cinv), t=cinv, y=tw._mul(g.d, cinv))


def reassemble(form: BruhatForm, tw: Tower) -> GroupElement:
    g = unip(tw, form.x) * torus(tw, form.t)
    if form.big_cell:
        g = g * weyl(tw) * unip(tw, form.y)
    return g


def check_big_cell_rewrite(tw: Tower, a: int) -> bool:
    """Exact identity s u(a) s = u(-1/a) s h(a) u(-1/a) for a != 0."""
    if a == 0:
        raise ValueError("the rewrite needs a != 0")
    s = weyl(tw)
    lhs = s * unip(tw, a) * s
    u = unip(tw, tw._neg(tw._inv(a)))
    return lhs == u * s * torus(tw, a) * u


def unipotent_generators(tw: Tower, level: int) -> list:
    """u(g_i^j) for j < [level degree]; an F_p-basis of the level."""
    g = tw.generator(level)
    return [unip(tw, tw._pow(g, j)) for j in range(tw.level_degree(level))]


def generators(tw: Tower, level: int) -> list:
    """s, h(g_level), and the unipotent basis; generates SL2 of the level."""
    return [weyl(tw), torus(tw, tw.generator(level))] + unipotent_generators(tw, level)


def subgroup_order(which: str, q: int, i: int, pgl: bool = False) -> int:
    """|B| or |G| at level i; PGL mode halves the torus for odd q."""
    n = q ** math.factorial(i)
    borel = n * ((n - 1) // 2 if (pgl and q % 2) else n - 1)
    if which == "B":
        return borel
    if which == "G":
        return borel * (n + 1)
    raise ValueError(f"unknown subgroup {which!r}")


def center_quotient_reps(tw: Tower, i: int) -> list:
    """One torus value per pair {t, -t} (all of F* when -1 = 1), the
    smaller encoding first."""
    return [t for t in tw.units(i) if tw.p == 2 or t <= tw._neg(t)]


def enumerate_subgroup(tw: Tower, which: str, level: int, pgl: bool = False):
    """Deterministic enumeration of all of B or G at a level (the registry
    bounds each check's level by its cost): B as u(x) h(t) in (x, t)
    order, G as B followed by each b s u(y) in (b, y) order.

    PGL mode restricts torus values to center-quotient representatives,
    which picks exactly one of each {g, -g} pair.
    """
    if which not in ("B", "G"):
        raise ValueError(f"unknown subgroup {which!r}")
    torus_vals = center_quotient_reps(tw, level) if pgl else tw.units(level)
    xs = tw.enumerate_level(level)
    borel = [unip(tw, x) * torus(tw, t) for x in xs for t in torus_vals]
    if which == "B":
        return borel
    s = weyl(tw)
    out = list(borel)
    for b in borel:
        bs = b * s
        out += [bs * unip(tw, y) for y in xs]
    return out
