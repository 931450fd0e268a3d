"""Group and field arithmetic that only the tests use."""

from sl2ext.grp import GroupElement
from sl2ext.tower import TowerElem


def group_inverse(g: GroupElement) -> GroupElement:
    """The inverse [[d, -b], [-c, a]] of a determinant-1 matrix."""
    tw = g.tower
    return GroupElement(tw, g.d, tw._neg(g.b), tw._neg(g.c), g.a)


def tower_element(tw, val: int, level: int | None = None) -> TowerElem:
    """The tower value val, checked (against the level, when given), with
    the operators of ``TowerElem``."""
    return TowerElem(tw, tw.value(val, level))


def field_power(field, a, e: int):
    """a^e for e >= 0, by repeated ``_mul`` on the field's raw reps."""
    out = field.one
    for _ in range(e):
        out = field._mul(out, a)
    return out
