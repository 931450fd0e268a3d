"""Torus characters as exponents against the norm-compatible generator
chain.

A character is an integer e modulo q^{imax!}-1: it sends the top-level
generator to zeta^e for the fixed primitive root zeta of that order in
the coefficient field.  Restriction to lower levels is then coherent for
free, and the Weyl twist and the derived character of a pair are pure
exponent arithmetic.  A character is evaluated at a raw tower value, as
tower elements cross every module boundary raw (see ``tower``, whose
operator class is the tests' front only), and its values are raw reps of
its field.
"""

from __future__ import annotations

from .coeff import CoeffField
from .tower import Tower


def trivial_on_center(p: int, exp: int) -> bool:
    """Whether the exponent-exp character is 1 at -1: always for p = 2,
    where the center is trivial; for odd p exactly when exp is even, as
    -1 is the generator to the power (q^{imax!} - 1) / 2."""
    return p == 2 or exp % 2 == 0


class TorusCharacter:
    def __init__(self, tower: Tower, field: CoeffField, exp: int):
        self.tower = tower
        self.field = field
        self.order_mod = tower.size - 1  # q^{imax!} - 1
        self.exp = exp % self.order_mod
        self._cache = {}

    def eval(self, val: int):
        """Value at a nonzero tower element: an exact root of unity, as a
        raw rep of the character's field."""
        v = self._cache.get(val)
        if v is None:  # dlog rejects 0 and values outside the tower
            v = self.field.root_of_unity(self.order_mod, self.exp * self.tower.dlog(val))
            self._cache[val] = v
        return v

    def weyl_twist(self) -> "TorusCharacter":
        """Conjugation by the Weyl element inverts torus values: e -> -e."""
        return TorusCharacter(self.tower, self.field, -self.exp)

    def is_trivial(self) -> bool:
        return self.exp == 0

    def is_trivial_on_center(self) -> bool:
        """Value at -1 is 1."""
        return trivial_on_center(self.tower.p, self.exp)

    def restriction_exp(self, i: int) -> int:
        """Exponent of the restriction to level i against generator(i)."""
        return self.exp % (self.tower.level_size(i) - 1)

    def is_trivial_on_level(self, i: int) -> bool:
        return self.restriction_exp(i) == 0

    def __repr__(self):
        return f"chi[{self.exp}]"


def nu_character(lam: TorusCharacter, mu: TorusCharacter) -> TorusCharacter:
    """The derived character (mu twisted by the long Weyl element)^{-1} * lam.

    In rank 1 the twist inverts, so the exponent is e_lam + e_mu; when lam
    and mu agree on the center, the result is trivial on the center.
    """
    if lam.tower is not mu.tower or lam.field != mu.field:
        raise ValueError("characters live on different towers or fields")
    return TorusCharacter(lam.tower, lam.field, lam.exp + mu.exp)
