"""The field tower F_q < F_{q^{2!}} < ... < F_{q^{imax!}}.

Every level lives inside one ambient field F_{q^{imax!}}: a level is the
fixed-point set of the appropriate Frobenius power, so cross-level
equality is plain ambient equality and no embedding maps are needed.
Elements are encoded as integers sum(c_j * p^j) over their coefficient
vectors; enumeration order is increasing encoding, which makes every
distinguished choice (generators, level-escape elements) reproducible.
"""

from __future__ import annotations

import math

from . import polyutil


class BudgetError(RuntimeError):
    pass


class TowerElem:
    """An ambient field element tagged with the level it is used at."""

    __slots__ = ("tower", "val", "level")

    def __init__(self, tower, val: int, level: int):
        self.tower = tower
        self.val = val
        self.level = level

    def _check(self, other):
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, int):
            return self.tower.from_int(other)
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._add(self.val, o.val), max(self.level, o.level))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._add(self.val, t._neg(o.val)), max(self.level, o.level))

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return TowerElem(self.tower, self.tower._neg(self.val), self.level)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._mul(self.val, o.val), max(self.level, o.level))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self):
        t = self.tower
        if self.val == 0:
            raise ZeroDivisionError("inverting 0 in the tower")
        return TowerElem(t, t._exp[(-t._log[self.val]) % (t.size - 1)], self.level)

    def __pow__(self, e: int):
        t = self.tower
        if self.val == 0:
            if e <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return self
        return TowerElem(t, t._exp[(t._log[self.val] * e) % (t.size - 1)], self.level)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, TowerElem):
            return self.tower is other.tower and self.val == other.val
        if isinstance(other, int):
            return self.val == self.tower.from_int(other).val
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return f"t{self.val}"


class Tower:
    """Arithmetic for all levels of the tower at once.

    q: prime power; imax >= 2; the ambient field F_{q^{imax!}} is defined
    by `poly` (first irreducible in enumeration order when omitted) and
    capped at `max_size` elements since exp/log tables are materialized.

    Multiplication goes through the exp/log tables of the ambient
    generator g.  In characteristic 2 addition is XOR of the encodings; for
    odd p it uses a Zech-logarithm table (Huber 1990): zech[d] = log(1 + g^d),
    None where 1 + g^d = 0, so g^a + g^b = g^(a + zech[b - a]) and
    -g^a = g^(a + (size - 1)/2).  The table is built alongside exp/log, one
    lookup per entry.
    """

    def __init__(self, q: int, imax: int, poly=None, max_size: int = 2 ** 20):
        pk = polyutil.prime_power(q)
        if pk is None:
            raise ValueError("q must be a prime power")
        self.p, self.d0 = pk
        if imax < 2:
            raise ValueError("imax must be >= 2")
        self.q = q
        self.imax = imax
        self.degree = math.factorial(imax) * self.d0
        self.size = self.p ** self.degree
        if self.size > max_size:
            raise BudgetError(
                f"ambient field F_{self.p}^{self.degree} exceeds the table budget"
            )
        if poly is None:
            poly = polyutil.first_irreducible(self.p, self.degree)
        else:
            poly = [c % self.p for c in poly]
            if len(poly) != self.degree + 1 or poly[-1] != 1:
                raise ValueError("defining polynomial must be monic of the ambient degree")
            if not polyutil.is_irreducible(poly, self.p):
                raise ValueError("defining polynomial is not irreducible")
        self.poly = tuple(poly)
        self._build_tables()
        self._levels = {}
        self._check_generator_chain()

    # -- integer encoding <-> coefficient vectors ------------------------

    def _digits(self, v: int):
        out = []
        for _ in range(self.degree):
            out.append(v % self.p)
            v //= self.p
        return out

    def _encode(self, digits) -> int:
        v, mult = 0, 1
        for d in digits:
            v += (d % self.p) * mult
            mult *= self.p
        return v

    def _add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        n = self.size - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        if z is None:
            return 0
        return self._exp[(la + z) % n]

    def _neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        n = self.size - 1
        return self._exp[(self._log[a] + n // 2) % n]

    def _mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]

    def _build_tables(self):
        p, poly = self.p, list(self.poly)
        n = self.size - 1
        primes = polyutil.factorize(n)

        def raw_pow(vec, e):
            return polyutil.pow_mod(vec, e, poly, p)

        gen_val = None
        for v in range(2, self.size):
            vec = polyutil.trim(self._digits(v))
            if all(raw_pow(vec, n // r) != [1] for r in primes):
                gen_val = v
                break
        if gen_val is None:
            raise RuntimeError("no primitive element found")
        self.gen_val = gen_val
        exp = [0] * n
        log = [None] * self.size
        cur = [1]
        gvec = polyutil.trim(self._digits(gen_val))
        for k in range(n):
            val = self._encode(cur + [0] * (self.degree - len(cur)))
            exp[k] = val
            log[val] = k
            cur = polyutil.rem_mod(polyutil.mul_mod(cur, gvec, p), poly, p)
        self._exp = exp
        self._log = log
        if p != 2:
            # 1 + g^d differs from g^d only in its lowest base-p digit
            self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]

    # -- levels -----------------------------------------------------------

    def level_degree(self, i: int) -> int:
        return math.factorial(i) * self.d0

    def level_size(self, i: int) -> int:
        return self.p ** self.level_degree(i)

    def _cofactor(self, i: int) -> int:
        return (self.size - 1) // (self.level_size(i) - 1)

    def _in_level(self, val: int, i: int) -> bool:
        return val == 0 or self._log[val] % self._cofactor(i) == 0

    def element(self, val: int, level: int | None = None) -> TowerElem:
        if not 0 <= val < self.size:
            raise ValueError("value out of range")
        if level is None:
            level = next(i for i in range(1, self.imax + 1) if self._in_level(val, i))
        else:
            if not 1 <= level <= self.imax:
                raise ValueError("level out of range")
            if not self._in_level(val, level):
                raise ValueError(f"value {val} is not fixed by Frobenius^{self.level_degree(level)}")
        return TowerElem(self, val, level)

    def from_int(self, c: int) -> TowerElem:
        return TowerElem(self, c % self.p, 1)

    @property
    def zero(self) -> TowerElem:
        return TowerElem(self, 0, 1)

    @property
    def one(self) -> TowerElem:
        return TowerElem(self, 1, 1)

    def enumerate_level(self, i: int):
        """All q^{i!} elements of level i, by increasing encoding."""
        if i not in self._levels:
            vals = [v for v in range(self.size) if self._in_level(v, i)]
            self._levels[i] = [TowerElem(self, v, i) for v in vals]
        return self._levels[i]

    def generator(self, i: int) -> TowerElem:
        """The chain generator g_i of the level-i multiplicative group."""
        return TowerElem(self, self._exp[self._cofactor(i) % (self.size - 1)], i)

    def _check_generator_chain(self):
        for i in range(1, self.imax + 1):
            g = self.generator(i)
            ni = self.level_size(i) - 1
            if (g ** ni).val != 1:
                raise RuntimeError("generator order check failed")
            for r in polyutil.factorize(ni):
                if (g ** (ni // r)).val == 1:
                    raise RuntimeError("generator order check failed")
        for i in range(1, self.imax):
            ratio = (self.level_size(i + 1) - 1) // (self.level_size(i) - 1)
            if (self.generator(i + 1) ** ratio).val != self.generator(i).val:
                raise RuntimeError("generator chain is not norm-compatible")

    def dlog(self, x: TowerElem, level: int | None = None) -> int:
        """Exponent e with generator(level)^e = x, 0 <= e < q^{level!}-1."""
        if x.val == 0:
            raise ZeroDivisionError("dlog of 0")
        if level is None:
            return self._log[x.val]  # against the ambient generator
        c = self._cofactor(level)
        e = self._log[x.val]
        if e % c:
            raise ValueError(f"element is not in level {level}")
        return e // c

    # -- subfield membership ----------------------------------------------

    def _frobenius_fixed(self, val: int, d: int) -> bool:
        # x^(p^d) == x; meaningful for any d (fixes F_{p^gcd(d, degree)})
        if val == 0:
            return True
        return self._log[val] * (self.p ** d - 1) % (self.size - 1) == 0

    def first_outside_subfield(self, i: int) -> TowerElem:
        """First element of level i+1 (in enumeration order) outside level i."""
        if i + 1 > self.imax:
            raise ValueError("level i+1 exceeds the tower")
        d = self.level_degree(i)
        for x in self.enumerate_level(i + 1):
            if not self._frobenius_fixed(x.val, d):
                return x
        raise RuntimeError("unreachable: proper subfield")

    def first_outside_double_subfield(self, i: int) -> TowerElem:
        """First element of level i+1 not fixed by Frobenius^(2 * i! * d0),
        i.e. not a root of any quadratic over level i.  Empty for i = 1."""
        if i + 1 > self.imax:
            raise ValueError("level i+1 exceeds the tower")
        if i < 2:
            raise ValueError(
                "empty selection set: every element of level 2 is quadratic over level 1"
            )
        d = 2 * self.level_degree(i)
        for x in self.enumerate_level(i + 1):
            if not self._frobenius_fixed(x.val, d):
                return x
        raise RuntimeError("unreachable: the escape set is nonempty for i >= 2")

    def __repr__(self):
        return f"Tower(q={self.q}, imax={self.imax}, F_{self.p}^{self.degree})"
