"""The finite-field kernel and the field tower F_q < F_{q^{2!}} < ... < F_{q^{imax!}}.

`GaloisField(p, n)` is F_{p^n}, written once: the tower's ambient field
is one, and so is `coeff.PrimeField`'s F_{l^m} for m > 1.  Elements are
encoded as integers sum(c_j * p^j) over their coefficient vectors.
Every level of a `Tower` lives inside its ambient field F_{q^{imax!}}: a
level is the fixed-point set of the appropriate Frobenius power, so
cross-level equality is plain ambient equality and no embedding maps are
needed.  Enumeration order is increasing encoding, which makes every
distinguished choice (generators, level-escape elements) reproducible.
An element carries no level: it lies in level i exactly when
`_frobenius_fixed` holds at `level_degree(i)`.  `enumerate_level` applies
that rule once per level, and `_level_mask` keeps its answer as a byte
table over all encodings, which `value` and the module actions read.

Elements cross every module boundary as these raw ints, computed with the
raw ops (`_add`, `_neg`, `_mul`, `_inv`, `_pow`) and validated by `value`;
`TowerElem`, a value with operators, is the tests' front only.  One fused
kernel sits beside the raw ops: `_mobius`, the label map of one Bruhat
cell on the tables, which `indmod`'s compiled actions apply to every
label; the action oracle and `grp` stay on the raw ops.
"""

from __future__ import annotations

import math

from . import polyutil


class BudgetError(RuntimeError):
    pass


# a GaloisField's size cap: its exp/log tables are materialized
TABLE_BUDGET = 2 ** 20


# a bare int could be a raw value or an integer of the prime field; the
# operators take neither, so a caller wraps it in a TowerElem
BARE_INT = "a tower element does not mix with a bare int; wrap it in a TowerElem"


class TowerElem:
    """An ambient field element with operators over the raw ops, the
    tests' front; its levels are those whose Frobenius power fixes its
    value."""

    __slots__ = ("tower", "val")

    def __init__(self, tower, val: int):
        self.tower = tower
        self.val = val

    def _check(self, other):
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, int):
            raise TypeError(BARE_INT)
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._add(self.val, t._neg(o.val)))

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return TowerElem(self.tower, self.tower._neg(self.val))

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return TowerElem(t, t._mul(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def inverse(self):
        return TowerElem(self.tower, self.tower._inv(self.val))

    def __pow__(self, e: int):
        return TowerElem(self.tower, self.tower._pow(self.val, e))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, TowerElem):
            return self.tower is other.tower and self.val == other.val
        if isinstance(other, int):
            raise TypeError(BARE_INT)
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return f"t{self.val}"


class GaloisField:
    """F_{p^degree}: F_p[x] modulo the first irreducible polynomial of the
    degree in enumeration order, capped at TABLE_BUDGET elements.

    Multiplication goes through the exp/log tables of `gen_val`, the first
    primitive element in encoding order.  In characteristic 2 addition is
    XOR of the encodings; for odd p it uses a Zech-logarithm table (Huber
    1990): zech[d] = log(1 + g^d), None where 1 + g^d = 0, so
    g^a + g^b = g^(a + zech[b - a]) and -g^a = g^(a + (size - 1)/2).  The
    table is built alongside exp/log, one lookup per entry.
    """

    def __init__(self, p: int, degree: int):
        self.p = p
        self.degree = degree
        self.size = p ** degree
        if self.size > TABLE_BUDGET:
            raise BudgetError(
                f"ambient field F_{p}^{degree} exceeds the table budget"
            )
        self.poly = tuple(polyutil.first_irreducible(p, degree))
        self._build_tables()

    # -- integer encoding <-> coefficient vectors ------------------------

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

    def _inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return self._exp[(-self._log[a]) % (self.size - 1)]

    def _pow(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return 0
        return self._exp[(self._log[a] * e) % (self.size - 1)]

    def _mobius(self, x: int, t: int, y: int | None = None):
        """The label map of one Bruhat cell, fused on the tables (t != 0).

        For y None, the small cell u(x)h(t): L -> x + t^2 L.  Otherwise the
        big cell u(x)h(t)su(y): L -> (x - t^2/l, l/t) with l = y + L, or
        None where l = 0.  Each label costs table lookups only: an addition
        is XOR for p = 2 and one Zech lookup for odd p, and l is kept as its
        logarithm.
        """
        exp, log, n = self._exp, self._log, self.size - 1
        lt = log[t]
        lt2 = 2 * lt % n
        if self.p == 2:
            if y is None:
                def small(L):
                    return x ^ exp[(lt2 + log[L]) % n] if L else x
                return small

            def big(L):
                l = y ^ L
                if not l:
                    return None
                ll = log[l]
                return x ^ exp[(lt2 - ll) % n], exp[(ll - lt) % n]
            return big
        zech, lx = self._zech, log[x]
        if y is None:
            def small(L):
                if not L:
                    return x
                e = lt2 + log[L]
                if lx is None:
                    return exp[e % n]
                z = zech[(e - lx) % n]
                return 0 if z is None else exp[(lx + z) % n]
            return small
        ly, lt2_neg = log[y], lt2 + n // 2

        def big(L):
            if ly is None or not L:
                l = y or L
                if not l:
                    return None
                ll = log[l]
            else:
                z = zech[(log[L] - ly) % n]
                if z is None:
                    return None
                ll = ly + z
            e = lt2_neg - ll
            if lx is None:
                return exp[e % n], exp[(ll - lt) % n]
            z = zech[(e - lx) % n]
            return (0 if z is None else exp[(lx + z) % n]), exp[(ll - lt) % n]
        return big

    def _build_tables(self):
        p, poly = self.p, list(self.poly)
        n = self.size - 1
        primes = polyutil.factorize(n)

        def raw_pow(vec, e):
            return polyutil.pow_mod(vec, e, poly, p)

        gen_val = None
        for v in range(2, self.size):
            vec = polyutil.trim(polyutil.digits(v, p, self.degree))
            if all(raw_pow(vec, n // r) != [1] for r in primes):
                gen_val = v
                break
        if gen_val is None:
            raise RuntimeError("no primitive element found")
        self.gen_val = gen_val
        exp = [0] * n
        log = [None] * self.size
        cur = [1]
        gvec = polyutil.trim(polyutil.digits(gen_val, p, self.degree))
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


class Tower(GaloisField):
    """Arithmetic for all levels of the tower at once, in the ambient
    GaloisField F_{q^{imax!}}; q a prime power, imax >= 2."""

    def __init__(self, q: int, imax: int):
        pk = polyutil.prime_power(q)
        if pk is None:
            raise ValueError("q must be a prime power")
        p, self.d0 = pk
        if imax < 2:
            raise ValueError("imax must be >= 2")
        self.q = q
        self.imax = imax
        super().__init__(p, math.factorial(imax) * self.d0)
        self._levels = {}
        self._masks = {}
        self._check_generator_chain()

    # -- levels -----------------------------------------------------------

    def level_degree(self, i: int) -> int:
        return math.factorial(i) * self.d0

    def level_size(self, i: int) -> int:
        return self.p ** self.level_degree(i)

    def _cofactor(self, i: int) -> int:
        return (self.size - 1) // (self.level_size(i) - 1)

    def value(self, val: int, level: int | None = None) -> int:
        """val, after checking that it encodes an element (of the level,
        when one is given)."""
        if not 0 <= val < self.size:
            raise ValueError("value out of range")
        if level is not None:
            if not 1 <= level <= self.imax:
                raise ValueError("level out of range")
            if not self._level_mask(level)[val]:
                raise ValueError(f"value {val} is not fixed by Frobenius^{self.level_degree(level)}")
        return val

    def enumerate_level(self, i: int) -> list:
        """All q^{i!} elements of level i, by increasing encoding."""
        if i not in self._levels:
            d = self.level_degree(i)
            self._levels[i] = [v for v in range(self.size) if self._frobenius_fixed(v, d)]
        return self._levels[i]

    def _level_mask(self, i: int) -> bytearray:
        """Level i as a table over all encodings, byte v set exactly when v
        lies in the level: built once from `enumerate_level`, so membership
        is one lookup that `_frobenius_fixed` decided."""
        if i not in self._masks:
            mask = self._masks[i] = bytearray(self.size)
            for v in self.enumerate_level(i):
                mask[v] = 1
        return self._masks[i]

    def units(self, i: int) -> list:
        """The q^{i!} - 1 nonzero elements of level i, by increasing encoding."""
        return self.enumerate_level(i)[1:]

    def generator(self, i: int) -> int:
        """The chain generator g_i of the level-i multiplicative group."""
        return self._exp[self._cofactor(i) % (self.size - 1)]

    def _check_generator_chain(self):
        for i in range(1, self.imax + 1):
            g = self.generator(i)
            ni = self.level_size(i) - 1
            if self._pow(g, ni) != 1:
                raise RuntimeError("generator order check failed")
            for r in polyutil.factorize(ni):
                if self._pow(g, ni // r) == 1:
                    raise RuntimeError("generator order check failed")
        for i in range(1, self.imax):
            ratio = (self.level_size(i + 1) - 1) // (self.level_size(i) - 1)
            if self._pow(self.generator(i + 1), ratio) != self.generator(i):
                raise RuntimeError("generator chain is not norm-compatible")

    def dlog(self, x: int) -> int:
        """Exponent e with generator(imax)^e = x, 0 <= e < q^{imax!}-1."""
        if x == 0:
            raise ZeroDivisionError("dlog of 0")
        return self._log[self.value(x)]

    # -- subfield membership ----------------------------------------------

    def _frobenius_fixed(self, val: int, d: int) -> bool:
        """x^(p^d) == x; meaningful for any d (fixes F_{p^gcd(d, degree)}).

        The one subfield test: level i is the fixed set of d = level_degree(i).
        """
        if val == 0:
            return True
        return self._log[val] * (self.p ** d - 1) % (self.size - 1) == 0

    def _first_outside(self, i: int, d: int) -> int:
        """First element of level i+1 (in enumeration order) not fixed by
        Frobenius^d."""
        if i + 1 > self.imax:
            raise ValueError("level i+1 exceeds the tower")
        for x in self.enumerate_level(i + 1):
            if not self._frobenius_fixed(x, d):
                return x
        raise RuntimeError("unreachable: the escape set is nonempty")

    def first_outside_subfield(self, i: int) -> int:
        """First element of level i+1 (in enumeration order) outside level i."""
        return self._first_outside(i, self.level_degree(i))

    def first_outside_double_subfield(self, i: int) -> int:
        """First element of level i+1 not fixed by Frobenius^(2 * i! * d0),
        i.e. not a root of any quadratic over level i.  Empty for i = 1."""
        if i < 2:
            raise ValueError(
                "empty selection set: every element of level 2 is quadratic over level 1"
            )
        return self._first_outside(i, 2 * self.level_degree(i))

    def __repr__(self):
        return f"Tower(q={self.q}, imax={self.imax}, F_{self.p}^{self.degree})"
