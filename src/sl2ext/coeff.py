"""Exact coefficient fields for the workbench.

Three modes: the rationals, cyclotomic quotients Q[x]/Phi_n(x), and prime
fields F_l (with optional extension degree).  Each mode has one value
type, its raw rep: an immutable canonical representative, so == is exact
equality, and every nonzero rep has an exact inverse.  A field object
computes on its reps with ``_add``, ``_sub``, ``_mul`` and ``_inv``; a rep
does not know its field, so the layers that mix values of two sources
check the fields once at their boundary (``require_field``).  ``zero``,
``one``, ``scalar`` and the character values of ``root_of_unity`` are
reps too; a mode supports order n exactly when it contains a primitive
n-th root.  ``rep_str`` is a rep's report string.

Every F_l rep is an ``int``: a residue for m = 1, else the encoding
sum(c_j * l^j) of ``tower.GaloisField(l, m)``, which runs every op of F_{l^m}.

Both characteristic-0 modes keep a coefficient as a plain ``int`` until a
division and as a ``Fraction`` only after one: a rational rep is that
number, a cyclotomic rep a tuple of such coefficients (Phi_n is monic, so
Z[zeta_n] is closed under +, - and *).  Every rational operation, and the
cyclotomic ``_inv`` and ``_from_rational``, turn an integral ``Fraction``
result back into an ``int``; later cyclotomic arithmetic may leave an
integral ``Fraction`` in place.  ``Fraction(k) == k`` and the two hash
alike, so reps stay canonical by value.  No operation ever yields a float.

Over Q(zeta_n) every character value, and nearly every coefficient of the
induced action, is a root of unity +-zeta_n^k.  ``CyclotomicField`` keeps
the one tuple rep for these too, but looks them up in an index of their
exponents, first of all: a product of two of them is read from a table of
the signed roots at exponent i+j mod n and the product sign, an inverse at
-k.  A product with another operand then checks for a rational factor,
which scales the other operand (1 returns it), and is otherwise a
schoolbook multiply folded mod Phi_n; every other inverse is the
Galois-norm product.  Sums and differences map ``operator.add`` and
``operator.sub`` over the coefficient tuples.

``residue_map`` reduces a characteristic-0 field onto F_l for a prime
l = 1 (mod n), the ring map behind ``cohom``'s mod-l rank bound, and
``choose_prime_for_order`` picks that l, prime to a group order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from . import polyutil
from .tower import TABLE_BUDGET, GaloisField


def require_field(field, other) -> None:
    """Raise unless `other` is `field` or an equal instance of it."""
    if other is not field and other != field:
        raise ValueError(f"coefficient mode mismatch: {field} vs {other}")


def _integral(x: Fraction):
    """x as an int when it is one; char-0 coefficients keep that form."""
    return x.numerator if x.denominator == 1 else x


class CoeffField:
    """Base for the three coefficient modes."""

    def scalar(self, x):
        """The rep of a rational number (an int or a ``Fraction``)."""
        return self._from_rational(Fraction(x))

    @cached_property
    def zero(self):
        return self.scalar(0)

    @cached_property
    def one(self):
        return self.scalar(1)

    def root_of_unity(self, n: int, e: int):
        """zeta_n^e; raises ValueError when the mode lacks the order."""
        e %= n
        if e == 0:
            return self.one
        g = math.gcd(e, n)
        return self._primitive_root(n // g, e // g)

    def supports_order(self, n: int) -> bool:
        """Whether a primitive n-th root of unity exists in this mode."""
        try:
            self._primitive_root(n, 1)
            return True
        except ValueError:
            return False

    def characteristic(self) -> int:
        raise NotImplementedError

    def _sub_scaled(self, a: dict, c, b: dict) -> dict:
        """a -= c*b in place on dicts of raw reps, dropping the entries that
        cancel; returns a.

        The elimination kernel of ``linalg``, on the field's raw ops; no
        other module calls it, since it changes its first argument.
        """
        zero = self.zero
        mul, sub = self._mul, self._sub
        for k, v in b.items():
            w = a.get(k)
            cv = mul(c, v)
            if w is None:
                if cv != zero:
                    a[k] = sub(zero, cv)
            else:
                w = sub(w, cv)
                if w != zero:
                    a[k] = w
                else:
                    del a[k]
        return a

    # subclasses: _add/_sub/_mul/_inv/_from_rational/_primitive_root/rep_str


class RationalField(CoeffField):
    """Q; a rep is an ``int`` while integral, else a ``Fraction``."""

    n = 1  # Q is Q(zeta_1); ``cohom`` picks its mod-l prime from n

    def _add(self, a, b):
        s = a + b
        return s if type(s) is int else _integral(s)

    def _sub(self, a, b):
        s = a - b
        return s if type(s) is int else _integral(s)

    def _mul(self, a, b):
        s = a * b
        return s if type(s) is int else _integral(s)

    def _inv(self, a):
        if a == 1 or a == -1:
            return a
        return _integral(Fraction(1) / a)

    def _from_rational(self, x: Fraction):
        return _integral(x)

    def _sub_scaled(self, a: dict, c, b: dict) -> dict:
        for k, v in b.items():
            w = a.get(k, 0) - c * v
            if w:
                a[k] = w if type(w) is int else _integral(w)
            else:
                a.pop(k, None)
        return a

    def _primitive_root(self, order: int, e: int):
        if order == 1:
            return self.one
        if order == 2:
            return self.scalar(-1)
        raise ValueError(f"rational mode has no root of unity of order {order}")

    def characteristic(self) -> int:
        return 0

    def rep_str(self, rep) -> str:
        return f"{rep.numerator}/{rep.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rat")

    def __repr__(self):
        return "Q"


class CyclotomicField(CoeffField):
    """Q[x]/Phi_n(x), reduced mod the cyclotomic polynomial.

    Reduction modulo Phi_n (rather than x^n - 1) makes representatives
    unique, so equality of scalars is tuple equality.  A coefficient is an
    ``int`` until a division (an inverse, or a non-integral rational input)
    and may stay a ``Fraction`` after one, integral or not: only ``_inv``
    and ``_from_rational`` turn integral results back into ``int``s, and
    the hot ``_mul`` does not normalise.

    ``_mul`` looks both operands up in ``_root_index`` first; two signed
    roots +-zeta^i and +-zeta^j give ``_signed_roots[sign][(i + j) % n]``,
    a table built once beside the index from the index's own tuples.
    Only then does a rational operand scale the other, and any other pair
    goes through the schoolbook product.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.n = n
        phi = polyutil.cyclotomic(n)
        self.degree = len(phi) - 1
        # x^k mod Phi_n for k in [degree, 2*degree-2], used to fold products;
        # the first row drives _zeta, which gives the others
        self._fold = [tuple(-c for c in phi[:-1])]
        # x^k mod Phi_n, extended on demand by shift-and-fold
        self._zeta_list = [self._one_rep()]
        self._fold += [self._zeta(k) for k in range(self.degree + 1, 2 * self.degree - 1)]

    def _one_rep(self):
        return (1,) + (0,) * (self.degree - 1)

    def _from_rational(self, x: Fraction):
        return (_integral(x),) + (0,) * (self.degree - 1)

    def _add(self, a, b):
        return tuple(map(operator.add, a, b))

    def _sub(self, a, b):
        return tuple(map(operator.sub, a, b))

    def _mul(self, a, b):
        # two roots of unity multiply by adding exponents
        index = self._root_index
        ra = index.get(a)
        if ra is not None:
            rb = index.get(b)
            if rb is not None:
                return self._signed_roots[ra[1] * rb[1]][(ra[0] + rb[0]) % self.n]
        # rational factors act by plain scaling, and 1 not at all
        if not any(a[1:]):
            c = a[0]
            if c == 1:
                return b
            return tuple(c * y for y in b) if c else a
        if not any(b[1:]):
            c = b[0]
            if c == 1:
                return a
            return tuple(c * x for x in a) if c else b
        d = self.degree
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k]
            if c:
                row = self._fold[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple(out[:d])

    @cached_property
    def _signed_roots(self):
        """The reps of +-zeta_n^k: ``_signed_roots[sign][k]`` for sign +-1
        and 0 <= k < n, one list per sign (the middle slot is unused).

        For even n, -zeta^k is zeta^(k + n/2), so both lists hold the same
        tuple objects; for odd n the negative list holds n negated ones."""
        n = self.n
        pos = [self._zeta(k) for k in range(n)]
        if n % 2:
            neg = [tuple(-c for c in z) for z in pos]
        else:
            neg = pos[n // 2:] + pos[:n // 2]
        return (None, pos, neg)

    @cached_property
    def _root_index(self):
        """Every root of unity of the field, +-zeta_n^k, -> (k, +-1).

        These are the character values and nearly every coefficient of the
        induced action, so most products and inverses are of them.  Its
        keys are the tuples of ``_signed_roots``; for even n, -zeta^k is
        zeta^(k + n/2) and keeps its unsigned entry.  Built on first use, it
        holds at most 2n reps."""
        _, pos, neg = self._signed_roots
        index = {z: (k, 1) for k, z in enumerate(pos)}
        for k, z in enumerate(neg):
            index.setdefault(z, (k, -1))
        return index

    def _signed_zeta(self, k: int, sign: int):
        return self._signed_roots[sign][k % self.n]

    def _inv(self, a):
        """(+-zeta^k)^-1 = +-zeta^-k; any other a^-1 is
        prod_{k != 1} sigma_k(a) / N(a), k over (Z/n)^*, where
        sigma_k(a) = sum_j a_j zeta^(jk).  With the denominators of a
        cleared first, the product stays in Z[zeta_n] and one division by
        the norm ends it."""
        root = self._root_index.get(a)
        if root is not None:
            return self._signed_zeta(-root[0], root[1])
        den = math.lcm(*(c.denominator for c in a))
        a = tuple(c.numerator * (den // c.denominator) for c in a)
        d = self.degree
        prod = self._one_rep()
        for k in range(2, self.n):
            if math.gcd(k, self.n) == 1:
                conj = [0] * d
                for j, c in enumerate(a):
                    if c:
                        z = self._zeta(j * k)
                        for m in range(d):
                            conj[m] += c * z[m]
                prod = self._mul(prod, tuple(conj))
        norm = self._mul(a, prod)[0]
        if norm == 0:
            raise ZeroDivisionError("scalar is not invertible")
        return tuple(_integral(Fraction(c * den, norm)) for c in prod)

    def _zeta(self, k: int):
        """x^k mod Phi_n, from an incrementally extended power table."""
        k %= self.n
        lst = self._zeta_list
        while len(lst) <= k:
            prev = lst[-1]
            top = prev[-1]
            cur = [0] + list(prev[:-1])
            if top:
                row = self._fold[0]
                for j in range(self.degree):
                    cur[j] += top * row[j]
            lst.append(tuple(cur))
        return lst[k]

    def _primitive_root(self, order: int, e: int):
        if self.n % order != 0:
            raise ValueError(f"cyclotomic order {self.n} has no root of order {order}")
        return self._zeta((self.n // order) * e)

    def characteristic(self) -> int:
        return 0

    def rep_str(self, rep) -> str:
        return "[" + ",".join(f"{c.numerator}/{c.denominator}" for c in rep) + "]"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self):
        return hash(("cyc", self.n))

    def __repr__(self):
        return f"Q(zeta_{self.n})"


class PrimeField(CoeffField):
    """F_l, or F_{l^m} for extension degree m > 1 on a `GaloisField`, whose
    encodings are the reps; a residue encodes itself."""

    def __init__(self, ell: int, m: int = 1):
        if not polyutil.is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.ell = ell
        self.m = m
        self._gf = None if m == 1 else GaloisField(ell, m)
        self.size = ell ** m
        self._root_cache = {}

    def _from_rational(self, x: Fraction):
        den = x.denominator % self.ell
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.ell}")
        return x.numerator * pow(den, -1, self.ell) % self.ell

    def _add(self, a, b):
        if self.m == 1:
            return (a + b) % self.ell
        return self._gf._add(a, b)

    def _sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.ell
        return self._gf._add(a, self._gf._neg(b))

    def _mul(self, a, b):
        if self.m == 1:
            return a * b % self.ell
        return self._gf._mul(a, b)

    def _sub_scaled(self, a: dict, c, b: dict) -> dict:
        if self.m != 1:
            return super()._sub_scaled(a, c, b)
        ell = self.ell
        for k, v in b.items():
            w = (a.get(k, 0) - c * v) % ell
            if w:
                a[k] = w
            else:
                a.pop(k, None)
        return a

    def _inv(self, a):
        if self.m == 1:
            if a == 0:
                raise ZeroDivisionError("scalar is not invertible")
            return pow(a, -1, self.ell)
        return self._gf._inv(a)

    @cached_property
    def _generator(self) -> int:
        """The first primitive root mod l."""
        n = self.ell - 1
        primes = polyutil.factorize(n)
        return next(g for g in range(1, self.ell) if all(pow(g, n // r, self.ell) != 1 for r in primes))

    def _primitive_root(self, order: int, e: int):
        if (self.size - 1) % order != 0:
            raise ValueError(
                f"F_{self.ell}^{self.m} has no root of unity of order {order}"
            )
        key = (order, e % order)
        rep = self._root_cache.get(key)
        if rep is None:
            k = (self.size - 1) // order * (e % order)
            rep = pow(self._generator, k, self.ell) if self.m == 1 else self._gf._pow(self._gf.gen_val, k)
            self._root_cache[key] = rep
        return rep

    def characteristic(self) -> int:
        return self.ell

    def rep_str(self, rep) -> str:
        if self.m == 1:
            return str(rep)
        return "[" + ",".join(str(c) for c in polyutil.digits(rep, self.ell, self.m)) + "]"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and (other.ell, other.m) == (self.ell, self.m)

    def __hash__(self):
        return hash(("fp", self.ell, self.m))

    def __repr__(self):
        return f"F_{self.ell}" if self.m == 1 else f"F_{self.ell}^{self.m}"


def choose_prime_for_order(n: int, floor: int = 5, avoid: int = 1) -> int:
    """Smallest prime l >= floor with l = 1 (mod n), so that order-n roots
    of unity live in the prime field itself, and l not dividing `avoid`
    (a group order, so that the group's order is invertible mod l)."""
    ell = max(floor, 2)
    if n > 1:
        ell = ((ell - 2) // n + 1) * n + 1
    while not polyutil.is_prime(ell) or avoid % ell == 0:
        ell += n
    return ell


def residue_map(field: CoeffField, ell: int) -> tuple:
    """(F_l, the reduction of `field`'s raw reps into it) for a
    characteristic-0 field Q(zeta_n), with l = 1 (mod n) prime.

    This is the ring map Z[zeta_n][1/d] -> F_l, d prime to l, that sends
    zeta_n to a primitive n-th root mod l; such a map can only lower the
    rank of a matrix.  A coefficient whose denominator l divides raises
    ZeroDivisionError.
    """
    target = PrimeField(ell)
    res = target._from_rational
    if isinstance(field, RationalField):
        return target, res
    zeta = [target.root_of_unity(field.n, j) for j in range(field.degree)]
    return target, lambda a: sum(res(c) * z for c, z in zip(a, zeta)) % ell


def parse_coeff_spec(spec: str) -> tuple:
    """Split a mode string "rat", "cyclo[:N]" or "fp[:L[:M]]" into the
    kind and its integer arguments; ValueError says what is wrong."""
    kind, *rest = spec.split(":")
    arity = {"rat": 0, "cyclo": 1, "fp": 2}.get(kind)
    if arity is None or len(rest) > arity:
        raise ValueError(f"unknown coefficient mode {spec!r}; expected rat, cyclo[:N] or fp[:L[:M]]")
    try:
        args = tuple(int(x) for x in rest)
    except ValueError:
        raise ValueError(f"coefficient mode {spec!r} takes integer arguments") from None
    if any(a < 1 for a in args):
        raise ValueError(f"coefficient mode {spec!r} takes positive arguments")
    if kind == "fp" and args and not polyutil.is_prime(args[0]):
        raise ValueError("fp characteristic must be prime")
    # l^m >= 2^m, so a degree of the budget's bit length or more is over it
    if kind == "fp" and len(args) == 2 and (
            args[1] >= TABLE_BUDGET.bit_length() or args[0] ** args[1] > TABLE_BUDGET):
        raise ValueError(f"fp:{args[0]}:{args[1]} exceeds the table budget of {TABLE_BUDGET} elements")
    return kind, args


def field_from_spec(spec: str, order: int = 1) -> CoeffField:
    """Build a field from a CLI-style mode string.

    "rat"; "cyclo" (order taken from the caller); "cyclo:N"; "fp" (prime
    searched with l = 1 mod order); "fp:L" or "fp:L:M".
    """
    kind, args = parse_coeff_spec(spec)
    if kind == "rat":
        return RationalField()
    if kind == "cyclo":
        return CyclotomicField(*args or (max(order, 1),))
    return PrimeField(*args) if args else PrimeField(choose_prime_for_order(max(order, 1)))
