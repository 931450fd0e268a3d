"""Exact coefficient fields for the workbench.

Three modes: the rationals, cyclotomic quotients Q[x]/Phi_n(x), and prime
fields F_l (with optional extension degree).  Each mode has one value
type, its raw rep: an immutable canonical representative, so == is exact
equality, and every nonzero rep has an exact inverse.  A field object
computes on its reps with ``_add``, ``_sub``, ``_mul`` and ``_inv``; a rep
does not know its field, so the layers that mix values of two sources
check the fields once at their boundary (``require_field``).  ``zero``,
``one``, ``scalar`` and the character values of ``root_of_unity`` are
reps too; no report prints one.

The roots of unity of a mode are one cyclic group of order ``root_order``:
2 over Q, n over Q(zeta_n) for even n and 2n for odd n, and l^m - 1 over
F_{l^m}.  ``_root(k)`` is the k-th power of the mode's fixed generator: -1,
the one below over Q(zeta_n), the first primitive root mod l, or the
``GaloisField`` generator.  ``root_of_unity`` and ``supports_order`` read
only these two, so a mode supports order n exactly when n divides
``root_order``.

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
induced action, is a root of unity: +-zeta_n^k, a power of the generator
x for even n and of -x^((n+1)/2) for odd n.  ``CyclotomicField`` keeps the
one tuple rep for these too, in one table of the generator's powers, and
looks them up in an index of their exponents first of all: a product of
two of them is the table entry at exponent i+j, an inverse at -k.  A
product with another operand then checks for a rational factor, which
scales the other operand (1 returns it), and is otherwise a schoolbook
multiply folded mod Phi_n; every other inverse is the Galois-norm
product.  Sums and differences map ``operator.add`` and ``operator.sub``
over the coefficient tuples.
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
        """zeta_n^e; raises ValueError when the mode lacks its order."""
        g = math.gcd(n, e)
        d = n // g
        if not self.supports_order(d):
            raise ValueError(f"{self!r} has no root of unity of order {d}")
        return self._root(self.root_order // d * (e // g) % self.root_order)

    def supports_order(self, n: int) -> bool:
        """Whether a primitive n-th root of unity exists in this mode."""
        return self.root_order % n == 0

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

    # subclasses: root_order/_root/_add/_sub/_mul/_inv/_from_rational


class RationalField(CoeffField):
    """Q; a rep is an ``int`` while integral, else a ``Fraction``."""

    root_order = 2  # +-1

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

    def _root(self, k: int):
        return -1 if k else 1

    def characteristic(self) -> int:
        return 0

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

    The roots of unity form one cyclic group of order ``root_order``: n for
    even n, and 2n for odd n, where -1 is no power of x.  Its generator is
    x for even n and -x^((n+1)/2), whose square is x, for odd n.
    ``_roots[k]`` is the generator's k-th power and ``_root_index`` maps
    each of those tuples back to k.  ``_mul`` looks both operands up in the
    index first, and two roots i and j give ``_roots[(i + j) % root_order]``.
    Only then does a rational operand scale the other, and any other pair
    goes through the schoolbook product.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.n = n
        self.degree = len(polyutil.cyclotomic(n)) - 1
        self.root_order = n if n % 2 == 0 else 2 * n

    def _from_rational(self, x: Fraction):
        return (_integral(x),) + (0,) * (self.degree - 1)

    def _add(self, a, b):
        return tuple(map(operator.add, a, b))

    def _sub(self, a, b):
        return tuple(map(operator.sub, a, b))

    def _mul(self, a, b):
        # two roots of unity multiply by adding exponents
        index = self._root_index
        i = index.get(a)
        if i is not None:
            j = index.get(b)
            if j is not None:
                return self._roots[(i + j) % self.root_order]
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
    def _roots(self):
        """The generator's powers, ``_roots[k]`` for 0 <= k < root_order.

        x^k for k < n comes by shift and fold, x^degree being minus the low
        coefficients of Phi_n.  For odd n the generator's k-th power is
        (-1)^k x^(k(n+1)/2): the even slots hold the x^k in order, and each
        odd slot one negated x^k."""
        n, d = self.n, self.degree
        top_row = [-c for c in polyutil.cyclotomic(n)[:-1]]
        powers = [self.one]
        for _ in range(n - 1):
            prev = powers[-1]
            cur = [0, *prev[:-1]]
            top = prev[-1]
            if top:
                for j in range(d):
                    cur[j] += top * top_row[j]
            powers.append(tuple(cur))
        if n % 2 == 0:
            return powers
        negated = [tuple(-c for c in z) for z in powers]
        return [(negated if k % 2 else powers)[k * (n + 1) // 2 % n] for k in range(2 * n)]

    @cached_property
    def _root_index(self):
        """Every root of unity of the field -> its exponent in ``_roots``.

        These are the character values and nearly every coefficient of the
        induced action, so most products and inverses are of them.  Its
        keys are the tuples of ``_roots`` themselves."""
        return {z: k for k, z in enumerate(self._roots)}

    @cached_property
    def _fold(self):
        """x^k mod Phi_n for degree <= k <= 2*degree - 2: the rows that fold
        a schoolbook product back below the degree."""
        d, order = self.degree, self.root_order
        step = order // self.n
        return [self._roots[step * k % order] for k in range(d, 2 * d - 1)]

    def _root(self, k: int):
        return self._roots[k]

    def _inv(self, a):
        """A root of unity inverts at minus its exponent, and w - 1, for a
        root w != 1 of order m, at m^-1 sum_{t<m} t w^t: the sum of the w^t
        is 0, so (w - 1) sum_t t w^t = m.  Any other a^-1 is
        prod_{k != 1} sigma_k(a) / N(a), k over (Z/n)^*, where
        sigma_k(a) = sum_j a_j x^(jk).  With the denominators of a cleared
        first, the product stays in Z[zeta_n] and one division by the norm
        ends it."""
        roots, order, index = self._roots, self.root_order, self._root_index
        n, d = self.n, self.degree
        i = index.get(a)
        if i is not None:
            return roots[-i % order]
        i = index.get((a[0] + 1,) + a[1:])
        if i:
            m = order // math.gcd(i, order)
            out = [0] * d
            for t in range(1, m):
                for j, c in enumerate(roots[i * t % order]):
                    if c:
                        out[j] += t * c
            return tuple(_integral(Fraction(c, m)) for c in out)
        den = math.lcm(*(c.denominator for c in a))
        a = tuple(c.numerator * (den // c.denominator) for c in a)
        step = order // n
        prod = self.one
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                conj = [0] * d
                for j, c in enumerate(a):
                    if c:
                        z = roots[step * j * k % order]
                        for m in range(d):
                            conj[m] += c * z[m]
                prod = self._mul(prod, tuple(conj))
        norm = self._mul(a, prod)[0]
        if norm == 0:
            raise ZeroDivisionError("scalar is not invertible")
        return tuple(_integral(Fraction(c * den, norm)) for c in prod)

    def characteristic(self) -> int:
        return 0

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
        self.root_order = self.size - 1

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

    def _root(self, k: int):
        if self.m == 1:
            return pow(self._generator, k, self.ell)
        return self._gf._pow(self._gf.gen_val, k)

    def characteristic(self) -> int:
        return self.ell

    def __eq__(self, other):
        return isinstance(other, PrimeField) and (other.ell, other.m) == (self.ell, self.m)

    def __hash__(self):
        return hash(("fp", self.ell, self.m))

    def __repr__(self):
        return f"F_{self.ell}" if self.m == 1 else f"F_{self.ell}^{self.m}"


def choose_prime_for_order(n: int, avoid: int = 1) -> int:
    """Smallest prime l >= 5 with l = 1 (mod n), so that order-n roots of
    unity live in the prime field itself, and l not dividing `avoid` (a
    group order, so that the group's order is invertible mod l).  The
    bound 5 is the paper's regime char k >= 5."""
    ell = 5
    if n > 1:
        ell = (3 // n + 1) * n + 1
    while not polyutil.is_prime(ell) or avoid % ell == 0:
        ell += n
    return ell


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
    if kind == "fp" and args and args[0] > polyutil.TRIAL_DIVISION_CAP:
        raise ValueError(f"fp characteristic must be at most {polyutil.TRIAL_DIVISION_CAP}")
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
