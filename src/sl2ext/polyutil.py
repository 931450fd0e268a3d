"""Dense polynomial helpers over Z and Z/p.

Coefficient lists run lowest degree first and are trimmed; [] is the zero
polynomial.  These back the cyclotomic quotient fields and the finite
field tower, whose modulus ``first_irreducible`` finds by trial division;
they are deliberately minimal (small p, degree <= ~20).
"""

from __future__ import annotations

import math
from functools import lru_cache

TRIAL_DIVISION_CAP = 1 << 32  # largest q or fp characteristic a run names: 2^16 trial divisions


def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def mul_mod(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def rem_mod(a: list, m: list, p: int) -> list:
    """Remainder of a by a monic m, coefficients mod p."""
    a = [x % p for x in a]
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for j in range(dm):
                a[k - dm + j] = (a[k - dm + j] - c * m[j]) % p
    del a[dm:]
    return trim(a)


def pow_mod(base: list, e: int, m: list, p: int) -> list:
    result = [1]
    b = rem_mod(base, m, p)
    while e:
        if e & 1:
            result = rem_mod(mul_mod(result, b, p), m, p)
        b = rem_mod(mul_mod(b, b, p), m, p)
        e >>= 1
    return result


def digits(k: int, p: int, n: int) -> list:
    """The n lowest base-p digits of k, least significant first."""
    out = []
    for _ in range(n):
        k, r = divmod(k, p)
        out.append(r)
    return out


def first_irreducible(p: int, n: int) -> list:
    """Smallest monic irreducible of degree n over F_p, by trial division.

    Candidates are ordered by the integer encoding sum(c_j * p^j) of the
    non-leading coefficient vector, constant coefficient varying fastest.
    A reducible candidate has a monic factor of degree at most n // 2.
    """
    factors = [digits(k, p, d) + [1] for d in range(1, n // 2 + 1) for k in range(p ** d)]
    for k in range(p ** n):
        f = digits(k, p, n) + [1]
        if all(rem_mod(f, g, p) for g in factors):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


def int_divexact(a: list, b: list) -> list:
    """Exact division of integer polynomials, b monic; asserts zero remainder."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1]
        out[k] = c
        if c:
            for j in range(len(b)):
                a[k + j] -= c * b[j]
    if any(a):
        raise ValueError("division is not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial (integers, monic)."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            num = int_divexact(num, list(cyclotomic(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Sorted prime factors (without multiplicity)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def divisors(n: int) -> list:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int):
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    # the smallest divisor above 1 is prime; q itself when none is <= sqrt(q)
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None
