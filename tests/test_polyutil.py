import time

import pytest

from sl2ext.polyutil import digits, first_irreducible, mul_mod, prime_power


@pytest.mark.parametrize("q,expected", [
    (999983, (999983, 1)),  # the largest prime below 10^6
    (997 ** 2, (997, 2)),
    (3 ** 12, (3, 12)),
    (2 ** 19 * 3, None),
    (1, None),
    (2, (2, 1)),
    (12, None),
])
def test_prime_power(q, expected):
    assert prime_power(q) == expected


def test_prime_power_is_fast_near_a_million():
    t0 = time.monotonic()
    for q in (999983, 997 ** 2, 999979 * 2):
        prime_power(q)
    assert time.monotonic() - t0 < 0.5


# among them the workloads' ambient fields F_{2^6} and F_{3^6}
FIRST_IRREDUCIBLE_CASES = [(p, n) for p in (2, 3, 5, 7) for n in range(2, 13) if p ** n <= 2 ** 12]


def _monic(p, d):
    """Every monic polynomial of degree d over F_p."""
    return [digits(k, p, d) + [1] for k in range(p ** d)]


@pytest.mark.parametrize("p,n", FIRST_IRREDUCIBLE_CASES)
def test_first_irreducible_is_the_first_non_product(p, n):
    # an oracle by multiplication, independent of the trial division: the
    # reducible monic polynomials of degree n are the products of two monic
    # ones of positive degree, and the answer is the first candidate, in
    # the encoding order sum(c_j * p^j), that is none of them
    reducible = {sum(c * p ** j for j, c in enumerate(mul_mod(a, b, p)[:n]))
                 for d in range(1, n) for a in _monic(p, d) for b in _monic(p, n - d)}
    k = next(k for k in range(p ** n) if k not in reducible)
    assert first_irreducible(p, n) == digits(k, p, n) + [1]
