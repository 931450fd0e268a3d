import time

import pytest

from sl2ext.polyutil import prime_power


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
