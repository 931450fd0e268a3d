import pytest

from sl2ext.coeff import CyclotomicField, RationalField
from sl2ext.tower import Tower


@pytest.fixture(scope="session")
def tower22():
    return Tower(2, 2)


@pytest.fixture(scope="session")
def tower23():
    return Tower(2, 3)


@pytest.fixture(scope="session")
def tower32():
    return Tower(3, 2)


@pytest.fixture(scope="session")
def tower33():
    return Tower(3, 3)


@pytest.fixture(scope="session")
def tower42():
    return Tower(4, 2)


@pytest.fixture(scope="session")
def tower52():
    return Tower(5, 2)


@pytest.fixture(scope="session")
def rat():
    return RationalField()


@pytest.fixture(scope="session")
def cyc63():
    return CyclotomicField(63)


@pytest.fixture(scope="session")
def cyc8():
    return CyclotomicField(8)
