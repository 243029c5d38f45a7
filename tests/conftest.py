import signal
from typing import NamedTuple

import numpy as np
import pytest

from aqcc import matrix
from aqcc.gf import FiniteField


@pytest.fixture(scope="session")
def gf2():
    return FiniteField.get(2, 1)


@pytest.fixture(scope="session")
def gf3():
    return FiniteField.get(3, 1)


@pytest.fixture(scope="session")
def gf16():
    return FiniteField.get(2, 4)


@pytest.fixture(scope="session")
def gf256():
    return FiniteField.get(2, 8)


@pytest.fixture(scope="session")
def gf11():
    return FiniteField.get(11, 1)


@pytest.fixture
def deadline():
    """Fail a test that runs past 5 s instead of letting it hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 5 s wall-clock guard")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Elimination(NamedTuple):
    field: FiniteField
    a: np.ndarray
    red: np.ndarray
    piv: tuple


@pytest.fixture
def eliminations(monkeypatch) -> list:
    """Every elimination matrix._rref makes during the test: its field, a
    copy of its input and a copy of its result."""
    seen = []
    rref = matrix._rref

    def recorded(field, a):
        red, piv = rref(field, a)
        seen.append(Elimination(field, np.array(a), red.copy(), piv))
        return red, piv

    monkeypatch.setattr(matrix, "_rref", recorded)
    return seen
