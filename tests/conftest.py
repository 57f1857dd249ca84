import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One profile for every property test: the same examples on every run, no
# per-example deadline (a barrier search can take 0.1 s) and no example
# database left behind.
settings.register_profile("rdcontrol", max_examples=20, derandomize=True, deadline=None,
                          database=None)
settings.load_profile("rdcontrol")

from rdcontrol.model import BistableNonlinearity, DomainGeometry, DriftField


@pytest.fixture(scope="session")
def nl033():
    return BistableNonlinearity.cubic(0.33)


@pytest.fixture(scope="session")
def homog():
    return DriftField.homogeneous()


@pytest.fixture(scope="session")
def gauss_out():
    return DriftField.radial("gauss_out", 1.0)


@pytest.fixture(scope="session")
def interval_25():
    return DomainGeometry.interval(2.5)


@pytest.fixture(scope="session")
def interval_1():
    return DomainGeometry.interval(1.0)
