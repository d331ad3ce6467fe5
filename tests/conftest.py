import pytest

from lietower.periodic import assign_elements
from lietower.sopq import Metric, build_generators


@pytest.fixture(scope="session")
def gs42():
    return build_generators(Metric(4, 2))


@pytest.fixture(scope="session")
def gs44():
    return build_generators(Metric(4, 4))


@pytest.fixture(scope="session")
def elements():
    return assign_elements()


@pytest.fixture(scope="session")
def matter_elements():
    """``matter_elements(tower)``: the filled slots on the matter floors
    n > 0 of a tower slice, in n, l, m order."""

    def collect(tower):
        return [
            e
            for n, rings in tower.floors.items()
            if n > 0
            for ring in rings.values()
            for e in ring.values()
            if e is not None
        ]

    return collect
