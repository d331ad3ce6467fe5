import pytest

from lietower.cartan import (
    ladder_operators,
    split_basis_so44,
    weyl_generators,
    yao_basis,
)
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
def oriented_ladders():
    """``oriented_ladders(gs, cartan)``: the Weyl generators of gs over cartan,
    name -> (matrix, root), built from the adapted basis of signature (4,2)
    or (4,4)."""

    def build(gs, cartan):
        if gs.metric == Metric(4, 2):
            basis = yao_basis(gs)
        else:
            first, second = split_basis_so44(gs)
            basis = {**first, **second}
        return weyl_generators(cartan, ladder_operators(basis))

    return build
