"""Generator sets built from realisations other than the defining matrices.

``GeneratorSet`` takes any one-size (a, b) -> matrix map, and the sweep, the
Cartan search, the root table and the Casimirs read the matrix size from the
set.  Two realisations are checked against the defining set: the direct sum
L (+) L, of twice the size, and the conjugate S L S^-1 by a fixed
invertible S over Z[i], which is not pseudo-antisymmetric for the diagonal
metric.
"""

import pytest

from lietower.cartan import casimir, casimir_invariance, find_cartan
from lietower.exact import I, ExactMatrix, GaussianRational
from lietower.sopq import (
    GeneratorSet,
    Metric,
    build_generators,
    pseudo_antisymmetry_holds,
    verify_commutation,
)
from lietower.verify import SuiteContext

from golden import tampered_build


def realise(gs, rep):
    """The generator set with every matrix of ``gs`` replaced by ``rep(matrix)``."""
    return GeneratorSet(gs.metric, {pair: rep(gs.gen(*pair)) for pair in gs.pairs})


def doubled(m):
    """The block-diagonal direct sum m (+) m."""
    n = m.dim
    entries = {(i, j): x for i, row in enumerate(m.rows) for j, x in enumerate(row)}
    return ExactMatrix.from_entries(
        2 * n, entries | {(i + n, j + n): x for (i, j), x in entries.items()}
    )


def elementary(n, i, j, c):
    """I + c e_ij, i != j, and its inverse I - c e_ij."""
    e = ExactMatrix.from_entries(n, {(i, j): c})
    return ExactMatrix.identity(n) + e, ExactMatrix.identity(n) - e


def conjugator(n):
    """A fixed product S of five elementary matrices over Z[i] and its exact
    inverse, the reversed product of the inverse factors."""
    factors = [
        elementary(n, 0, n - 1, 1 + I),
        elementary(n, n - 2, 1, -2),
        elementary(n, 2, 0, I),
        elementary(n, 1, 3, 3 - I),
        elementary(n, n - 1, 2, -1),
    ]
    s, s_inv = ExactMatrix.identity(n), ExactMatrix.identity(n)
    for f, f_inv in factors:
        s, s_inv = s @ f, f_inv @ s_inv
    assert s @ s_inv == ExactMatrix.identity(n)
    return s, s_inv


@pytest.mark.parametrize("p, q", [(3, 1), (4, 2), (4, 4)])
def test_direct_sum_realisation(p, q):
    defining = build_generators(Metric(p, q))
    gs = realise(defining, doubled)
    assert gs.zero.dim == 2 * (p + q)
    assert not verify_commutation(gs)["failures"]
    assert list(find_cartan(gs)) == list(find_cartan(defining))
    if (p, q) != (3, 1):
        assert SuiteContext(gs).roots == SuiteContext(defining).roots


def test_direct_sum_casimirs_42():
    gs = realise(build_generators(Metric(4, 2)), doubled)
    for degree, value in ((2, 5), (3, 0), (4, 110)):
        cas = casimir(gs, degree)
        assert cas.dim == 12
        assert cas.scaled_identity() == GaussianRational(value)
        assert casimir_invariance(gs, cas)


@pytest.mark.parametrize("p, q", [(4, 2), (4, 4), (5, 5)])
def test_conjugated_realisation(p, q):
    defining = build_generators(Metric(p, q))
    s, s_inv = conjugator(p + q)

    def conjugate(m):
        return s @ m @ s_inv

    gs = realise(defining, conjugate)
    assert gs.gen(1, 2) != defining.gen(1, 2)
    assert not verify_commutation(gs)["failures"]
    assert list(find_cartan(gs)) == list(find_cartan(defining))
    # g L'^T g = -L' holds for L' = S L S^-1 only when S preserves g
    assert not pseudo_antisymmetry_holds(gs)
    # the L12 fault survives the change of basis
    assert verify_commutation(realise(tampered_build(Metric(p, q)), conjugate))["failures"]
