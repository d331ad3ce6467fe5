"""The batched bracket kernel ``exact.brackets`` against two products.

Every judged bracket of a verdict goes through ``brackets``, so its answers
are held against ``a @ b - b @ a``, built by the product accumulator that the
kernel does not use: ``matrix()`` equals it, ``vanishes()`` holds exactly
when it is zero, and ``multiple_of(c)`` is the lambda of a dense reading of
it against c, with a zero c refused by ``ValueError``.  The pairs reuse and
share their operands, as a table of relations does, and come in as a
generator.  The same check runs on small sparse families and on the dense
conjugated generator sets of ``test_realisations``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from lietower.exact import ExactMatrix, brackets  # noqa: E402
from lietower.sopq import Metric, build_generators  # noqa: E402

from test_exact_properties import (  # noqa: E402
    KERNEL,
    dense,
    dense_scalar_multiple,
    scalars,
    sparse_entries,
)
from test_realisations import conjugator, realise  # noqa: E402


def assert_brackets_match_products(pairs, refs):
    """Judge ``pairs`` in one call and check every answer against the two
    products, with each of ``refs`` and the bracket itself as references."""
    judged = list(brackets((a, b) for a, b in pairs))
    assert len(judged) == len(pairs)
    for (a, b), bracket in zip(pairs, judged):
        want = a @ b - b @ a
        got = bracket.matrix()
        assert got == want and got._entries == want._entries
        assert bracket.vanishes() == want.is_zero()
        for ref in (*refs, want):
            if ref.is_zero():
                with pytest.raises(ValueError, match="^reference matrix is zero$"):
                    bracket.multiple_of(ref)
            else:
                assert bracket.multiple_of(ref) == dense_scalar_multiple(dense(want), dense(ref))


@st.composite
def sparse_bracket_families(draw):
    """1..4 sparse matrices of one size and 1..6 pairs of them, repeats,
    (m, m) and both orders allowed, with a scalar multiple of one member
    and the zero matrix among the references."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    mats = [ExactMatrix.from_entries(dim, draw(sparse_entries(dim))) for _ in range(count)]
    member = st.integers(0, count - 1)
    pairs = draw(st.lists(st.tuples(member, member), min_size=1, max_size=6))
    refs = [*mats, mats[draw(member)] * draw(scalars), ExactMatrix.zeros(dim)]
    return [(mats[s], mats[t]) for s, t in pairs], refs


@KERNEL
@given(sparse_bracket_families())
def test_brackets_match_two_products_on_sparse_families(family):
    pairs, refs = family
    assert_brackets_match_products(pairs, refs)


@pytest.fixture(scope="module")
def conjugated():
    """The generators of (3,1) and (4,2) conjugated by the fixed dense S."""
    sets = {}
    for p, q in ((3, 1), (4, 2)):
        s, s_inv = conjugator(p + q)
        sets[p, q] = realise(build_generators(Metric(p, q)), lambda m: s @ m @ s_inv).matrices()
    return sets


@KERNEL
@given(st.sampled_from([(3, 1), (4, 2)]), st.data())
def test_brackets_match_two_products_on_conjugated_sets(conjugated, signature, data):
    mats = conjugated[signature]
    member = st.integers(0, len(mats) - 1)
    pairs = data.draw(st.lists(st.tuples(member, member), min_size=1, max_size=4))
    refs = [mats[data.draw(member)]]
    assert_brackets_match_products([(mats[s], mats[t]) for s, t in pairs], refs)


def test_brackets_of_no_pairs_and_a_size_mismatch():
    assert list(brackets([])) == []
    two, three = ExactMatrix.identity(2), ExactMatrix.identity(3)
    # a pair is summed, and its sizes checked, when it is read
    judged = brackets([(two, two), (two, three)])
    assert next(judged).vanishes()
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        next(judged)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        next(brackets([(two, two)])).multiple_of(three)
