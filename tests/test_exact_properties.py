"""Property tests for the exact kernel on sparse matrices.

``ExactMatrix`` skips zero entries in ``+``, ``-``, unary ``-`` and scalar
``*``; these properties check every entry against plain ``GaussianRational``
arithmetic on matrices that are mostly zero, as the generators are.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lietower.exact import ZERO, ExactMatrix, GaussianRational  # noqa: E402

KERNEL = settings(derandomize=True, database=None, deadline=None)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(GaussianRational, rationals, rationals)


@st.composite
def sparse_pairs(draw):
    """Two same-size matrices with at most ``dim`` nonzero slots each."""
    dim = draw(st.integers(1, 5))
    slot = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    entries = st.dictionaries(slot, scalars, max_size=dim)
    return (
        ExactMatrix.from_entries(dim, draw(entries)),
        ExactMatrix.from_entries(dim, draw(entries)),
    )


def assert_entrywise(result, expected_entry):
    for i, row in enumerate(result.rows):
        for j, x in enumerate(row):
            assert type(x) is GaussianRational
            assert x == expected_entry(i, j)
            assert GaussianRational.parse(str(x)) == x


@KERNEL
@given(sparse_pairs())
def test_sparse_add_sub_neg_entrywise(pair):
    a, b = pair
    assert_entrywise(a + b, lambda i, j: a[i, j] + b[i, j])
    assert_entrywise(a - b, lambda i, j: a[i, j] - b[i, j])
    assert_entrywise(-a, lambda i, j: ZERO - a[i, j])


@KERNEL
@given(
    sparse_pairs(),
    st.one_of(st.just(0), st.just(ZERO), st.integers(-3, 3), rationals, scalars),
)
def test_sparse_scalar_mul_entrywise(pair, s):
    a, _ = pair
    assert_entrywise(a * s, lambda i, j: a[i, j] * s)
    if not s:
        assert (a * s).is_zero()
