"""Property tests for the exact kernel on sparse matrices.

``ExactMatrix`` skips zero entries in ``+``, ``-``, unary ``-`` and scalar
``*``; these properties check every entry against plain ``GaussianRational``
arithmetic on matrices that are mostly zero, as the generators are.  The
Gauss-Jordan elimination behind ``rank`` and ``SpanSolver`` skips zeros too;
its properties are checked on sparse combinations with known coefficients.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lietower.exact import (  # noqa: E402
    I,
    ZERO,
    ExactMatrix,
    GaussianRational,
    SpanSolver,
    rank,
)

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


@KERNEL
@given(sparse_pairs(), scalars)
def test_gaussian_scalar_times_matrix(pair, s):
    a, _ = pair
    assert s * a == a * s
    assert I * a == a * I


def test_gaussian_scalar_times_other_raises():
    with pytest.raises(TypeError):
        I * "x"


def combine(coeffs, mats):
    acc = ExactMatrix.zeros(mats[0].dim)
    for c, m in zip(coeffs, mats):
        acc = acc + m * c
    return acc


@st.composite
def sparse_families(draw):
    """1..5 sparse matrices of one size with a coefficient for each."""
    dim = draw(st.integers(1, 4))
    slot = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    count = draw(st.integers(1, 5))
    mats = [
        ExactMatrix.from_entries(dim, draw(st.dictionaries(slot, scalars, max_size=dim)))
        for _ in range(count)
    ]
    return mats, draw(st.lists(scalars, min_size=count, max_size=count))


@KERNEL
@given(sparse_families())
def test_rank_ignores_appended_combination(family):
    mats, coeffs = family
    r = rank(mats)
    assert r <= len(mats)
    assert rank(mats + [combine(coeffs, mats)]) == r


@st.composite
def independent_bases(draw):
    """A shuffled echelon family: member k is nonzero at its own flat slot
    and zero at every earlier member's slot, so the family is independent
    by construction, whatever the elimination says."""
    dim = draw(st.integers(1, 4))
    nonzero = scalars.filter(bool)
    pivots = sorted(draw(st.sets(st.integers(0, dim * dim - 1), min_size=1, max_size=5)))
    basis = []
    for pivot in pivots:
        flat = {pivot: draw(nonzero)}
        if pivot + 1 < dim * dim:
            later = st.integers(pivot + 1, dim * dim - 1)
            flat.update(draw(st.dictionaries(later, scalars, max_size=dim)))
        basis.append(ExactMatrix.from_entries(dim, {divmod(k, dim): v for k, v in flat.items()}))
    basis = draw(st.permutations(basis))
    return basis, draw(st.lists(scalars, min_size=len(basis), max_size=len(basis)))


@KERNEL
@given(independent_bases())
def test_span_solver_recovers_coefficients(family):
    basis, coeffs = family
    assert SpanSolver(basis).expand(combine(coeffs, basis)) == coeffs
    assert rank(basis) == len(basis)
