"""Property tests for the exact kernel on sparse matrices.

``ExactMatrix`` stores only its nonzero entries; these properties check
every operation against plain ``GaussianRational`` arithmetic on a dense
reference read through ``m[i, j]``, on matrices that are mostly zero, as the
generators are, and check that equal matrices compare and hash equal however
they were built.  The Gauss-Jordan elimination behind ``rank`` and
``SpanSolver`` runs on sparse rows too; its properties are checked on sparse
combinations with known coefficients.  The scalars themselves are checked
against the field axioms.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lietower.exact import (  # noqa: E402
    I,
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    SpanSolver,
    commutator,
    rank,
    scalar_multiple_of,
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


# -- the sparse kernel against a dense reference ------------------------------


def dense(m):
    """The matrix as nested lists, read through ``m[i, j]`` only."""
    return [[m[i, j] for j in range(m.dim)] for i in range(m.dim)]


def dense_matmul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def dense_scaled_identity(x):
    lam = x[0][0]
    ok = all(v == (lam if i == j else ZERO) for i, row in enumerate(x) for j, v in enumerate(row))
    return lam if ok else None


def dense_scalar_multiple(x, y):
    flat = [(va, vb) for rx, ry in zip(x, y) for va, vb in zip(rx, ry)]
    lam = next(va / vb for va, vb in flat if vb)
    return lam if all(va == vb * lam for va, vb in flat) else None


@KERNEL
@given(sparse_pairs())
def test_sparse_matmul_commutator_transpose_match_dense(pair):
    a, b = pair
    da, db = dense(a), dense(b)
    ab, ba = dense_matmul(da, db), dense_matmul(db, da)
    assert dense(a @ b) == ab
    assert dense(commutator(a, b)) == [
        [x - y for x, y in zip(rx, ry)] for rx, ry in zip(ab, ba)
    ]
    assert dense(a.transpose()) == [list(col) for col in zip(*da)]
    assert a.is_zero() == all(v == ZERO for row in da for v in row)


@KERNEL
@given(sparse_pairs(), scalars)
def test_scaled_identity_matches_dense(pair, s):
    a, _ = pair
    scaled = ExactMatrix.identity(a.dim) * s
    for m in (a, scaled, scaled + a, ExactMatrix.zeros(a.dim)):
        assert m.scaled_identity() == dense_scaled_identity(dense(m))


@KERNEL
@given(sparse_pairs(), scalars)
def test_scalar_multiple_of_matches_dense(pair, s):
    a, b = pair
    if b.is_zero():
        return
    for m in (a, b * s, b * s + a, ExactMatrix.zeros(b.dim)):
        assert scalar_multiple_of(m, b) == dense_scalar_multiple(dense(m), dense(b))


@KERNEL
@given(sparse_pairs())
def test_equality_and_hash_agree_across_construction_routes(pair):
    a, b = pair
    n = a.dim
    routes = [
        a,
        ExactMatrix(dense(a)),
        ExactMatrix.from_entries(n, {(i, j): a[i, j] for i in range(n) for j in range(n)}),
        (a + b) - b,
        b + a - b,
    ]
    for m in routes:
        assert m == a and hash(m) == hash(a)
    zero = ExactMatrix.zeros(n)
    for cancelled in (a + (-a), a - a, a * 0, commutator(a, a), b - b + a - a):
        assert cancelled == zero and hash(cancelled) == hash(zero)
        assert cancelled.is_zero()


# -- GaussianRational field axioms --------------------------------------------


@KERNEL
@given(scalars, scalars, scalars)
def test_scalar_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + (-x) == ZERO and x - x == ZERO
    assert x + ZERO == x and x * ONE == x
    if x:
        assert x * (ONE / x) == ONE
        assert (y / x) * x == y


@KERNEL
@given(scalars, scalars)
def test_scalar_str_parse_round_trip_products_quotients(x, y):
    for v in [x * y] + ([x / y] if y else []):
        assert GaussianRational.parse(str(v)) == v
