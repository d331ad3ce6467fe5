"""Property tests for the exact kernel on sparse matrices.

``ExactMatrix`` stores only its nonzero entries; these properties check
every operation against plain ``GaussianRational`` arithmetic on a dense
reference read through ``m[i, j]``, on matrices that are mostly zero, as the
generators are, and check that equal matrices compare and hash equal however
they were built.  The echelon elimination behind ``rank`` and
``SpanSolver`` runs on sparse rows too; its properties are checked on sparse
combinations with known coefficients, and against the dense oracle of
``test_elimination_oracle`` on small Gaussian-integer families with planted
dependencies.  The scalars themselves are checked against the field axioms
and, operation by operation, against a reference pair of ``Fraction``s
computed here; values reached by different routes must agree in ``==``,
``hash`` and ``str``.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

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
    bracket_multiple,
    commutator,
    commutes,
    format_combination,
    linear_combination,
    pairwise_commutators,
    rank,
)

from test_elimination_oracle import assert_agree  # noqa: E402

KERNEL = settings(derandomize=True, database=None, deadline=None)

# every n/d in [-4, 4] with d <= 6, sampled from one list ordered by size so
# that a failing example shrinks toward 0
rationals = st.sampled_from(
    sorted(
        {Fraction(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)},
        key=lambda x: (abs(x), x),
    )
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(bool)

# Strategies that depend only on a size, built once per size and shared by
# the composite strategies below.


@cache
def sparse_entries(dim):
    """{(row, col): scalar} maps of a dim x dim matrix, at most dim entries."""
    slot = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return st.dictionaries(slot, scalars, max_size=dim)


@cache
def scalar_lists(count):
    return st.lists(scalars, min_size=count, max_size=count)


@cache
def flat_slots(dim):
    """Sets of 1..5 distinct flat indices of a dim x dim matrix."""
    return st.sets(st.integers(0, dim * dim - 1), min_size=1, max_size=5)


@cache
def entries_after(pivot, dim):
    """{flat index: scalar} maps on the indices after ``pivot``."""
    return st.dictionaries(st.integers(pivot + 1, dim * dim - 1), scalars, max_size=dim)


@st.composite
def sparse_pairs(draw):
    """Two same-size matrices with at most ``dim`` nonzero slots each."""
    dim = draw(st.integers(1, 5))
    entries = sparse_entries(dim)
    return (
        ExactMatrix.from_entries(dim, draw(entries)),
        ExactMatrix.from_entries(dim, draw(entries)),
    )


def assert_entrywise(result, expected_entry):
    for i, row in enumerate(result.rows):
        for j, x in enumerate(row):
            assert type(x) is GaussianRational
            assert x == expected_entry(i, j)
            assert str(x) == ref_str(x.re, x.im)


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
    count = draw(st.integers(1, 5))
    mats = [ExactMatrix.from_entries(dim, draw(sparse_entries(dim))) for _ in range(count)]
    return mats, draw(scalar_lists(count))


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
    pivots = sorted(draw(flat_slots(dim)))
    basis = []
    for pivot in pivots:
        flat = {pivot: draw(nonzero_scalars)}
        if pivot + 1 < dim * dim:
            flat.update(draw(entries_after(pivot, dim)))
        basis.append(ExactMatrix.from_entries(dim, {divmod(k, dim): v for k, v in flat.items()}))
    basis = draw(st.permutations(basis))
    return basis, draw(scalar_lists(len(basis)))


@KERNEL
@given(independent_bases())
def test_span_solver_recovers_coefficients(family):
    basis, coeffs = family
    assert SpanSolver(basis).expand(combine(coeffs, basis)) == coeffs
    assert rank(basis) == len(basis)


@KERNEL
@given(independent_bases())
def test_describer_matches_the_dense_expansion(family):
    # the describer reads the sparse coefficient map; the dense list of
    # ``expand``, formatted with its zeros dropped, is the oracle
    basis, coeffs = family
    names = [f"E{k}" for k in range(len(basis))]
    x = combine(coeffs, basis)
    want = format_combination((c, n) for c, n in zip(SpanSolver(basis).expand(x), names) if c)
    assert SpanSolver(basis).describer(names, "<outside>")(x) == want


gaussian_integers = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def planted_families(draw):
    """Small sparse Gaussian-integer matrices of at most three entries, with
    up to three members inserted as combinations of the members before
    them, and a target: a free sparse matrix or a combination."""
    dim = draw(st.integers(2, 3))
    slot = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    sparse = st.dictionaries(slot, gaussian_integers, max_size=3).map(
        lambda entries: ExactMatrix.from_entries(dim, entries)
    )
    mats = draw(st.lists(sparse, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(mats)))
        mats.insert(k, combine(draw(st.lists(gaussian_integers, min_size=k, max_size=k)), mats[:k]))
    target = draw(st.one_of(sparse, st.just(mats[-1] + mats[0] * I)))
    return mats, target


@KERNEL
@given(planted_families())
def test_elimination_matches_the_dense_oracle(family):
    mats, target = family
    assert_agree(mats, [target])


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
@given(sparse_pairs())
def test_fused_commutator_matches_two_products(pair):
    # one accumulator for a@b - b@a: the same stored map as the two
    # products subtracted, no stored zero, and antisymmetry
    a, b = pair
    got = commutator(a, b)
    assert got._entries == (a @ b - b @ a)._entries
    assert all(a or b for a, b, _ in got._entries.values())
    assert (got + commutator(b, a)).is_zero()


@KERNEL
@given(sparse_families())
def test_pairwise_commutators_match_per_pair_commutators(family):
    # one join for the whole family: every nonzero bracket of s < t, in
    # ascending key order, with the same stored map as ``commutator``
    mats, _ = family
    want = []
    for (s, a), (t, b) in combinations(enumerate(mats), 2):
        got = commutator(a, b)
        if not got.is_zero():
            want.append(((s, t), got))
    got = list(pairwise_commutators(mats).items())
    assert got == want
    assert [list(m._entries.items()) for _, m in got] == [
        list(m._entries.items()) for _, m in want
    ]


@KERNEL
@given(sparse_families())
def test_linear_combination_matches_chained_sum(family):
    mats, coeffs = family
    got = linear_combination(mats[0].dim, zip(coeffs, mats))
    assert got._entries == combine(coeffs, mats)._entries
    assert all(a or b for a, b, _ in got._entries.values())


@KERNEL
@given(sparse_pairs(), scalars)
def test_scaled_identity_matches_dense(pair, s):
    a, _ = pair
    scaled = ExactMatrix.identity(a.dim) * s
    for m in (a, scaled, scaled + a, ExactMatrix.zeros(a.dim)):
        assert m.scaled_identity() == dense_scaled_identity(dense(m))


@st.composite
def sparse_triples(draw):
    """Three same-size matrices with at most ``dim`` nonzero slots each."""
    a, b = draw(sparse_pairs())
    return a, b, ExactMatrix.from_entries(a.dim, draw(sparse_entries(a.dim)))


@KERNEL
@given(sparse_triples(), scalars)
def test_bracket_decisions_match_the_bracket_matrix(triple, s):
    # the unreduced sums decide as the reduced bracket matrix does
    a, b, c = triple
    bracket = commutator(a, b)
    assert commutes(a, b) == bracket.is_zero()
    for ref in (c, bracket, bracket * s, bracket * s + c):
        if not ref.is_zero():
            want = dense_scalar_multiple(dense(bracket), dense(ref))
            assert bracket_multiple(a, b, ref) == want


@KERNEL
@given(sparse_pairs())
def test_equality_and_hash_agree_across_construction_routes(pair):
    a, b = pair
    n = a.dim
    routes = [
        a,
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
        assert str(v) == ref_str(v.re, v.im)


# -- GaussianRational against a Fraction-pair reference -----------------------


def ref_str(re, im):
    """The canonical text of re + im*i, spelled out on plain Fractions."""
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


@st.composite
def scalar_triples(draw):
    """(a, b, d) with d >= 1, b often one of 0, +-d, so that the parts
    +-1 and +-i and a zero part come up as well as wide numerators."""
    d = draw(st.integers(1, 10**4))
    part = st.one_of(st.integers(-(10**6), 10**6), st.sampled_from([0, d, -d, 2 * d]))
    return draw(part), draw(part), d


@KERNEL
@given(scalar_triples())
def test_scalar_str_matches_the_fraction_formula(triple):
    # str formats the stored triple; ref_str on Fractions is the oracle
    a, b, d = triple
    x = GaussianRational(Fraction(a, d), Fraction(b, d))
    assert str(x) == ref_str(Fraction(a, d), Fraction(b, d))


def assert_matches_pair(x, pair):
    re, im = pair
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (re, im)
    assert bool(x) == bool(re or im)
    assert x.is_real == (im == 0)
    assert str(x) == ref_str(re, im)


@KERNEL
@given(rationals, rationals, rationals, rationals)
def test_scalar_arithmetic_matches_fraction_pairs(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    assert_matches_pair(x, (a, b))
    assert (x == y) == ((a, b) == (c, d))
    assert (x == x / 3) == (not x)
    assert_matches_pair(x + y, (a + c, b + d))
    assert_matches_pair(x - y, (a - c, b - d))
    assert_matches_pair(x * y, (a * c - b * d, a * d + b * c))
    assert_matches_pair(-x, (-a, -b))
    norm = c * c + d * d
    if norm:
        assert_matches_pair(x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@KERNEL
@given(rationals, rationals, st.integers(-3, 3))
def test_scalar_mixed_int_fraction_operands(a, b, k):
    x = GaussianRational(a, b)
    for other in (k, Fraction(k, 7)):
        assert_matches_pair(x + other, (a + other, b))
        assert_matches_pair(other - x, (other - a, -b))
        assert_matches_pair(other * x, (a * other, b * other))
        if other:
            assert_matches_pair(x / other, (a / other, b / other))


def assert_same_value(values):
    first = values[0]
    for v in values:
        assert v == first and hash(v) == hash(first) and str(v) == str(first)


@KERNEL
@given(scalars, scalars, st.integers(1, 6))
def test_scalar_canonical_form_across_routes(x, y, k):
    re, im = x.re, x.im
    routes = [
        x,
        GaussianRational(Fraction(re.numerator * k, re.denominator * k), im),
        GaussianRational(
            Fraction(-re.numerator, -re.denominator),
            Fraction(im.numerator * -k, im.denominator * -k),
        ),
        (x + y) - y,
        y + x - y,
        -(-x),
        x * GaussianRational(k) / GaussianRational(-k) * GaussianRational(-1),
    ]
    if y:
        routes += [x * y / y, x / y * y]
    assert_same_value(routes)
    assert_same_value([x - x, ZERO, GaussianRational(Fraction(0, 5), 0), x * 0])


def test_scalar_builder_normalises_negative_denominator():
    from lietower.exact import _canonical, _wrap

    third = GaussianRational(Fraction(1, 3), Fraction(-2, 3))
    assert_same_value([_wrap(_canonical(-3, 6, -9)), _wrap(_canonical(1, -2, 3)), third])
    assert_same_value([_wrap(_canonical(0, 0, -4)), ZERO])


def test_scalar_str_prints_each_part_in_lowest_terms():
    assert str(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
    assert str(GaussianRational(Fraction(3, 6), Fraction(-2, 6))) == "1/2-1/3i"
    assert str(GaussianRational(Fraction(5, 6), Fraction(1, 6)) * 3) == "5/2+1/2i"


@pytest.mark.parametrize("bad", [1.0, 0.5, "1", GaussianRational(1), True, False])
def test_scalar_constructor_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        GaussianRational(bad)
    with pytest.raises(TypeError):
        GaussianRational(0, bad)
    if not isinstance(bad, GaussianRational):  # a GaussianRational scales a matrix
        with pytest.raises(TypeError):
            ExactMatrix.identity(2) * bad


def test_scalar_is_immutable_and_never_equals_a_plain_number():
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "is_real", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x == GaussianRational(Fraction(1, 2), 3)
    assert GaussianRational(5) != 5 and not GaussianRational(5) == 5
    assert GaussianRational(5).__eq__(5) is NotImplemented
