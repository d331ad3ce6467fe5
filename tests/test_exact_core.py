"""Exact scalar/matrix layer: arithmetic, rank, proportionality, expansion."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lietower.cartan import check_relation_table, yao_basis
from lietower.exact import (
    ExactMatrix,
    GaussianRational,
    I,
    SpanSolver,
    bracket_multiple,
    commutator,
    commutes,
    pairwise_commutators,
    product_sum,
    rank,
)
from lietower.paper import Relation
from lietower.sopq import Metric, build_generators

from golden import tampered_build


def g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def random_scalar(rng):
    return g(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def dense_matrix(rows):
    """The matrix of a square list of rows, built through ``from_entries``."""
    cells = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
    return ExactMatrix.from_entries(len(rows), cells)


def random_matrix(rng, dim=3):
    return dense_matrix([[random_scalar(rng) for _ in range(dim)] for _ in range(dim)])


# -- scalars -------------------------------------------------------------


def test_scalar_lowest_terms():
    x = g(Fraction(2, 4), Fraction(-6, 8))
    assert x.re == Fraction(1, 2) and x.re.denominator == 2
    assert x.im == Fraction(-3, 4) and x.im.denominator == 4


def test_scalar_arithmetic_exact():
    a = g(Fraction(1, 3), Fraction(1, 2))
    b = g(Fraction(2, 3), Fraction(-1, 2))
    assert a + b == g(1, 0)
    assert a * b == g(Fraction(2, 9) + Fraction(1, 4), Fraction(1, 3) - Fraction(1, 6))
    assert (a / b) * b == a
    assert -a + a == g(0)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        g(1) / g(0)


CANONICAL_TEXT = [
    (0, 0, "0"),
    (1, 0, "1"),
    (Fraction(-3, 4), 0, "-3/4"),
    (0, 1, "i"),
    (0, -1, "-i"),
    (0, 2, "2i"),
    (0, Fraction(-5, 7), "-5/7i"),
    (Fraction(1, 2), Fraction(3, 4), "1/2+3/4i"),
    (1, -1, "1-i"),
    (Fraction(-2, 3), Fraction(-1, 6), "-2/3-1/6i"),
]


@pytest.mark.parametrize("re, im, text", CANONICAL_TEXT, ids=[t for *_, t in CANONICAL_TEXT])
def test_scalar_str_parse_round_trip(re, im, text):
    """``str`` is faithful: each (re, im) prints as its one canonical spelling."""
    assert str(g(re, im)) == text


def test_scalar_str_canonical():
    assert str(g(0, 0)) == "0"
    assert str(g(0, 1)) == "i"
    assert str(g(0, -1)) == "-i"
    assert str(g(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"


# -- matrices ------------------------------------------------------------


def test_matrix_equality_is_exact():
    a = dense_matrix([[g(Fraction(1, 3))]])
    b = dense_matrix([[g(Fraction(1, 3))]])
    c = dense_matrix([[g(Fraction(1, 3) + Fraction(1, 10**12))]])
    assert a == b
    assert a != c


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_from_entries_rejects_out_of_range_key(key):
    with pytest.raises(IndexError):
        ExactMatrix.from_entries(2, {key: 5})


def test_from_entries_drops_explicit_zeros():
    a = ExactMatrix.from_entries(2, {(0, 0): 0, (1, 1): g(0), (0, 1): 3})
    assert a == dense_matrix([[g(0), g(3)], [g(0), g(0)]])
    assert a.rows == ((g(0), g(3)), (g(0), g(0)))


def test_matrix_indexing_as_dense_rows():
    a = dense_matrix([[g(1), g(2)], [g(0), I]])
    assert (a[0, 1], a[1, 0], a[-1, -1]) == (g(2), g(0), I)
    with pytest.raises(IndexError):
        a[2, 0]


def test_empty_matrix_prints_as_brackets():
    for empty in (ExactMatrix.zeros(0), ExactMatrix.from_entries(0, {})):
        assert str(empty) == repr(empty) == "[]"


def test_matrix_immutable():
    a = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        a.dim = 3


@pytest.mark.parametrize("args", [(), ([[1]],), (2, {})])
def test_bare_constructor_refuses_and_names_from_entries(args):
    with pytest.raises(TypeError, match=r"ExactMatrix\.from_entries\(dim, entries\)"):
        ExactMatrix(*args)
    # the internal wrapper builds past the refusal
    assert ExactMatrix._of(2, {(0, 1): (1, 0, 1)}) == ExactMatrix.from_entries(2, {(0, 1): 1})


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("route", sorted(ROUND_TRIPS))
def test_matrix_and_scalar_copy_pickle_round_trip(route):
    off_diagonal = ExactMatrix.from_entries(3, {(0, 2): g(Fraction(1, 2), -3)})
    m = ExactMatrix.identity(3) * I + off_diagonal
    for x in (m, ExactMatrix.zeros(2), g(Fraction(1, 2), Fraction(1, 3)), g(0), I):
        y = ROUND_TRIPS[route](x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
    assert ROUND_TRIPS[route](m) @ m == m @ m


def test_matmul_small_known():
    a = dense_matrix([[g(1), g(2)], [g(0), g(1)]])
    b = dense_matrix([[g(0), g(1)], [g(1), g(0)]])
    assert a @ b == dense_matrix([[g(2), g(1)], [g(1), g(0)]])


def assert_stored_canonical(m):
    """Every stored entry is a bare int triple (a, b, d), nonzero, with d > 0
    and gcd(a, b, d) = 1, the one canonical triple of its value, and reads
    back as that value."""
    for key, t in m._entries.items():
        assert type(t) is tuple and [type(x) for x in t] == [int, int, int]
        a, b, d = t
        assert (a, b) != (0, 0)
        assert d > 0 and gcd(a, b, d) == 1
        assert m[key] == GaussianRational(Fraction(a, d), Fraction(b, d))


def test_a_read_entry_wraps_the_stored_triple(gs42, gs44):
    """Indexing hands out the matrix's own stored triple, no copy and no
    conversion, and the scalar hashes as that triple."""
    from lietower.cartan import adapted_basis, casimir, ladder_operators

    matrices = [*gs42.matrices()[:3], *gs44.matrices()[-3:]]
    matrices += list(ladder_operators(adapted_basis(gs42)).values())[:4]
    matrices += [casimir(gs42, 2), commutator(gs42.matrices()[0], gs42.matrices()[1])]
    for m in matrices:
        assert m._entries
        for (i, j), t in m._entries.items():
            assert m[i, j]._t is t
            assert hash(m[i, j]) == hash(t)


def test_product_terms_cancel_then_leave_the_rest():
    # (a @ b)[0, 0] sums x, -x, y: the first two cancel on one denominator
    # and y joins the zero by cross-multiplying
    x, y = g(Fraction(1, 3), Fraction(2, 5)), g(Fraction(1, 2))
    a = ExactMatrix.from_entries(3, {(0, 0): x, (0, 1): x, (0, 2): y})
    b = ExactMatrix.from_entries(3, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
    product = a @ b
    assert product == ExactMatrix.from_entries(3, {(0, 0): y})
    assert_stored_canonical(product)
    # the bracket sums a@b and -b@a into one map; b@a only reaches row 0
    # through b[0, 0], so entry (0, 0) again ends at y - x
    bracket = commutator(a, b)
    assert bracket == a @ b - b @ a
    assert bracket[0, 0] == y - x
    assert_stored_canonical(bracket)


def test_mixed_denominators_reduce_to_the_canonical_triple():
    # 1/2 * 1/3 + 1/3 * 1/1 = 9/18 before reduction, stored as (1, 0, 2)
    a = ExactMatrix.from_entries(2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    b = ExactMatrix.from_entries(2, {(0, 0): Fraction(1, 3), (1, 0): 1})
    assert (a @ b)._entries[0, 0] == (1, 0, 2)
    assert_stored_canonical(a @ b)
    assert_stored_canonical(commutator(a, b))


def test_products_that_all_cancel_store_nothing():
    a = ExactMatrix.from_entries(2, {(0, 0): Fraction(1, 2), (1, 1): I})
    b = ExactMatrix.from_entries(2, {(0, 0): 3, (1, 1): Fraction(1, 3)})
    bracket = commutator(a, b)
    assert bracket.is_zero() and bracket._entries == {}
    row = ExactMatrix.from_entries(2, {(0, 0): 1, (0, 1): 1})
    column = ExactMatrix.from_entries(2, {(0, 0): 1, (1, 0): -1})
    assert (row @ column)._entries == {}


def test_random_products_store_canonical_nonzero_entries():
    rng = random.Random(20)
    for _ in range(40):
        a, b = random_matrix(rng), random_matrix(rng)
        assert_stored_canonical(a @ b)
        assert_stored_canonical(commutator(a, b))


def random_sparse(rng, dim):
    """A dim x dim matrix with up to dim entries, each a unit or a scalar
    with denominators up to 3."""
    units = (g(1), g(-1), I, -I)
    cells = rng.sample(range(dim * dim), rng.randint(0, dim))
    return ExactMatrix.from_entries(
        dim,
        {
            divmod(k, dim): rng.choice(units) if rng.random() < 0.5 else random_scalar(rng)
            for k in cells
        },
    )


def test_product_sum_matches_chained_products_and_sums():
    # a derandomized property: signed sums of products of a small pool, so
    # that terms repeat and cancel, summed once by the fused accumulator
    # and once as chained @ and +
    rng = random.Random(29)
    seen = {"negative": 0, "cancelled": 0, "nonzero": 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        pool = [random_sparse(rng, dim) for _ in range(3)]
        terms = [
            (rng.choice((1, -1)), rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randint(0, 5))
        ]
        if terms and rng.random() < 0.3:  # a term and its negated twin
            sign, a, b = rng.choice(terms)
            terms.insert(rng.randint(0, len(terms)), (-sign, a, b))
        want = ExactMatrix.zeros(dim)
        for sign, a, b in terms:
            want = want + (a @ b if sign > 0 else -(a @ b))
        got = product_sum(dim, terms)
        assert got == want and got._entries == want._entries
        assert hash(got) == hash(want)
        assert_stored_canonical(got)
        # equality reads values, not only the stored keys
        assert (got == -got) == got.is_zero()
        seen["negative"] += any(sign < 0 and not (a @ b).is_zero() for sign, a, b in terms)
        seen["cancelled"] += got.is_zero() and any(not (a @ b).is_zero() for _, a, b in terms)
        seen["nonzero"] += not got.is_zero()
    assert min(seen.values()) >= 15, seen


def test_product_sum_cancels_to_an_empty_map_and_checks_sizes():
    # a term and its negation cancel to an empty map, across two different
    # products too (a@a and its transpose's square agree), and an empty sum
    # is the zero matrix
    a = ExactMatrix.from_entries(2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 3)})
    t = a.transpose()
    assert product_sum(2, [(1, a, t), (-1, a, t)])._entries == {}
    assert product_sum(2, [(1, a, a), (-1, t, t)])._entries == {}
    assert product_sum(3, [])._entries == {} and product_sum(3, []).dim == 3
    # equal denominators add numerators: 1/6 + 1/6 = 1/3
    assert product_sum(2, [(1, a, a), (1, t, t)])._entries == {
        (0, 0): (1, 0, 3),
        (1, 1): (1, 0, 3),
    }
    # others cross-multiply: 1/6 - 1/4 = -1/12 at (0, 0)
    b = ExactMatrix.from_entries(2, {(0, 0): Fraction(1, 2)})
    assert product_sum(2, [(1, a, a), (-1, b, b)])._entries == {
        (0, 0): (-1, 0, 12),
        (1, 1): (1, 0, 6),
    }
    two, three = ExactMatrix.identity(2), ExactMatrix.identity(3)
    for terms in ([(1, two, three)], [(1, three, two)], [(1, two, two), (-1, three, three)]):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            product_sum(2, terms)


# -- commutator ----------------------------------------------------------


def test_commutator_self_is_zero():
    rng = random.Random(7)
    a = random_matrix(rng)
    assert commutator(a, a).is_zero()


def test_commutator_with_identity_is_zero():
    rng = random.Random(8)
    a = random_matrix(rng, dim=4)
    assert commutator(ExactMatrix.identity(4), a).is_zero()


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(ExactMatrix.identity(2), ExactMatrix.identity(3))


def test_pairwise_commutators_of_an_empty_family():
    assert pairwise_commutators([]) == {}


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3)])
def test_pairwise_commutators_dimension_mismatch(dims):
    with pytest.raises(ValueError):
        pairwise_commutators([ExactMatrix.identity(n) for n in dims])


@pytest.mark.parametrize("p, q", [(4, 2), (4, 4), (5, 5)])
def test_tampered_bracket_table_matches_per_pair_commutators(p, q):
    # the join reads the matrices, not the index labels: the L12 fault moves
    # the table exactly as the per-pair brackets move
    gs = tampered_build(Metric(p, q))
    want = {}
    for (s, left), (t, right) in combinations(enumerate(gs.pairs), 2):
        got = commutator(gs.gen(*left), gs.gen(*right))
        if not got.is_zero():
            want[s, t] = got
    assert list(gs.brackets.items()) == list(want.items())
    genuine = build_generators(Metric(p, q))
    assert gs.brackets != genuine.brackets
    # each table is the join's output as it is, keys and their order included
    for each in (gs, genuine):
        joined = pairwise_commutators(each.matrices())
        assert list(each.brackets.items()) == list(joined.items())


def _plain_generator(n, gdiag, a, b):
    """Independent realisation: plain nested lists of complex Fractions."""
    rows = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    rows[a - 1][b - 1] = (Fraction(0), Fraction(gdiag[b - 1]))
    rows[b - 1][a - 1] = (Fraction(0), Fraction(-gdiag[a - 1]))
    return rows


def _plain_commutator(x, y):
    n = len(x)

    def mul(p, q):
        out = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                pre, pim = p[i][k]
                if not pre and not pim:
                    continue
                for j in range(n):
                    qre, qim = q[k][j]
                    if not qre and not qim:
                        continue
                    ore, oim = out[i][j]
                    out[i][j] = (
                        ore + pre * qre - pim * qim,
                        oim + pre * qim + pim * qre,
                    )
        return out

    xy, yx = mul(x, y), mul(y, x)
    return [
        [(a[0] - b[0], a[1] - b[1]) for a, b in zip(rx, ry)]
        for rx, ry in zip(xy, yx)
    ]


def test_commutator_of_rotation_generators(gs42):
    # oracle: an independent plain-Fraction realisation of the same bracket
    gdiag = [1, 1, 1, 1, -1, -1]
    plain = _plain_commutator(
        _plain_generator(6, gdiag, 1, 2), _plain_generator(6, gdiag, 2, 3)
    )
    got = commutator(gs42.gen(1, 2), gs42.gen(2, 3))
    for i in range(6):
        for j in range(6):
            assert (got[i, j].re, got[i, j].im) == plain[i][j]
    # and that result is exactly i * L13
    assert got == gs42.gen(1, 3) * I


# -- rank ----------------------------------------------------------------


def test_rank_single_nonzero():
    a = dense_matrix([[g(2), g(0)], [g(0), g(0)]])
    assert rank([a]) == 1


def test_rank_scalar_dependence():
    rng = random.Random(9)
    a = random_matrix(rng)
    assert rank([a, a * g(2)]) == 1


def test_rank_complex_scalar_dependence(gs42):
    # dependence over Q(i), not over the real and imaginary parts taken apart
    a = gs42.gen(1, 2)
    assert rank([a, a * I]) == 1


def test_rank_empty():
    assert rank([]) == 0


def test_rank_adapted_basis_is_15(gs42):
    assert rank(list(yao_basis(gs42).values())) == 15


def test_rank_permutation_invariant():
    rng = random.Random(10)
    mats = [random_matrix(rng) for _ in range(5)] + [ExactMatrix.zeros(3)]
    base = rank(mats)
    for seed in range(5):
        shuffled = mats[:]
        random.Random(seed).shuffle(shuffled)
        assert rank(shuffled) == base


# -- commutes and bracket_multiple ------------------------------------------


def test_raising_operator_eigenvalue(gs42):
    # [K3, K+] = K+ exactly, for the so(4)-basket raising operator
    from lietower.cartan import subalgebra_basis

    basket = subalgebra_basis(gs42, yao_basis(gs42))["so4"]
    assert bracket_multiple(basket["K3"], basket["K+"], basket["K+"]) == g(1)


def _embedded(m, dim):
    """m as the top-left block of a dim x dim matrix."""
    n = m.dim
    return ExactMatrix.from_entries(dim, {(i, j): m[i, j] for i in range(n) for j in range(n)})


def _bracket_case(seed):
    """Two random 3x3 blocks in 4x4 matrices, the nonzero entries of their
    bracket in row-major order, and a lambda; row and column 3 of the
    bracket are zero."""
    rng = random.Random(seed)
    a, b = (_embedded(random_matrix(rng), 4) for _ in range(2))
    bracket = commutator(a, b)
    entries = {(i, j): bracket[i, j] for i in range(4) for j in range(4) if bracket[i, j]}
    assert len(entries) > 2
    return a, b, entries, g(2, -1)


def test_commutes_matches_the_bracket():
    rng = random.Random(12)
    a, b = random_matrix(rng), random_matrix(rng)
    assert commutes(a, a) and commutes(ExactMatrix.identity(3), a)
    assert not commutes(a, b) and not commutator(a, b).is_zero()
    with pytest.raises(ValueError):
        commutes(ExactMatrix.identity(2), ExactMatrix.identity(3))


def test_bracket_multiple_reads_lambda():
    a, b, entries, lam = _bracket_case(13)
    c = ExactMatrix.from_entries(4, {k: v / lam for k, v in entries.items()})
    assert bracket_multiple(a, b, c) == lam
    assert bracket_multiple(a, a, c) == g(0)


def test_bracket_multiple_refuses_an_entry_outside_the_reference():
    # [a, b] = lam*c + one entry where c has none
    a, b, entries, lam = _bracket_case(14)
    last = list(entries)[-1]
    c = ExactMatrix.from_entries(4, {k: v / lam for k, v in entries.items() if k != last})
    assert bracket_multiple(a, b, c) is None


def test_bracket_multiple_refuses_a_missing_entry():
    # c has one entry, after the one lambda is read at, where [a, b] has none
    a, b, entries, lam = _bracket_case(15)
    scaled = {k: v / lam for k, v in entries.items()}
    c = ExactMatrix.from_entries(4, scaled | {(3, 3): g(1)})
    assert bracket_multiple(a, b, c) is None


def test_bracket_multiple_refuses_one_entry_off_the_ratio():
    a, b, entries, lam = _bracket_case(16)
    last = list(entries)[-1]
    scaled = {k: v / lam for k, v in entries.items()}
    scaled[last] = scaled[last] * 2
    assert bracket_multiple(a, b, ExactMatrix.from_entries(4, scaled)) is None


def test_bracket_multiple_rejects_a_zero_reference_and_a_size_mismatch():
    a = ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        bracket_multiple(a, a, ExactMatrix.zeros(2))
    with pytest.raises(ValueError):
        bracket_multiple(a, a, ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        bracket_multiple(a, ExactMatrix.identity(3), a)


def test_relation_on_a_zero_result_operator_asks_for_a_vanishing_bracket():
    rng = random.Random(17)
    ops = {"A": random_matrix(rng), "B": random_matrix(rng), "Z": ExactMatrix.zeros(3)}
    relations = (Relation("A", "A", g(1), "Z"), Relation("A", "B", g(1), "Z"))
    report = check_relation_table(ops, "zero-result", relations)
    assert [(d["relation"], d["got"]) for d in report["deviations"]] == [
        ("[A,B] = Z", "<differs>")
    ]


# -- SpanSolver.expand ----------------------------------------------------


def test_expand_zero_vector(gs42):
    basis = gs42.matrices()
    coeffs = SpanSolver(basis).expand(ExactMatrix.zeros(6))
    assert coeffs == [g(0)] * len(basis)


def test_expand_basis_element(gs42):
    basis = gs42.matrices()
    coeffs = SpanSolver(basis).expand(basis[3])
    expected = [g(0)] * len(basis)
    expected[3] = g(1)
    assert coeffs == expected


def test_expand_commutator_in_generator_basis(gs42):
    basis = gs42.matrices()
    coeffs = SpanSolver(basis).expand(commutator(gs42.gen(1, 2), gs42.gen(2, 3)))
    expected = [g(0)] * len(basis)
    expected[gs42.pairs.index((1, 3))] = I
    assert coeffs == expected


def test_expand_outside_span_is_none(gs42):
    assert SpanSolver(gs42.matrices()).expand(ExactMatrix.identity(6)) is None


def test_expand_dependent_basis_rejected():
    a = ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="basis element 1 is dependent"):
        SpanSolver([a, a * g(2)])


def test_expand_recombination_round_trip(gs42):
    rng = random.Random(12)
    basis = gs42.matrices()
    solver = SpanSolver(basis)
    for _ in range(5):
        coeffs = [random_scalar(rng) for _ in basis]
        x = ExactMatrix.zeros(6)
        for c, b in zip(coeffs, basis):
            x = x + b * c
        assert solver.expand(x) == coeffs


# -- algebraic properties ---------------------------------------------------


def test_bilinearity_random():
    rng = random.Random(13)
    for _ in range(10):
        a, b, c = (random_matrix(rng) for _ in range(3))
        assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)
        assert commutator(c, a + b) == commutator(c, a) + commutator(c, b)


def test_jacobi_random():
    rng = random.Random(14)
    for _ in range(10):
        a, b, c = (random_matrix(rng) for _ in range(3))
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.is_zero()


def test_jacobi_exhaustive_rank3_generators(gs42):
    mats = gs42.matrices()
    for a, b, c in combinations(mats, 3):
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.is_zero()


def test_jacobi_sampled_rank4_generators(gs44):
    rng = random.Random(15)
    mats = gs44.matrices()
    for _ in range(200):
        a, b, c = rng.sample(mats, 3)
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.is_zero()
