"""Generator sets built from realisations other than the defining matrices.

``run_verification`` judges any ``GeneratorSet``, and every suite but
membership reads the matrix size from the set.  Three realisations are
judged against the defining set: the direct sum L (+) L, of twice the
size, the conjugate S L S^-1 by a fixed invertible S over Z[i], and the
relabelling P L P^-1 by a permutation within the + and - blocks.  The
first two are not pseudo-antisymmetric for the diagonal metric, so
membership fails on both, and every other suite must give the defining
verdict.  P preserves the metric, so the relabelled verdict, membership
included, must be the defining verdict.
"""

import pytest

from lietower.exact import I, ExactMatrix
from lietower.sopq import GeneratorSet, Metric, build_generators
from lietower.verify import run_verification

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


def assert_defining_verdict(p, q, rep):
    """Under ``rep``, the verdicts on the defining set and on the L12 fault
    that ``verify`` must fail keep every suite but membership, which fails
    with the defining summary."""
    for build in (build_generators, tampered_build):
        want = run_verification(build(Metric(p, q)))
        got = run_verification(realise(build(Metric(p, q)), rep))
        assert got["notes"] == want["notes"]
        assert [s["name"] for s in got["suites"]] == [s["name"] for s in want["suites"]]
        for mine, theirs in zip(got["suites"], want["suites"]):
            if mine["name"] == "membership":
                assert not mine["passed"]
                assert mine["summary"] == theirs["summary"]
            else:
                assert mine == theirs
    # got is now the realised fault's verdict
    commutators = next(s for s in got["suites"] if s["name"] == "commutators")
    assert not commutators["passed"]


SIGNATURES = [(3, 1), (4, 2), (4, 4), (5, 5)]


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_direct_sum_realisation(p, q):
    assert_defining_verdict(p, q, doubled)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_conjugated_realisation(p, q):
    s, s_inv = conjugator(p + q)
    assert_defining_verdict(p, q, lambda m: s @ m @ s_inv)


def block_reversal(p, q):
    """The permutation matrix that reverses indices 1..p and, separately,
    p+1..p+q; it preserves g and is its own inverse."""
    order = [*reversed(range(p)), *reversed(range(p, p + q))]
    return ExactMatrix.from_entries(p + q, {(i, j): 1 for i, j in enumerate(order)})


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_relabelled_realisation(p, q):
    r = block_reversal(p, q)
    assert r @ r == ExactMatrix.identity(p + q)
    for build in (build_generators, tampered_build):
        want = run_verification(build(Metric(p, q)))
        assert run_verification(realise(build(Metric(p, q)), lambda m: r @ m @ r)) == want
    # want is now the fault's verdict
    assert not next(s for s in want["suites"] if s["name"] == "commutators")["passed"]
