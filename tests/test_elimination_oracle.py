"""``rank`` and ``SpanSolver`` against a dense elimination written here.

The oracle shares no code with ``lietower.exact``: it reads each matrix
through the public ``rows`` as one flat row of (re, im) pairs of
``Fraction``s and runs a dense Gauss-Jordan elimination on those pairs,
keeping with each reduced row its combination of the inputs.  Every case
asks the same three questions of both: the rank, the first input that
depends on earlier ones (the index ``SpanSolver`` reports when it refuses a
basis), and the expansion coefficients of a matrix in an independent basis,
or that it lies outside the span.
"""

from fractions import Fraction

import pytest

from lietower.cartan import adapted_basis
from lietower.exact import I, ExactMatrix, GaussianRational, SpanSolver, commutator, rank
from lietower.sopq import Metric, build_generators

from test_realisations import conjugator, realise

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def c_sub_mul(x, c, y):
    """x - c*y on (re, im) pairs."""
    return (x[0] - (c[0] * y[0] - c[1] * y[1]), x[1] - (c[0] * y[1] + c[1] * y[0]))


def c_mul(c, y):
    return (c[0] * y[0] - c[1] * y[1], c[0] * y[1] + c[1] * y[0])


def c_inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def flat(m):
    return [(x.re, x.im) for row in m.rows for x in row]


def as_pairs(coeffs):
    return None if coeffs is None else [(c.re, c.im) for c in coeffs]


class DenseOracle:
    """Dense Gauss-Jordan over (re, im) pairs of Fractions: reduced rows,
    each zero at every other row's pivot, with their combinations."""

    def __init__(self, mats):
        self.size = len(mats)
        self.rows = []  # [pivot column, row, combination]
        self.dependent = []
        for k, m in enumerate(mats):
            combo = [ONE if j == k else ZERO for j in range(self.size)]
            vec, combo = self._reduce(flat(m), combo)
            pivot = next((j for j, x in enumerate(vec) if x != ZERO), None)
            if pivot is None:
                self.dependent.append(k)
                continue
            inv = c_inv(vec[pivot])
            vec = [c_mul(inv, x) for x in vec]
            combo = [c_mul(inv, x) for x in combo]
            for row in self.rows:
                c = row[1][pivot]
                if c != ZERO:
                    row[1] = [c_sub_mul(x, c, y) for x, y in zip(row[1], vec)]
                    row[2] = [c_sub_mul(x, c, y) for x, y in zip(row[2], combo)]
            self.rows.append([pivot, vec, combo])

    def _reduce(self, vec, combo):
        for pivot, rvec, rcombo in self.rows:
            c = vec[pivot]
            if c != ZERO:
                vec = [c_sub_mul(x, c, y) for x, y in zip(vec, rvec)]
                combo = [c_sub_mul(x, c, y) for x, y in zip(combo, rcombo)]
        return vec, combo

    @property
    def rank(self):
        return len(self.rows)

    def expand(self, m):
        """x = sum_k c_k input_k, as the pairs c_k, or None outside the span."""
        vec, combo = self._reduce(flat(m), [ZERO] * self.size)
        if any(x != ZERO for x in vec):
            return None
        # x - sum c_p row_p = 0 leaves -sum c_p combo_p in combo
        return [(-re, -im) for re, im in combo]


def first_dependent(mats):
    """The index ``SpanSolver`` reports for a dependent basis, else None."""
    try:
        SpanSolver(mats)
    except ValueError as exc:
        prefix = "basis element "
        assert str(exc).startswith(prefix) and str(exc).endswith(" is dependent on earlier ones")
        return int(str(exc)[len(prefix):].split()[0])
    return None


def assert_agree(mats, targets):
    """rank, first dependent index and, over the independent inputs, the
    expansion of every input and target agree with the dense oracle."""
    oracle = DenseOracle(mats)
    assert rank(mats) == oracle.rank
    assert first_dependent(mats) == (oracle.dependent[0] if oracle.dependent else None)
    basis = [m for k, m in enumerate(mats) if k not in oracle.dependent]
    if not basis:
        return
    solver, dense = SpanSolver(basis), DenseOracle(basis)
    for x in [*mats, *targets]:
        assert as_pairs(solver.expand(x)) == dense.expand(x)


def unit(dim, *keys):
    return ExactMatrix.from_entries(dim, {key: 1 for key in keys})


def test_fill_in_pivot_is_eliminated():
    # E00 + E01 leaves -E01 behind, a pivot the subtraction filled in
    e00_e01, e01, e00 = unit(2, (0, 0), (0, 1)), unit(2, (0, 1)), unit(2, (0, 0))
    assert SpanSolver([e00_e01, e01]).expand(e00) == [GaussianRational(c) for c in (1, -1)]
    assert_agree([e00_e01, e01], [e00, unit(2, (1, 0))])


def test_pivots_met_out_of_insertion_order():
    # the second row's pivot lies below the first's, so a vector carrying
    # both meets the rows in the opposite order to their factoring
    mats = [unit(3, (1, 1), (2, 2)), unit(3, (0, 0), (1, 1)), unit(3, (0, 1), (2, 2))]
    target = unit(3, (0, 0), (0, 1))
    assert SpanSolver(mats).expand(target) == [GaussianRational(c) for c in (-1, 1, 1)]
    assert_agree(mats, [target, unit(3, (0, 0)), ExactMatrix.identity(3)])


def test_split_adapted_basis_44(gs44):
    ops = list(adapted_basis(gs44).values())
    assert len(ops) == 36 and rank(ops) == 28
    targets = [*gs44.matrices()[:6], commutator(ops[0], ops[20]), ExactMatrix.identity(8)]
    assert_agree(ops, targets)


@pytest.mark.parametrize("p, q", [(4, 2), (4, 4), (5, 5)])
def test_conjugated_sets(p, q):
    s, s_inv = conjugator(p + q)
    gs = realise(build_generators(Metric(p, q)), lambda m: s @ m @ s_inv)
    mats = gs.matrices()
    brackets = list(gs.brackets.values())
    targets = [brackets[0], brackets[len(brackets) // 2], ExactMatrix.identity(p + q)]
    # a planted dependency: an exact combination of three earlier members
    third = GaussianRational(Fraction(1, 3))
    planted = mats[0] * (2 - I) + mats[3] - mats[len(mats) // 2] * third
    order = [*mats[:-3], planted, *mats[-3:]]
    assert_agree(order, targets)
    assert first_dependent(order) == len(mats) - 3

