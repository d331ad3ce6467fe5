"""The pseudo-orthogonal algebras so(p,q): a ``GeneratorSet`` holds any
one-size (a, b) -> matrix family, and ``build_generators`` is the one builder
of the defining representation, the (p+q)x(p+q) matrices of signature (p, q)

    (L_ab)_{mn} = i * (delta_{ma} g_{bn} - delta_{mb} g_{an}),

with g = diag(+1 x p, -1 x q) and 1-based indices a < b throughout, matching
the index convention of the printed commutation table this module validates:

    [L_ab, L_cd] = i (g_ad L_bc + g_bc L_ad - g_ac L_bd - g_bd L_ac).

A realisation is *validated*, never assumed: ``verify_commutation`` decides
every unordered generator pair against the symbolic right-hand side exactly,
comparing matrices wherever either side can be nonzero.
Each generator set computes those brackets once, in one sparse join
(``exact.pairwise_commutators``) that fills its lazily built ``brackets``
table, keyed by generator indices as the join makes them; the commutation
sweep and the Cartan search read that table.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import combinations

from .exact import (
    ExactMatrix,
    GaussianRational,
    I,
    SpanSolver,
    bracket_multiple,
    commutator,
    format_combination,
    linear_combination,
    pairwise_commutators,
)
from .paper import HYDROGEN_ALIAS_PAIRS, HYDROGEN_LB_TABLE

IndexPair = tuple[int, int]

# i times a sign: the coefficients of the defining matrices' entries and of a
# bracket of two generators, shared so that no call builds a scalar.
_I_TIMES = {1: I, -1: -I}


class Metric(namedtuple("Metric", "p q")):
    """Diagonal metric with p entries +1 followed by q entries -1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        # an exact type test: bool is an int subclass, and (True,1) would print
        if type(p) is not int or type(q) is not int:
            raise ValueError(f"p and q must be integers, got {p!r}, {q!r}")
        if p < 0 or q < 0 or p + q < 2:
            raise ValueError("need p, q >= 0 with p + q >= 2")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate it too
        return cls(*fields)

    @property
    def dim(self) -> int:
        return self.p + self.q

    def g(self, a: int) -> int:
        """Diagonal metric entry for 1-based index a."""
        if not 1 <= a <= self.dim:
            raise IndexError(f"index {a} outside 1..{self.dim}")
        return 1 if a <= self.p else -1

    def matrix(self) -> ExactMatrix:
        return ExactMatrix.from_entries(
            self.dim, {(k, k): self.g(k + 1) for k in range(self.dim)}
        )

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def pair_name(a: int, b: int) -> str:
    return f"L{a}{b}"


class GeneratorSet:
    """Ordered family of generators L_ab, 1 <= a < b <= p+q, of one signature:
    any such (a, b) -> matrix map whose matrices share one size, in its order.

    Lookup resolves the antisymmetry convention: ``gen(b, a)`` is
    ``-gen(a, b)`` and ``gen(a, a)`` is the zero matrix.  The bracket table
    ``brackets``, keyed by positions s < t in ``pairs``, and the span solver
    ``solver`` are built from the current matrices on first read, never in
    the constructor, so a generator overwritten before then is what they see.
    """

    def __init__(self, metric: Metric, gens: Mapping[IndexPair, ExactMatrix]):
        self.metric = metric
        self._gens: dict[IndexPair, ExactMatrix] = dict(gens)
        if not self._gens:
            raise ValueError("a generator set needs at least one generator")
        if not all(0 < a < b <= metric.dim for a, b in self._gens):
            raise ValueError(f"generator keys must be pairs 1 <= a < b <= {metric.dim}")
        self.pairs: list[IndexPair] = list(self._gens)
        self.names = [pair_name(a, b) for a, b in self.pairs]
        self.zero = ExactMatrix.zeros(self._gens[self.pairs[0]].dim)

    def __len__(self) -> int:
        return len(self.pairs)

    def gen(self, a: int, b: int) -> ExactMatrix:
        n = self.metric.dim
        if not (0 < a <= n and 0 < b <= n):
            raise IndexError(f"index {b if 0 < a <= n else a} outside 1..{n}")
        if a == b:
            return self.zero
        if a < b:
            return self._gens[(a, b)]
        return -self._gens[(b, a)]

    def matrices(self) -> list[ExactMatrix]:
        return [self._gens[pair] for pair in self.pairs]

    @cached_property
    def brackets(self) -> dict[tuple[int, int], ExactMatrix]:
        return pairwise_commutators(self.matrices())

    @cached_property
    def solver(self) -> SpanSolver:
        # factoring raises ValueError on a dependent set; one factorisation
        # serves every expansion in the generator basis
        return SpanSolver(self.matrices())


def build_generators(metric: Metric) -> GeneratorSet:
    """The n(n-1)/2 defining-representation generators; their one builder."""
    n, g = metric.dim, metric.g
    gens = {
        (a, b): ExactMatrix.from_entries(
            n, {(a - 1, b - 1): _I_TIMES[g(b)], (b - 1, a - 1): _I_TIMES[-g(a)]}
        )
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
    }
    return GeneratorSet(metric, gens)


def expected_bracket(
    metric: Metric, left: IndexPair, right: IndexPair
) -> list[tuple[GaussianRational, IndexPair]]:
    """Symbolic right-hand side of the bracket [L_left, L_right].

    Returns at most one (coefficient, pair) term, its pair normalised to
    a < b: two index pairs of distinct members that share exactly one index
    bracket to one generator, and any other two commute.
    """
    a, b = left
    c, d = right
    n = metric.dim
    for idx in (a, b, c, d):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} outside 1..{n}")
    if a == b or c == d:
        raise ValueError("index pairs must have distinct members")
    # i*(g_ad L_bc + g_bc L_ad - g_ac L_bd - g_bd L_ac); the metric is
    # diagonal, so a term lives only where its g carries a shared index.
    # Pairs sharing both indices leave only L_uu terms, which vanish.
    for sign, x, y, u, v in (
        (+1, a, d, b, c), (+1, b, c, a, d), (-1, a, c, b, d), (-1, b, d, a, c)
    ):
        if x == y and u != v:
            sign *= metric.g(x)
            if u > v:
                u, v, sign = v, u, -sign
            return [(_I_TIMES[sign], (u, v))]
    return []


def materialize(
    gs: GeneratorSet, terms: Sequence[tuple[GaussianRational, IndexPair]]
) -> ExactMatrix:
    """Turn a symbolic (coefficient, pair) sum into a matrix."""
    return linear_combination(gs.zero.dim, ((coeff, gs.gen(a, b)) for coeff, (a, b) in terms))


def verify_commutation(gs: GeneratorSet) -> dict:
    """Check every unordered generator pair against the symbolic bracket;
    the report is ``{"signature", "pair_count", "failures"}``, and the
    signature passes when ``failures`` is empty; ``pair_count`` counts all.

    A pair is decided by exact matrix equality between its entry in
    ``gs.brackets`` (zero when absent), keyed by the two generator indices,
    and the materialized right-hand side.  Only pairs in the table or whose
    index pairs share an index are compared; the rest are 0 = 0, as the join
    stores every nonzero bracket and ``expected_bracket`` gives two index
    pairs with no shared index an empty side.
    ``gs.solver`` is read first: its factoring raises ``ValueError`` on a
    dependent set, and only for independent generators does equality of the
    matrices mean equality of the coefficients.  A mismatch is a failure
    entry, never an exception, and its ``got`` side is expanded in the
    generator basis.
    """
    metric = gs.metric
    describe = gs.solver.describer(gs.names, "<outside generator span>")
    brackets = gs.brackets
    # each distinct right-hand side is materialized once per sweep
    expected: dict[tuple, ExactMatrix] = {}
    failures = []
    for (s, left), (t, right) in combinations(enumerate(gs.pairs), 2):
        if (s, t) not in brackets and left[0] not in right and left[1] not in right:
            continue
        got = brackets.get((s, t), gs.zero)
        expected_terms = expected_bracket(metric, left, right)
        key = tuple(expected_terms)
        want = expected.get(key)
        if want is None:
            want = expected[key] = materialize(gs, expected_terms)
        if got != want:
            failures.append({
                "lhs_pair": left,
                "rhs_pair": right,
                "got": describe(got),
                "expected": format_combination(
                    (coeff, pair_name(*pair)) for coeff, pair in expected_terms
                ),
            })
    return {
        "signature": (metric.p, metric.q),
        "pair_count": len(gs) * (len(gs) - 1) // 2,
        "failures": failures,
    }


def pseudo_antisymmetry_holds(gs: GeneratorSet) -> bool:
    """Membership check g L^T g == -L for every generator, by one product:
    (L g)^T == -L g is that check times g on the right, as g^2 = 1."""
    g = gs.metric.matrix()
    return all(lg.transpose() == -lg for lg in (mat @ g for mat in gs.matrices()))


# -- hydrogen aliases for signature (4,2) -----------------------------------


def hydrogen_aliases(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """Name bindings of the physical operators onto signature-(4,2) generators."""
    if gs.metric != Metric(4, 2):
        raise ValueError("hydrogen aliases require signature (4,2)")
    return {name: gs.gen(a, b) for name, (a, b) in HYDROGEN_ALIAS_PAIRS.items()}


_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def _epsilon_handedness(alias: Mapping[str, ExactMatrix], x: str, y: str, z: str) -> str:
    """Which of [x_i, y_j] = +/- i eps_ijk z_k the matrices satisfy, read
    from the coefficient that ``bracket_multiple`` gives each bracket."""
    found = set()
    for (i, j, k), eps in _EPS.items():
        lam = bracket_multiple(alias[f"{x}{i}"], alias[f"{y}{j}"], alias[f"{z}{k}"])
        if lam == _I_TIMES[eps]:
            found.add("+i eps_ijk")
        elif lam == _I_TIMES[-eps]:
            found.add("-i eps_ijk")
        else:
            found.add("neither")
    return found.pop() if len(found) == 1 else "mixed"


def hydrogen_alias_check(gs: GeneratorSet) -> dict:
    """Printed (L, B) bracket table versus the alias matrices of ``gs``, plus
    the record of which epsilon sign convention each alias family obeys.

    The report is ``{"checks", "epsilon_convention", "family_conventions"}``.
    Each check ``{"relation", "passed", "got"}`` is one row, decided by
    ``Relation.holds``; its ``got`` is the bracket rendered in the alias
    basis.  ``epsilon_convention`` ("-i eps_ijk", "+i eps_ijk" or "mixed")
    is the handedness of the angular-momentum triple ([L_i, L_j] against
    +/- i eps_ijk L_k); ``family_conventions`` carries the same record for
    the [L,A] and [A,A] families, so a reader can see that the +i eps variant
    printed in prose fails across the board.  The aliases are bracketed pair
    by pair, independently of the ``gs.brackets`` join.
    """
    alias = hydrogen_aliases(gs)
    describe = SpanSolver(list(alias.values())).describer(list(alias), "<outside alias span>")
    checks = [
        {
            "relation": rel.text,
            "passed": rel.holds(alias),
            "got": describe(commutator(alias[rel.left], alias[rel.right])),
        }
        for rel in HYDROGEN_LB_TABLE
    ]
    families = {
        "[L,L]": _epsilon_handedness(alias, "L", "L", "L"),
        "[L,A]": _epsilon_handedness(alias, "L", "A", "A"),
        "[A,A]": _epsilon_handedness(alias, "A", "A", "L"),
    }
    return {
        "checks": checks,
        "epsilon_convention": families["[L,L]"],
        "family_conventions": families,
    }
