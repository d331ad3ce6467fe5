"""Defining matrix representation of the pseudo-orthogonal algebras so(p,q).

The rotation generators of a flat space with metric signature (p, q) are
realised as (p+q)x(p+q) matrices

    (L_ab)_{mn} = i * (delta_{ma} g_{bn} - delta_{mb} g_{an}),

with g = diag(+1 x p, -1 x q) and 1-based indices a < b throughout, matching
the index convention of the printed commutation table this module validates:

    [L_ab, L_cd] = i (g_ad L_bc + g_bc L_ad - g_ac L_bd - g_bd L_ac).

The realisation is *validated*, never assumed: ``verify_commutation`` checks
every unordered generator pair against the symbolic right-hand side, exactly.
Each generator set computes those brackets once, in one sparse join
(``exact.pairwise_commutators``) that fills its lazily built ``brackets``
table, keyed by generator indices as the join makes them; the commutation
sweep and the Cartan search read that table.

A printed bracket table is a ``RelationTable`` of ``Relation`` rows, each
decided by ``Relation.holds`` on the unreduced sums of its bracket.  The
hydrogen-alias table of signature (4,2) is one; its check brackets the
aliases pair by pair, independently of the join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, Mapping, Optional, Sequence

from .exact import (
    ExactMatrix,
    GaussianRational,
    I,
    ONE,
    SpanSolver,
    bracket_multiple,
    commutator,
    commutes,
    linear_combination,
    pairwise_commutators,
)

IndexPair = tuple[int, int]

# The two coefficients a bracket of generators can carry, shared so that
# ``expected_bracket`` builds no scalar per call.
_MINUS_I = -I


@dataclass(frozen=True)
class Metric:
    """Diagonal metric with p entries +1 followed by q entries -1."""

    p: int
    q: int

    def __post_init__(self):
        # an exact type test: bool is an int subclass, and (True,1) would print
        if type(self.p) is not int or type(self.q) is not int:
            raise ValueError(f"p and q must be integers, got {self.p!r}, {self.q!r}")
        if self.p < 0 or self.q < 0 or self.p + self.q < 2:
            raise ValueError("need p, q >= 0 with p + q >= 2")

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
    """Ordered family of rotation generators L_ab (a < b) for one signature.

    Lookup resolves the antisymmetry convention: ``gen(b, a)`` is
    ``-gen(a, b)`` and ``gen(a, a)`` is the zero matrix.  The bracket table
    ``brackets``, keyed by pairs a < b in ``pairs`` order, and the span
    solver ``solver`` are built from the current matrices on first read,
    never in the constructor, so a generator overwritten before then is
    what they see.
    """

    def __init__(self, metric: Metric):
        self.metric = metric
        n = metric.dim
        self.pairs: list[IndexPair] = [
            (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        ]
        self._gens: dict[IndexPair, ExactMatrix] = {}
        for a, b in self.pairs:
            self._gens[(a, b)] = ExactMatrix.from_entries(
                n,
                {
                    (a - 1, b - 1): I * metric.g(b),
                    (b - 1, a - 1): -I * metric.g(a),
                },
            )
        self.names = [pair_name(a, b) for a, b in self.pairs]
        self.zero = ExactMatrix.zeros(n)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[IndexPair, ExactMatrix]]:
        return ((pair, self._gens[pair]) for pair in self.pairs)

    def gen(self, a: int, b: int) -> ExactMatrix:
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
    """Construct the n(n-1)/2 defining-representation generators."""
    return GeneratorSet(metric)


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
            return [(I if sign > 0 else _MINUS_I, (u, v))]
    return []


def materialize(
    gs: GeneratorSet, terms: Sequence[tuple[GaussianRational, IndexPair]]
) -> ExactMatrix:
    """Turn a symbolic (coefficient, pair) sum into a matrix."""
    return linear_combination(
        gs.metric.dim, ((coeff, gs.gen(a, b)) for coeff, (a, b) in terms)
    )


def format_terms(terms: Sequence[tuple[GaussianRational, IndexPair]]) -> str:
    if not terms:
        return "0"
    return " + ".join(
        f"({coeff})*{pair_name(a, b)}" for coeff, (a, b) in terms
    )


@dataclass(frozen=True)
class PairFailure:
    lhs_pair: IndexPair
    rhs_pair: IndexPair
    got: str
    expected: str


@dataclass
class CommutationReport:
    """Outcome of the exhaustive pairwise bracket check for one signature."""

    signature: tuple[int, int]
    pair_count: int
    failures: list[PairFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_commutation(gs: GeneratorSet) -> CommutationReport:
    """Check every unordered generator pair against the symbolic bracket.

    Each pair is decided by exact matrix equality between its entry in
    ``gs.brackets`` (zero when absent), keyed by the two generator indices,
    and the materialized right-hand side.
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
    failures: list[PairFailure] = []
    for (s, left), (t, right) in combinations(enumerate(gs.pairs), 2):
        got = brackets.get((s, t), gs.zero)
        expected_terms = expected_bracket(metric, left, right)
        key = tuple(expected_terms)
        want = expected.get(key)
        if want is None:
            want = expected[key] = materialize(gs, expected_terms)
        if got != want:
            failures.append(
                PairFailure(
                    lhs_pair=left,
                    rhs_pair=right,
                    got=describe(got),
                    expected=format_terms(expected_terms),
                )
            )
    return CommutationReport(
        signature=(metric.p, metric.q),
        pair_count=len(gs) * (len(gs) - 1) // 2,
        failures=failures,
    )


def pseudo_antisymmetry_holds(gs: GeneratorSet) -> bool:
    """Membership check g L^T g == -L for every generator."""
    g = gs.metric.matrix()
    return all(
        g @ mat.transpose() @ g == -mat for _, mat in gs
    )


# -- printed relation tables -------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """[left, right] = coeff * result, with result None meaning zero."""

    left: str
    right: str
    coeff: GaussianRational
    result: Optional[str]

    @property
    def text(self) -> str:
        if self.result is None or not self.coeff:
            return f"[{self.left},{self.right}] = 0"
        if self.coeff == ONE:
            rhs = self.result
        elif self.coeff == -ONE:
            rhs = f"-{self.result}"
        else:
            rhs = f"({self.coeff})*{self.result}"
        return f"[{self.left},{self.right}] = {rhs}"

    def holds(self, ops: Mapping[str, ExactMatrix]) -> bool:
        """Whether the named matrices satisfy the relation, decided on the
        unreduced sums of their bracket: by ``commutes`` when the right-hand
        side is zero, a zero result operator included, and by
        ``bracket_multiple`` otherwise."""
        left, right = ops[self.left], ops[self.right]
        result = None if self.result is None or not self.coeff else ops[self.result]
        if result is None or result.is_zero():
            return commutes(left, right)
        return bracket_multiple(left, right, result) == self.coeff


@dataclass(frozen=True)
class RelationTable:
    name: str
    relations: tuple[Relation, ...]


def _rel(left: str, right: str, coeff, result: Optional[str]) -> Relation:
    if isinstance(coeff, int):
        coeff = GaussianRational(coeff)
    return Relation(left=left, right=right, coeff=coeff, result=result)


# -- hydrogen aliases for signature (4,2) -----------------------------------
#
# L1..L3: angular momentum; A1..A3: Laplace-Runge-Lenz vector; B, G (Gamma):
# its conjugate partners; D1..D3 (Delta): the radial so(2,1) triple.

_HYDROGEN_ALIAS_PAIRS: dict[str, IndexPair] = {
    "L1": (2, 3),
    "L2": (3, 1),
    "L3": (1, 2),
    "A1": (1, 4),
    "A2": (2, 4),
    "A3": (3, 4),
    "B1": (1, 5),
    "B2": (2, 5),
    "B3": (3, 5),
    "G1": (1, 6),
    "G2": (2, 6),
    "G3": (3, 6),
    "D1": (4, 6),
    "D2": (4, 5),
    "D3": (5, 6),
}


def hydrogen_aliases(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """Name bindings of the physical operators onto signature-(4,2) generators."""
    if gs.metric != Metric(4, 2):
        raise ValueError("hydrogen aliases require signature (4,2)")
    return {name: gs.gen(a, b) for name, (a, b) in _HYDROGEN_ALIAS_PAIRS.items()}


# The printed bracket table for the angular-momentum/boost pair (L, B).
HYDROGEN_LB_TABLE = RelationTable(
    "hydrogen-LB",
    (
        _rel("L1", "L2", -I, "L3"),
        _rel("L2", "L3", -I, "L1"),
        _rel("L3", "L1", -I, "L2"),
        _rel("B1", "B2", I, "L3"),
        _rel("B2", "B3", I, "L1"),
        _rel("B3", "B1", I, "L2"),
        _rel("L1", "B1", 0, None),
        _rel("L2", "B2", 0, None),
        _rel("L3", "B3", 0, None),
        _rel("L1", "B2", -I, "B3"),
        _rel("L1", "B3", I, "B2"),
        _rel("L2", "B3", -I, "B1"),
        _rel("L2", "B1", I, "B3"),
        _rel("L3", "B1", -I, "B2"),
        _rel("L3", "B2", I, "B1"),
    ),
)

_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


@dataclass
class AliasCheck:
    relation: str
    passed: bool
    got: str


@dataclass
class HydrogenAliasReport:
    """Printed (L, B) bracket table versus the matrix realisation, plus the
    record of which epsilon sign convention each alias family obeys.

    ``epsilon_convention`` is the handedness of the angular-momentum triple
    ([L_i, L_j] against +/- i eps_ijk L_k); ``family_conventions`` carries
    the same record for the [L,A] and [A,A] families, so a reader can see
    that the +i eps variant printed in prose fails across the board.
    """

    checks: list[AliasCheck]
    epsilon_convention: str  # "-i eps_ijk" or "+i eps_ijk" or "mixed"
    family_conventions: dict[str, str]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _epsilon_handedness(alias: Mapping[str, ExactMatrix], x: str, y: str, z: str) -> str:
    """Which of [x_i, y_j] = +/- i eps_ijk z_k the matrices satisfy, read
    from the coefficient that ``bracket_multiple`` gives each bracket."""
    found = set()
    for (i, j, k), eps in _EPS.items():
        lam = bracket_multiple(alias[f"{x}{i}"], alias[f"{y}{j}"], alias[f"{z}{k}"])
        if lam == I * eps:
            found.add("+i eps_ijk")
        elif lam == _MINUS_I * eps:
            found.add("-i eps_ijk")
        else:
            found.add("neither")
    return found.pop() if len(found) == 1 else "mixed"


def hydrogen_alias_check(gs: GeneratorSet) -> HydrogenAliasReport:
    """Check the printed alias table, and the handedness of three alias
    families, on the alias matrices of ``gs``.

    Every row is decided by ``Relation.holds``, and its ``got`` is the bracket
    rendered in the alias basis.  The aliases are bracketed pair by pair,
    independently of the ``gs.brackets`` join.
    """
    alias = hydrogen_aliases(gs)
    describe = SpanSolver(list(alias.values())).describer(list(alias), "<outside alias span>")
    checks = [
        AliasCheck(
            rel.text, rel.holds(alias), describe(commutator(alias[rel.left], alias[rel.right]))
        )
        for rel in HYDROGEN_LB_TABLE.relations
    ]
    families = {
        "[L,L]": _epsilon_handedness(alias, "L", "L", "L"),
        "[L,A]": _epsilon_handedness(alias, "L", "A", "A"),
        "[A,A]": _epsilon_handedness(alias, "A", "A", "L"),
    }
    return HydrogenAliasReport(
        checks=checks,
        epsilon_convention=families["[L,L]"],
        family_conventions=families,
    )
