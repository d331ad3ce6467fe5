"""The pseudo-orthogonal algebras so(p,q): a ``GeneratorSet`` holds any
one-size (a, b) -> matrix family, and ``build_generators`` is the one builder
of the defining representation, the (p+q)x(p+q) matrices of signature (p, q)

    (L_ab)_{mn} = i * (delta_{ma} g_{bn} - delta_{mb} g_{an}),

with g = diag(+1 x p, -1 x q) and 1-based indices a < b throughout, matching
the index convention of the printed commutation table this module validates:

    [L_ab, L_cd] = i (g_ad L_bc + g_bc L_ad - g_ac L_bd - g_bd L_ac).

Two index pairs that share exactly one index x bracket to one term, the one
whose g is g_xx, and any other two commute; ``_star_term`` states that term
once, and ``expected_bracket`` validates its arguments and reads it.

A realisation is *validated*, never assumed: ``verify_commutation`` decides
every unordered generator pair against the symbolic right-hand side exactly,
comparing matrices wherever either side can be nonzero: the pairs whose
index pairs share an index, and the bracket-table entries of two pairs that
share none.  Each generator set computes those brackets once, in one sparse
join (``exact.pairwise_commutators``) that fills its lazily built
``brackets`` table, keyed by generator indices as the join makes them, and
lists the pairs that share an index once, in its table ``overlaps``, also
built on first read; the commutation sweep and the Cartan search read both.
Membership, ``pseudo_antisymmetry_holds``, holds each stored entry against
its transpose partner, with no matrix product; a set whose matrices are not
(p+q)x(p+q), such as a direct sum, fails it instead of raising.
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
    brackets,
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

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def pair_name(a: int, b: int) -> str:
    return f"L{a}{b}"


class GeneratorSet:
    """Ordered family of generators L_ab, 1 <= a < b <= p+q, of one signature:
    any such (a, b) -> matrix map whose matrices share one size, in its order;
    the constructor refuses matrices of two sizes with a ``ValueError``.

    Lookup resolves the antisymmetry convention: ``gen(b, a)`` is
    ``-gen(a, b)`` and ``gen(a, a)`` is the zero matrix; a pair the family
    omits is a ``KeyError`` that names its generator, in either order.  The
    bracket table ``brackets``, keyed by positions s < t in ``pairs``, and
    the span solver ``solver`` are built from the current matrices on first
    read, never in the constructor, so a generator overwritten before then
    is what they see.
    ``overlaps`` maps each pair of positions s < t whose index pairs share
    exactly one index x to x; it too is built once, on first read, and read
    by the commutation sweep and the Cartan search.
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
        sizes = {mat.dim for mat in self._gens.values()}
        if len(sizes) > 1:
            raise ValueError(f"generator matrices differ in size: {sorted(sizes)}")
        self.zero = ExactMatrix.zeros(sizes.pop())

    def __len__(self) -> int:
        return len(self.pairs)

    def gen(self, a: int, b: int) -> ExactMatrix:
        n = self.metric.dim
        if not (0 < a <= n and 0 < b <= n):
            raise IndexError(f"index {b if 0 < a <= n else a} outside 1..{n}")
        if a == b:
            return self.zero
        try:
            return self._gens[a, b] if a < b else -self._gens[b, a]
        except KeyError:
            raise KeyError(f"the family omits {pair_name(min(a, b), max(a, b))}") from None

    def matrices(self) -> list[ExactMatrix]:
        return [self._gens[pair] for pair in self.pairs]

    @cached_property
    def brackets(self) -> dict[tuple[int, int], ExactMatrix]:
        return pairwise_commutators(self.matrices())

    @cached_property
    def overlaps(self) -> dict[tuple[int, int], int]:
        # the star of x lists, ascending, the positions whose pair carries x;
        # two distinct index pairs share at most one index, so each pair of
        # positions lies in at most one star
        stars: list[list[int]] = [[] for _ in range(self.metric.dim + 1)]
        for s, (a, b) in enumerate(self.pairs):
            stars[a].append(s)
            stars[b].append(s)
        return {pair: x for x, star in enumerate(stars) for pair in combinations(star, 2)}

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


def _star_term(g_x: int, x: int, left: IndexPair, right: IndexPair) -> tuple[int, IndexPair]:
    """The bracket [L_left, L_right] of two index pairs that share only the
    index x, as (sign, (u, v)) with u < v, meaning sign * i * L_uv: the one
    term of the bracket rule whose g is g_xx, [L_xy, L_xz] = -i g_xx L_yz,
    with L_yx = -L_xy for a pair that carries x second."""
    a, b = left
    c, d = right
    sign = -g_x
    if a == x:
        y = b
    else:
        y, sign = a, -sign
    if c == x:
        z = d
    else:
        z, sign = c, -sign
    if y > z:
        y, z, sign = z, y, -sign
    return sign, (y, z)


def expected_bracket(
    metric: Metric, left: IndexPair, right: IndexPair
) -> list[tuple[GaussianRational, IndexPair]]:
    """Symbolic right-hand side of the bracket [L_left, L_right].

    Returns at most one (coefficient, pair) term, its pair normalised to
    a < b: two index pairs of distinct members that share exactly one index
    bracket to one generator, and any other two commute.  The arguments are
    validated here, once; the term is the private rule the sweep reads.
    """
    a, b = left
    c, d = right
    n = metric.dim
    for idx in (a, b, c, d):
        if not 1 <= idx <= n:
            raise IndexError(f"index {idx} outside 1..{n}")
    if a == b or c == d:
        raise ValueError("index pairs must have distinct members")
    # pairs sharing both indices leave only L_uu terms, which vanish
    shared = {a, b} & {c, d}
    if len(shared) != 1:
        return []
    (x,) = shared
    sign, pair = _star_term(metric.g(x), x, left, right)
    return [(_I_TIMES[sign], pair)]


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
    and its right-hand side.  The sweep makes one pass over ``gs.overlaps``,
    the pairs whose index pairs share one index x: each such pair's side is
    the one term +-i L_uv of ``_star_term``.  The table entries outside
    ``gs.overlaps`` bracket two pairs that share no index, so each is
    compared against zero.  Every other pair is 0 = 0, as the join stores
    every nonzero bracket.  The sides +-i L_uv of every generator are built
    once per sweep; a generator the family omits has no side, so a pair
    whose side it is fails with that generator named in ``expected``.
    ``gs.solver`` is read first: its factoring raises ``ValueError`` on a
    dependent set, and only for independent generators does equality of the
    matrices mean equality of the coefficients.  A mismatch is a failure
    entry, never an exception, and its ``got`` side is expanded in the
    generator basis; failures come in the order of the pairs (s, t), s < t.
    """
    metric = gs.metric
    describe = gs.solver.describer(gs.names, "<outside generator span>")
    # not named ``brackets``, the kernel this module imports: CPython 3.11
    # compiles a method call on a name that the module imports as an
    # attribute load and a call, which slowed this sweep by about 5 %
    table, overlaps, pairs, zero = gs.brackets, gs.overlaps, gs.pairs, gs.zero
    g = (0, *(metric.g(x) for x in range(1, metric.dim + 1)))  # g[x] is g_xx
    # a generator the family omits has no side, and the None that stands
    # for it equals no bracket
    sides = {
        (sign, pair): mat * i for pair, mat in gs._gens.items() for sign, i in _I_TIMES.items()
    }
    # (s, t, got, term), the term None for a pair whose right-hand side is 0
    mismatches = []
    for (s, t), x in overlaps.items():
        term = _star_term(g[x], x, pairs[s], pairs[t])
        got = table.get((s, t), zero)
        if got != sides.get(term):
            mismatches.append((s, t, got, term))
    # the join stores no zero, so each entry of two pairs that share no index fails
    mismatches += [(s, t, table[s, t], None) for s, t in table.keys() - overlaps.keys()]
    mismatches.sort(key=lambda m: m[:2])
    return {
        "signature": (metric.p, metric.q),
        "pair_count": len(gs) * (len(gs) - 1) // 2,
        "failures": [
            {
                "lhs_pair": pairs[s],
                "rhs_pair": pairs[t],
                "got": describe(got),
                "expected": format_combination(
                    () if term is None else ((_I_TIMES[term[0]], pair_name(*term[1])),)
                ),
            }
            for s, t, got, term in mismatches
        ],
    }


def pseudo_antisymmetry_holds(gs: GeneratorSet) -> bool:
    """Membership check g L^T g == -L for every generator, entry by entry:
    each entry L_ij has the partner L_ji = -g_i g_j L_ij, and no product.
    A set whose matrices are not (p+q)x(p+q) fails it."""
    signs = (1,) * gs.metric.p + (-1,) * gs.metric.q
    sized = gs.zero.dim == len(signs)
    return sized and all(mat.is_pseudo_antisymmetric(signs) for mat in gs.matrices())


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
    from the coefficient of z_k in each bracket; the six brackets are judged
    in one ``brackets`` call."""
    found = set()
    judged = brackets((alias[f"{x}{i}"], alias[f"{y}{j}"]) for i, j, _ in _EPS)
    for ((i, j, k), eps), bracket in zip(_EPS.items(), judged):
        lam = bracket.multiple_of(alias[f"{z}{k}"])
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
    ``Relation.holds``; its ``got`` is the matrix of the bracket it was
    judged on, rendered in the alias basis.  ``epsilon_convention``
    ("-i eps_ijk", "+i eps_ijk" or "mixed") is the handedness of the
    angular-momentum triple ([L_i, L_j] against +/- i eps_ijk L_k);
    ``family_conventions`` carries the same record for
    the [L,A] and [A,A] families, so a reader can see that the +i eps variant
    printed in prose fails across the board.  The rows' brackets are judged
    in one ``brackets`` call, and each family's in another, independently of
    the ``gs.brackets`` join.
    """
    alias = hydrogen_aliases(gs)
    describe = SpanSolver(list(alias.values())).describer(list(alias), "<outside alias span>")
    judged = brackets((alias[rel.left], alias[rel.right]) for rel in HYDROGEN_LB_TABLE)
    checks = [
        {
            "relation": rel.text,
            "passed": rel.holds(alias, bracket),
            "got": describe(bracket.matrix()),
        }
        for rel, bracket in zip(HYDROGEN_LB_TABLE, judged)
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
