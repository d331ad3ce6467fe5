"""Cartan subalgebras, ladder operators, root systems, and Casimir invariants.

The module has three layers:

* construction: the 18-operator adapted basis of so(4,2), its doubled
  36-operator analogue for so(4,4), ladder combinations, and the canonical
  Cartan set: the lexicographically first maximum commuting set of rotation
  generators, found by a depth-first search that stops at floor(n/2)
  members once a star certificate proves that bound (each set of generators
  sharing an index is pairwise non-commuting, so a commuting set holds at
  most one generator per index pair), and is exhaustive when the
  certificate fails;
* extraction: exact root vectors of ladder operators against a Cartan set;
* validation: the printed relation tables and emulation chains of
  ``paper``, checked relation by relation against the matrix realisation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from itertools import combinations

from .exact import HALF, ExactMatrix, I, bracket_multiple, commutator, commutes, product_sum
from .paper import SECOND_HALF_DEFS, SUBALGEBRAS, YAO_DEFS, Relation
from .sopq import GeneratorSet, IndexPair, Metric, hydrogen_aliases, materialize


class NotARootVectorError(ValueError):
    """A candidate operator is not a simultaneous eigenvector of the Cartan set."""


RootVector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# Cartan search
# ---------------------------------------------------------------------------


def star_certificate(gs: GeneratorSet) -> bool:
    """Whether every two generators of ``gs`` that share an index fail to
    commute, which bounds the size of a commuting set of them by floor(n/2).

    The pairs of generators that share an index are the keys of
    ``gs.overlaps``, the table the commutation sweep reads too; such a pair
    fails to commute when it has an entry in ``gs.brackets``.  Then a
    commuting set holds at most one generator carrying each index, and each
    generator carries two, so 2 * size <= n.
    This is the clique number bounded by the fractional chromatic number
    (Lovasz 1978); it assumes no symmetry of the matrices.
    """
    return gs.overlaps.keys() <= gs.brackets.keys()


def find_cartan(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """Maximum pairwise-commuting subset of the rotation generators, as a
    name -> matrix map in generator order.

    Generators s < t commute when ``gs.brackets`` has no entry (s, t),
    so commutation is decided by exact matrix arithmetic, not by index
    bookkeeping.  One depth-first search over the generator family extends
    cliques in ascending index order and keeps a clique only when it is
    strictly larger than the best so far.  Its preorder visits
    cliques in lexicographic order, so the result is the lexicographically
    first maximum clique: ties are broken toward the earliest index pairs.

    The search stops as soon as the best clique reaches an upper bound on
    the clique size.  When ``star_certificate`` holds, checked on every
    call, the bound is floor(n/2), which the so(p,q) generators attain
    (L12, L34, ...).  Otherwise, as for a corrupted generator set, the bound
    is the number of generators and the search is exhaustive.
    """
    brackets = gs.brackets
    bound = gs.metric.dim // 2 if star_certificate(gs) else len(gs)
    best: list[int] = []

    def extend(chosen: list[int], candidates: list[int]) -> bool:
        """Search the cliques that extend ``chosen``; True once ``best``
        reaches the bound."""
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
            if len(best) == bound:
                return True
        for idx, v in enumerate(candidates):
            if len(chosen) + len(candidates) - idx <= len(best):
                return False
            # candidates ascend, so v < u is the key order of the join
            rest = [u for u in candidates[idx + 1 :] if (v, u) not in brackets]
            if extend(chosen + [v], rest):
                return True
        return False

    extend([], list(range(len(gs))))
    mats = gs.matrices()
    return {gs.names[k]: mats[k] for k in best}


def cartan_is_maximal(gs: GeneratorSet, cartan: Mapping[str, ExactMatrix]) -> bool:
    """No generator of ``gs`` outside ``cartan``, a set of its generators,
    commutes with every member, by ``gs.brackets``."""
    members = [k for k, name in enumerate(gs.names) if name in cartan]
    return all(
        any((min(k, h), max(k, h)) in gs.brackets for h in members)
        for k in range(len(gs))
        if k not in members
    )


# ---------------------------------------------------------------------------
# Adapted bases
# ---------------------------------------------------------------------------

def yao_basis(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """The 18 compact-subgroup-adapted combinations for signature (4,2),
    name -> matrix in family order K, J, T, S, P, Q.

    Redundant by construction: the 18 matrices span only the 15-dimensional
    algebra (three dependencies, the Cartan emulation chains).
    """
    if gs.metric != Metric(4, 2):
        raise ValueError("adapted basis requires signature (4,2)")
    return {name: materialize(gs, terms) for name, terms in YAO_DEFS}


def split_basis_so44(
    gs: GeneratorSet,
) -> tuple[dict[str, ExactMatrix], dict[str, ExactMatrix]]:
    """Both 18-operator halves of the split basis for signature (4,4).

    Names carry a half prefix: 1K1..1Q0 act on indices 1..6 (identical in
    form to the signature-(4,2) basis), 2K1..2Q0 involve indices 7, 8.
    """
    if gs.metric != Metric(4, 4):
        raise ValueError("split basis requires signature (4,4)")
    first = {"1" + name: materialize(gs, terms) for name, terms in YAO_DEFS}
    second = {"2" + name: materialize(gs, terms) for name, terms in SECOND_HALF_DEFS}
    return first, second


def adapted_basis(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """The basis that ladders, roots and printed tables are built from:
    ``yao_basis`` for (4,2), both halves of ``split_basis_so44`` in order for
    (4,4).  Raises ValueError for any other signature."""
    if gs.metric == Metric(4, 2):
        return yao_basis(gs)
    if gs.metric == Metric(4, 4):
        first, second = split_basis_so44(gs)
        return first | second
    raise ValueError(f"no adapted basis for signature {gs.metric}")


def ladder_operators(basis: Mapping[str, ExactMatrix]) -> dict[str, ExactMatrix]:
    """Literal raising/lowering combinations E+/- = E1 +/- i*E2.

    Applies to every family with both ·1 and ·2 components present (K..Q,
    their halves, and the X/Y complex-shell components); family order
    follows the input order.
    """
    out = {}
    for name, one in basis.items():
        if not name.endswith("1"):
            continue
        stem = name[:-1]
        partner = stem + "2"
        if partner not in basis:
            raise KeyError(f"missing component {partner} for family {stem}")
        out[stem + "+"] = one + basis[partner] * I
        out[stem + "-"] = one + basis[partner] * (-I)
    return out


def extract_root(
    cartan: Mapping[str, ExactMatrix], name: str, matrix: ExactMatrix
) -> RootVector:
    """Exact eigenvalue tuple of ``matrix``, called ``name`` in error
    messages, under each Cartan member.

    Raises NotARootVectorError if any bracket fails exact proportionality
    or if a proportionality constant is not a real rational.
    """
    if matrix.is_zero():
        raise NotARootVectorError(f"{name} is the zero matrix")
    comps = []
    for h, h_matrix in cartan.items():
        lam = bracket_multiple(h_matrix, matrix, matrix)
        if lam is None:
            raise NotARootVectorError(f"[{h},{name}] is not proportional to {name}")
        if not lam.is_real:
            raise NotARootVectorError(
                f"root component of {name} along {h} is complex: {lam}"
            )
        comps.append(lam.re)
    return tuple(comps)


def weyl_generators(
    cartan: Mapping[str, ExactMatrix], ladders: Mapping[str, ExactMatrix]
) -> dict[str, tuple[ExactMatrix, RootVector]]:
    """Orient the X+, X- pairs that ``ladder_operators`` returns against
    ``cartan``: name -> (matrix, root), in pair order.

    The roots of the literal X+ and X- are extracted once each.  Within
    each pair the "+" name goes to whichever of E1 +/- i*E2 has a root
    whose last nonzero component (in Cartan order) is positive, so the
    matrices and their roots are swapped together when the root of the
    literal X+ ends negative.  This single rule reproduces the published
    rank-3 root table exactly; for the K family it selects K1 - i*K2, for
    every other rank-3 family the literal E1 + i*E2 form.  Pair order is
    kept.  Raises ValueError if ``ladders`` does not list X+, X- pairs,
    and NotARootVectorError for the first operator, X+ before X- in pair
    order, that is not a root vector.
    """
    items = list(ladders.items())
    if len(items) % 2:
        raise ValueError(f"unpaired ladder operator {items[-1][0]}")
    out = {}
    for (plus, e_up), (minus, e_down) in zip(items[::2], items[1::2]):
        stem = plus[:-1]
        if plus != stem + "+" or minus != stem + "-":
            raise ValueError(f"expected an X+, X- pair, got {plus}, {minus}")
        up = extract_root(cartan, plus, e_up)
        down = extract_root(cartan, minus, e_down)
        if next((c for c in reversed(up) if c), 0) < 0:
            e_up, e_down, up, down = e_down, e_up, down, up
        out[plus] = (e_up, up)
        out[minus] = (e_down, down)
    return out


class RootTable(namedtuple("RootTable", "cartan roots")):
    """Cartan member names, and name -> root of each Weyl generator."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "cartan": list(self.cartan),
            "roots": [
                {"name": name, "components": [str(c) for c in root]}
                for name, root in self.roots.items()
            ],
        }


def root_system(
    cartan: Mapping[str, ExactMatrix],
    weyl: Mapping[str, tuple[ExactMatrix, RootVector]],
) -> RootTable:
    """Tabulate the roots that ``weyl_generators`` returns, in input order."""
    return RootTable(
        cartan=list(cartan), roots={name: root for name, (_, root) in weyl.items()}
    )


# ---------------------------------------------------------------------------
# Casimir invariants for signature (4,2)
# ---------------------------------------------------------------------------


def _epsilon_sum(upper: Mapping[IndexPair, ExactMatrix], rest: tuple[int, ...]) -> ExactMatrix:
    """Sum of U_ab @ U_cd @ ... over the pairs a < b, c < d, ... that cover
    the sorted ``rest``, signed by the permutation (a, b, c, d, ...) of it,
    expanded along the first pair: moving positions i < j of ``rest`` to
    the front takes i + j - 1 transpositions.  Each level is one fused
    ``product_sum``."""
    if len(rest) == 2:
        return upper[rest]
    terms = [
        (
            -1 if (i + j) % 2 == 0 else 1,
            upper[rest[i], rest[j]],
            _epsilon_sum(upper, rest[:i] + rest[i + 1 : j] + rest[j + 1 :]),
        )
        for i, j in combinations(range(len(rest)), 2)
    ]
    return product_sum(terms[0][1].dim, terms)


def casimir(gs: GeneratorSet, degree: int) -> ExactMatrix:
    """Degree 2, 3, or 4 invariant of the signature-(4,2) algebra, built in
    15, 105 and 186 matrix products.

    Degree 2 is the quadratic form sum over a < b of L_ab L^ab, which in
    the hydrogen aliases reads L^2 + A^2 - B^2 - Gamma^2 + D3^2 - D1^2 -
    D2^2.  Degree 3 contracts three raised generators with the rank-6
    epsilon tensor (eps_123456 = +1) and a 1/48 normalisation; degree 4 is
    the closed chain L_ab L^bc L_cd L^da.  Indices are raised with the
    diagonal metric; the sums are built at the size of the generators.

    Both higher sums are regrouped by distributivity alone, without
    assuming the brackets.  Swapping the two indices of one generator flips
    both the generator (``gs.gen`` returns L_ba = -L_ab) and the sign of
    the permutation, so C3 is 8/48 = 1/6 of ``_epsilon_sum`` over {1..6},
    which expands each of its 15 four-index remainders once.  C4 is the
    sum over a, c of chain(a, c) @ chain(c, a), where chain(a, c) = sum
    over b != a, c of L_ab L^bc (a = c included).  C2, each chain, C4
    and each level of the C3 recursion are one fused ``product_sum``, so
    no intermediate product or partial sum is built.
    """
    if gs.metric != Metric(4, 2):
        raise ValueError("Casimir construction requires signature (4,2)")
    if degree not in (2, 3, 4):
        raise ValueError(f"unsupported Casimir degree {degree}")
    g, n, size = gs.metric.g, gs.metric.dim, gs.zero.dim
    idx = tuple(range(1, n + 1))
    lower = {(a, b): gs.gen(a, b) for a in idx for b in idx if a != b}
    upper = {(a, b): mat if g(a) == g(b) else -mat for (a, b), mat in lower.items()}
    if degree == 2:
        return product_sum(size, ((1, lower[ab], upper[ab]) for ab in combinations(idx, 2)))
    if degree == 3:
        return _epsilon_sum(upper, idx) * Fraction(1, 6)
    chain = {
        (a, c): product_sum(size, ((1, lower[a, b], upper[b, c]) for b in idx if b not in (a, c)))
        for a in idx
        for c in idx
    }
    return product_sum(size, ((1, chain[a, c], chain[c, a]) for a in idx for c in idx))


def casimir_invariance(gs: GeneratorSet, cas: ExactMatrix) -> bool:
    return all(commutes(cas, mat) for mat in gs.matrices())


# ---------------------------------------------------------------------------
# Subalgebra baskets
# ---------------------------------------------------------------------------


def subalgebra_basis(
    gs: GeneratorSet, yao: Mapping[str, ExactMatrix]
) -> dict[str, dict[str, ExactMatrix]]:
    """Cartan-Weyl bases of the four rank-2 subalgebras of the (4,2) algebra.

    ``yao`` is ``yao_basis(gs)``.  Returns one basket per row of
    ``paper.SUBALGEBRAS``, in its order: "sl2c" from the complex shell
    X/Y = (L +/- i*B)/2 of the hydrogen aliases of ``gs``, the others from
    ``yao``.  Each basket maps H1, H2, E1+, E1-, E2+, E2- to matrices, in
    that order, with the row's ladder members.
    """
    alias = hydrogen_aliases(gs)
    ops = dict(yao)
    for i in (1, 2, 3):
        ops[f"X{i}"] = (alias[f"L{i}"] + alias[f"B{i}"] * I) * HALF
        ops[f"Y{i}"] = (alias[f"L{i}"] + alias[f"B{i}"] * (-I)) * HALF
    baskets = {}
    for row in SUBALGEBRAS:
        out = {fam + row.h: ops[fam + row.h] for fam in row.families}
        for fam in row.families:
            one, two = ops[f"{fam}1"], ops[f"{fam}2"]
            out[f"{fam}+"] = (one + two * (I * row.sign)) * row.factor
            out[f"{fam}-"] = (one - two * (I * row.sign)) * row.factor
        baskets[row.name] = out
    return baskets


# ---------------------------------------------------------------------------
# Relation tables and emulation chains
# ---------------------------------------------------------------------------


def check_relation_table(
    ops: Mapping[str, ExactMatrix],
    name: str,
    relations: Sequence[Relation],
    describe: Callable[[ExactMatrix], str] | None = None,
) -> dict:
    """Evaluate every printed relation of the table ``name`` as an exact
    matrix identity and record the ones that fail, in table order, as the
    report
    ``{"table", "relation_count", "deviations"}``.  Each deviation
    ``{"relation", "got"}`` is a printed relation that the matrices break,
    and the bracket they give: ``describe`` renders it, "<differs>" without
    it.  The table holds exactly when ``deviations`` is empty.

    Each relation is decided by ``Relation.holds``; the bracket matrix is
    built only to describe a failure."""
    deviations = []
    for rel in relations:
        if not rel.holds(ops):
            got = describe(commutator(ops[rel.left], ops[rel.right])) if describe else "<differs>"
            deviations.append({"relation": rel.text, "got": got})
    return {"table": name, "relation_count": len(relations), "deviations": deviations}


def _eval_signed_sum(expr: str, ops: Mapping[str, ExactMatrix]) -> ExactMatrix:
    """Evaluate "A+B", "-A-B" style sums of named operators; an unknown
    name raises KeyError."""
    terms = [
        -ops[t[1:]] if t[0] == "-" else ops[t]
        for t in expr.replace("-", "+-").split("+")
        if t
    ]
    return sum(terms[1:], terms[0])


def emulation_check(
    ops: Mapping[str, ExactMatrix], chains: Sequence[tuple[str, list[str]]]
) -> dict:
    """Check each chain of linear identities as exact matrix equalities.

    The report is ``{"chains": [{"name", "links"}, ...]}``, one link
    ``{"identity": "J3+K3 = L12", "passed"}`` per expression after a
    chain's first; a chain holds when every link passed."""
    checks = []
    for name, exprs in chains:
        first = _eval_signed_sum(exprs[0], ops)
        links = [
            {"identity": f"{exprs[0]} = {expr}", "passed": _eval_signed_sum(expr, ops) == first}
            for expr in exprs[1:]
        ]
        checks.append({"name": name, "links": links})
    return {"chains": checks}

