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
* validation: the published commutation tables (component tables, ladder
  tables, subalgebra tables, emulation chains) encoded verbatim and checked
  relation by relation against the matrix realisation.

Sign conventions.  The matrix realisation fixes every bracket, and the
published tables are not all mutually consistent with it.  Checks are run
against the tables *as printed* and mismatches are reported, never patched.
Two deliberate conventions are applied where an orientation has to be
chosen (both recorded in the reports):

* a ladder pair is published with "+" on whichever of E1 +/- i*E2 has a
  root whose last nonzero component is positive; this reproduces the
  published rank-3 root table exactly (for the K family it selects
  K1 - i*K2);
* the su(1,1)-type subalgebra baskets carry an extra factor i on their
  ladder members so that the published normalisation [E+, E-] = -2*E0
  holds together with [E0, E+/-] = -/+ E+/-.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

from .exact import (
    HALF,
    ExactMatrix,
    GaussianRational,
    I,
    ONE,
    bracket_multiple,
    commutator,
    commutes,
)
from .sopq import (
    GeneratorSet,
    IndexPair,
    Metric,
    Relation,
    RelationTable,
    _rel,
    hydrogen_aliases,
    materialize,
)

MINUS_HALF = -HALF


class NotARootVectorError(ValueError):
    """A candidate operator is not a simultaneous eigenvector of the Cartan set."""


RootVector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# Cartan search
# ---------------------------------------------------------------------------


def star_certificate(gs: GeneratorSet) -> bool:
    """Whether every star of ``gs`` is pairwise non-commuting, which bounds
    the size of a commuting set of its generators by floor(n/2).

    The star S_a is the set of generators that carry index a; its members
    pairwise fail to commute when every pair of their generator indices
    has an entry in ``gs.brackets``.  Every generator lies in exactly two
    stars and a commuting set meets each star at most once, so then
    2 * size <= n.
    This is the clique number bounded by the fractional chromatic number
    (Lovasz 1978); it assumes no symmetry of the matrices.
    """
    return all(
        (x, y) in gs.brackets
        for a in range(1, gs.metric.dim + 1)
        for x, y in combinations([k for k, pair in enumerate(gs.pairs) if a in pair], 2)
    )


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

# Compact-subgroup-adapted basis for signature (4,2): each entry is
# (name, [(coefficient, index pair), ...]) over the rotation generators.
_YAO_DEFS: list[tuple[str, list[tuple[GaussianRational, IndexPair]]]] = [
    ("K1", [(HALF, (2, 3)), (HALF, (1, 4))]),
    ("K2", [(MINUS_HALF, (1, 3)), (HALF, (2, 4))]),
    ("K3", [(HALF, (1, 2)), (HALF, (3, 4))]),
    ("J1", [(HALF, (2, 3)), (MINUS_HALF, (1, 4))]),
    ("J2", [(MINUS_HALF, (1, 3)), (MINUS_HALF, (2, 4))]),
    ("J3", [(HALF, (1, 2)), (MINUS_HALF, (3, 4))]),
    ("T1", [(MINUS_HALF, (1, 5)), (MINUS_HALF, (2, 6))]),
    ("T2", [(HALF, (2, 5)), (MINUS_HALF, (1, 6))]),
    ("T0", [(MINUS_HALF, (1, 2)), (MINUS_HALF, (5, 6))]),
    ("S1", [(MINUS_HALF, (1, 5)), (HALF, (2, 6))]),
    ("S2", [(MINUS_HALF, (2, 5)), (MINUS_HALF, (1, 6))]),
    ("S0", [(HALF, (1, 2)), (MINUS_HALF, (5, 6))]),
    ("P1", [(MINUS_HALF, (3, 5)), (MINUS_HALF, (4, 6))]),
    ("P2", [(HALF, (4, 5)), (MINUS_HALF, (3, 6))]),
    ("P0", [(MINUS_HALF, (3, 4)), (MINUS_HALF, (5, 6))]),
    ("Q1", [(HALF, (3, 5)), (MINUS_HALF, (4, 6))]),
    ("Q2", [(HALF, (4, 5)), (HALF, (3, 6))]),
    ("Q0", [(HALF, (3, 4)), (MINUS_HALF, (5, 6))]),
]

# Second half of the split basis for signature (4,4), on indices 5..8.
_SECOND_HALF_DEFS: list[tuple[str, list[tuple[GaussianRational, IndexPair]]]] = [
    ("K1", [(HALF, (6, 7)), (HALF, (5, 8))]),
    ("K2", [(MINUS_HALF, (5, 7)), (HALF, (6, 8))]),
    ("K3", [(HALF, (5, 6)), (HALF, (7, 8))]),
    ("J1", [(HALF, (6, 7)), (MINUS_HALF, (5, 8))]),
    ("J2", [(MINUS_HALF, (5, 7)), (MINUS_HALF, (6, 8))]),
    ("J3", [(HALF, (5, 6)), (MINUS_HALF, (7, 8))]),
    ("T1", [(HALF, (1, 7)), (HALF, (2, 8))]),
    ("T2", [(MINUS_HALF, (2, 7)), (HALF, (1, 8))]),
    ("T0", [(HALF, (1, 2)), (HALF, (7, 8))]),
    ("S1", [(HALF, (1, 7)), (MINUS_HALF, (2, 8))]),
    ("S2", [(HALF, (2, 7)), (HALF, (1, 8))]),
    ("S0", [(MINUS_HALF, (1, 2)), (HALF, (7, 8))]),
    ("P1", [(HALF, (3, 7)), (HALF, (4, 8))]),
    ("P2", [(MINUS_HALF, (4, 7)), (HALF, (3, 8))]),
    ("P0", [(HALF, (3, 4)), (HALF, (7, 8))]),
    ("Q1", [(HALF, (3, 7)), (MINUS_HALF, (4, 8))]),
    ("Q2", [(HALF, (4, 7)), (HALF, (3, 8))]),
    ("Q0", [(MINUS_HALF, (3, 4)), (HALF, (7, 8))]),
]


def yao_basis(gs: GeneratorSet) -> dict[str, ExactMatrix]:
    """The 18 compact-subgroup-adapted combinations for signature (4,2),
    name -> matrix in family order K, J, T, S, P, Q.

    Redundant by construction: the 18 matrices span only the 15-dimensional
    algebra (three dependencies, the Cartan emulation chains).
    """
    if gs.metric != Metric(4, 2):
        raise ValueError("adapted basis requires signature (4,2)")
    return {name: materialize(gs, terms) for name, terms in _YAO_DEFS}


def split_basis_so44(
    gs: GeneratorSet,
) -> tuple[dict[str, ExactMatrix], dict[str, ExactMatrix]]:
    """Both 18-operator halves of the split basis for signature (4,4).

    Names carry a half prefix: 1K1..1Q0 act on indices 1..6 (identical in
    form to the signature-(4,2) basis), 2K1..2Q0 involve indices 7, 8.
    """
    if gs.metric != Metric(4, 4):
        raise ValueError("split basis requires signature (4,4)")
    first = {"1" + name: materialize(gs, terms) for name, terms in _YAO_DEFS}
    second = {"2" + name: materialize(gs, terms) for name, terms in _SECOND_HALF_DEFS}
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


@dataclass
class RootTable:
    cartan: list[str]
    roots: dict[str, RootVector]

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
    the front takes i + j - 1 transpositions."""
    if len(rest) == 2:
        return upper[rest]
    acc = None
    for i, j in combinations(range(len(rest)), 2):
        term = upper[rest[i], rest[j]] @ _epsilon_sum(
            upper, rest[:i] + rest[i + 1 : j] + rest[j + 1 :]
        )
        if (i + j) % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def casimir(gs: GeneratorSet, degree: int) -> ExactMatrix:
    """Degree 2, 3, or 4 invariant of the signature-(4,2) algebra, built in
    15, 105 and 186 matrix products.

    Degree 2 is the quadratic form sum over a < b of L_ab L^ab, which in
    the hydrogen aliases reads L^2 + A^2 - B^2 - Gamma^2 + D3^2 - D1^2 -
    D2^2.  Degree 3 contracts three raised generators with the rank-6
    epsilon tensor (eps_123456 = +1) and a 1/48 normalisation; degree 4 is
    the closed chain L_ab L^bc L_cd L^da.  Indices are raised with the
    diagonal metric.

    Both higher sums are regrouped by distributivity alone, without
    assuming the brackets.  Swapping the two indices of one generator flips
    both the generator (``gs.gen`` returns L_ba = -L_ab) and the sign of
    the permutation, so C3 is 8/48 = 1/6 of ``_epsilon_sum`` over {1..6},
    which expands each of its 15 four-index remainders once.  C4 is the
    sum over a, c of chain(a, c) @ chain(c, a), where chain(a, c) = sum
    over b != a, c of L_ab L^bc (a = c included).
    """
    if gs.metric != Metric(4, 2):
        raise ValueError("Casimir construction requires signature (4,2)")
    if degree not in (2, 3, 4):
        raise ValueError(f"unsupported Casimir degree {degree}")
    g = gs.metric.g
    idx = tuple(range(1, gs.metric.dim + 1))
    lower = {(a, b): gs.gen(a, b) for a in idx for b in idx if a != b}
    upper = {(a, b): mat * (g(a) * g(b)) for (a, b), mat in lower.items()}
    if degree == 2:
        return sum((lower[ab] @ upper[ab] for ab in combinations(idx, 2)), gs.zero)
    if degree == 3:
        return _epsilon_sum(upper, idx) * Fraction(1, 6)
    chain = {
        (a, c): sum((lower[a, b] @ upper[b, c] for b in idx if b not in (a, c)), gs.zero)
        for a in idx
        for c in idx
    }
    return sum((chain[a, c] @ chain[c, a] for a in idx for c in idx), gs.zero)


def casimir_invariance(gs: GeneratorSet, cas: ExactMatrix) -> bool:
    return all(commutes(cas, mat) for mat in gs.matrices())


# ---------------------------------------------------------------------------
# Subalgebra baskets
# ---------------------------------------------------------------------------


def subalgebra_basis(
    gs: GeneratorSet, yao: Mapping[str, ExactMatrix]
) -> dict[str, dict[str, ExactMatrix]]:
    """Cartan-Weyl bases of the four rank-2 subalgebras of the (4,2) algebra.

    ``yao`` is ``yao_basis(gs)``.  Returns the baskets by selector, in the
    order "sl2c" (complex shell X/Y of the angular-momentum/boost pair,
    built from the hydrogen aliases of ``gs``), "so4" (K/J), "so22_LD"
    (T/S), "so22_AD" (P/Q), the last three built from ``yao``.  Each
    basket maps H1, H2, E1+, E1-, E2+, E2- to matrices, in that order,
    with ladder members normalised so the published table of that
    subalgebra holds exactly:

    * sl2c: literal X1 +/- i*X2 (and Y);
    * so4: the conjugated combinations K1 -/+ i*K2 (and J), which are the
      raising/lowering operators of K3, J3 in this realisation;
    * so22_*: i*(T1 +/- i*T2) etc.; the extra factor i realises the
      published [E+, E-] = -2*E0 normalisation.
    """
    alias = hydrogen_aliases(gs)
    ops = dict(yao)
    for i in (1, 2, 3):
        ops[f"X{i}"] = (alias[f"L{i}"] + alias[f"B{i}"] * I) * HALF
        ops[f"Y{i}"] = (alias[f"L{i}"] + alias[f"B{i}"] * (-I)) * HALF
    baskets = {}
    for which, fams, h, sign, factor in (
        ("sl2c", "XY", "3", ONE, ONE),
        ("so4", "KJ", "3", -ONE, ONE),
        ("so22_LD", "TS", "0", ONE, I),
        ("so22_AD", "PQ", "0", ONE, I),
    ):
        out = {fam + h: ops[fam + h] for fam in fams}
        for fam in fams:
            one, two = ops[f"{fam}1"], ops[f"{fam}2"]
            out[f"{fam}+"] = (one + two * (I * sign)) * factor
            out[f"{fam}-"] = (one - two * (I * sign)) * factor
        baskets[which] = out
    return baskets


# ---------------------------------------------------------------------------
# Relation tables and emulation chains
# ---------------------------------------------------------------------------


def _zero_cross(fam_a: str, fam_b: str, suffixes: str, prefix: str = "") -> list[Relation]:
    return [
        _rel(f"{prefix}{fam_a}{i}", f"{prefix}{fam_b}{j}", 0, None)
        for i in suffixes
        for j in suffixes
    ]


def _component_table(prefix: str, compact_sign: int, radial_sign: int) -> tuple[Relation, ...]:
    """Shared shape of both printed component tables.

    compact_sign/radial_sign carry the printed +/-i orientation of the
    su(2)-type (K, J) and su(1,1)-type (T, S, P, Q) triples; the first row
    of each triple is encoded exactly as printed, including its misprinted
    right-hand symbol.
    """
    rows: list[Relation] = []
    ci = I * compact_sign
    ri = I * radial_sign
    for fam in ("K", "J"):
        rows += [
            # printed with ·2 on the right-hand side (the realisation gives ·3)
            _rel(f"{prefix}{fam}1", f"{prefix}{fam}2", ci, f"{prefix}{fam}2"),
            _rel(f"{prefix}{fam}2", f"{prefix}{fam}3", ci, f"{prefix}{fam}1"),
            _rel(f"{prefix}{fam}3", f"{prefix}{fam}1", ci, f"{prefix}{fam}2"),
        ]
    rows += _zero_cross("K", "J", "123", prefix)
    for fam in ("T", "S", "P", "Q"):
        rows += [
            # printed with ·2 on the right-hand side (the realisation gives ·0)
            _rel(f"{prefix}{fam}1", f"{prefix}{fam}2", -ri, f"{prefix}{fam}2"),
            _rel(f"{prefix}{fam}2", f"{prefix}{fam}0", ri, f"{prefix}{fam}1"),
            _rel(f"{prefix}{fam}0", f"{prefix}{fam}1", ri, f"{prefix}{fam}2"),
        ]
        if fam == "S":
            rows += _zero_cross("T", "S", "120", prefix)
        if fam == "Q":
            rows += _zero_cross("P", "Q", "120", prefix)
    return tuple(rows)


# Printed component tables of the split basis (first and second halves).
COMPONENT_TABLE_FIRST = RelationTable("components-1", _component_table("1", -1, -1))
COMPONENT_TABLE_SECOND = RelationTable("components-2", _component_table("2", +1, +1))

def _ladder_rows(prefix: str, fam: str, h: str, shift: int, norm: int) -> list[Relation]:
    """One printed sl2-triple: [H,E+] = shift*E+, [H,E-] = -shift*E-,
    [E+,E-] = norm*H, with H the family member suffixed ``h``."""
    e = prefix + fam
    h = e + h
    return [
        _rel(h, e + "+", shift, e + "+"),
        _rel(h, e + "-", -shift, e + "-"),
        _rel(e + "+", e + "-", norm, h),
    ]


def _ladder_pair(prefix: str, a: str, b: str, h: str, shift: int, norm: int) -> list[Relation]:
    """Two commuting sl2-triples of the same shape, then their zero cross brackets."""
    return (
        _ladder_rows(prefix, a, h, shift, norm)
        + _ladder_rows(prefix, b, h, shift, norm)
        + _zero_cross(a, b, "+-" + h, prefix)
    )


# Printed ladder tables for the two halves.
LADDER_TABLE_FIRST = RelationTable(
    "ladders-1",
    tuple(
        _ladder_pair("1", "K", "J", "3", 1, 2)
        + _ladder_rows("1", "T", "0", -1, -2)
        # the 1S triple breaks the sl2 shape as printed, so it is kept literal
        + [
            _rel("1S0", "1S+", -1, "1S+"),
            # printed exactly so, left side repeated from the row below
            _rel("1S+", "1S-", 1, "1S-"),
            _rel("1S+", "1S-", -2, "1S0"),
        ]
        + _zero_cross("T", "S", "+-0", "1")
        + _ladder_pair("1", "P", "Q", "0", -1, -2)
    ),
)
LADDER_TABLE_SECOND = RelationTable(
    "ladders-2",
    tuple(
        _ladder_pair("2", "K", "J", "3", 1, 2)
        + _ladder_pair("2", "T", "S", "0", 1, -2)
        + _ladder_pair("2", "P", "Q", "0", 1, -2)
    ),
)

# Relations whose printed form disagrees with the matrix realisation.  Each
# is a one-symbol slip (a ·2 where the bracket closes on ·3/·0) or a sign
# flipped relative to the realisation; the checker re-derives this list on
# every run and the verification suite requires an exact match.
KNOWN_TABLE_DEVIATIONS: dict[str, tuple[str, ...]] = {
    "components-1": (
        "[1K1,1K2] = (-i)*1K2",
        "[1J1,1J2] = (-i)*1J2",
        "[1T1,1T2] = (i)*1T2",
        "[1S1,1S2] = (i)*1S2",
        "[1P1,1P2] = (i)*1P2",
        "[1Q1,1Q2] = (i)*1Q2",
    ),
    "components-2": (
        "[2K1,2K2] = (i)*2K2",
        "[2J1,2J2] = (i)*2J2",
        "[2T1,2T2] = (-i)*2T2",
        "[2S1,2S2] = (-i)*2S2",
        "[2P1,2P2] = (-i)*2P2",
        "[2Q1,2Q2] = (-i)*2Q2",
    ),
    "ladders-1": (
        "[1K3,1K+] = 1K+",
        "[1K3,1K-] = -1K-",
        "[1K+,1K-] = (2)*1K3",
        "[1J3,1J+] = 1J+",
        "[1J3,1J-] = -1J-",
        "[1J+,1J-] = (2)*1J3",
        "[1T+,1T-] = (-2)*1T0",
        "[1S+,1S-] = 1S-",
        "[1S+,1S-] = (-2)*1S0",
        "[1P+,1P-] = (-2)*1P0",
        "[1Q+,1Q-] = (-2)*1Q0",
    ),
    "ladders-2": (),
}

# Subalgebra tables for signature (4,2), checked against the baskets from
# subalgebra_basis (which pin the normalisations; see the docstring there).
SUBALGEBRA_TABLES: dict[str, RelationTable] = {
    name: RelationTable(name, tuple(_ladder_pair("", a, b, h, shift, norm)))
    for name, a, b, h, shift, norm in (
        ("sl2c", "X", "Y", "3", -1, -2),
        ("so4", "K", "J", "3", 1, 2),
        ("so22_LD", "T", "S", "0", -1, -2),
        ("so22_AD", "P", "Q", "0", -1, -2),
    )
}


@dataclass
class Deviation:
    """A printed relation that the matrices break, and the bracket they give."""

    relation: str
    got: str


@dataclass
class TableReport:
    table: str
    relation_count: int
    deviations: list[Deviation]

    @property
    def ok(self) -> bool:
        return not self.deviations


def check_relation_table(
    ops: Mapping[str, ExactMatrix],
    table: RelationTable,
    describe: Optional[Callable[[ExactMatrix], str]] = None,
) -> TableReport:
    """Evaluate every printed relation as an exact matrix identity and
    record the ones that fail, in table order; ``describe`` renders the
    bracket they give, "<differs>" without it.

    Each relation is decided by ``Relation.holds``; the bracket matrix is
    built only to describe a failure."""
    deviations = []
    for rel in table.relations:
        if not rel.holds(ops):
            got = describe(commutator(ops[rel.left], ops[rel.right])) if describe else "<differs>"
            deviations.append(Deviation(rel.text, got))
    return TableReport(table.name, len(table.relations), deviations)


# Emulation chains: each chain asserts that all listed +/- combinations of
# named operators are one and the same matrix.
EMULATION_CHAINS_SO42: list[tuple[str, list[str]]] = [
    ("chain-L12", ["J3+K3", "S0-T0", "L12"]),
    ("chain-L34", ["J3-K3", "P0-Q0", "-L34"]),
    ("chain-L56", ["P0+Q0", "S0+T0", "-L56"]),
]

EMULATION_CHAINS_SO44: list[tuple[str, list[str]]] = [
    ("chain-L12", ["1J3+1K3", "1S0-1T0", "2T0-2S0", "L12"]),
    ("chain-L34", ["1J3-1K3", "1P0-1Q0", "2Q0-2P0", "-L34"]),
    ("chain-L56", ["1P0+1Q0", "1S0+1T0", "-2K3-2J3", "-L56"]),
    ("chain-L78", ["2K3-2J3", "2T0+2S0", "2P0+2Q0", "L78"]),
]


def _eval_signed_sum(expr: str, ops: Mapping[str, ExactMatrix]) -> ExactMatrix:
    """Evaluate "A+B", "-A-B" style sums of named operators; an unknown
    name raises KeyError."""
    terms = [
        -ops[t[1:]] if t[0] == "-" else ops[t]
        for t in expr.replace("-", "+-").split("+")
        if t
    ]
    return sum(terms[1:], terms[0])


@dataclass
class Link:
    identity: str  # "J3+K3 = L12"
    passed: bool


@dataclass
class ChainCheck:
    name: str
    links: list[Link]

    @property
    def ok(self) -> bool:
        return all(link.passed for link in self.links)


@dataclass
class EmulationReport:
    chains: list[ChainCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.chains)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.chains if c.ok)


def emulation_check(
    ops: Mapping[str, ExactMatrix], chains: Sequence[tuple[str, list[str]]]
) -> EmulationReport:
    """Check each chain of linear identities as exact matrix equalities."""
    checks = []
    for name, exprs in chains:
        first = _eval_signed_sum(exprs[0], ops)
        links = [
            Link(f"{exprs[0]} = {expr}", _eval_signed_sum(expr, ops) == first)
            for expr in exprs[1:]
        ]
        checks.append(ChainCheck(name, links))
    return EmulationReport(checks)

