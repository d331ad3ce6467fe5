"""The paper's published content, encoded verbatim: the hydrogen aliases of
signature (4,2) and their (L, B) bracket table, the two adapted bases, the
component, ladder and subalgebra tables with their misprint baselines, the
emulation chains and the rank-3 root table.  The algorithms that check
them live in ``sopq``, ``cartan`` and ``verify``.

A printed bracket table is a tuple of ``Relation`` rows, each decided by
``Relation.holds`` on the unreduced sums of its bracket.

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

from collections import namedtuple
from collections.abc import Mapping

from .exact import HALF, Bracket, ExactMatrix, GaussianRational, I, ONE

MINUS_HALF = -HALF


class Relation(namedtuple("Relation", "left right coeff result")):
    """[left, right] = coeff * result, with result None meaning zero."""

    __slots__ = ()

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

    def holds(self, ops: Mapping[str, ExactMatrix], bracket: Bracket) -> bool:
        """Whether the relation holds on ``bracket``, the judged bracket of
        ``ops[left]`` and ``ops[right]`` from ``exact.brackets``: it vanishes
        when the right-hand side is zero, a zero result operator included,
        and is ``coeff`` times the result operator otherwise.  This is the
        one method that decides a printed relation."""
        result = None if self.result is None or not self.coeff else ops[self.result]
        if result is None or result.is_zero():
            return bracket.vanishes()
        return bracket.multiple_of(result) == self.coeff


def _rel(left: str, right: str, coeff, result: str | None) -> Relation:
    if isinstance(coeff, int):
        coeff = GaussianRational(coeff)
    return Relation(left=left, right=right, coeff=coeff, result=result)


# -- hydrogen aliases for signature (4,2) -----------------------------------
#
# L1..L3: angular momentum; A1..A3: Laplace-Runge-Lenz vector; B, G (Gamma):
# its conjugate partners; D1..D3 (Delta): the radial so(2,1) triple.

HYDROGEN_ALIAS_PAIRS: dict[str, tuple[int, int]] = {
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

# The printed bracket table for the angular-momentum/boost pair (L, B).
HYDROGEN_LB_TABLE: tuple[Relation, ...] = (
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
)

# -- adapted bases -------------------------------------------------------------

# Compact-subgroup-adapted basis for signature (4,2): each entry is
# (name, [(coefficient, index pair), ...]) over the rotation generators.
YAO_DEFS: list[tuple[str, list[tuple[GaussianRational, tuple[int, int]]]]] = [
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
SECOND_HALF_DEFS: list[tuple[str, list[tuple[GaussianRational, tuple[int, int]]]]] = [
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

# -- relation tables -------------------------------------------------------------


def _zero_cross(fam_a: str, fam_b: str, suffixes: str, prefix: str = "") -> list[Relation]:
    return [
        _rel(f"{prefix}{fam_a}{i}", f"{prefix}{fam_b}{j}", 0, None)
        for i in suffixes
        for j in suffixes
    ]


def _component_table(prefix: str, sign: int) -> tuple[Relation, ...]:
    """Shared shape of both printed component tables.

    ``sign`` carries the printed +/-i orientation of the su(2)-type (K, J)
    and su(1,1)-type (T, S, P, Q) triples; the first row of each triple is
    encoded exactly as printed, including its misprinted right-hand symbol.
    """
    rows: list[Relation] = []
    si = I * sign
    for fam in ("K", "J"):
        rows += [
            # printed with ·2 on the right-hand side (the realisation gives ·3)
            _rel(f"{prefix}{fam}1", f"{prefix}{fam}2", si, f"{prefix}{fam}2"),
            _rel(f"{prefix}{fam}2", f"{prefix}{fam}3", si, f"{prefix}{fam}1"),
            _rel(f"{prefix}{fam}3", f"{prefix}{fam}1", si, f"{prefix}{fam}2"),
        ]
    rows += _zero_cross("K", "J", "123", prefix)
    for fam in ("T", "S", "P", "Q"):
        rows += [
            # printed with ·2 on the right-hand side (the realisation gives ·0)
            _rel(f"{prefix}{fam}1", f"{prefix}{fam}2", -si, f"{prefix}{fam}2"),
            _rel(f"{prefix}{fam}2", f"{prefix}{fam}0", si, f"{prefix}{fam}1"),
            _rel(f"{prefix}{fam}0", f"{prefix}{fam}1", si, f"{prefix}{fam}2"),
        ]
        if fam == "S":
            rows += _zero_cross("T", "S", "120", prefix)
        if fam == "Q":
            rows += _zero_cross("P", "Q", "120", prefix)
    return tuple(rows)


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


# Printed component and ladder tables of the split basis for signature (4,4),
# first and second halves, by table name.
PRINTED_TABLES: dict[str, tuple[Relation, ...]] = {
    "components-1": _component_table("1", -1),
    "components-2": _component_table("2", +1),
    "ladders-1": tuple(
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
    "ladders-2": tuple(
        _ladder_pair("2", "K", "J", "3", 1, 2)
        + _ladder_pair("2", "T", "S", "0", 1, -2)
        + _ladder_pair("2", "P", "Q", "0", 1, -2)
    ),
}

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


# The four rank-2 subalgebras of the (4,2) algebra, in basket order: name,
# families, Cartan suffix h, printed shift and normalisation, and the ladder
# sign and factor under which that table holds.  ``cartan.subalgebra_basis``
# builds each family's ladder members as (E1 +/- sign*i*E2) * factor; so4's
# K1 -/+ i*K2 are the raising/lowering operators of K3 in this realisation.
Subalgebra = namedtuple("Subalgebra", "name families h shift norm sign factor")
SUBALGEBRAS = (
    Subalgebra("sl2c", "XY", "3", -1, -2, 1, ONE),
    Subalgebra("so4", "KJ", "3", 1, 2, -1, ONE),
    Subalgebra("so22_LD", "TS", "0", -1, -2, 1, I),
    Subalgebra("so22_AD", "PQ", "0", -1, -2, 1, I),
)

SUBALGEBRA_TABLES: dict[str, tuple[Relation, ...]] = {
    row.name: tuple(_ladder_pair("", *row.families, row.h, row.shift, row.norm))
    for row in SUBALGEBRAS
}

# -- emulation chains and the root table ---------------------------------------

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

# Published rank-3 root table (axes L3, A3, D3) that the oriented ladder
# set must reproduce exactly.
PUBLISHED_ROOTS_RANK3: dict[str, tuple[int, int, int]] = {
    "K+": (1, 1, 0),
    "K-": (-1, -1, 0),
    "J+": (-1, 1, 0),
    "J-": (1, -1, 0),
    "T+": (1, 0, 1),
    "T-": (-1, 0, -1),
    "S+": (-1, 0, 1),
    "S-": (1, 0, -1),
    "P+": (0, 1, 1),
    "P-": (0, -1, -1),
    "Q+": (0, -1, 1),
    "Q-": (0, 1, -1),
}
