"""Madelung enumeration of the 120-slot periodic system and its weight tower.

Subshells (n, l) fill in order of ascending n+l with ties broken by
ascending n.  Within one subshell the 2(2l+1) slots fill as two spin
blocks: all m from -l to +l at s = -1/2 first, then the same m sweep at
s = +1/2.  This block order is what puts the odd-Z endpoint of each filled
p-shell (e.g. Z=115) in the s = -1/2 projection and the even-Z endpoint
(Z=118) in the s = +1/2 projection.

The element symbol table ships as data/elements.csv (z,symbol; 120 rows);
Z = 119, 120 carry their systematic symbols Uue, Ubn.  It is read from the
installed package directory, next to this module, by a plain ``open``:
``importlib.resources`` would import ``pathlib`` and ``tempfile`` on every
``elements`` and ``tower`` command.
"""

from __future__ import annotations

import csv
import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice

from .labels import InconsistentLabelsError, MadelungKet, check_spin, doubled, signed_half_str

MAX_Z = 120


class Element(namedtuple("Element", "z symbol ket")):
    """Atomic number, symbol and ``MadelungKet`` of one slot."""

    __slots__ = ()

    @property
    def anti(self) -> bool:
        """Mirrored antimatter copy, read from the sign of n."""
        return self.ket.n < 0

    def __str__(self) -> str:
        return f"{self.symbol} = {self.ket}"

    def to_json_dict(self) -> dict:
        return {
            "z": self.z,
            "symbol": self.symbol,
            "ket": self.ket.to_json_dict(),
            "anti": self.anti,
        }


class TowerSlice(namedtuple("TowerSlice", "s floors")):
    """One spin projection of the weight tower: the ``Fraction`` s, and
    ``floors``.

    ``floors`` maps n -> l -> m -> element, None marking an empty slot:
    matter floors n = 1..8 first, then their mirrored antimatter copies
    n = -1..-8.  Floor n carries rings l = 0..|n|-1 of 2l+1 m-points each,
    filled or not.
    """

    __slots__ = ()

    @property
    def s_text(self) -> str:
        return signed_half_str(int(self.s * 2))

    def to_json_dict(self) -> dict:
        # an empty point carries only its m
        return {
            "s": self.s_text,
            "floors": [
                {
                    "n": n,
                    "subshells": [
                        {
                            "l": l,
                            "points": [
                                {"m": m} if e is None else {"m": m, "z": e.z, "symbol": e.symbol}
                                for m, e in ring.items()
                            ],
                        }
                        for l, ring in rings.items()
                    ],
                }
                for n, rings in self.floors.items()
            ],
        }


def subshell_order() -> Iterable[tuple[int, int]]:
    """(n, l) subshells in ascending (n+l, n) order, without end."""
    total = 1
    while True:
        n_min = total // 2 + 1
        for n in range(n_min, total + 1):
            yield n, total - n
        total += 1


def madelung_sequence() -> list[MadelungKet]:
    """The first ``MAX_Z`` kets of the filling order in the module docstring."""
    kets = (
        MadelungKet(n=n, l=l, m=m, two_s=two_s)
        for n, l in subshell_order()
        for two_s in (-1, 1)
        for m in range(-l, l + 1)
    )
    return list(islice(kets, MAX_Z))


def load_symbols() -> dict[int, str]:
    """Z -> symbol table from the packaged CSV (header z,symbol; 120 rows)."""
    path = os.path.join(os.path.dirname(__file__), "data", "elements.csv")
    with open(path, encoding="utf-8", newline="") as handle:
        return {int(row["z"]): row["symbol"] for row in csv.DictReader(handle)}


def assign_elements() -> list[Element]:
    """Zip the 120-ket Madelung sequence with the packaged symbol table."""
    symbols = load_symbols()
    missing = [z for z in range(1, MAX_Z + 1) if z not in symbols]
    if missing:
        raise KeyError(f"symbol table misses Z = {missing}")
    return [
        Element(z=z, symbol=symbols[z], ket=ket)
        for z, ket in enumerate(madelung_sequence(), start=1)
    ]


def antimatter_mirror(e: Element) -> Element:
    """Mirror copy with negated principal quantum number and anti- prefix."""
    if e.anti:
        raise InconsistentLabelsError(f"{e.symbol} is already a mirror copy")
    return Element(z=e.z, symbol=f"anti-{e.symbol}", ket=e.ket.mirrored())


def projection_slice(elements: Sequence[Element], s: Fraction) -> TowerSlice:
    """All elements with spin projection s, placed on their tower floors.

    s is -1/2 or +1/2, an ``int`` or ``Fraction`` as ``labels.doubled``
    takes it; anything else raises ``ValueError``.  Floors run n = 1..8
    (every ring present, filled or not), then the antimatter floors
    n = -1..-8 holding the mirrored copies.
    """
    two_s = check_spin(doubled(s, "spin"), "spin")
    by_slot: dict[tuple[int, int, int], Element] = {}
    max_n = 0
    for e in elements:
        if e.anti:
            raise ValueError("pass matter elements; mirroring is handled here")
        max_n = max(max_n, e.ket.n)
        if e.ket.two_s == two_s:
            by_slot[(e.ket.n, e.ket.l, e.ket.m)] = e

    def slot(n: int, l: int, m: int) -> Element | None:
        found = by_slot.get((abs(n), l, m))
        return antimatter_mirror(found) if found is not None and n < 0 else found

    floors = {
        n: {l: {m: slot(n, l, m) for m in range(-l, l + 1)} for l in range(abs(n))}
        for n in [*range(1, max_n + 1), *range(-1, -max_n - 1, -1)]
    }
    return TowerSlice(s=Fraction(two_s, 2), floors=floors)


def period_lengths(elements: list[Element]) -> list[int]:
    """Row lengths of the filling order, one row per s-subshell start.

    A new row opens whenever the sequence enters an l = 0 subshell, which
    reproduces the doubled period pattern 2, 8, 8, 18, 18, 32, 32.
    """
    lengths: list[int] = []
    previous: tuple[int, int] | None = None
    for e in elements:
        shell = (e.ket.n, e.ket.l)
        if e.ket.l == 0 and shell != previous:
            lengths.append(0)
        elif not lengths:
            raise ValueError(f"filling order starts on {e.symbol}, not on an l = 0 subshell")
        previous = shell
        lengths[-1] += 1
    return lengths


def haenzel_stats(n: int) -> dict[str, int]:
    """Sheet statistics: 2n^2 eigenvalue points, n^2 transversals, n rings."""
    if type(n) is not int or n < 1:  # bool is an int subclass; reject it
        raise ValueError("sheet number must be an integer >= 1")
    return {"points": 2 * n * n, "transversals": n * n, "rings": n}


def homolog_lines(tower: TowerSlice) -> list[list[Element]]:
    """Vertical chains of same-(l, m) elements on consecutive matter floors.

    These are the classical homolog connections (the alkali column is the
    l = 0, m = 0 chain); each chain follows the slice's floor order, n
    ascending.
    """
    chains: dict[tuple[int, int], list[Element]] = {}
    for n, rings in tower.floors.items():
        if n < 0:
            continue
        for l, ring in rings.items():
            for m, e in ring.items():
                if e is not None:
                    chains.setdefault((l, m), []).append(e)
    return [chains[lm] for lm in sorted(chains) if len(chains[lm]) >= 2]


def find_element(
    elements: Sequence[Element], *, z: int | None = None, symbol: str | None = None
) -> Element:
    """Lookup by atomic number or symbol; unknown symbols get the nearest hint.

    Lookup is case-sensitive; a symbol that matches one element up to case
    is hinted as that element.
    """
    if (z is None) == (symbol is None):
        raise ValueError("give exactly one of z or symbol")
    # an exact type test first: True, 1.0 and Fraction(1) all equal 1
    if z is not None and (type(z) is not int or not 1 <= z <= MAX_Z):
        raise KeyError(f"z={z} out of range 1..{MAX_Z}")
    for e in elements:
        if e.z == z or e.symbol == symbol:
            return e
    if z is not None:
        raise KeyError(f"z={z} is not in the element list")
    import difflib

    symbols = [e.symbol for e in elements]
    folded = [s for s in symbols if s.lower() == symbol.lower()]
    # any score above 0: a symbol that shares no character with the input is no hint
    hints = folded or difflib.get_close_matches(symbol, symbols, n=1, cutoff=1e-9)
    hint = f"; closest match: {hints[0]}" if hints else ""
    raise KeyError(f"unknown element symbol {symbol!r}{hint}")
