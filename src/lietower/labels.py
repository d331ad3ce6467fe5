"""Symbolic weight-diagram labels and the mass formulas attached to them.

Matrices never appear here: this layer manipulates the multiplet labels
themselves (half-integer Cartan eigenvalues), the ladder shifts between
them, and the two exact mass formulas.  Half-integers are stored as
doubled integers so every label computation is integer arithmetic; the
public accessors hand out ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

HalfIntLike = int | Fraction

# Which Cartan generator's eigenvalue each quantum number reads off: the
# radial axis carries n, the two compact axes carry l and m, and the
# fourth axis of the rank-4 algebra carries the spin projection s.
CARTAN_QUANTUM_NUMBERS = {"L56": "n", "L12": "l", "L34": "m", "L78": "s"}


class InconsistentLabelsError(ValueError):
    """A label tuple violates its own range invariants."""


def _doubled(value: HalfIntLike, what: str) -> int:
    # an exact type test first: Fraction(True) == 1, so bool would pass
    if type(value) is bool or (two := Fraction(value) * 2).denominator != 1:
        raise ValueError(f"{what} must be a half-integer, got {value}")
    return int(two)


def _require_integer_labels(*labels: int) -> None:
    # type(v) is int, not isinstance: bool is an int subclass, and True
    # would print and serialise as a label
    if not all(type(v) is int for v in labels):
        raise InconsistentLabelsError("labels must be integers")


def _half_str(two: int) -> str:
    return str(Fraction(two, 2))


def _signed_half_str(two: int) -> str:
    text = _half_str(two)
    return text if two < 0 else "+" + text


@dataclass(frozen=True)
class WeightKet:
    """Multiplet state |l, l.; m, m.> of the rank-2 complex shell.

    Stored as doubled integers; ``m`` runs over -l..l in integer steps and
    shares the parity of ``l`` (likewise the dotted pair).
    """

    two_l: int
    two_ldot: int
    two_m: int
    two_mdot: int

    def __post_init__(self):
        _require_integer_labels(self.two_l, self.two_ldot, self.two_m, self.two_mdot)
        if self.two_l < 0 or self.two_ldot < 0:
            raise InconsistentLabelsError("l and l-dot must be non-negative")
        for two_j, two_mj, tag in (
            (self.two_l, self.two_m, "m"),
            (self.two_ldot, self.two_mdot, "m-dot"),
        ):
            if abs(two_mj) > two_j:
                raise InconsistentLabelsError(f"{tag} outside its multiplet box")
            if (two_j - two_mj) % 2:
                raise InconsistentLabelsError(f"{tag} does not share parity with its spin")

    @property
    def l(self) -> Fraction:
        return Fraction(self.two_l, 2)

    @property
    def l_dot(self) -> Fraction:
        return Fraction(self.two_ldot, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)

    @property
    def m_dot(self) -> Fraction:
        return Fraction(self.two_mdot, 2)

    def __str__(self) -> str:
        return (
            f"|{_half_str(self.two_l)},{_half_str(self.two_ldot)};"
            f"{_half_str(self.two_m)},{_half_str(self.two_mdot)}⟩"
        )


LADDER_SHIFTS = {"X+": (2, 0), "X-": (-2, 0), "Y+": (0, 2), "Y-": (0, -2)}


def apply_ladder(ket: WeightKet, op: str) -> WeightKet | None:
    """Shift m (X ladders) or m-dot (Y ladders) by one unit.

    Returns None when the shift leaves the multiplet box; the spins l,
    l-dot never change.
    """
    if op not in LADDER_SHIFTS:
        raise ValueError(f"unknown ladder operator {op!r}")
    dm, dmdot = LADDER_SHIFTS[op]
    two_m = ket.two_m + dm
    two_mdot = ket.two_mdot + dmdot
    if abs(two_m) > ket.two_l or abs(two_mdot) > ket.two_ldot:
        return None
    return WeightKet(ket.two_l, ket.two_ldot, two_m, two_mdot)


def multiplet_states(l: HalfIntLike, l_dot: HalfIntLike) -> list[WeightKet]:
    """All (2l+1)(2l.+1) states, ordered m-major then m-dot ascending."""
    two_l = _doubled(l, "l")
    two_ldot = _doubled(l_dot, "l-dot")
    if two_l < 0 or two_ldot < 0:
        raise ValueError("spins must be non-negative")
    return [
        WeightKet(two_l, two_ldot, two_m, two_mdot)
        for two_m in range(-two_l, two_l + 1, 2)
        for two_mdot in range(-two_ldot, two_ldot + 1, 2)
    ]


# -- mass formulas -----------------------------------------------------------


def mass_sl2c(l: HalfIntLike, l_dot: HalfIntLike) -> Fraction:
    """Node mass 2*(l+1/2)*(l.+1/2), exact in units of m_e."""
    two_l = _doubled(l, "l")
    two_ldot = _doubled(l_dot, "l-dot")
    if two_l < 0 or two_ldot < 0:
        raise ValueError("spins must be non-negative")
    return Fraction((two_l + 1) * (two_ldot + 1), 2)


def mass_so42(l: HalfIntLike, l_dot: HalfIntLike, nu: HalfIntLike) -> Fraction:
    """Tower-node mass 2*(l+1/2)*(l.+1/2)*(nu+1/2), exact in units of m_H.

    At nu = 0 it is half of ``mass_sl2c``: 2 * mass_so42(l, l., 0) equals
    mass_sl2c(l, l.), each in its own unit.
    """
    two_nu = _doubled(nu, "nu")
    if two_nu < 0:
        raise ValueError("nu must be non-negative")
    return mass_sl2c(l, l_dot) * Fraction(two_nu + 1, 2)


# -- Madelung kets ------------------------------------------------------------


@dataclass(frozen=True)
class MadelungKet:
    """State |n, l, m, s> labelling one periodic-table slot.

    Negative n marks the mirrored (antimatter) copy; s is +/-1/2 stored
    doubled.
    """

    n: int
    l: int
    m: int
    two_s: int

    def __post_init__(self):
        _require_integer_labels(self.n, self.l, self.m, self.two_s)
        if self.n == 0:
            raise InconsistentLabelsError("there is no n = 0 shell")
        if not 0 <= self.l <= abs(self.n) - 1:
            raise InconsistentLabelsError(f"l={self.l} outside 0..|n|-1 for n={self.n}")
        if abs(self.m) > self.l:
            raise InconsistentLabelsError(f"m={self.m} outside -l..l for l={self.l}")
        if self.two_s not in (-1, 1):
            raise InconsistentLabelsError("s must be -1/2 or +1/2")

    @property
    def s(self) -> Fraction:
        return Fraction(self.two_s, 2)

    @property
    def s_text(self) -> str:
        return _signed_half_str(self.two_s)

    def __str__(self) -> str:
        return f"|{self.n},{self.l},{self.m},{self.s_text}⟩"

    def mirrored(self) -> "MadelungKet":
        return MadelungKet(-self.n, self.l, self.m, self.two_s)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "l": self.l, "m": self.m, "s": self.s_text}
