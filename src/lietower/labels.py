"""The mass formulas of the weight-diagram nodes, and the Madelung kets.

Matrices never appear here: a node (l, l., nu) of the weight diagram gets
its exact mass from its half-integer labels, and a Madelung ket
|n, l, m, s> labels one periodic-table slot.  Half-integers are stored as
doubled integers so every label computation is integer arithmetic; the
public accessors hand out ``Fraction`` values.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

HalfIntLike = int | Fraction


class InconsistentLabelsError(ValueError):
    """A label tuple violates its own range invariants."""


def doubled(value: HalfIntLike, what: str) -> int:
    """2 * value for the half-integer label ``what``, else ``ValueError``."""
    # int (not bool) or Fraction only, the type test of exact._ratio:
    # Fraction() would parse a str ("1e1000000000" without end) and convert
    # a float
    if (
        type(value) is bool
        or not isinstance(value, (int, Fraction))
        or (value * 2).denominator != 1
    ):
        raise ValueError(f"{what} must be a half-integer, got {value}")
    return int(value * 2)


def _require_integer_labels(*labels: int) -> None:
    # type(v) is int, not isinstance: bool is an int subclass, and True
    # would print and serialise as a label
    if not all(type(v) is int for v in labels):
        raise InconsistentLabelsError("labels must be integers")


def check_spin(two_s: int, what: str) -> int:
    """The doubled spin projection two_s if it is -1 or +1."""
    if two_s not in (-1, 1):
        raise InconsistentLabelsError(f"{what} must be -1/2 or +1/2")
    return two_s


def signed_half_str(two: int) -> str:
    """The half-integer two / 2 as text with its sign, "+1/2" or "-3/2"."""
    text = str(Fraction(two, 2))
    return text if two < 0 else "+" + text


# -- mass formulas -----------------------------------------------------------


def mass_sl2c(l: HalfIntLike, l_dot: HalfIntLike) -> Fraction:
    """Node mass 2*(l+1/2)*(l.+1/2), exact in units of m_e."""
    two_l = doubled(l, "l")
    two_ldot = doubled(l_dot, "l-dot")
    if two_l < 0 or two_ldot < 0:
        raise ValueError("spins must be non-negative")
    return Fraction((two_l + 1) * (two_ldot + 1), 2)


def mass_so42(l: HalfIntLike, l_dot: HalfIntLike, nu: HalfIntLike) -> Fraction:
    """Tower-node mass 2*(l+1/2)*(l.+1/2)*(nu+1/2), exact in units of m_H.

    At nu = 0 it is half of ``mass_sl2c``: 2 * mass_so42(l, l., 0) equals
    mass_sl2c(l, l.), each in its own unit.  The spins are checked before nu.
    """
    shell = mass_sl2c(l, l_dot)
    two_nu = doubled(nu, "nu")
    if two_nu < 0:
        raise ValueError("nu must be non-negative")
    return shell * Fraction(two_nu + 1, 2)


# -- Madelung kets ------------------------------------------------------------


class MadelungKet(namedtuple("MadelungKet", "n l m two_s")):
    """State |n, l, m, s> labelling one periodic-table slot.

    Negative n marks the mirrored (antimatter) copy; s is +/-1/2 stored
    doubled.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int, m: int, two_s: int):
        _require_integer_labels(n, l, m, two_s)
        if n == 0:
            raise InconsistentLabelsError("there is no n = 0 shell")
        if not 0 <= l <= abs(n) - 1:
            raise InconsistentLabelsError(f"l={l} outside 0..|n|-1 for n={n}")
        if abs(m) > l:
            raise InconsistentLabelsError(f"m={m} outside -l..l for l={l}")
        return super().__new__(cls, n, l, m, check_spin(two_s, "s"))

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate it too
        return cls(*fields)

    @property
    def s(self) -> Fraction:
        return Fraction(self.two_s, 2)

    @property
    def s_text(self) -> str:
        return signed_half_str(self.two_s)

    def __str__(self) -> str:
        return f"|{self.n},{self.l},{self.m},{self.s_text}⟩"

    def mirrored(self) -> "MadelungKet":
        return MadelungKet(-self.n, self.l, self.m, self.two_s)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "l": self.l, "m": self.m, "s": self.s_text}
