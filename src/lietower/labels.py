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
from typing import Optional, Union

HalfIntLike = Union[int, Fraction]

# Which Cartan generator's eigenvalue each quantum number reads off: the
# radial axis carries n, the two compact axes carry l and m, and the
# fourth axis of the rank-4 algebra carries the spin projection s.
CARTAN_QUANTUM_NUMBERS = {"L56": "n", "L12": "l", "L34": "m", "L78": "s"}


class InconsistentLabelsError(ValueError):
    """A label tuple violates its own range invariants."""


def _doubled(value: HalfIntLike, what: str) -> int:
    two = Fraction(value) * 2
    if two.denominator != 1:
        raise ValueError(f"{what} must be a half-integer, got {value}")
    return int(two)


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


def weight_ket(
    l: HalfIntLike, l_dot: HalfIntLike, m: HalfIntLike, m_dot: HalfIntLike
) -> WeightKet:
    return WeightKet(
        _doubled(l, "l"), _doubled(l_dot, "l-dot"),
        _doubled(m, "m"), _doubled(m_dot, "m-dot"),
    )


LADDER_SHIFTS = {"X+": (2, 0), "X-": (-2, 0), "Y+": (0, 2), "Y-": (0, -2)}


def apply_ladder(ket: WeightKet, op: str) -> Optional[WeightKet]:
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


def _doubled_spins(l: HalfIntLike, l_dot: HalfIntLike) -> tuple[int, int]:
    two_l = _doubled(l, "l")
    two_ldot = _doubled(l_dot, "l-dot")
    if two_l < 0 or two_ldot < 0:
        raise ValueError("spins must be non-negative")
    return two_l, two_ldot


def multiplet_states(l: HalfIntLike, l_dot: HalfIntLike) -> list[WeightKet]:
    """All (2l+1)(2l.+1) states, ordered m-major then m-dot ascending."""
    two_l, two_ldot = _doubled_spins(l, l_dot)
    return [
        WeightKet(two_l, two_ldot, two_m, two_mdot)
        for two_m in range(-two_l, two_l + 1, 2)
        for two_mdot in range(-two_ldot, two_ldot + 1, 2)
    ]


def multiplet_dimension(l: HalfIntLike, l_dot: HalfIntLike) -> int:
    two_l, two_ldot = _doubled_spins(l, l_dot)
    return (two_l + 1) * (two_ldot + 1)


def weight_diagram_row(total: HalfIntLike) -> list[tuple[Fraction, Fraction]]:
    """All (l, l-dot) labels with l + l-dot equal to ``total``.

    These are the rows of the extended weight diagram; each row is
    invariant under conjugation (l, l-dot) -> (l-dot, l).
    """
    two_total = _doubled(total, "total")
    if two_total < 0:
        raise ValueError("total must be non-negative")
    return [
        (Fraction(two_l, 2), Fraction(two_total - two_l, 2))
        for two_l in range(0, two_total + 1)
    ]


# -- mass formulas -----------------------------------------------------------


def mass_sl2c(l: HalfIntLike, l_dot: HalfIntLike) -> Fraction:
    """Node mass 2*(l+1/2)*(l.+1/2), exact in units of m_e."""
    lf = Fraction(l)
    ldf = Fraction(l_dot)
    if _doubled(lf, "l") < 0 or _doubled(ldf, "l-dot") < 0:
        raise ValueError("spins must be non-negative")
    return 2 * (lf + Fraction(1, 2)) * (ldf + Fraction(1, 2))


def mass_so42(l: HalfIntLike, l_dot: HalfIntLike, nu: HalfIntLike) -> Fraction:
    """Tower-node mass 2*(l+1/2)*(l.+1/2)*(nu+1/2), exact in units of m_H.

    At nu = 0 it is half of ``mass_sl2c``: 2 * mass_so42(l, l., 0) equals
    mass_sl2c(l, l.), each in its own unit.
    """
    nf = Fraction(nu)
    _doubled(nf, "nu")
    if nf < 0:
        raise ValueError("nu must be non-negative")
    return mass_sl2c(l, l_dot) * (nf + Fraction(1, 2))


def sym_dim(k: int, r: int, p: int) -> int:
    """Dimension (k+1)(r+1)(p+1) of the symmetric-space realisation."""
    if not all(isinstance(v, int) for v in (k, r, p)) or min(k, r, p) < 0:
        raise ValueError("labels must be non-negative integers")
    return (k + 1) * (r + 1) * (p + 1)


# -- dotted and Madelung kets -------------------------------------------------


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
        if not all(isinstance(v, int) for v in (self.n, self.l, self.m, self.two_s)):
            raise InconsistentLabelsError("labels must be integers")
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


@dataclass(frozen=True)
class DottedKet:
    """Eight-label state |nu, nu.; lam, lam.; mu, mu.; sigma, sigma.>.

    All labels are half-integers (stored doubled); each undotted/dotted
    pair is boxed by the pair above it, and the sigmas are +/-1/2.
    """

    two_nu: int
    two_nu_dot: int
    two_lam: int
    two_lam_dot: int
    two_mu: int
    two_mu_dot: int
    two_sigma: int
    two_sigma_dot: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in self._doubled_labels()):
            raise InconsistentLabelsError("labels must be integers")
        if self.two_nu < 0 or self.two_nu_dot < 0:
            raise InconsistentLabelsError("nu labels must be non-negative")
        for tag, outer, inner in (
            ("lam", self.two_nu, self.two_lam),
            ("lam-dot", self.two_nu_dot, self.two_lam_dot),
            ("mu", self.two_lam, self.two_mu),
            ("mu-dot", self.two_lam_dot, self.two_mu_dot),
        ):
            # the box {-outer .. outer} is empty when outer < 0, so a
            # negative lam admits no mu at all
            if outer < 0 or abs(inner) > outer:
                raise InconsistentLabelsError(f"{tag} outside its range")
            if (outer - inner) % 2:
                raise InconsistentLabelsError(f"{tag} does not share parity with its bound")
        if self.two_sigma not in (-1, 1) or self.two_sigma_dot not in (-1, 1):
            raise InconsistentLabelsError("sigma labels must be -1/2 or +1/2")

    def _doubled_labels(self) -> tuple[int, ...]:
        return (
            self.two_nu, self.two_nu_dot, self.two_lam, self.two_lam_dot,
            self.two_mu, self.two_mu_dot, self.two_sigma, self.two_sigma_dot,
        )

    def __str__(self) -> str:
        nu, nud, lam, lamd, mu, mud, sig, sigd = map(_half_str, self._doubled_labels())
        return f"|{nu},{nud};{lam},{lamd};{mu},{mud};{sig},{sigd}⟩"


def dotted_ket(
    nu: HalfIntLike, nu_dot: HalfIntLike,
    lam: HalfIntLike, lam_dot: HalfIntLike,
    mu: HalfIntLike, mu_dot: HalfIntLike,
    sigma: HalfIntLike, sigma_dot: HalfIntLike,
) -> DottedKet:
    return DottedKet(
        _doubled(nu, "nu"), _doubled(nu_dot, "nu-dot"),
        _doubled(lam, "lam"), _doubled(lam_dot, "lam-dot"),
        _doubled(mu, "mu"), _doubled(mu_dot, "mu-dot"),
        _doubled(sigma, "sigma"), _doubled(sigma_dot, "sigma-dot"),
    )


def dotted_to_madelung(d: DottedKet) -> MadelungKet:
    """Convert an eight-label ket to its |n, l, m, s> form.

    The magnitudes follow the difference relations |nu - nu.|, |lam -
    lam.|, |mu - mu.|; the signs are fixed as follows and any violation of
    the Madelung ranges raises (labels are never clamped):

    * n = nu - nu. signed, so the mirrored branch (nu. > nu) lands on the
      negative-n antimatter copy; n = 0 is rejected (no such shell);
    * m = mu - mu. signed;
    * s requires sigma. = -sigma and takes the sign of sigma, giving the
      two spin projections +/-1/2.
    """
    two_n = d.two_nu - d.two_nu_dot
    if two_n % 2:
        raise InconsistentLabelsError("nu - nu-dot must be an integer")
    n = two_n // 2
    if n == 0:
        raise InconsistentLabelsError("nu = nu-dot gives n = 0; no such shell")
    two_l = abs(d.two_lam - d.two_lam_dot)
    if two_l % 2:
        raise InconsistentLabelsError("lam - lam-dot must be an integer")
    two_m = d.two_mu - d.two_mu_dot
    if two_m % 2:
        raise InconsistentLabelsError("mu - mu-dot must be an integer")
    if d.two_sigma_dot != -d.two_sigma:
        raise InconsistentLabelsError(
            "sigma-dot must be -sigma to carry a spin projection"
        )
    return MadelungKet(n=n, l=two_l // 2, m=two_m // 2, two_s=d.two_sigma)


def madelung_to_dotted(ket: MadelungKet) -> DottedKet:
    """Canonical dotted preimage with all dotted labels on one side."""
    if ket.n > 0:
        nu, nu_dot = ket.n, 0
        lam, lam_dot = ket.l, 0
        mu, mu_dot = ket.m, 0
    else:
        # mirrored branch: all labels dotted; mu-dot = -m keeps the signed
        # difference mu - mu-dot equal to m
        nu, nu_dot = 0, -ket.n
        lam, lam_dot = 0, ket.l
        mu, mu_dot = 0, -ket.m
    return DottedKet(
        _doubled(nu, "nu"), _doubled(nu_dot, "nu-dot"),
        _doubled(lam, "lam"), _doubled(lam_dot, "lam-dot"),
        _doubled(mu, "mu"), _doubled(mu_dot, "mu-dot"),
        ket.two_s, -ket.two_s,
    )
