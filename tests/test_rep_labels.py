"""Symbolic label layer: kets, ladder actions, multiplets, mass formulas."""

from dataclasses import asdict
from fractions import Fraction

import pytest

from lietower.labels import (
    CARTAN_QUANTUM_NUMBERS,
    InconsistentLabelsError,
    MadelungKet,
    WeightKet,
    apply_ladder,
    mass_sl2c,
    mass_so42,
    multiplet_states,
)

HALVES = [Fraction(k, 2) for k in range(0, 9)]  # 0, 1/2, ..., 4


# -- weight kets and ladder actions ----------------------------------------


def test_quantum_number_axis_map():
    # the rank-4 Cartan axes in generator order read off (l, m, n, s)
    assert CARTAN_QUANTUM_NUMBERS == {"L56": "n", "L12": "l", "L34": "m", "L78": "s"}


def test_weight_ket_accessors():
    ket = WeightKet(3, 2, -1, 0)
    assert ket.l == Fraction(3, 2)
    assert ket.m == Fraction(-1, 2)
    assert str(ket) == "|3/2,1;-1/2,0⟩"


def test_weight_ket_json_uses_doubled_integers():
    ket = WeightKet(3, 2, -1, 0)
    assert asdict(ket) == {
        "two_l": 3, "two_ldot": 2, "two_m": -1, "two_mdot": 0,
    }


def test_weight_ket_invariants():
    with pytest.raises(InconsistentLabelsError):
        WeightKet(2, 0, 4, 0)  # m outside the box
    with pytest.raises(InconsistentLabelsError):
        WeightKet(2, 0, 1, 0)  # parity mismatch
    with pytest.raises(InconsistentLabelsError):
        WeightKet(-2, 0, 0, 0)


@pytest.mark.parametrize(
    "labels",
    [(2.5, 0, 0.5, 0), (2, 0, Fraction(0), 0), (2, 2, 0, 0.0), (True, 1, 1, 1)],
    ids=["l-and-m", "m-fraction", "m-dot", "bool"],
)
def test_weight_ket_rejects_non_integer_labels(labels):
    with pytest.raises(InconsistentLabelsError, match="labels must be integers"):
        WeightKet(*labels)


def test_ladder_raises_m():
    ket = WeightKet(2, 2, 0, 0)
    up = apply_ladder(ket, "X+")
    assert up == WeightKet(2, 2, 2, 0)


def test_ladder_boundary_returns_none():
    ket = WeightKet(2, 0, 0, 0)
    assert apply_ladder(ket, "Y-") is None
    assert apply_ladder(WeightKet(2, 0, 2, 0), "X+") is None


def test_ladder_inverse_on_interior():
    ket = WeightKet(4, 2, 0, 0)
    assert apply_ladder(apply_ladder(ket, "X-"), "X+") == ket
    assert apply_ladder(apply_ladder(ket, "Y+"), "Y-") == ket


def test_ladder_unknown_operator():
    with pytest.raises(ValueError):
        apply_ladder(WeightKet(0, 0, 0, 0), "Z+")


@pytest.mark.parametrize("two_l", range(0, 7))
def test_ladder_closure_walks_whole_row(two_l):
    l = Fraction(two_l, 2)
    ket = WeightKet(two_l, 0, -two_l, 0)
    steps = 0
    while True:
        nxt = apply_ladder(ket, "X+")
        if nxt is None:
            break
        ket = nxt
        steps += 1
    assert steps == two_l  # 2l unit steps from -l to +l
    assert ket.m == l


# -- multiplets ---------------------------------------------------------------


def test_multiplet_counts_examples():
    assert len(multiplet_states(0, 0)) == 1
    assert len(multiplet_states(Fraction(1, 2), Fraction(1, 2))) == 4
    assert len(multiplet_states(Fraction(3, 2), Fraction(3, 2))) == 16


def test_multiplet_counts_exhaustive():
    for l in HALVES:
        for ldot in HALVES:
            states = multiplet_states(l, ldot)
            assert len(states) == (2 * l + 1) * (2 * ldot + 1)
            assert len(set(states)) == len(states)


@pytest.mark.parametrize(
    "l, ldot", [(-1, 0), (0, -1), (Fraction(-1, 2), Fraction(-1, 2))]
)
def test_multiplet_dimension_rejects_negative_spins(l, ldot):
    with pytest.raises(ValueError, match="spins must be non-negative"):
        multiplet_states(l, ldot)


def test_multiplet_ordering_m_major():
    states = multiplet_states(1, Fraction(1, 2))
    flat = [(s.m, s.m_dot) for s in states]
    assert flat == sorted(flat)


# -- mass formulas ---------------------------------------------------------------


def test_mass_examples():
    assert mass_sl2c(0, 0) == Fraction(1, 2)
    assert mass_sl2c(Fraction(1, 2), 0) == 1  # the unit-mass node
    assert mass_sl2c(Fraction(1, 2), Fraction(1, 2)) == 2
    assert mass_so42(0, 0, 0) == Fraction(1, 4)
    assert mass_so42(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)) == 2


def test_mass_tower_reduces_to_shell_mass():
    # ground radial label and unit substitution reproduce the rank-2 value
    for l in HALVES:
        for ldot in HALVES:
            assert mass_so42(l, ldot, 0) == mass_sl2c(l, ldot) * Fraction(1, 2)
            assert 2 * mass_so42(l, ldot, 0) == mass_sl2c(l, ldot)


def test_mass_strictly_increasing():
    for l in HALVES[:-1]:
        for ldot in HALVES:
            assert mass_sl2c(l + Fraction(1, 2), ldot) > mass_sl2c(l, ldot)
            assert mass_sl2c(ldot, l + Fraction(1, 2)) > mass_sl2c(ldot, l)
            assert mass_so42(l, ldot, 1) > mass_so42(l, ldot, Fraction(1, 2))


def test_mass_rejects_bad_labels():
    with pytest.raises(ValueError):
        mass_sl2c(Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        mass_so42(0, 0, -1)


# bool is an int subclass and Fraction(True) == 1, so only an exact type
# test keeps True from passing as the label 1
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: mass_sl2c(True, 0), "l"),
        (lambda: mass_sl2c(0, True), "l-dot"),
        (lambda: mass_so42(0, 0, True), "nu"),
        (lambda: mass_so42(False, 0, 0), "l"),
        (lambda: multiplet_states(True, False), "l"),
    ],
    ids=["sl2c-l", "sl2c-ldot", "so42-nu", "so42-l", "multiplet"],
)
def test_half_integer_labels_reject_bool(call, what):
    with pytest.raises(ValueError, match=f"^{what} must be a half-integer, got (True|False)$"):
        call()


# -- Madelung kets ---------------------------------------------------------------


def test_madelung_ket_text_forms():
    ket = MadelungKet(n=1, l=0, m=0, two_s=-1)
    assert str(ket) == "|1,0,0,-1/2⟩"
    assert ket.to_json_dict() == {"n": 1, "l": 0, "m": 0, "s": "-1/2"}
    plus = MadelungKet(n=7, l=1, m=1, two_s=1)
    assert str(plus) == "|7,1,1,+1/2⟩"


def test_madelung_invariants():
    with pytest.raises(InconsistentLabelsError):
        MadelungKet(n=0, l=0, m=0, two_s=1)
    with pytest.raises(InconsistentLabelsError):
        MadelungKet(n=2, l=2, m=0, two_s=1)
    with pytest.raises(InconsistentLabelsError):
        MadelungKet(n=3, l=1, m=2, two_s=1)


@pytest.mark.parametrize(
    "labels",
    [
        dict(n=1.5, l=0, m=0, two_s=1),
        dict(n=2, l=0.5, m=0.5, two_s=1),
        dict(n=2, l=1, m=Fraction(1), two_s=1),
        dict(n=2, l=1, m=0, two_s=1.0),
        dict(n=True, l=0, m=0, two_s=1),
        dict(n=2, l=1, m=False, two_s=1),
    ],
    ids=["n", "l-and-m", "m-fraction", "two_s", "n-bool", "m-bool"],
)
def test_madelung_rejects_non_integer_labels(labels):
    with pytest.raises(InconsistentLabelsError, match="labels must be integers"):
        MadelungKet(**labels)
