"""Label layer: mass formulas and Madelung kets."""

import pickle
from fractions import Fraction

import pytest

from lietower.labels import InconsistentLabelsError, MadelungKet, mass_sl2c, mass_so42

HALVES = [Fraction(k, 2) for k in range(0, 9)]  # 0, 1/2, ..., 4


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


@pytest.mark.parametrize(
    "l, ldot", [(-1, 0), (0, -1), (Fraction(-1, 2), Fraction(-1, 2))]
)
def test_multiplet_dimension_rejects_negative_spins(l, ldot):
    # the node mass is half the (2l+1)(2l.+1) multiplet dimension
    with pytest.raises(ValueError, match="spins must be non-negative"):
        mass_sl2c(l, ldot)
    with pytest.raises(ValueError, match="spins must be non-negative"):
        mass_so42(l, ldot, 0)


def test_tower_mass_checks_spins_before_nu():
    with pytest.raises(ValueError, match="spins must be non-negative"):
        mass_so42(Fraction(-1, 2), 0, -1)


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
    ],
    ids=["sl2c-l", "sl2c-ldot", "so42-nu", "so42-l"],
)
def test_half_integer_labels_reject_bool(call, what):
    with pytest.raises(ValueError, match=f"^{what} must be a half-integer, got (True|False)$"):
        call()


# only an int or a Fraction is a label: Fraction() would parse a str, and
# "1e1000000000" would build a 10**10**9 integer, or convert a float
@pytest.mark.parametrize("value", ["1/2", "1e5", 0.5], ids=["str", "str-exponent", "float"])
def test_half_integer_labels_reject_str_and_float(value):
    for call, what in (
        (lambda: mass_sl2c(value, 0), "l"),
        (lambda: mass_sl2c(0, value), "l-dot"),
        (lambda: mass_so42(0, 0, value), "nu"),
    ):
        with pytest.raises(ValueError, match=f"^{what} must be a half-integer, got {value}$"):
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


def test_madelung_ket_is_a_validated_immutable_record():
    ket = MadelungKet(n=2, l=1, m=0, two_s=1)
    assert ket == (2, 1, 0, 1) and hash(ket) == hash((2, 1, 0, 1))
    assert pickle.loads(pickle.dumps(ket)) == ket
    assert ket._replace(two_s=-1) == MadelungKet(2, 1, 0, -1)
    with pytest.raises(InconsistentLabelsError, match="m=2 outside"):
        ket._replace(m=2)
    with pytest.raises(AttributeError):
        ket.n = 3


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
