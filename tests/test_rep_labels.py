"""Symbolic label layer: kets, ladder actions, multiplets, mass formulas."""

import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from lietower.labels import (
    CARTAN_QUANTUM_NUMBERS,
    DottedKet,
    InconsistentLabelsError,
    MadelungKet,
    WeightKet,
    apply_ladder,
    dotted_ket,
    dotted_to_madelung,
    madelung_to_dotted,
    mass_sl2c,
    mass_so42,
    multiplet_dimension,
    multiplet_states,
    sym_dim,
    weight_diagram_row,
    weight_ket,
)

HALVES = [Fraction(k, 2) for k in range(0, 9)]  # 0, 1/2, ..., 4


# -- weight kets and ladder actions ----------------------------------------


def test_quantum_number_axis_map():
    # the rank-4 Cartan axes in generator order read off (l, m, n, s)
    assert CARTAN_QUANTUM_NUMBERS == {"L56": "n", "L12": "l", "L34": "m", "L78": "s"}


def test_weight_ket_accessors():
    ket = weight_ket(Fraction(3, 2), 1, Fraction(-1, 2), 0)
    assert ket.l == Fraction(3, 2)
    assert ket.m == Fraction(-1, 2)
    assert str(ket) == "|3/2,1;-1/2,0⟩"


def test_weight_ket_json_uses_doubled_integers():
    ket = weight_ket(Fraction(3, 2), 1, Fraction(-1, 2), 0)
    assert asdict(ket) == {
        "two_l": 3, "two_ldot": 2, "two_m": -1, "two_mdot": 0,
    }


def test_weight_ket_invariants():
    with pytest.raises(InconsistentLabelsError):
        weight_ket(1, 0, 2, 0)  # m outside the box
    with pytest.raises(InconsistentLabelsError):
        weight_ket(1, 0, Fraction(1, 2), 0)  # parity mismatch
    with pytest.raises(InconsistentLabelsError):
        weight_ket(-1, 0, 0, 0)


def test_ladder_raises_m():
    ket = weight_ket(1, 1, 0, 0)
    up = apply_ladder(ket, "X+")
    assert up == weight_ket(1, 1, 1, 0)


def test_ladder_boundary_returns_none():
    ket = weight_ket(1, 0, 0, 0)
    assert apply_ladder(ket, "Y-") is None
    assert apply_ladder(weight_ket(1, 0, 1, 0), "X+") is None


def test_ladder_inverse_on_interior():
    ket = weight_ket(2, 1, 0, 0)
    assert apply_ladder(apply_ladder(ket, "X-"), "X+") == ket
    assert apply_ladder(apply_ladder(ket, "Y+"), "Y-") == ket


def test_ladder_unknown_operator():
    with pytest.raises(ValueError):
        apply_ladder(weight_ket(0, 0, 0, 0), "Z+")


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
            assert len(states) == multiplet_dimension(l, ldot)
            assert len(set(states)) == len(states)


@pytest.mark.parametrize(
    "l, ldot", [(-1, 0), (0, -1), (Fraction(-1, 2), Fraction(-1, 2))]
)
def test_multiplet_dimension_rejects_negative_spins(l, ldot):
    for count in (multiplet_states, multiplet_dimension):
        with pytest.raises(ValueError, match="spins must be non-negative"):
            count(l, ldot)


def test_multiplet_ordering_m_major():
    states = multiplet_states(1, Fraction(1, 2))
    flat = [(s.m, s.m_dot) for s in states]
    assert flat == sorted(flat)


def test_diagram_rows_conjugation_symmetric():
    for total in HALVES:
        row = weight_diagram_row(total)
        swapped = sorted((b, a) for a, b in row)
        assert sorted(row) == swapped


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


def test_sym_dim():
    assert sym_dim(0, 0, 0) == 1
    assert sym_dim(1, 1, 1) == 8
    assert sym_dim(2, 1, 0) == 6
    with pytest.raises(ValueError):
        sym_dim(-1, 0, 0)


@pytest.mark.parametrize("label", [Fraction(1, 2), 1.5, 1.0])
def test_sym_dim_rejects_non_integer_labels(label):
    for args in ((label, 0, 0), (0, label, 0), (0, 0, label)):
        with pytest.raises(ValueError, match="non-negative integers"):
            sym_dim(*args)


# -- Madelung and dotted kets ------------------------------------------------------


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
    ],
    ids=["n", "l-and-m", "m-fraction", "two_s"],
)
def test_madelung_rejects_non_integer_labels(labels):
    with pytest.raises(InconsistentLabelsError, match="labels must be integers"):
        MadelungKet(**labels)


@pytest.mark.parametrize(
    "labels",
    [
        (2.5, 0, 0.5, 0, 0.5, 0, 1, -1),
        (2, 0, 0, 0, 0, 0, Fraction(1), -1),
        (2, 0, 0, 0, 0, 0, 1, -1.0),
    ],
    ids=["nu-lam-mu", "sigma-fraction", "sigma-dot"],
)
def test_dotted_rejects_non_integer_labels(labels):
    with pytest.raises(InconsistentLabelsError, match="labels must be integers"):
        DottedKet(*labels)


def test_dotted_to_madelung_hydrogen_case():
    d = dotted_ket(1, 0, 0, 0, 0, 0, Fraction(-1, 2), Fraction(1, 2))
    ket = dotted_to_madelung(d)
    assert (ket.n, ket.l, ket.m) == (1, 0, 0)
    assert ket.s == Fraction(-1, 2)


def test_dotted_equal_nu_rejected():
    d = dotted_ket(1, 1, 0, 0, 0, 0, Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(InconsistentLabelsError):
        dotted_to_madelung(d)


def test_dotted_mirror_branch_negative_n():
    d = dotted_ket(0, 1, 0, 0, 0, 0, Fraction(-1, 2), Fraction(1, 2))
    ket = dotted_to_madelung(d)
    assert ket.n == -1
    assert ket.s == Fraction(-1, 2)


def test_dotted_equal_sigma_rejected():
    d = dotted_ket(1, 0, 0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(InconsistentLabelsError):
        dotted_to_madelung(d)


def test_dotted_inconsistent_ranges_error_not_clamped():
    # l = |lam - lam.| = 2 exceeds |n| - 1 = 1: must raise, never clamp
    d = dotted_ket(2, 0, 2, 0, 0, 0, Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(InconsistentLabelsError):
        dotted_to_madelung(d)


def test_dotted_ket_own_invariants():
    with pytest.raises(InconsistentLabelsError):
        dotted_ket(1, 0, 2, 0, 0, 0, Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(InconsistentLabelsError):
        dotted_ket(1, 0, 1, 0, 0, 0, Fraction(3, 2), Fraction(-1, 2))


def test_dotted_conversion_never_clamps_random():
    rng = random.Random(21)
    produced = 0
    for _ in range(500):
        two_nu = rng.randint(0, 8)
        two_nud = rng.randint(0, 8)
        try:
            two_lam = rng.choice(range(-two_nu, two_nu + 1, 2)) if two_nu else 0
            two_lamd = (
                rng.choice(range(-two_nud, two_nud + 1, 2)) if two_nud else 0
            )
            two_mu = (
                rng.choice(range(-two_lam, two_lam + 1, 2)) if two_lam > 0 else 0
            )
            two_mud = (
                rng.choice(range(-two_lamd, two_lamd + 1, 2))
                if two_lamd > 0
                else 0
            )
            d = DottedKet(
                two_nu, two_nud, two_lam, two_lamd, two_mu, two_mud,
                rng.choice((-1, 1)), rng.choice((-1, 1)),
            )
        except InconsistentLabelsError:
            continue
        try:
            ket = dotted_to_madelung(d)
        except InconsistentLabelsError:
            continue
        produced += 1
        # the produced ket satisfies every range invariant by construction
        assert ket.n != 0
        assert 0 <= ket.l <= abs(ket.n) - 1
        assert -ket.l <= ket.m <= ket.l
        assert ket.two_s in (-1, 1)
        assert abs(2 * ket.n) == abs(d.two_nu - d.two_nu_dot)
        assert 2 * ket.l == abs(d.two_lam - d.two_lam_dot)
        assert abs(2 * ket.m) == abs(d.two_mu - d.two_mu_dot)
    assert produced, "sampler never produced a convertible ket"


def test_madelung_dotted_round_trip():
    for n in (1, 3, -2, 8):
        for l in range(0, abs(n)):
            for m in (-l, 0, l):
                for two_s in (-1, 1):
                    ket = MadelungKet(n=n, l=l, m=m, two_s=two_s)
                    assert dotted_to_madelung(madelung_to_dotted(ket)) == ket
