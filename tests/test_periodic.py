"""Madelung enumeration, element assignment, tower slices, sheet counts."""

from fractions import Fraction

import pytest

from lietower.labels import InconsistentLabelsError
from lietower.periodic import (
    MAX_Z,
    Element,
    antimatter_mirror,
    assign_elements,
    find_element,
    haenzel_stats,
    homolog_lines,
    load_symbols,
    madelung_sequence,
    period_lengths,
    projection_slice,
    subshell_order,
)

S_MINUS = Fraction(-1, 2)
S_PLUS = Fraction(1, 2)


def reference_sequence():
    """Independent re-derivation of the first MAX_Z kets of the filling
    order via explicit sort."""
    shells = sorted(
        ((n, l) for n in range(1, 10) for l in range(0, n)),
        key=lambda nl: (nl[0] + nl[1], nl[0]),
    )
    kets = []
    for n, l in shells:
        for two_s in (-1, 1):
            for m in range(-l, l + 1):
                kets.append((n, l, m, two_s))
    return kets[:MAX_Z]


def test_sequence_matches_reference():
    got = [(k.n, k.l, k.m, k.two_s) for k in madelung_sequence()]
    assert got == reference_sequence()


def test_sequence_first_two():
    seq = madelung_sequence()[:2]
    assert str(seq[0]) == "|1,0,0,-1/2⟩"
    assert str(seq[1]) == "|1,0,0,+1/2⟩"


def test_sequence_slot_115_and_118():
    seq = madelung_sequence()
    assert len(seq) == MAX_Z
    assert str(seq[114]) == "|7,1,1,-1/2⟩"
    assert str(seq[117]) == "|7,1,1,+1/2⟩"


def test_subshell_order_head():
    it = subshell_order()
    head = [next(it) for _ in range(8)]
    assert head == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (3, 2), (4, 1)]


# -- element assignment ---------------------------------------------------------


def test_symbol_table_integrity():
    table = load_symbols()
    assert len(table) == MAX_Z
    assert len(set(table.values())) == MAX_Z
    assert table[1] == "H" and table[118] == "Og"
    assert table[119] == "Uue" and table[120] == "Ubn"


def test_assignment_endpoints(elements):
    by_z = {e.z: e for e in elements}
    assert str(by_z[1].ket) == "|1,0,0,-1/2⟩" and by_z[1].symbol == "H"
    assert str(by_z[2].ket) == "|1,0,0,+1/2⟩" and by_z[2].symbol == "He"
    assert str(by_z[115].ket) == "|7,1,1,-1/2⟩" and by_z[115].symbol == "Mc"
    assert str(by_z[118].ket) == "|7,1,1,+1/2⟩" and by_z[118].symbol == "Og"
    assert str(by_z[119].ket) == "|8,0,0,-1/2⟩" and by_z[119].symbol == "Uue"
    assert str(by_z[120].ket) == "|8,0,0,+1/2⟩" and by_z[120].symbol == "Ubn"


def test_assignment_is_bijective(elements):
    assert len(elements) == MAX_Z
    assert len({e.z for e in elements}) == MAX_Z
    assert len({e.symbol for e in elements}) == MAX_Z
    assert len({e.ket for e in elements}) == MAX_Z


def test_assignment_missing_symbol_rejected(monkeypatch):
    import lietower.periodic

    table = load_symbols()
    del table[42]
    monkeypatch.setattr(lietower.periodic, "load_symbols", lambda: table)
    with pytest.raises(KeyError, match=r"misses Z = \[42\]"):
        assign_elements()


def test_actinide_run_sits_on_floor5_f_ring(elements):
    # the seven odd-spin f-slots of floor 5 in ascending m
    run = [
        e.symbol
        for e in elements
        if (e.ket.n, e.ket.l, e.ket.two_s) == (5, 3, -1)
    ]
    assert run == ["Ac", "Th", "Pa", "U", "Np", "Pu", "Am"]


# -- period lengths --------------------------------------------------------------


def test_period_lengths(elements):
    lengths = period_lengths(elements)
    assert lengths[:7] == [2, 8, 8, 18, 18, 32, 32]
    assert sum(lengths[:7]) == 118
    assert lengths == [2, 8, 8, 18, 18, 32, 32, 2]


def test_period_lengths_rejects_a_sequence_not_starting_on_s(elements):
    # Be (z=4) closes 2s; B (z=5) opens 2p
    assert period_lengths(elements[2:]) == [8, 8, 18, 18, 32, 32, 2]
    with pytest.raises(ValueError, match="starts on B, not on an l = 0 subshell"):
        period_lengths(elements[4:])


def test_period_doubling_pattern(elements):
    # 2k^2 each appearing twice, with the k=1 pair truncated to one row
    lengths = period_lengths(elements)[:7]
    assert lengths == [2 * k * k for k in (1, 2, 2, 3, 3, 4, 4)]


# -- spin slices -----------------------------------------------------------------


@pytest.mark.parametrize(
    "s", [Fraction(3, 4), 0.75, -0.9, 0, 1, 0.5, "1/2", "1e5", Fraction(3, 2), Fraction(-3, 2)]
)
def test_projection_slice_rejects_inexact_spins(elements, s):
    # 3/4 and -0.9 double to 3/2 and -1.8, which must not count as +/-1;
    # +/-3/2 are half-integers but no spin projection of the tower;
    # only an int or a Fraction is a spin: Fraction() would parse a str,
    # and "1e1000000000" would build a 10**10**9 integer, or convert 0.5
    with pytest.raises(ValueError, match="spin must be"):
        projection_slice(elements, s)


def test_slices_partition_elements(elements, matter_elements):
    minus = projection_slice(elements, S_MINUS)
    plus = projection_slice(elements, S_PLUS)
    zs_minus = {e.z for e in matter_elements(minus)}
    zs_plus = {e.z for e in matter_elements(plus)}
    assert len(zs_minus) == 60 and len(zs_plus) == 60
    assert zs_minus | zs_plus == set(range(1, MAX_Z + 1))
    assert not zs_minus & zs_plus


def test_each_subshell_splits_evenly(elements):
    minus = projection_slice(elements, S_MINUS)
    for rings in minus.floors.values():
        for l, ring in rings.items():
            filled = [e for e in ring.values() if e is not None]
            if filled:
                assert len(filled) == 2 * l + 1


def test_slice_endpoints(elements, matter_elements):
    minus = projection_slice(elements, S_MINUS)
    plus = projection_slice(elements, S_PLUS)
    zs_minus = [e.z for e in matter_elements(minus)]
    zs_plus = [e.z for e in matter_elements(plus)]
    assert min(zs_minus) == 1  # hydrogen opens the odd-spin slice
    assert max(z for z in zs_minus if z <= 118) == 115
    assert max(zs_minus) == 119
    assert min(zs_plus) == 2
    assert max(z for z in zs_plus if z <= 118) == 118
    assert max(zs_plus) == 120


def test_unfilled_rings_are_present_and_empty(elements):
    minus = projection_slice(elements, S_MINUS)
    ring4 = minus.floors[5][4]
    assert len(ring4) == 9
    assert all(e is None for e in ring4.values())
    assert list(minus.floors[8]) == list(range(0, 8))


def test_floor_shape_invariant(elements):
    tower = projection_slice(elements, S_PLUS)
    for n, rings in tower.floors.items():
        assert list(rings) == list(range(0, abs(n)))
        for l, ring in rings.items():
            assert list(ring) == list(range(-l, l + 1))


def test_mirrored_tower_contains_antimatter(elements):
    tower = projection_slice(elements, S_MINUS)
    anti_h = tower.floors[-1][0][0]
    assert anti_h is not None and anti_h.anti
    assert anti_h.symbol == "anti-H"
    assert str(anti_h.ket) == "|-1,0,0,-1/2⟩"
    assert list(tower.floors) == list(range(1, 9)) + list(range(-1, -9, -1))


# -- antimatter mirror --------------------------------------------------------------


def test_mirror_examples(elements):
    anti_h = antimatter_mirror(elements[0])
    assert str(anti_h.ket) == "|-1,0,0,-1/2⟩"
    anti_he = antimatter_mirror(elements[1])
    assert str(anti_he.ket) == "|-1,0,0,+1/2⟩"
    assert anti_he.symbol == "anti-He"


def test_anti_is_read_from_the_floor_sign(elements):
    anti_h = Element(z=1, symbol="anti-H", ket=elements[0].ket.mirrored())
    assert anti_h.anti
    assert not elements[0].anti
    assert anti_h == antimatter_mirror(elements[0])


def test_double_mirror_rejected(elements):
    with pytest.raises(InconsistentLabelsError):
        antimatter_mirror(antimatter_mirror(elements[0]))


# -- sheet statistics ----------------------------------------------------------------


def test_haenzel_printed_counts():
    assert haenzel_stats(1) == {"points": 2, "transversals": 1, "rings": 1}
    assert haenzel_stats(2) == {"points": 8, "transversals": 4, "rings": 2}
    assert haenzel_stats(3) == {"points": 18, "transversals": 9, "rings": 3}


def test_haenzel_consistency_up_to_ten():
    for n in range(1, 11):
        stats = haenzel_stats(n)
        assert stats["points"] == 2 * sum(2 * l + 1 for l in range(n))
        assert stats["transversals"] == sum(2 * l + 1 for l in range(n))
        assert stats["transversals"] == n * n
        assert stats["rings"] == n


def test_haenzel_rejects_zero():
    with pytest.raises(ValueError):
        haenzel_stats(0)


@pytest.mark.parametrize("n", [1.5, 2.0, Fraction(3, 2), True])
def test_haenzel_rejects_non_integer_sheets(n):
    with pytest.raises(ValueError, match="integer"):
        haenzel_stats(n)


# -- homolog lines -------------------------------------------------------------------


def test_alkali_homolog_chain(elements):
    minus = projection_slice(elements, S_MINUS)
    lines = homolog_lines(minus)
    alkali = next(c for c in lines if c[0].symbol == "H")
    assert [e.symbol for e in alkali] == ["H", "Li", "Na", "K", "Rb", "Cs", "Fr", "Uue"]


def test_homolog_chains_are_consecutive_floors(elements):
    for spin in (S_MINUS, S_PLUS):
        tower = projection_slice(elements, spin)
        for chain in homolog_lines(tower):
            ls = {e.ket.l for e in chain}
            ms = {e.ket.m for e in chain}
            ss = {e.ket.two_s for e in chain}
            assert len(ls) == 1 and len(ms) == 1 and len(ss) == 1
            ns = [e.ket.n for e in chain]
            assert ns == list(range(ns[0], ns[0] + len(ns)))


def test_f_block_homologs(elements):
    minus = projection_slice(elements, S_MINUS)
    lines = homolog_lines(minus)
    la_chain = next(c for c in lines if c[0].symbol == "La")
    assert [e.symbol for e in la_chain] == ["La", "Ac"]


# -- lookups ---------------------------------------------------------------------------


def test_find_by_z_and_symbol(elements):
    assert find_element(elements, z=118).symbol == "Og"
    assert find_element(elements, symbol="Mc").z == 115
    with pytest.raises(KeyError):
        find_element(elements, z=121)


def test_find_by_z_matches_the_element_not_its_position(elements):
    assert find_element(elements[::-1], z=1).symbol == "H"
    # the s = +1/2 slots hold He, Be, ...; Li sits on s = -1/2
    plus = [e for e in elements if e.ket.two_s == 1]
    assert find_element(plus, z=4).symbol == "Be"
    with pytest.raises(KeyError, match="z=3 is not in the element list"):
        find_element(plus, z=3)
    with pytest.raises(KeyError, match=r"z=0 out of range 1\.\.120"):
        find_element(plus, z=0)
    # True == 1, so without an exact type test this found hydrogen
    with pytest.raises(KeyError, match=r"z=True out of range 1\.\.120"):
        find_element(elements, z=True)
    # equal to an atomic number is not one: these found H and Fe, and a
    # string failed the range test with a bare TypeError
    with pytest.raises(KeyError, match=r"z=1\.0 out of range 1\.\.120"):
        find_element(elements, z=1.0)
    with pytest.raises(KeyError, match=r"z=26 out of range 1\.\.120"):
        find_element(elements, z=Fraction(26))
    with pytest.raises(KeyError, match=r"z=1 out of range 1\.\.120"):
        find_element(elements, z="1")


@pytest.mark.parametrize("keys", [{}, {"z": 1, "symbol": "H"}], ids=["neither", "both"])
def test_find_needs_exactly_one_key(elements, keys):
    with pytest.raises(ValueError, match="give exactly one of z or symbol"):
        find_element(elements, **keys)


def test_unknown_symbol_gets_hint(elements):
    with pytest.raises(KeyError) as err:
        find_element(elements, symbol="Xx")
    assert "closest match" in str(err.value)
