"""Rotation-generator construction and the exhaustive bracket verification."""

import json
from dataclasses import asdict
from itertools import combinations

import pytest

import lietower.cartan
import lietower.sopq
import lietower.verify
from lietower.cartan import cartan_is_maximal, find_cartan
from lietower.exact import (
    ExactMatrix,
    I,
    SpanSolver,
    bracket_multiple,
    commutator,
    commutes,
    pairwise_commutators,
)
from lietower.sopq import (
    Metric,
    build_generators,
    expected_bracket,
    hydrogen_alias_check,
    hydrogen_aliases,
    materialize,
    pseudo_antisymmetry_holds,
    verify_commutation,
)
from lietower.verify import run_verification

from golden import tampered_build


def test_metric_diagonal():
    m = Metric(4, 2)
    assert [m.g(a) for a in range(1, 7)] == [1, 1, 1, 1, -1, -1]
    assert Metric(4, 4).dim == 8
    with pytest.raises(ValueError):
        Metric(1, 0)


@pytest.mark.parametrize(
    "p, q", [(True, 1), (4, False), (2.5, 1.5), (4, 2.0), ("4", 2)],
    ids=["bool-p", "bool-q", "floats", "float-q", "str-p"],
)
def test_metric_rejects_non_integer_entries(p, q):
    with pytest.raises(ValueError, match="p and q must be integers"):
        Metric(p, q)


def test_generator_counts():
    assert len(build_generators(Metric(4, 2))) == 15
    assert len(build_generators(Metric(4, 4))) == 28


def test_compact_generator_matrix_form(gs42):
    # entry i at row 1 / col 2, -i at row 2 / col 1, zero elsewhere
    expected = ExactMatrix.from_entries(6, {(0, 1): I, (1, 0): -I})
    assert gs42.gen(1, 2) == expected


def test_mixed_generator_matrix_form(gs42):
    # index 5 carries metric -1, so both entries come out -i
    expected = ExactMatrix.from_entries(6, {(0, 4): -I, (4, 0): -I})
    assert gs42.gen(1, 5) == expected


def test_antisymmetry_lookup(gs42):
    assert gs42.gen(2, 1) == -gs42.gen(1, 2)
    assert gs42.gen(3, 3).is_zero()


def test_expected_bracket_disjoint_pairs():
    assert expected_bracket(Metric(4, 2), (1, 2), (3, 4)) == []


def test_expected_bracket_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        expected_bracket(Metric(4, 2), (1, 1), (2, 3))
    with pytest.raises(IndexError):
        expected_bracket(Metric(4, 2), (1, 7), (2, 3))


def test_expected_bracket_shared_index():
    terms = expected_bracket(Metric(4, 2), (1, 2), (2, 3))
    assert terms == [(I, (1, 3))]


def test_expected_bracket_negative_metric_flips_sign():
    terms = expected_bracket(Metric(4, 2), (4, 5), (5, 6))
    assert terms == [(-I, (4, 6))]


def test_expected_bracket_matches_matrices(gs42):
    metric = gs42.metric
    for left, right, want in (
        ((2, 5), (3, 5), [(I, (2, 3))]),
        # reversed and unnormalised pairs
        ((3, 1), (1, 2), [(-I, (2, 3))]),
        ((1, 2), (3, 1), [(I, (2, 3))]),
        ((5, 2), (3, 5), [(-I, (2, 3))]),
        # identical index sets commute, in either order
        ((1, 2), (2, 1), []),
        ((1, 2), (1, 2), []),
        ((6, 5), (5, 6), []),
    ):
        assert expected_bracket(metric, left, right) == want, (left, right)
    # every ordered pair of index pairs, unnormalised ones included: at most
    # one term, and it is the matrix commutator
    indices = range(1, metric.dim + 1)
    pairs = [(a, b) for a in indices for b in indices if a != b]
    for left in pairs:
        for right in pairs:
            terms = expected_bracket(metric, left, right)
            assert len(terms) <= 1
            assert materialize(gs42, terms) == commutator(gs42.gen(*left), gs42.gen(*right))


def test_bracket_table_holds_only_nonzero_brackets(gs42):
    # L_ab and L_cd fail to commute exactly when they share one index
    pairs = gs42.pairs
    assert set(gs42.brackets) == {
        (s, t)
        for s, t in combinations(range(len(pairs)), 2)
        if len(set(pairs[s]) & set(pairs[t])) == 1
    }
    for (s, t), got in gs42.brackets.items():
        assert got == commutator(gs42.gen(*pairs[s]), gs42.gen(*pairs[t]))


# Each generator pair is bracketed once per verdict, in ``gs.brackets``, by one
# ``pairwise_commutators`` join, so a generic signature makes no per-pair
# bracket; ``cartan_is_maximal`` reads that table too.  4,2 and 4,4 add the
# per-pair brackets of their table, root and Casimir suites.  4,2 also adds
# the 3 of the Cartan zero-root check and the 15 + 18 of the alias suite (its
# printed rows and its 3 x 6 handedness brackets), which bracket their
# operands pair by pair to cross-check the join.  A judged bracket is decided
# by ``commutes`` (zero right-hand side, Casimir invariance, zero roots) or
# ``bracket_multiple`` (printed tables, handedness, root extraction) on its
# unreduced sums: 177 brackets on 4,2 and 276 on 4,4.  ``commutator`` builds a
# bracket matrix only to render a relation: the 15 alias rows of 4,2, each
# rendered whether it holds or not, and on 4,4 the 6 + 6 + 11 known
# misprints, once each.
@pytest.mark.parametrize(
    "p, q, calls",
    [
        (4, 2, {"commutator": 15, "commutes": 87, "bracket_multiple": 90}),
        (4, 4, {"commutator": 23, "commutes": 108, "bracket_multiple": 168}),
        (5, 5, {"commutator": 0, "commutes": 0, "bracket_multiple": 0}),
        (3, 0, {"commutator": 0, "commutes": 0, "bracket_multiple": 0}),
    ],
    ids=["4,2", "4,4", "5,5", "3,0"],
)
def test_verdict_commutator_count(monkeypatch, p, q, calls):
    counts = {"pairwise": 0, "commutator": 0, "commutes": 0, "bracket_multiple": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name, fn in (
        ("commutator", commutator),
        ("commutes", commutes),
        ("bracket_multiple", bracket_multiple),
    ):
        for module in (lietower.sopq, lietower.cartan, lietower.verify):
            monkeypatch.setattr(module, name, counting(name, fn), raising=False)
    monkeypatch.setattr(
        lietower.sopq, "pairwise_commutators", counting("pairwise", pairwise_commutators)
    )
    assert run_verification(Metric(p, q)).passed
    assert counts == {"pairwise": 1, **calls}


# The library calls share the set's own table and solver, not only a verdict.
@pytest.mark.parametrize("p, q", [(4, 2), (5, 5)])
def test_generator_set_builds_one_table_and_one_solver(monkeypatch, p, q):
    counts = {"pairwise": 0, "commutator": 0, "solver": 0}
    real_init = SpanSolver.__init__

    def counted_commutator(x, y):
        counts["commutator"] += 1
        return commutator(x, y)

    def counted_pairwise(matrices):
        counts["pairwise"] += 1
        return pairwise_commutators(matrices)

    def counted_init(self, basis):
        counts["solver"] += 1
        real_init(self, basis)

    for module in (lietower.sopq, lietower.cartan):
        monkeypatch.setattr(module, "commutator", counted_commutator, raising=False)
    monkeypatch.setattr(lietower.sopq, "pairwise_commutators", counted_pairwise)
    monkeypatch.setattr(SpanSolver, "__init__", counted_init)
    gs = build_generators(Metric(p, q))
    cartan = find_cartan(gs)
    assert cartan_is_maximal(gs, cartan)
    assert verify_commutation(gs).ok
    assert counts == {"pairwise": 1, "commutator": 0, "solver": 1}


def test_verify_commutation_42(gs42):
    report = verify_commutation(gs42)
    assert report.pair_count == 105
    assert report.failures == []
    assert report.signature == (4, 2)


def test_verify_commutation_44(gs44):
    report = verify_commutation(gs44)
    assert report.pair_count == 378
    assert report.failures == []


def test_verify_commutation_reports_a_pair_that_should_commute():
    # L34 + L13 no longer commutes with L12, whose expected bracket with L34
    # is zero: the sweep must report that pair, not only pairs with a term
    gs = build_generators(Metric(4, 2))
    gs._gens[(3, 4)] = gs.gen(3, 4) + gs.gen(1, 3)
    failures = verify_commutation(gs).failures
    hit = [f for f in failures if (f.lhs_pair, f.rhs_pair) == ((1, 2), (3, 4))]
    assert len(hit) == 1
    assert (hit[0].got, hit[0].expected) == ("(-i)*L23", "0")


def test_verify_commutation_so3():
    gs = build_generators(Metric(3, 0))
    report = verify_commutation(gs)
    assert report.pair_count == 3
    assert report.failures == []


def test_report_json_schema(gs42):
    report = verify_commutation(gs42)
    doc = json.loads(json.dumps(asdict(report)))
    assert list(doc) == ["signature", "pair_count", "failures"]
    assert doc["signature"] == [4, 2]


def test_tampered_generator_is_caught(gs42):
    tampered = tampered_build(Metric(4, 2))
    report = verify_commutation(tampered)
    assert report.failures
    failure = report.failures[0]
    doc = asdict(failure)
    assert {"lhs_pair", "rhs_pair", "got", "expected"} == set(doc)


def test_dependent_generators_rejected():
    # matrix equality only decides the coefficients of independent
    # generators, so the sweep must still refuse a dependent set
    gs = build_generators(Metric(4, 2))
    gs._gens[(1, 2)] = gs.gen(3, 4)
    with pytest.raises(ValueError, match="dependent on earlier ones"):
        verify_commutation(gs)
    # all-zero generators match every bracket, so only the up-front
    # factorization can refuse them
    gs = build_generators(Metric(3, 0))
    for pair in gs.pairs:
        gs._gens[pair] = ExactMatrix.zeros(3)
    with pytest.raises(ValueError, match="dependent on earlier ones"):
        verify_commutation(gs)


def test_pseudo_antisymmetry(gs42, gs44):
    assert pseudo_antisymmetry_holds(gs42)
    assert pseudo_antisymmetry_holds(gs44)


def test_disjoint_index_pairs_commute(gs44):
    for (a, b), left in gs44:
        for (c, d), right in gs44:
            if {a, b} & {c, d}:
                continue
            assert commutator(left, right).is_zero()


# -- hydrogen aliases -------------------------------------------------------


def test_alias_bindings(gs42):
    alias = hydrogen_aliases(gs42)
    assert alias["L3"] == gs42.gen(1, 2)
    assert alias["L2"] == -gs42.gen(1, 3)
    assert alias["A3"] == gs42.gen(3, 4)
    assert alias["D3"] == gs42.gen(5, 6)
    assert alias["B1"] == gs42.gen(1, 5)
    assert alias["G2"] == gs42.gen(2, 6)


def test_alias_table_holds(gs42):
    report = hydrogen_alias_check(gs42)
    assert report.ok
    assert len(report.checks) == 15


def test_alias_example_relation(gs42):
    alias = hydrogen_aliases(gs42)
    assert commutator(alias["L3"], alias["L1"]) == alias["L2"] * (-I)


def test_epsilon_convention_reported_not_hidden(gs42):
    # the realisation closes left-handed; the +i*eps convention printed in
    # some sources must come out as a reported mismatch, not be patched over
    report = hydrogen_alias_check(gs42)
    assert report.epsilon_convention == "-i eps_ijk"
    alias = hydrogen_aliases(gs42)
    assert commutator(alias["L1"], alias["L2"]) != alias["L3"] * I


def test_alias_report_json(gs42):
    doc = asdict(hydrogen_alias_check(gs42))
    assert set(doc) == {"checks", "epsilon_convention", "family_conventions"}
    assert all(c["passed"] for c in doc["checks"])
    assert doc["family_conventions"] == {
        "[L,L]": "-i eps_ijk",
        "[L,A]": "-i eps_ijk",
        "[A,A]": "-i eps_ijk",
    }


def test_negated_generators_close_right_handed():
    # L_ab -> -L_ab for every generator, written after construction as the
    # L12 fault is: each bracket keeps its matrix while its result flips
    # sign, so every alias family closes with +i eps_ijk, only the three zero
    # rows of the printed table hold, and the verify suite fails
    gs = build_generators(Metric(4, 2))
    for pair in gs.pairs:
        gs._gens[pair] = -gs._gens[pair]
    report = hydrogen_alias_check(gs)
    assert report.family_conventions == dict.fromkeys(["[L,L]", "[L,A]", "[A,A]"], "+i eps_ijk")
    assert report.epsilon_convention == "+i eps_ijk"
    assert [c.relation for c in report.checks if c.passed] == [
        "[L1,B1] = 0",
        "[L2,B2] = 0",
        "[L3,B3] = 0",
    ]
    assert not lietower.verify._hydrogen_aliases(lietower.verify.SuiteContext(gs)).passed


def test_span_describer(gs42):
    describe = gs42.solver.describer(gs42.names, "<outside>")
    assert describe(commutator(gs42.gen(1, 2), gs42.gen(2, 3))) == "(i)*L13"
    assert describe(ExactMatrix.zeros(6)) == "0"
    assert describe(ExactMatrix.identity(6)) == "<outside>"


def test_aliases_require_signature(gs44):
    with pytest.raises(ValueError):
        hydrogen_aliases(gs44)
