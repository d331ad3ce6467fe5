"""Rotation-generator construction and the exhaustive bracket verification."""

import copy
import json
import pickle
from functools import cached_property
from itertools import combinations

import pytest

import lietower.cartan
import lietower.paper
import lietower.sopq
import lietower.verify
from lietower.cartan import cartan_is_maximal, find_cartan, star_certificate
from lietower.exact import (
    ExactMatrix,
    I,
    SpanSolver,
    bracket_multiple,
    brackets,
    commutator,
    commutes,
    format_combination,
    pairwise_commutators,
)
from lietower.sopq import (
    GeneratorSet,
    Metric,
    build_generators,
    expected_bracket,
    hydrogen_alias_check,
    hydrogen_aliases,
    materialize,
    pair_name,
    pseudo_antisymmetry_holds,
    verify_commutation,
)
from lietower.verify import run_verification

from golden import tampered_build
from test_realisations import conjugator, realise


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


def test_metric_is_a_validated_immutable_record():
    m = Metric(4, 2)
    assert (m, Metric(p=4, q=2)) == ((4, 2), m)
    assert pickle.loads(pickle.dumps(m)) == m and copy.copy(m) == m
    assert m._replace(q=4) == Metric(4, 4)
    with pytest.raises(ValueError, match="need p, q >= 0"):
        m._replace(p=-1)
    with pytest.raises(AttributeError):
        m.p = 3
    with pytest.raises(AttributeError):
        m.extra = 1


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


@pytest.mark.parametrize("a, b, bad", [(9, 9, 9), (0, 1, 0), (1, 7, 7), (7, 1, 7), (2, -1, -1)])
def test_generator_lookup_rejects_indices_outside_the_signature(gs42, a, b, bad):
    # the same refusal as Metric.g and expected_bracket
    with pytest.raises(IndexError, match=rf"^index {bad} outside 1\.\.6$"):
        gs42.gen(a, b)


@pytest.mark.parametrize("extra", [(4, 5), (3, 3), (2, 1), (0, 1)])
def test_generator_set_rejects_keys_outside_the_signature(extra):
    # the sweep compares no pair whose bracket and right-hand side are both
    # zero, so it would never read such a key against expected_bracket
    gens = dict.fromkeys([(1, 2), (1, 3), (2, 3), extra], ExactMatrix.zeros(3))
    with pytest.raises(ValueError, match=r"^generator keys must be pairs 1 <= a < b <= 3$"):
        GeneratorSet(Metric(3, 0), gens)


def test_generator_set_rejects_an_empty_family():
    with pytest.raises(ValueError, match=r"^a generator set needs at least one generator$"):
        GeneratorSet(Metric(2, 0), {})


def test_generator_set_rejects_matrices_of_two_sizes():
    # refused by the constructor, not at the first read of gs.brackets
    gens = {(1, 2): ExactMatrix.zeros(3), (1, 3): ExactMatrix.zeros(4)}
    with pytest.raises(ValueError, match=r"^generator matrices differ in size: \[3, 4\]$"):
        GeneratorSet(Metric(3, 0), gens)


def without_l13():
    """The 4,2 defining family without L13, which is not closed."""
    defining = build_generators(Metric(4, 2))
    return GeneratorSet(
        defining.metric, {pair: defining.gen(*pair) for pair in defining.pairs if pair != (1, 3)}
    )


@pytest.mark.parametrize("a, b", [(1, 3), (3, 1)])
def test_generator_lookup_names_a_generator_the_family_omits(a, b):
    gs = without_l13()
    with pytest.raises(KeyError, match=r"^'the family omits L13'$"):
        gs.gen(a, b)
    # the 4,2 verdict reaches L13 through the hydrogen aliases
    with pytest.raises(KeyError, match=r"^'the family omits L13'$"):
        run_verification(gs)


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
# ``pairwise_commutators`` join, so a generic signature judges no other
# bracket; ``cartan_is_maximal`` reads that table too.  4,2 and 4,4 add the
# brackets of their table, root and Casimir suites, each judged once, in
# one ``brackets`` call per table, alias family, Casimir degree, Cartan
# zero-root check and Weyl-generator extraction: 177 pairs on 4,2 (among
# them the 3 of the zero-root check and the 15 + 18 of the alias suite,
# which cross-check the join) and 276 on 4,4.  A deviation and an alias
# row's ``got`` are rendered from the bracket they were judged on, so a
# passing verdict builds no bracket with ``commutator`` and judges none
# with the one-pair ``commutes`` or ``bracket_multiple``.
@pytest.mark.parametrize(
    "p, q, pairs",
    [(4, 2, 177), (4, 4, 276), (5, 5, 0), (3, 0, 0)],
    ids=["4,2", "4,4", "5,5", "3,0"],
)
def test_verdict_commutator_count(monkeypatch, p, q, pairs):
    counts = {"pairwise": 0, "pairs": 0, "commutator": 0, "commutes": 0, "bracket_multiple": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def counted_brackets(operands):
        operands = list(operands)
        counts["pairs"] += len(operands)
        return brackets(operands)

    for module in (lietower.paper, lietower.sopq, lietower.cartan, lietower.verify):
        for name, fn in (
            ("commutator", commutator),
            ("commutes", commutes),
            ("bracket_multiple", bracket_multiple),
        ):
            monkeypatch.setattr(module, name, counting(name, fn), raising=False)
        monkeypatch.setattr(module, "brackets", counted_brackets, raising=False)
    monkeypatch.setattr(
        lietower.sopq, "pairwise_commutators", counting("pairwise", pairwise_commutators)
    )
    assert run_verification(build_generators(Metric(p, q)))["passed"]
    assert counts == {
        "pairwise": 1, "pairs": pairs, "commutator": 0, "commutes": 0, "bracket_multiple": 0
    }


# The library calls share the set's own table and solver, not only a verdict.
@pytest.mark.parametrize("p, q", [(4, 2), (5, 5)])
def test_generator_set_builds_one_table_and_one_solver(monkeypatch, p, q):
    counts = {"pairwise": 0, "commutator": 0, "solver": 0, "overlaps": 0}
    real_init = SpanSolver.__init__
    real_overlaps = GeneratorSet.overlaps.func

    def counted_commutator(x, y):
        counts["commutator"] += 1
        return commutator(x, y)

    def counted_pairwise(matrices):
        counts["pairwise"] += 1
        return pairwise_commutators(matrices)

    def counted_init(self, basis):
        counts["solver"] += 1
        real_init(self, basis)

    def counted_overlaps(self):
        counts["overlaps"] += 1
        return real_overlaps(self)

    overlaps = cached_property(counted_overlaps)
    overlaps.__set_name__(GeneratorSet, "overlaps")

    for module in (lietower.sopq, lietower.cartan):
        monkeypatch.setattr(module, "commutator", counted_commutator, raising=False)
    monkeypatch.setattr(lietower.sopq, "pairwise_commutators", counted_pairwise)
    monkeypatch.setattr(SpanSolver, "__init__", counted_init)
    monkeypatch.setattr(GeneratorSet, "overlaps", overlaps)
    gs = build_generators(Metric(p, q))
    cartan = find_cartan(gs)
    assert cartan_is_maximal(gs, cartan)
    assert not verify_commutation(gs)["failures"]
    assert counts == {"pairwise": 1, "commutator": 0, "solver": 1, "overlaps": 1}


def test_verify_commutation_42(gs42):
    report = verify_commutation(gs42)
    assert report["pair_count"] == 105
    assert report["failures"] == []
    assert report["signature"] == (4, 2)


def test_verify_commutation_44(gs44):
    report = verify_commutation(gs44)
    assert report["pair_count"] == 378
    assert report["failures"] == []


def test_verify_commutation_reports_a_pair_that_should_commute():
    # L34 + L13 no longer commutes with L12, whose expected bracket with L34
    # is zero: the sweep must report that pair, not only pairs with a term
    gs = build_generators(Metric(4, 2))
    gs._gens[(3, 4)] = gs.gen(3, 4) + gs.gen(1, 3)
    failures = verify_commutation(gs)["failures"]
    hit = [f for f in failures if (f["lhs_pair"], f["rhs_pair"]) == ((1, 2), (3, 4))]
    assert len(hit) == 1
    assert (hit[0]["got"], hit[0]["expected"]) == ("(-i)*L23", "0")


def all_pairs_failures(gs):
    """The failures of a sweep that brackets every pair by ``commutator`` and
    compares it with ``==`` against its materialized right-hand side, in
    pair order: the oracle for ``verify_commutation``, which skips pairs."""
    describe = gs.solver.describer(gs.names, "<outside generator span>")
    failures = []
    for left, right in combinations(gs.pairs, 2):
        got = commutator(gs.gen(*left), gs.gen(*right))
        terms = expected_bracket(gs.metric, left, right)
        if got != materialize(gs, terms):
            failures.append({
                "lhs_pair": left,
                "rhs_pair": right,
                "got": describe(got),
                "expected": format_combination(
                    (coeff, pair_name(*pair)) for coeff, pair in terms
                ),
            })
    return failures


def l12_plus_l34(metric):
    # brackets nonzero with L35, which shares no index with L12
    gs = build_generators(metric)
    gs._gens[(1, 2)] = gs.gen(1, 2) + gs.gen(3, 4)
    return gs


def conjugated_fault(metric):
    s, s_inv = conjugator(metric.dim)
    return realise(tampered_build(metric), lambda m: s @ m @ s_inv)


def conjugated(metric):
    # every matrix dense, so every generator lies in every row of the join
    s, s_inv = conjugator(metric.dim)
    return realise(build_generators(metric), lambda m: s @ m @ s_inv)


def reversed_fault(metric):
    # the stars list their generators in the family's order, not in index order
    gs = tampered_build(metric)
    return GeneratorSet(metric, {pair: gs.gen(*pair) for pair in reversed(gs.pairs)})


def omitted_fault(metric):
    # the pairs on the indices 1, 2, 4, 5 only, a closed family whose stars
    # 3 and 6 are empty, with the L12 fault
    gs = tampered_build(metric)
    return GeneratorSet(
        metric, {pair: gs.gen(*pair) for pair in gs.pairs if set(pair) <= {1, 2, 4, 5}}
    )


def l13_doubled_l12(metric):
    # L12 and L13 share index 1 but commute, so the star certificate fails
    gs = build_generators(metric)
    gs._gens[(1, 3)] = gs.gen(1, 2) * 2
    return gs


SMALL_SIGNATURES = [(p, total - p) for total in range(2, 7) for p in range(total + 1)]


@pytest.mark.parametrize(
    "build, p, q",
    [
        *((build_generators, p, q) for p, q in SMALL_SIGNATURES),
        (build_generators, 5, 5),
        (build_generators, 2, 8),
        (reversed_fault, 4, 2),
        (omitted_fault, 4, 2),
    ],
    ids=[
        *(f"{p},{q}" for p, q in SMALL_SIGNATURES), "5,5", "2,8",
        "reversed-L12-fault-4,2", "omitted-L12-fault-4,2",
    ],
)
def test_overlaps_hold_the_pairs_that_share_one_index(build, p, q):
    gs = build(Metric(p, q))
    want = {}
    for s, t in combinations(range(len(gs)), 2):
        shared = set(gs.pairs[s]) & set(gs.pairs[t])
        if len(shared) == 1:
            want[s, t] = shared.pop()
    assert gs.overlaps == want


def star_certificate_by_stars(gs):
    """The certificate as first defined: every two generators of one star,
    the positions whose index pair carries x, have a bracket-table entry."""
    stars = [
        [k for k, pair in enumerate(gs.pairs) if x in pair] for x in range(1, gs.metric.dim + 1)
    ]
    return all(pair in gs.brackets for star in stars for pair in combinations(star, 2))


@pytest.mark.parametrize(
    "build, p, q, holds",
    [
        *((build_generators, p, q, True) for p, q in SMALL_SIGNATURES),
        (build_generators, 5, 5, True),
        (build_generators, 2, 8, True),
        (tampered_build, 4, 2, True),
        (tampered_build, 5, 5, True),
        (l12_plus_l34, 4, 2, True),
        (l13_doubled_l12, 4, 2, False),
    ],
    ids=[
        *(f"{p},{q}" for p, q in SMALL_SIGNATURES), "5,5", "2,8",
        "L12-fault-4,2", "L12-fault-5,5", "L12+L34-4,2", "L13=2L12-4,2",
    ],
)
def test_star_certificate_matches_the_star_definition(build, p, q, holds):
    gs = build(Metric(p, q))
    assert star_certificate(gs) == star_certificate_by_stars(gs) == holds


@pytest.mark.parametrize(
    "build, p, q",
    [
        (build_generators, 3, 0),
        (build_generators, 4, 2),
        (build_generators, 4, 4),
        (build_generators, 5, 5),
        (build_generators, 2, 8),
        (build_generators, 8, 2),
        (tampered_build, 4, 2),
        (tampered_build, 5, 5),
        (l12_plus_l34, 4, 2),
        (conjugated_fault, 4, 2),
        (conjugated, 4, 4),
        (reversed_fault, 4, 2),
        (omitted_fault, 4, 2),
    ],
    ids=["3,0", "4,2", "4,4", "5,5", "2,8", "8,2", "L12-fault-4,2", "L12-fault-5,5",
         "L12+L34-4,2", "conjugated-L12-fault-4,2", "conjugated-4,4",
         "reversed-L12-fault-4,2", "omitted-L12-fault-4,2"],
)
def test_sweep_matches_the_all_pairs_oracle(build, p, q):
    gs = build(Metric(p, q))
    report = verify_commutation(gs)
    assert report["pair_count"] == len(gs) * (len(gs) - 1) // 2
    assert report["failures"] == all_pairs_failures(gs)


def test_sweep_reports_every_shared_index_pair_of_a_central_generator():
    # the identity is central and independent of the other generators, so
    # the set passes the solver and every bracket with it is zero: each pair
    # that shares an index with L12 expects a nonzero side and must fail
    gs = build_generators(Metric(4, 2))
    gs._gens[(1, 2)] = ExactMatrix.identity(6)
    failures = verify_commutation(gs)["failures"]
    with_l12 = [f for f in failures if (1, 2) in (f["lhs_pair"], f["rhs_pair"])]
    assert [f["rhs_pair"] for f in with_l12] == [
        (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6)
    ]
    assert all(f["got"] == "0" and f["expected"] != "0" for f in with_l12)
    assert failures == all_pairs_failures(gs)


def test_sweep_reports_a_generator_the_family_omits():
    # without L13 the family is not closed: each pair whose bracket is +-i L13
    # fails with L13 named on its expected side, and no lookup of L13 raises
    report = verify_commutation(without_l13())
    assert report["pair_count"] == 91
    outside = "<outside generator span>"
    assert [tuple(f.values()) for f in report["failures"]] == [
        ((1, 2), (2, 3), outside, "(i)*L13"),
        ((1, 4), (3, 4), outside, "(-i)*L13"),
        ((1, 5), (3, 5), outside, "(i)*L13"),
        ((1, 6), (3, 6), outside, "(i)*L13"),
    ]


def test_verify_commutation_so3():
    gs = build_generators(Metric(3, 0))
    report = verify_commutation(gs)
    assert report["pair_count"] == 3
    assert report["failures"] == []


def test_report_json_schema(gs42):
    report = verify_commutation(gs42)
    doc = json.loads(json.dumps(report))
    assert list(doc) == ["signature", "pair_count", "failures"]
    assert doc["signature"] == [4, 2]


def test_tampered_generator_is_caught(gs42):
    tampered = tampered_build(Metric(4, 2))
    report = verify_commutation(tampered)
    assert report["failures"]
    failure = report["failures"][0]
    assert {"lhs_pair", "rhs_pair", "got", "expected"} == set(failure)
    # the suite fails on any failure, and counts the pairs that hold
    suite = lietower.verify._commutators(lietower.verify.SuiteContext(tampered))
    assert not suite["passed"]
    assert suite["summary"] == f"{105 - len(report['failures'])}/105"
    assert suite["details"] == report


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


def dense_pseudo_antisymmetry(gs):
    """g L^T g == -L for every generator, entry by entry from the dense rows:
    the oracle for ``pseudo_antisymmetry_holds``, which reads stored entries."""
    g = [gs.metric.g(k) for k in range(1, gs.metric.dim + 1)]
    n = len(g)
    return all(
        g[i] * rows[j][i] * g[j] == -rows[i][j]
        for rows in (mat.rows for mat in gs.matrices())
        for i in range(n)
        for j in range(n)
    )


@pytest.mark.parametrize(
    "p, q", [(p, n - p) for n in range(2, 7) for p in range(n + 1)]
)
def test_pseudo_antisymmetry_holds_on_every_small_signature(p, q):
    gs = build_generators(Metric(p, q))
    assert dense_pseudo_antisymmetry(gs)
    assert pseudo_antisymmetry_holds(gs)


# One broken generator of 4,2 per way an entry can miss its partner: a
# nonzero diagonal entry (its own partner, of the wrong sign), an entry
# whose transpose partner is absent, and L15 of the mixed compact/boost
# block made antisymmetric, where g_1 g_5 = -1 asks for a symmetric pair.
@pytest.mark.parametrize(
    "pair, entries",
    [
        ((1, 2), {(0, 1): I, (1, 0): -I, (2, 2): 1}),
        ((1, 2), {(0, 1): I, (1, 0): -I, (0, 2): 1}),
        ((1, 5), {(0, 4): -I, (4, 0): I}),
    ],
    ids=["diagonal-entry", "missing-partner", "mixed-block-sign"],
)
def test_pseudo_antisymmetry_fails_on_a_broken_generator(pair, entries):
    gs = build_generators(Metric(4, 2))
    gs._gens[pair] = ExactMatrix.from_entries(6, entries)
    assert not dense_pseudo_antisymmetry(gs)
    assert not pseudo_antisymmetry_holds(gs)


def test_disjoint_index_pairs_commute(gs44):
    for a, b in gs44.pairs:
        for c, d in gs44.pairs:
            if {a, b} & {c, d}:
                continue
            assert commutator(gs44.gen(a, b), gs44.gen(c, d)).is_zero()


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
    assert all(c["passed"] for c in report["checks"])
    assert len(report["checks"]) == 15


def test_alias_example_relation(gs42):
    alias = hydrogen_aliases(gs42)
    assert commutator(alias["L3"], alias["L1"]) == alias["L2"] * (-I)


def test_epsilon_convention_reported_not_hidden(gs42):
    # the realisation closes left-handed; the +i*eps convention printed in
    # some sources must come out as a reported mismatch, not be patched over
    report = hydrogen_alias_check(gs42)
    assert report["epsilon_convention"] == "-i eps_ijk"
    alias = hydrogen_aliases(gs42)
    assert commutator(alias["L1"], alias["L2"]) != alias["L3"] * I


def test_alias_report_json(gs42):
    doc = json.loads(json.dumps(hydrogen_alias_check(gs42)))
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
    assert report["family_conventions"] == dict.fromkeys(["[L,L]", "[L,A]", "[A,A]"], "+i eps_ijk")
    assert report["epsilon_convention"] == "+i eps_ijk"
    assert [c["relation"] for c in report["checks"] if c["passed"]] == [
        "[L1,B1] = 0",
        "[L2,B2] = 0",
        "[L3,B3] = 0",
    ]
    assert not lietower.verify._hydrogen_aliases(lietower.verify.SuiteContext(gs))["passed"]


def test_span_describer(gs42):
    describe = gs42.solver.describer(gs42.names, "<outside>")
    assert describe(commutator(gs42.gen(1, 2), gs42.gen(2, 3))) == "(i)*L13"
    assert describe(ExactMatrix.zeros(6)) == "0"
    assert describe(ExactMatrix.identity(6)) == "<outside>"


def test_aliases_require_signature(gs44):
    with pytest.raises(ValueError):
        hydrogen_aliases(gs44)
