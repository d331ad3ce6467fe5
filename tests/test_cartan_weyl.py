"""Cartan search, adapted bases, ladders, roots, Casimirs, printed tables."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import lietower.cartan
import lietower.cli
import lietower.exact
import lietower.sopq
import lietower.verify
from lietower.cartan import (
    NotARootVectorError,
    adapted_basis,
    cartan_is_maximal,
    casimir,
    casimir_invariance,
    check_relation_table,
    emulation_check,
    extract_root,
    extract_roots,
    find_cartan,
    ladder_operators,
    root_system,
    split_basis_so44,
    star_certificate,
    subalgebra_basis,
    weyl_generators,
    yao_basis,
)
from lietower.cli import main
from lietower.exact import (
    ExactMatrix,
    GaussianRational,
    I,
    SpanSolver,
    commutator,
    pairwise_commutators,
    rank,
)
from lietower.paper import (
    EMULATION_CHAINS_SO42,
    EMULATION_CHAINS_SO44,
    HYDROGEN_ALIAS_PAIRS,
    HYDROGEN_LB_TABLE,
    KNOWN_TABLE_DEVIATIONS,
    PRINTED_TABLES,
    PUBLISHED_ROOTS_RANK3,
    SECOND_HALF_DEFS,
    SUBALGEBRA_TABLES,
    YAO_DEFS,
)
from lietower.sopq import (
    Metric,
    build_generators,
    hydrogen_aliases,
)
from lietower.verify import (
    SuiteContext,
    _basis_rank,
    _emulation,
    _judge_rank3,
    _judge_rank4,
    _printed_tables,
    _subalgebra_tables,
)

HALF = GaussianRational(Fraction(1, 2))


# -- Cartan search -----------------------------------------------------------


def test_cartan_42(gs42):
    cartan = find_cartan(gs42)
    assert list(cartan) == ["L12", "L34", "L56"]
    assert len(cartan) == 3
    assert cartan_is_maximal(gs42, cartan)


def test_cartan_44(gs44):
    cartan = find_cartan(gs44)
    assert list(cartan) == ["L12", "L34", "L56", "L78"]
    assert len(cartan) == 4
    assert cartan_is_maximal(gs44, cartan)


def test_cartan_rank1():
    gs = build_generators(Metric(2, 1))
    cartan = find_cartan(gs)
    assert len(cartan) == 1
    assert list(cartan) == ["L12"]
    assert cartan_is_maximal(gs, cartan)


def test_cartan_is_maximal_rejects_a_smaller_set(gs44):
    # the dropped member commutes with every member that is left
    cartan = find_cartan(gs44)
    smaller = dict(list(cartan.items())[:-1])
    assert not cartan_is_maximal(gs44, smaller)


def _brute_force_cartan(gs):
    """Names of the lexicographically first largest pairwise-commuting
    subset, found by trying every subset in ``combinations`` order."""
    mats = gs.matrices()
    commute = {
        (i, j): mats[i] @ mats[j] == mats[j] @ mats[i]
        for i, j in combinations(range(len(mats)), 2)
    }
    best = ()
    for size in range(1, len(mats) + 1):
        found = next(
            (
                subset
                for subset in combinations(range(len(mats)), size)
                if all(commute[pair] for pair in combinations(subset, 2))
            ),
            None,
        )
        if found is None:
            break
        best = found
    return [gs.names[k] for k in best]


SMALL_SIGNATURES = [
    (p, total - p) for total in range(2, 7) for p in range(total + 1)
]


@pytest.mark.parametrize("p, q", SMALL_SIGNATURES)
def test_cartan_matches_brute_force(p, q):
    gs = build_generators(Metric(p, q))
    assert list(find_cartan(gs)) == _brute_force_cartan(gs)


def test_cartan_matches_brute_force_corrupted():
    gs = _corrupted_so42()
    assert list(find_cartan(gs)) == _brute_force_cartan(gs)


def _exhaustive_cartan(gs):
    """Names of the lexicographically first maximum clique, by the
    depth-first search without an upper bound: every branch that could
    still beat the best clique is searched."""
    size = len(gs)
    adj = [
        [(min(s, t), max(s, t)) not in gs.brackets for t in range(size)]
        for s in range(size)
    ]
    best = []

    def extend(chosen, candidates):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for idx, v in enumerate(candidates):
            if len(chosen) + len(candidates) - idx <= len(best):
                return
            extend(chosen + [v], [u for u in candidates[idx + 1 :] if adj[v][u]])

    extend([], list(range(size)))
    return [gs.names[k] for k in best]


@pytest.mark.parametrize(
    "p, q", [(p, total - p) for total in range(2, 10) for p in range(total + 1)]
)
def test_cartan_matches_exhaustive_search(p, q):
    gs = build_generators(Metric(p, q))
    assert star_certificate(gs)
    names = list(find_cartan(gs))
    assert names == _exhaustive_cartan(gs)
    assert len(names) == (p + q) // 2


def _star_broken(metric):
    """The generators of ``metric`` with L13 overwritten by 2*L12: L12 and
    L13 share index 1 but commute, so the star of index 1 is no longer
    pairwise non-commuting and the largest commuting set, for 4,2 L12, L13,
    L34, L56, exceeds floor(n/2)."""
    gs = build_generators(metric)
    gs._gens[(1, 3)] = gs.gen(1, 2) * 2
    return gs


def test_cartan_star_violation_takes_exhaustive_fallback(monkeypatch):
    # the certificate is decided per call: a genuine set of the same
    # signature searched first must not let the broken one stop early
    genuine = build_generators(Metric(4, 2))
    assert list(find_cartan(genuine)) == ["L12", "L34", "L56"]
    gs = _star_broken(Metric(4, 2))
    assert not star_certificate(gs)
    names = list(find_cartan(gs))
    assert names == _brute_force_cartan(gs) == _exhaustive_cartan(gs)
    assert names == ["L12", "L13", "L34", "L56"]
    # trusting the bound floor(6/2) here would stop one member short
    monkeypatch.setattr(lietower.cartan, "star_certificate", lambda gs: True)
    assert list(find_cartan(gs)) == ["L12", "L13", "L34"]


@pytest.mark.parametrize("p, q", [(p, q) for p, q in SMALL_SIGNATURES if p + q >= 3])
def test_cartan_star_violation_searched_exhaustively(p, q):
    gs = _star_broken(Metric(p, q))
    assert not star_certificate(gs)
    names = list(find_cartan(gs))
    assert names == _brute_force_cartan(gs) == _exhaustive_cartan(gs)
    assert len(names) == (p + q) // 2 + 1


def test_cartan_members_commute(gs44):
    cartan = find_cartan(gs44)
    mats = list(cartan.values())
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            assert commutator(a, b).is_zero()


# -- adapted bases ------------------------------------------------------------


def test_yao_k3_and_t0(gs42):
    yao = yao_basis(gs42)
    assert yao["K3"] == (gs42.gen(1, 2) + gs42.gen(3, 4)) * HALF
    assert yao["T0"] == (-gs42.gen(1, 2) - gs42.gen(5, 6)) * HALF


def test_yao_rank_and_dependencies(gs42):
    mats = list(yao_basis(gs42).values())
    assert len(mats) == 18
    assert rank(mats) == 15  # exactly 3 linear dependencies


def test_yao_requires_signature(gs44):
    with pytest.raises(ValueError):
        yao_basis(gs44)


def test_split_basis_forms(gs44):
    first, second = split_basis_so44(gs44)
    ops = {**first, **second}
    assert ops["2K3"] == (gs44.gen(5, 6) + gs44.gen(7, 8)) * HALF
    assert ops["2S0"] == (-gs44.gen(1, 2) + gs44.gen(7, 8)) * HALF
    assert ops["1K3"] == (gs44.gen(1, 2) + gs44.gen(3, 4)) * HALF


def test_split_rank(gs44):
    first, second = split_basis_so44(gs44)
    mats = list({**first, **second}.values())
    assert len(mats) == 36
    assert rank(mats) == 28  # exactly 8 linear dependencies


def test_adapted_basis_per_signature(gs42, gs44):
    assert list(adapted_basis(gs42).items()) == list(yao_basis(gs42).items())
    first, second = split_basis_so44(gs44)
    assert list(adapted_basis(gs44).items()) == (
        list(first.items()) + list(second.items())
    )
    assert list(adapted_basis(gs44)) == [
        h + name for h in "12" for name in yao_basis(gs42)
    ]


@pytest.mark.parametrize("signature", [(5, 5), (3, 0), (2, 4)])
def test_adapted_basis_rejects_unpublished_signatures(signature):
    with pytest.raises(ValueError, match="no adapted basis"):
        adapted_basis(build_generators(Metric(*signature)))


def test_first_half_matches_rank3_basis(gs42, gs44):
    # the first half realises the same combinations on indices 1..6
    yao42 = yao_basis(gs42)
    first, _ = split_basis_so44(gs44)
    for (name42, op42), (name44, op44) in zip(yao42.items(), first.items()):
        assert name44 == "1" + name42
        for i in range(6):
            for j in range(6):
                assert op44[i, j] == op42[i, j]


# -- emulation chains ----------------------------------------------------------


def test_emulation_42_chains(gs42):
    ops = SuiteContext(gs42).ops
    report = emulation_check(ops, EMULATION_CHAINS_SO42)
    assert [all(link["passed"] for link in c["links"]) for c in report["chains"]] == [True] * 3


def test_emulation_42_specific_identities(gs42):
    yao = yao_basis(gs42)
    assert yao["J3"] + yao["K3"] == gs42.gen(1, 2)
    assert yao["P0"] + yao["Q0"] == -gs42.gen(5, 6)
    assert yao["S0"] + yao["T0"] == -gs42.gen(5, 6)


def test_emulation_44_chains(gs44):
    ops = SuiteContext(gs44).ops
    report = emulation_check(ops, EMULATION_CHAINS_SO44)
    assert [all(link["passed"] for link in c["links"]) for c in report["chains"]] == [True] * 4


def test_emulation_44_fourth_chain(gs44):
    _, second = split_basis_so44(gs44)
    ops = second
    assert ops["2K3"] - ops["2J3"] == gs44.gen(7, 8)
    assert ops["2T0"] + ops["2S0"] == gs44.gen(7, 8)


def test_emulation_report_records_each_link(gs42):
    ops = SuiteContext(gs42).ops
    report = emulation_check(ops, [("mixed", ["J3+K3", "L12", "L34"])])
    assert report == {
        "chains": [
            {
                "name": "mixed",
                "links": [
                    {"identity": "J3+K3 = L12", "passed": True},
                    {"identity": "J3+K3 = L34", "passed": False},
                ],
            }
        ]
    }
    result = _emulation(SuiteContext(gs42), [("mixed", ["J3+K3", "L12", "L34"])])
    assert (result["passed"], result["summary"]) == (False, "0/1")
    assert result["details"] == report


def test_emulation_unknown_name(gs42):
    ops = SuiteContext(gs42).ops
    with pytest.raises(KeyError):
        emulation_check(ops, [("bad", ["K3+XYZ", "L12"])])


# -- ladder operators -----------------------------------------------------------


def test_literal_ladders(gs42):
    ops = yao_basis(gs42)
    ladders = ladder_operators(ops)
    assert ladders["K+"] == ops["K1"] + ops["K2"] * I
    assert ladders["T-"] == ops["T1"] + ops["T2"] * (-I)


def test_literal_ladders_second_half(gs44):
    first, second = split_basis_so44(gs44)
    ops = second
    ladders = ladder_operators(second)
    assert ladders["2Q-"] == ops["2Q1"] + ops["2Q2"] * (-I)
    # one call over both halves gives the per-half ladders, in order
    assert list(ladder_operators(adapted_basis(gs44)).items()) == (
        list(ladder_operators(first).items()) + list(ladder_operators(second).items())
    )


def test_literal_shell_ladders(gs42):
    alias = hydrogen_aliases(gs42)
    comps = {}
    for i in (1, 2, 3):
        comps[f"X{i}"] = (alias[f"L{i}"] + alias[f"B{i}"] * I) * HALF
    ladders = ladder_operators(comps)
    basket = subalgebra_basis(gs42, yao_basis(gs42))["sl2c"]
    assert ladders["X+"] == basket["X+"]
    assert ladders["X+"] == comps["X1"] + comps["X2"] * I


def test_ladders_missing_component(gs42):
    yao = {name: op for name, op in yao_basis(gs42).items() if name != "K2"}
    with pytest.raises(KeyError):
        ladder_operators(yao)


def test_oriented_ladder_k_is_conjugated(gs42):
    # the published root table requires K+ = K1 - i*K2 in this realisation
    ctx = SuiteContext(gs42)
    yao = ctx.basis
    oriented = {name: op for name, (op, _) in ctx.weyl.items()}
    assert oriented["K+"] == yao["K1"] + yao["K2"] * (-I)
    assert oriented["J+"] == yao["J1"] + yao["J2"] * I
    assert oriented["T+"] == yao["T1"] + yao["T2"] * I
    # the root table lists the Weyl generators' own roots, in their order
    assert list(ctx.roots.roots.items()) == [(n, root) for n, (_, root) in ctx.weyl.items()]


def test_family_maps_keep_their_order(gs42, gs44):
    # dict equality ignores key order, so the order each family is built in
    # is pinned here as name lists
    fams = "K1 K2 K3 J1 J2 J3 T1 T2 T0 S1 S2 S0 P1 P2 P0 Q1 Q2 Q0".split()
    cartan42 = find_cartan(gs42)
    cartan44 = find_cartan(gs44)
    yao = yao_basis(gs42)
    first, second = split_basis_so44(gs44)
    ladders = ladder_operators(yao)
    assert list(cartan42) == ["L12", "L34", "L56"]
    assert list(cartan44) == ["L12", "L34", "L56", "L78"]
    assert list(yao) == fams
    assert list(first) == ["1" + name for name in fams]
    assert list(second) == ["2" + name for name in fams]
    assert list(ladders) == [f + s for f in "KJTSPQ" for s in "+-"]
    assert list(weyl_generators(cartan42, ladders)) == list(ladders)
    split = ladder_operators(adapted_basis(gs44))
    assert list(split) == [h + f + s for h in "12" for f in "KJTSPQ" for s in "+-"]
    assert list(weyl_generators(cartan44, split)) == list(split)


def test_weyl_generators_rejects_unpaired_or_reversed(gs42):
    cartan = find_cartan(gs42)
    ladders = list(ladder_operators(yao_basis(gs42)).items())
    with pytest.raises(ValueError, match="unpaired"):
        weyl_generators(cartan, dict(ladders[:-1]))
    with pytest.raises(ValueError, match="pair"):
        weyl_generators(cartan, dict([ladders[1], ladders[0]] + ladders[2:]))


# Each command extracts the root of every ladder operator once, in the one
# extract_roots call of weyl_generators; the Cartan zero-root check of
# verify 4,2 brackets the members instead.
@pytest.mark.parametrize(
    "argv, calls",
    [
        (("verify", "--signature", "4,2"), 12),
        (("verify", "--signature", "4,4"), 24),
        (("roots", "--signature", "4,2"), 12),
        (("roots", "--signature", "4,4"), 24),
    ],
    ids=["verify-4,2", "verify-4,4", "roots-4,2", "roots-4,4"],
)
def test_command_extract_root_count(capsys, monkeypatch, argv, calls):
    named = []

    def counted(cartan, operators):
        named.append(list(operators))
        return extract_roots(cartan, operators)

    monkeypatch.setattr(lietower.cartan, "extract_roots", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(named) == 1 and len(named[0]) == len(set(named[0])) == calls


# verify and roots read one Cartan-Weyl chain per command, so the bracket
# table, the Cartan search, the Weyl generators and the root table are built
# once each, and a generic signature builds no Weyl family; every module
# binding is counted, so a second chain assembled anywhere would show.
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--signature", "4,2"),
        ("verify", "--signature", "4,4"),
        ("verify", "--signature", "5,5"),
        ("roots", "--signature", "4,2"),
        ("roots", "--signature", "4,4"),
    ],
    ids=lambda a: " ".join(a),
)
def test_command_builds_one_chain(capsys, monkeypatch, argv):
    weyl = int(argv[-1] != "5,5")
    fns = (pairwise_commutators, find_cartan, weyl_generators, root_system)
    counts = dict.fromkeys((fn.__name__ for fn in fns), 0)

    def counted(fn):
        def wrapper(*args):
            counts[fn.__name__] += 1
            return fn(*args)

        return wrapper

    for fn in fns:
        for module in (lietower.sopq, lietower.cartan, lietower.verify, lietower.cli):
            monkeypatch.setattr(module, fn.__name__, counted(fn), raising=False)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert counts == {
        "pairwise_commutators": 1, "find_cartan": 1, "weyl_generators": weyl, "root_system": weyl
    }


@pytest.mark.parametrize("signature", ["4,2", "4,4"])
def test_roots_builds_no_span_solver(capsys, monkeypatch, signature):
    def no_solver(self, matrices):
        raise AssertionError("roots built a SpanSolver")

    monkeypatch.setattr(lietower.exact.SpanSolver, "__init__", no_solver)
    assert main(["roots", "--signature", signature]) == 0
    capsys.readouterr()
    # verify builds one for its bracket sweep, so the patch is live
    with pytest.raises(AssertionError, match="built a SpanSolver"):
        main(["verify", "--signature", signature])


# -- root extraction ------------------------------------------------------------


def test_root_of_raising_k(gs42):
    ctx = SuiteContext(gs42)
    root = extract_root(ctx.cartan, "K+", ctx.weyl["K+"][0])
    assert type(root) is tuple and all(type(c) is Fraction for c in root)
    assert root == (1, 1, 0)


def test_root_of_lowering_q(gs42):
    ctx = SuiteContext(gs42)
    root = extract_root(ctx.cartan, "Q-", ctx.weyl["Q-"][0])
    assert root == (0, 1, -1)


def test_root_of_cartan_member_is_zero(gs42):
    cartan = find_cartan(gs42)
    for name, member in cartan.items():
        assert extract_root(cartan, name, member) == (0, 0, 0)


def test_non_root_vector_rejected(gs42):
    cartan = find_cartan(gs42)
    with pytest.raises(NotARootVectorError):
        extract_root(cartan, "L13", gs42.gen(1, 3))


def test_zero_matrix_rejected(gs42):
    cartan = find_cartan(gs42)
    with pytest.raises(NotARootVectorError):
        extract_root(cartan, "zero", ExactMatrix.zeros(6))


def test_root_table_42_matches_published(gs42):
    assert SuiteContext(gs42).roots.roots == {
        name: tuple(Fraction(c) for c in comps)
        for name, comps in PUBLISHED_ROOTS_RANK3.items()
    }


# The zero-root check brackets the Cartan members' matrices pair by pair, so
# it fails on two members that do not commute, also when their names say
# they would (L34 holding the matrix of L13).
@pytest.mark.parametrize(
    "members",
    [{"L12": (1, 2), "L13": (1, 3), "L56": (5, 6)}, {"L12": (1, 2), "L34": (1, 3)}],
    ids=["non-commuting", "mislabelled"],
)
def test_judge_rank3_fails_on_a_non_commuting_cartan(gs42, members):
    ctx = SuiteContext(gs42)
    ctx.roots = SuiteContext(gs42).roots
    ctx.cartan = {name: gs42.gen(*pair) for name, pair in members.items()}
    passed, summary = _judge_rank3(ctx)
    assert not passed
    assert summary.endswith("cartan zero-roots FAIL")
    assert _judge_rank3(SuiteContext(gs42)) == (
        True, "12/12 published rows, cartan zero-roots ok"
    )


def test_judge_rank3_fails_on_a_wrong_published_row(gs42):
    # commuting Cartan members do not make up for a root off the table
    ctx = SuiteContext(gs42)
    bad = {**ctx.roots.roots, "K+": tuple(map(Fraction, (1, 1, 1)))}
    ctx.roots = ctx.roots._replace(roots=bad)
    passed, summary = _judge_rank3(ctx)
    assert not passed
    assert summary.startswith("11/12 published rows")


def test_root_table_rank3_fails_on_a_missing_published_row(gs42):
    # a table without a published row fails the suite, as on rank 4, and
    # the judge does not raise KeyError
    ctx = SuiteContext(gs42)
    roots = dict(ctx.roots.roots)
    del roots["K+"]
    ctx.roots = ctx.roots._replace(roots=roots)
    suite = lietower.verify._roots(ctx, "root-table", _judge_rank3)
    assert not suite["passed"]
    assert suite["summary"] == "11/12 published rows, cartan zero-roots ok"


def test_complex_root_component_rejected():
    # a boost Cartan member: [L56, L15 + L16] = -i (L15 + L16) on 5,5
    gs = build_generators(Metric(5, 5))
    with pytest.raises(NotARootVectorError, match="along L56 is complex: -i$"):
        extract_root({"L56": gs.gen(5, 6)}, "L15+L16", gs.gen(1, 5) + gs.gen(1, 6))


# One minimal corruption of the so(4,4) root table per condition of the
# judge: a component 2 in a second-half row, where no published row is
# compared, a nonzero fourth component in a first-half row, a missing
# second-half or first-half row (root None), a second-half row off the D4
# roots with every component in {-1, 0, 1}, and a second-half row copied
# over another (root a row name).  Each fails with the usual summary.
@pytest.mark.parametrize(
    "name, root",
    [
        ("2K+", (0, 0, 2, 1)),
        ("1K+", (1, 1, 0, 1)),
        ("2K+", None),
        ("1K+", None),
        ("2K+", (0, 1, 1, 1)),
        ("2K+", "2J+"),
    ],
    ids=[
        "component-2",
        "first-half-fourth-axis",
        "second-half-row-missing",
        "first-half-row-missing",
        "second-half-off-d4",
        "second-half-row-repeated",
    ],
)
def test_judge_rank4_fails_on_a_corrupted_row(gs44, name, root):
    ctx = SuiteContext(gs44)
    assert _judge_rank4(ctx)[0]
    roots = dict(ctx.roots.roots)
    if root is None:
        del roots[name]
    elif isinstance(root, str):
        roots[name] = roots[root]
    else:
        roots[name] = tuple(map(Fraction, root))
    ctx.roots = ctx.roots._replace(roots=roots)
    assert _judge_rank4(ctx) == (
        False,
        f"{len(roots)}/24 extracted; first half matches the published "
        "rank-3 table on its first three axes",
    )


def test_root_negation_symmetry(gs42):
    table = SuiteContext(gs42).roots.roots
    for fam in "KJTSPQ":
        assert table[f"{fam}-"] == tuple(-c for c in table[f"{fam}+"])


def test_root_components_are_unit_range(gs44):
    table = SuiteContext(gs44).roots
    assert len(table.roots) == 24
    for root in table.roots.values():
        assert all(c in (-1, 0, 1) for c in root)


def test_root_table_44_first_half_restriction(gs44):
    table = SuiteContext(gs44).roots.roots
    for name, comps in PUBLISHED_ROOTS_RANK3.items():
        root = table["1" + name]
        assert root[:3] == tuple(Fraction(c) for c in comps)
        assert root[3] == 0


def test_root_table_44_second_half_k(gs44):
    table = SuiteContext(gs44).roots.roots
    assert table["2K+"] == (0, 0, 1, 1)
    assert table["2K-"] == (0, 0, -1, -1)


def test_ladder_bracket_lands_in_cartan_span(gs42):
    ctx = SuiteContext(gs42)
    solver = SpanSolver(list(ctx.cartan.values()))
    for fam in "KJTSPQ":
        bracket = commutator(ctx.weyl[f"{fam}+"][0], ctx.weyl[f"{fam}-"][0])
        assert solver.expand(bracket) is not None


def test_full_cartan_weyl_set_spans_algebra(gs44):
    ctx = SuiteContext(gs44)
    mats = list(ctx.cartan.values()) + [op for op, _ in ctx.weyl.values()]
    assert len(mats) == 28
    assert rank(mats) == 28
    assert rank(mats + gs44.matrices()) == 28  # same space as the raw basis


def test_root_table_json_schema(gs42):
    doc = SuiteContext(gs42).roots.to_json_dict()
    assert set(doc) == {"cartan", "roots"}
    assert doc["roots"][0] == {"name": "K+", "components": ["1", "1", "0"]}


# -- root-system axioms, from the root table and the Killing form alone ------------


def _inverse(rows):
    """Gauss-Jordan inverse of a small nonsingular matrix of Fractions."""
    k = len(rows)
    aug = [
        list(row) + [Fraction(int(i == j)) for j in range(k)]
        for i, row in enumerate(rows)
    ]
    for c in range(k):
        pivot = next(r for r in range(c, k) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


@pytest.mark.parametrize(
    "gs_fixture, weyl_order", [("gs42", 24), ("gs44", 192)], ids=["D3=A3", "D4"]
)
def test_root_system_axioms(request, gs_fixture, weyl_order):
    # Humphreys, Intro. to Lie Algebras, section 9: integral Cartan numbers,
    # closure under every reflection, and the Weyl group order of the type.
    ctx = SuiteContext(request.getfixturevalue(gs_fixture))
    cartan = ctx.cartan
    n = ctx.gs.metric.dim
    roots = list(ctx.roots.roots.values())
    assert len(set(roots)) == len(roots)
    assert not any(all(c == 0 for c in root) for root in roots)

    # Killing form on the Cartan members: B(X, Y) = (n - 2) * tr(XY)
    gram = []
    for a in cartan.values():
        row = []
        for b in cartan.values():
            m = a @ b
            trace = sum((m[i, i] for i in range(n)), GaussianRational(0))
            assert trace.is_real
            row.append((n - 2) * trace.re)
        gram.append(row)
    # ... which is also tr(ad H ad H') = sum over roots of alpha(H) alpha(H')
    rank_ = len(gram)
    assert gram == [
        [sum(r[i] * r[j] for r in roots) for j in range(rank_)] for i in range(rank_)
    ]
    dual = _inverse(gram)

    def inner(x, y):
        return sum(x[i] * dual[i][j] * y[j] for i in range(rank_) for j in range(rank_))

    index = {r: k for k, r in enumerate(roots)}
    reflections = []
    for alpha in roots:
        image = []
        for beta in roots:
            cartan_number = 2 * inner(beta, alpha) / inner(alpha, alpha)
            assert cartan_number.denominator == 1, (alpha, beta)
            reflected = tuple(b - cartan_number * a for a, b in zip(alpha, beta))
            assert reflected in index, (alpha, beta)
            image.append(index[reflected])
        reflections.append(tuple(image))

    # the roots span the dual of the Cartan set, so W acts faithfully on them
    group = {tuple(range(len(roots)))}
    frontier = list(group)
    while frontier:
        products = {tuple(s[k] for k in g) for g in frontier for s in reflections}
        frontier = list(products - group)
        group |= products
    assert len(group) == weyl_order


# -- Casimir invariants -----------------------------------------------------------


def test_casimir_quadratic(gs42):
    c2 = casimir(gs42, 2)
    assert casimir_invariance(gs42, c2)
    # scalar on the defining representation; value is a derived constant
    assert c2.scaled_identity() == GaussianRational(5)


def test_casimir_cubic_vanishes_but_is_checked(gs42):
    c3 = casimir(gs42, 3)
    assert casimir_invariance(gs42, c3)
    assert c3.scaled_identity() == GaussianRational(0)
    assert c3.is_zero()


def test_casimir_quartic(gs42):
    c4 = casimir(gs42, 4)
    assert casimir_invariance(gs42, c4)
    assert c4.scaled_identity() == GaussianRational(110)


def test_casimir_quartic_commutes_with_l12(gs42):
    c4 = casimir(gs42, 4)
    assert commutator(c4, gs42.gen(1, 2)).is_zero()


def _textbook_casimirs(gs):
    """C2, C3 and C4 as printed: the quadratic form over the hydrogen
    aliases, the epsilon contraction over all 720 permutations times 1/48,
    and the unfactored chain over a, b, c, d."""
    g = gs.metric.g
    idx = range(1, 7)
    alias = hydrogen_aliases(gs)
    c2 = ExactMatrix.zeros(6)
    for name in ("L1", "L2", "L3", "A1", "A2", "A3", "D3"):
        c2 = c2 + alias[name] @ alias[name]
    for name in ("B1", "B2", "B3", "G1", "G2", "G3", "D1", "D2"):
        c2 = c2 - alias[name] @ alias[name]

    def upper(a, b):
        return gs.gen(a, b) * (g(a) * g(b))

    c3 = ExactMatrix.zeros(6)
    for perm in permutations(idx):
        inversions = sum(x > y for x, y in combinations(perm, 2))
        a, b, c, d, e, f = perm
        term = upper(a, b) @ upper(c, d) @ upper(e, f)
        c3 = c3 - term if inversions % 2 else c3 + term
    c4 = ExactMatrix.zeros(6)
    for a, b, c, d in product(idx, repeat=4):
        if a != b and b != c and c != d and d != a:
            c4 = c4 + gs.gen(a, b) @ upper(b, c) @ gs.gen(c, d) @ upper(d, a)
    return c2, c3 * Fraction(1, 48), c4


def _corrupted_so42():
    """gs42 with L12 overwritten by L12 + L34: neither C3 nor C4 is scalar
    any more, so a regrouping that assumes the brackets would show."""
    gs = build_generators(Metric(4, 2))
    gs._gens[(1, 2)] = gs.gen(1, 2) + gs.gen(3, 4)
    return gs


@pytest.mark.parametrize("corrupt", [False, True], ids=["genuine", "corrupted"])
def test_casimir_matches_textbook_sums(gs42, corrupt):
    gs = _corrupted_so42() if corrupt else gs42
    c2, c3, c4 = _textbook_casimirs(gs)
    assert casimir(gs, 2) == c2
    assert casimir(gs, 3) == c3
    assert casimir(gs, 4) == c4
    assert (c2.scaled_identity() is None) == corrupt
    assert (c3.scaled_identity() is None) == corrupt
    assert (c4.scaled_identity() is None) == corrupt


@pytest.mark.parametrize("degree, matmuls", [(2, 15), (3, 105), (4, 186)])
def test_casimir_matmul_count(gs42, monkeypatch, degree, matmuls):
    # an op count instead of a wall-clock bound: the recursive epsilon C3 and the
    # factored C4 chain, not the 720-permutation and four-index sums; every
    # product, fused or not, is one term of the kernel's one product accumulator
    terms = []
    real = lietower.exact._product_sums

    def counting(dim, products):
        products = list(products)
        terms.extend(products)
        return real(dim, products)

    monkeypatch.setattr(lietower.exact, "_product_sums", counting)
    casimir(gs42, degree)
    assert len(terms) == matmuls


def test_casimir_unsupported_degree(gs42):
    with pytest.raises(ValueError):
        casimir(gs42, 5)


def test_casimir_requires_signature(gs44):
    with pytest.raises(ValueError):
        casimir(gs44, 2)


# -- subalgebra baskets -------------------------------------------------------------


@pytest.mark.parametrize("which", ["sl2c", "so4", "so22_LD", "so22_AD"])
def test_subalgebra_tables_hold(gs42, which):
    basket = subalgebra_basis(gs42, yao_basis(gs42))[which]
    report = check_relation_table(basket, which, SUBALGEBRA_TABLES[which])
    assert not report["deviations"], report["deviations"]


def test_subalgebra_tables_suite_fails_on_a_deviating_table(gs42):
    ctx = SuiteContext(gs42)
    assert _subalgebra_tables(ctx)["passed"]
    # negating K2 swaps K+ and K-, which breaks the three K-triple rows of so4
    ctx.basis = {**ctx.basis, "K2": -ctx.basis["K2"]}
    result = _subalgebra_tables(ctx)
    assert not result["passed"]
    assert result["summary"] == "sl2c 15/15; so4 12/15; so22_LD 15/15; so22_AD 15/15"
    assert [len(rep["deviations"]) for rep in result["details"].values()] == [0, 3, 0, 0]


def test_relation_table_without_describe_marks_deviations(gs42):
    # swapping the so4 ladders breaks exactly the three K-triple rows
    basket = subalgebra_basis(gs42, yao_basis(gs42))["so4"]
    basket["K+"], basket["K-"] = basket["K-"], basket["K+"]
    table = SUBALGEBRA_TABLES["so4"]
    report = check_relation_table(basket, "so4", table)
    assert report["table"] == "so4"
    assert report["relation_count"] == len(table)
    assert report["deviations"]
    assert report["deviations"] == [
        {"relation": rel.text, "got": "<differs>"} for rel in table[:3]
    ]


def test_sl2c_specific_relations(gs42):
    basket = subalgebra_basis(gs42, yao_basis(gs42))["sl2c"]
    assert commutator(basket["X3"], basket["X+"]) == -basket["X+"]
    assert commutator(basket["X3"], basket["X-"]) == basket["X-"]
    assert commutator(basket["X+"], basket["X-"]) == basket["X3"] * (-2)


def test_so4_specific_relations(gs42):
    basket = subalgebra_basis(gs42, yao_basis(gs42))["so4"]
    assert commutator(basket["K+"], basket["K-"]) == basket["K3"] * 2
    assert commutator(basket["K3"], basket["K+"]) == basket["K+"]


def test_so22_specific_relations(gs42):
    basket = subalgebra_basis(gs42, yao_basis(gs42))["so22_LD"]
    assert commutator(basket["T+"], basket["T-"]) == basket["T0"] * (-2)
    assert commutator(basket["T0"], basket["T+"]) == -basket["T+"]


def test_cross_family_commutation_vanishes(gs42):
    for which, fams in (
        ("sl2c", ("X", "Y")),
        ("so4", ("K", "J")),
        ("so22_LD", ("T", "S")),
        ("so22_AD", ("P", "Q")),
    ):
        basket = subalgebra_basis(gs42, yao_basis(gs42))[which]
        suffixes = "+-3" if which in ("sl2c", "so4") else "+-0"
        for i in suffixes:
            for j in suffixes:
                a, b = fams
                assert commutator(basket[f"{a}{i}"], basket[f"{b}{j}"]).is_zero()


def test_shell_halves_commute_componentwise(gs42):
    # [X_i, Y_j] = 0 for all component pairs, not only the basket members
    alias = hydrogen_aliases(gs42)
    x = [(alias[f"L{i}"] + alias[f"B{i}"] * I) * HALF for i in (1, 2, 3)]
    y = [(alias[f"L{i}"] + alias[f"B{i}"] * (-I)) * HALF for i in (1, 2, 3)]
    for a in x:
        for b in y:
            assert commutator(a, b).is_zero()


def test_yao_component_cross_families_commute(gs42):
    yao = yao_basis(gs42)
    for a, b, suffixes in (
        ("K", "J", "123"),
        ("T", "S", "120"),
        ("P", "Q", "120"),
    ):
        for i in suffixes:
            for j in suffixes:
                assert commutator(yao[f"{a}{i}"], yao[f"{b}{j}"]).is_zero()


# -- printed tables, checked as printed ------------------------------------------------


def _ops44(gs44):
    return SuiteContext(gs44).ops


def test_printed_table_content_digest():
    # SHA-256 of every printed relation, in table order, so a row that the
    # table construction changes is caught even where it still holds
    doc = json.dumps(
        [
            [name, [[r.left, r.right, str(r.coeff), r.result] for r in rows]]
            for name, rows in (*PRINTED_TABLES.items(), *SUBALGEBRA_TABLES.items())
        ]
        + [list(SUBALGEBRA_TABLES)]
    )
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == (
        "389a6eca15d38f2758e5773f99a85da6be479bbf7caed2dfd75b56e66a17a1e2"
    )


def test_published_content_digest():
    # SHA-256 of everything lietower.paper holds, pinned on the values as
    # they stood before they moved there, so the move changed no value
    def rows(relations):
        return [[r.left, r.right, str(r.coeff), r.result] for r in relations]

    def defs(basis):
        return [[name, [[str(c), list(pair)] for c, pair in terms]] for name, terms in basis]

    doc = json.dumps({
        "aliases": {name: list(pair) for name, pair in HYDROGEN_ALIAS_PAIRS.items()},
        "hydrogen-LB": rows(HYDROGEN_LB_TABLE),
        "yao": defs(YAO_DEFS),
        "second-half": defs(SECOND_HALF_DEFS),
        "printed": {name: rows(table) for name, table in PRINTED_TABLES.items()},
        "subalgebras": {name: rows(table) for name, table in SUBALGEBRA_TABLES.items()},
        "misprints": KNOWN_TABLE_DEVIATIONS,
        "chains": [EMULATION_CHAINS_SO42, EMULATION_CHAINS_SO44],
        "roots": PUBLISHED_ROOTS_RANK3,
    })
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == (
        "2e9b48cccf73d9dd6a13873356def61f41dbeefb97c61161d0c09a0112b772e2"
    )


@pytest.mark.parametrize("table", list(PRINTED_TABLES))
def test_printed_tables_match_known_deviations(gs44, table):
    describe = gs44.solver.describer(gs44.names, "<outside algebra>")
    report = check_relation_table(_ops44(gs44), table, PRINTED_TABLES[table], describe=describe)
    got = tuple(d["relation"] for d in report["deviations"])
    assert got == KNOWN_TABLE_DEVIATIONS[table]


def test_printed_tables_judge_pins_the_printed_order(gs44, monkeypatch):
    # the same deviations in reverse order are not the recorded baseline
    table = "components-1"
    ctx = SuiteContext(gs44)
    assert _printed_tables(ctx, "component-tables", (table,))["passed"]
    monkeypatch.setitem(PRINTED_TABLES, table, PRINTED_TABLES[table][::-1])
    result = _printed_tables(ctx, "component-tables", (table,))
    assert not result["passed"]
    assert result["details"][table]["deviations"]


def test_basis_rank_fails_on_a_dependent_member(gs44):
    ctx = SuiteContext(gs44)
    assert _basis_rank(ctx, "split-rank")["passed"]
    ctx.basis = {**ctx.basis, "1K2": ctx.basis["1K1"]}
    assert rank(list(ctx.basis.values())) == 27
    result = _basis_rank(ctx, "split-rank")
    assert not result["passed"]
    assert result["summary"] == "27 (36 generators, 9 dependencies)"


def test_component_table_deviations_are_single_symbol_slips(gs44):
    # each deviating row closes on the family's third/zeroth member instead
    ops = _ops44(gs44)
    assert commutator(ops["1K1"], ops["1K2"]) == ops["1K3"] * (-I)
    assert commutator(ops["1T1"], ops["1T2"]) == ops["1T0"] * I
    assert commutator(ops["2K1"], ops["2K2"]) == ops["2K3"] * I
    assert commutator(ops["2T1"], ops["2T2"]) == ops["2T0"] * (-I)


def test_first_half_ladder_sign_reality(gs44):
    # the printed first-half ladder rows for K and J flip sign in this
    # realisation, and [T+, T-] closes on +2*T0
    ops = _ops44(gs44)
    assert commutator(ops["1K3"], ops["1K+"]) == -ops["1K+"]
    assert commutator(ops["1K+"], ops["1K-"]) == ops["1K3"] * (-2)
    assert commutator(ops["1T+"], ops["1T-"]) == ops["1T0"] * 2


def test_second_half_ladder_table_holds_as_printed(gs44):
    ops = _ops44(gs44)
    assert commutator(ops["2T0"], ops["2T+"]) == ops["2T+"]
    assert commutator(ops["2T+"], ops["2T-"]) == ops["2T0"] * (-2)
    assert commutator(ops["2K3"], ops["2K+"]) == ops["2K+"]
    assert commutator(ops["2K+"], ops["2K-"]) == ops["2K3"] * 2
