"""Acceptance criteria, one test per criterion, all at zero tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion; runtimes are asserted where the criterion pins one.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import lietower.cartan
import lietower.verify
from lietower.cartan import (
    EMULATION_CHAINS_SO42,
    EMULATION_CHAINS_SO44,
    KNOWN_TABLE_DEVIATIONS,
    LADDER_TABLE_FIRST,
    LADDER_TABLE_SECOND,
    SUBALGEBRA_TABLES,
    casimir,
    casimir_invariance,
    check_relation_table,
    emulation_check,
    extract_root,
    find_cartan,
    root_system,
    split_basis_so44,
    subalgebra_basis,
    yao_basis,
)
from lietower.cli import main
from lietower.exact import ExactMatrix, I, SpanSolver, commutator, rank
from lietower.labels import mass_sl2c, mass_so42
from lietower.periodic import (
    assign_elements,
    haenzel_stats,
    period_lengths,
    projection_slice,
)
from lietower.sopq import (
    Metric,
    bracket_table,
    build_generators,
    hydrogen_alias_check,
    hydrogen_aliases,
    verify_commutation,
)
from lietower.verify import (
    NOTES_RANK4,
    PUBLISHED_ROOTS_RANK3,
    SuiteContext,
    run_verification,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {label}")


def test_criterion_01_commutation_suite_rank3(gs42):
    with criterion(1, "so(4,2) commutation suite, 105 pairs, < 5 s"):
        start = time.monotonic()
        report = verify_commutation(gs42, bracket_table(gs42), SpanSolver(gs42.matrices()))
        elapsed = time.monotonic() - start
        assert report.pair_count == 105
        assert report.failures == []
        assert elapsed < 5.0, f"suite took {elapsed:.2f}s"


def test_criterion_02_commutation_suite_rank4(gs44):
    with criterion(2, "so(4,4) commutation suite, 378 pairs, < 30 s"):
        start = time.monotonic()
        report = verify_commutation(gs44, bracket_table(gs44), SpanSolver(gs44.matrices()))
        elapsed = time.monotonic() - start
        assert report.pair_count == 378
        assert report.failures == []
        assert elapsed < 30.0, f"suite took {elapsed:.2f}s"


def test_criterion_03_hydrogen_alias_table(gs42):
    with criterion(3, "hydrogen alias table holds; eps-convention mismatch reported"):
        report = hydrogen_alias_check(gs42, bracket_table(gs42))
        assert report.ok
        assert len(report.checks) == 15
        # the mismatch with the +i*eps convention is reported, not hidden
        assert report.epsilon_convention == "-i eps_ijk"
        alias = hydrogen_aliases(gs42)
        assert commutator(alias["L1"], alias["L2"]) == alias["L3"] * (-I)
        assert commutator(alias["L1"], alias["L2"]) != alias["L3"] * I


def test_criterion_04_yao_redundancy(gs42):
    with criterion(4, "18-generator basis has rank 15; emulation chains hold"):
        yao = yao_basis(gs42)
        assert rank(list(yao.values())) == 15
        report = emulation_check(SuiteContext(gs42).ops, EMULATION_CHAINS_SO42)
        assert report.ok and report.passed_count == 3


def test_criterion_05_split_redundancy_and_printed_tables(gs44):
    with criterion(5, "36-generator split basis has rank 28; printed ladder tables checked as printed"):
        first, second = split_basis_so44(gs44)
        assert rank(list({**first, **second}.values())) == 28
        ops = SuiteContext(gs44).ops
        emu = emulation_check(ops, EMULATION_CHAINS_SO44)
        assert emu.ok and emu.passed_count == 4
        for table in (LADDER_TABLE_FIRST, LADDER_TABLE_SECOND):
            report = check_relation_table(ops, table)
            # deviations from the printed form are listed verbatim and must
            # match the recorded baseline exactly
            got = tuple(d.relation for d in report.deviations)
            assert got == KNOWN_TABLE_DEVIATIONS[table.name]
        assert KNOWN_TABLE_DEVIATIONS["ladders-2"] == ()
        assert len(KNOWN_TABLE_DEVIATIONS["ladders-1"]) == 11


def test_criterion_06_root_table_rank3(gs42, oriented_ladders):
    with criterion(6, "12 extracted roots equal the published rank-3 table"):
        cartan = find_cartan(gs42, bracket_table(gs42))
        table = root_system(cartan, oriented_ladders(gs42, cartan))
        want = {
            name: tuple(Fraction(c) for c in comps)
            for name, comps in PUBLISHED_ROOTS_RANK3.items()
        }
        assert table.roots == want
        for name, member in cartan.items():
            assert extract_root(cartan, name, member) == (0, 0, 0)


def test_criterion_07_root_table_rank4(gs44, oriented_ladders):
    with criterion(7, "24 roots extract over the rank-4 set; axis question flagged"):
        cartan = find_cartan(gs44, bracket_table(gs44))
        table = root_system(cartan, oriented_ladders(gs44, cartan))
        roots = table.roots
        assert len(roots) == 24
        for name, comps in PUBLISHED_ROOTS_RANK3.items():
            assert roots["1" + name][:3] == tuple(Fraction(c) for c in comps)
            assert roots["1" + name][3] == 0
        # the unresolved second-half axis labelling is flagged in the report
        report = run_verification(Metric(4, 4))
        assert any("do not name its axes" in n or "do not name" in n for n in report.notes)
        assert report.notes == NOTES_RANK4


def test_criterion_08_casimir_invariance(gs42):
    with criterion(8, "C2, C3, C4 commute with all generators; C2 scalar recorded"):
        scalars = {}
        for degree in (2, 3, 4):
            mat = casimir(gs42, degree)
            assert casimir_invariance(gs42, mat)
            scalars[degree] = mat.scaled_identity()
        assert scalars[2] is not None  # scalar multiple of the identity
        print(f"  [derived] defining-representation Casimir scalars: "
              f"C2={scalars[2]}, C3={scalars[3]}, C4={scalars[4]}")


def test_criterion_09_subalgebra_tables(gs42):
    with criterion(9, "rank-2 subalgebra tables hold exactly, cross-families vanish"):
        for which in ("sl2c", "so4", "so22_LD", "so22_AD"):
            basket = subalgebra_basis(gs42, yao_basis(gs42))[which]
            report = check_relation_table(basket, SUBALGEBRA_TABLES[which])
            assert report.ok, (which, report.deviations)
        basket = subalgebra_basis(gs42, yao_basis(gs42))["sl2c"]
        assert commutator(basket["X3"], basket["X+"]) == -basket["X+"]
        basket = subalgebra_basis(gs42, yao_basis(gs42))["so4"]
        assert commutator(basket["K+"], basket["K-"]) == basket["K3"] * 2
        basket = subalgebra_basis(gs42, yao_basis(gs42))["so22_LD"]
        assert commutator(basket["T+"], basket["T-"]) == basket["T0"] * (-2)


def test_criterion_10_periodic_assignment(matter_elements):
    with criterion(10, "period lengths, element endpoints, 60/60 spin split, < 1 s"):
        start = time.monotonic()
        elements = assign_elements()
        lengths = period_lengths(elements)
        minus = projection_slice(elements, Fraction(-1, 2))
        plus = projection_slice(elements, Fraction(1, 2))
        elapsed = time.monotonic() - start
        assert lengths[:7] == [2, 8, 8, 18, 18, 32, 32]
        by_z = {e.z: e for e in elements}
        assert str(by_z[1].ket) == "|1,0,0,-1/2⟩" and by_z[1].symbol == "H"
        assert str(by_z[2].ket) == "|1,0,0,+1/2⟩" and by_z[2].symbol == "He"
        assert str(by_z[115].ket) == "|7,1,1,-1/2⟩" and by_z[115].symbol == "Mc"
        assert str(by_z[118].ket) == "|7,1,1,+1/2⟩" and by_z[118].symbol == "Og"
        assert str(by_z[119].ket) == "|8,0,0,-1/2⟩" and by_z[119].symbol == "Uue"
        assert str(by_z[120].ket) == "|8,0,0,+1/2⟩" and by_z[120].symbol == "Ubn"
        zs_minus = [e.z for e in matter_elements(minus)]
        assert max(z for z in zs_minus if z <= 118) == 115
        assert len(zs_minus) == 60 and len(matter_elements(plus)) == 60
        assert elapsed < 1.0, f"assembly took {elapsed:.2f}s"


def test_criterion_11_sheet_counts():
    with criterion(11, "sheet counts: 2n^2 points (2/8/18), n^2 transversals up to n=10"):
        assert haenzel_stats(1)["points"] == 2
        assert haenzel_stats(2)["points"] == 8
        assert haenzel_stats(3)["points"] == 18
        for n in range(1, 11):
            stats = haenzel_stats(n)
            assert stats["points"] == 2 * n * n
            assert stats["transversals"] == n * n
            assert stats["transversals"] == sum(2 * l + 1 for l in range(n))


def test_criterion_12_mass_formulas():
    with criterion(12, "tower mass reduces to shell mass at nu=0; unit node; monotone"):
        halves = [Fraction(k, 2) for k in range(0, 9)]
        for l in halves:
            for ldot in halves:
                assert 2 * mass_so42(l, ldot, 0) == mass_sl2c(l, ldot)
        assert mass_sl2c(Fraction(1, 2), 0) == 1
        # monotonicity substitutes for the out-of-scope spectrum comparison
        for l in halves[:-1]:
            for ldot in halves:
                assert mass_sl2c(l + Fraction(1, 2), ldot) > mass_sl2c(l, ldot)
                assert mass_so42(ldot, l, 1) > mass_so42(ldot, l, Fraction(1, 2))


def _tampered_build(metric):
    """build_generators with L12 replaced by a symmetric matrix."""
    gs = build_generators(metric)
    gs._gens[(1, 2)] = ExactMatrix.from_entries(metric.dim, {(0, 1): I, (1, 0): I})
    return gs


def _inject_fault(monkeypatch):
    monkeypatch.setattr(lietower.verify, "build_generators", _tampered_build)


CLI_MATRIX = [
    ("verify", "--signature", "4,2"),
    ("verify", "--signature", "4,2", "--format", "json"),
    ("roots", "--signature", "4,2", "--format", "json"),
    ("roots", "--signature", "4,2", "--format", "svg"),
    ("roots", "--signature", "4,4", "--format", "json"),
    ("tower", "--spin=-1/2", "--format", "json"),
    ("tower", "--spin=+1/2", "--format", "svg"),
    ("elements", "--z", "118"),
    ("mass", "1/2", "0"),
]


def test_criterion_13_determinism_and_exit_contract(capsys, monkeypatch):
    with criterion(13, "byte-identical CLI reruns; fault injection flips the exit code"):
        for argv in CLI_MATRIX:
            code1 = main(list(argv))
            out1 = capsys.readouterr().out
            code2 = main(list(argv))
            out2 = capsys.readouterr().out
            assert code1 == 0 and code2 == 0
            assert out1.encode() == out2.encode(), argv

        _inject_fault(monkeypatch)
        assert main(["verify", "--signature", "4,2"]) == 1
        capsys.readouterr()


# SHA-256 of stdout for every CLI_MATRIX entry plus verify 4,4 and 5,5, the
# other roots outputs, every tower output, the element queries with a mass
# node and the three-label mass, so any change to a single output byte is
# caught, not only a difference between reruns.
GOLDEN_STDOUT_SHA256 = {
    ("verify", "--signature", "4,2"):
        "e01d56dcf146ed2bc92fa73df863bb2ca685462de82ae505b370fd5efbc9cac9",
    ("verify", "--signature", "4,2", "--format", "json"):
        "d80bc3dec90a65dbfc6bee1f5ac7646365b1b3ce2aadb285f8b2b8050292d929",
    ("roots", "--signature", "4,2", "--format", "json"):
        "5d7c94f06d59139a429285b73a164c85a47263d7c8bf99b74f79a1e55930687b",
    ("roots", "--signature", "4,2", "--format", "svg"):
        "b75eeea99b94e344250a47079f49b56bbab4c94bd1546bee08993a40aa5b591a",
    ("roots", "--signature", "4,4", "--format", "json"):
        "7bfd2b6d9bc49863379f23ed20a4bae861b8488041f199156955b6092c4f6718",
    ("tower", "--spin=-1/2", "--format", "json"):
        "5f788ed70eba096ec17cb98b7f0757647db15622ea660b968ab7250a174c93a5",
    ("tower", "--spin=+1/2", "--format", "svg"):
        "4125a0bb36f6443b950a4589b20f6882aa1ee49b4a45f8990436707c14f8e0dd",
    ("elements", "--z", "118"):
        "c2f7dfafd7f6640acb371ea139e3668308b82e8f2f02d1c8da59df16dd0371db",
    ("mass", "1/2", "0"):
        "1729d107efd6dcf6c93226365c9475fd6119cc0e46718ff022e5b10e7cae5388",
    ("verify", "--signature", "4,4"):
        "ada9be85a485edb22f91f8a9eefdf4489778e75a6ac37c88c19fc85024f7268b",
    ("verify", "--signature", "4,4", "--format", "json"):
        "56193eba0efe7bd986f294af7b4c8044efd61b440ddfd4d92ad7883d7487254c",
    ("roots", "--signature", "4,2"):
        "fdd61d557b92feca9c74307d058a7a7919f7d3264c1b665030199cd0e1f0f839",
    ("roots", "--signature", "4,4"):
        "0a4091bbd10cf2e7264e68d2a244439ea61addd455ecce1216fd79f53133f07e",
    ("roots", "--signature", "4,4", "--format", "svg"):
        "f1225dcbd5ec3d10f743347d532a0ab9d83addf47daaf0a71a10cb35afcf19b5",
    ("verify", "--signature", "5,5"):
        "f4687e2046e365e5c3e764bfc11a080fbc756fd5df38476593a3ac67e96633cb",
    ("tower", "--spin=-1/2", "--format", "svg"):
        "fd5775a6485809f320a1b594099b371f3d175f8b126eb6ff9387706b6a601df2",
    ("tower", "--spin=-1/2"):
        "7398cfa494c9953e6c0f49cae6f571e456ee1e785f193f45b60018f12110f218",
    ("tower", "--spin=+1/2"):
        "4c7dea6d903662dc5752281efceedab8a37ea44439b294a1232625654db5f8c1",
    ("tower", "--spin=+1/2", "--format", "json"):
        "1f8bec78715643c6cf5d8145ef72cad8df86ab7fdfc6a12f1e30b7ca9c0bccdd",
    ("elements", "--symbol", "Fe", "--format", "json", "--node", "1/2,0,1"):
        "20ba639c0baec768248293840581e1afda0c52ee90564d2fafe2dd93547fd2ae",
    ("elements", "--z", "26", "--node", "1/2,0,1"):
        "773550172c945acd672ff98f7c7ba02ecb7898997d80c4b7f422080e3e26be5f",
    ("mass", "3/2", "1/2", "1"):
        "0ce5de22fa984f1a2338a527c87fd522564eab23ad1e08aabc3abf829480e37b",
}

# SHA-256 of stdout for verify with the criterion-13 fault injected (exit 1):
# the failure report, every rendered commutator expansion included, is pinned;
# 5,5 pins the generic path and its Cartan search over the corrupted graph.
FAULT_STDOUT_SHA256 = {
    ("verify", "--signature", "4,2"):
        "c56453a40016f7f293078d15669ea55bb7c39ba4ec6d5ca7e049457f7dd739e0",
    ("verify", "--signature", "4,2", "--format", "json"):
        "26c358e789e5b8f878909e9d6eca7665dc3db95eb44bb763a5b653a4a7cb6210",
    ("verify", "--signature", "4,4"):
        "8518ceae74d8d3910e6c96e5090d943f5013c30d536fe0fbc2aa0dad76bba99b",
    ("verify", "--signature", "4,4", "--format", "json"):
        "5089cf0750ad760dd17682f6a256fce373c208601b9337a1829a72802f9b5414",
    ("verify", "--signature", "5,5"):
        "867245c3b4e1bc4c491e8d10fe7f89ee0ebfeafd9aac650c1f2d2687fad150e4",
    ("verify", "--signature", "5,5", "--format", "json"):
        "18e1b40345e1951bfe090c5e20e4d1e7a1da0f9fadcff8d6040cb264c18a3573",
}


def test_criterion_14_golden_stdout(capsys):
    with criterion(14, "CLI stdout matches the pinned SHA-256 digests"):
        assert set(CLI_MATRIX) <= set(GOLDEN_STDOUT_SHA256)
        for argv, digest in GOLDEN_STDOUT_SHA256.items():
            assert main(list(argv)) == 0, argv
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_criterion_14_fault_injected_stdout(capsys, monkeypatch):
    with criterion(14, "fault-injected verify stdout matches the pinned SHA-256 digests"):
        _inject_fault(monkeypatch)
        for argv, digest in FAULT_STDOUT_SHA256.items():
            assert main(list(argv)) == 1, argv
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_generic_verify_builds_no_adapted_basis(capsys, monkeypatch):
    def no_basis(gs):
        raise AssertionError(f"adapted basis built for {gs.metric}")

    monkeypatch.setattr(lietower.cartan, "adapted_basis", no_basis)
    argv = ("verify", "--signature", "5,5")
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[argv]
    # the published batteries do read it, so the patch is live
    with pytest.raises(AssertionError, match="adapted basis built for"):
        main(["verify", "--signature", "4,4"])


@pytest.mark.parametrize(
    "argv",
    [("elements", "--z", "118"), ("roots", "--signature", "4,2", "--format", "svg")],
    ids=lambda a: " ".join(a),
)
def test_criterion_14_stdout_is_utf8_on_a_latin1_stream(monkeypatch, argv):
    with criterion(14, "stdout bytes are the pinned UTF-8 whatever the locale"):
        # the ket bracket and the L3 subscripts have no latin-1 encoding
        stream = io.TextIOWrapper(io.BytesIO(), encoding="latin-1")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            code = main(list(argv))
            stream.flush()
        assert code == 0
        got = stream.buffer.getvalue()
        assert hashlib.sha256(got).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def test_criterion_14_module_entry_point(tmp_path):
    with criterion(14, "python -m lietower matches the pinned SHA-256 digest"):
        argv = ("elements", "--z", "118")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "lietower", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def test_criterion_15_verify_88_under_5s(capsys):
    with criterion(15, "verify --signature 8,8 passes in < 5 s with rank 8"):
        start = time.monotonic()
        code = main(["verify", "--signature", "8,8"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "  cartan: rank 8: L12, L34, L56, L78, L910, L1112, L1314, L1516 [ok]\n" in out
        assert elapsed < 5.0, f"verify took {elapsed:.2f}s"
