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
    casimir,
    casimir_invariance,
    check_relation_table,
    emulation_check,
    extract_root,
    split_basis_so44,
    subalgebra_basis,
    yao_basis,
)
from lietower.cli import main
from lietower.exact import I, commutator, rank
from lietower.labels import mass_sl2c, mass_so42
from lietower.paper import (
    EMULATION_CHAINS_SO42,
    EMULATION_CHAINS_SO44,
    KNOWN_TABLE_DEVIATIONS,
    PRINTED_TABLES,
    PUBLISHED_ROOTS_RANK3,
    SUBALGEBRA_TABLES,
)
from lietower.periodic import (
    assign_elements,
    haenzel_stats,
    period_lengths,
    projection_slice,
)
from lietower.sopq import (
    Metric,
    build_generators,
    hydrogen_alias_check,
    hydrogen_aliases,
    verify_commutation,
)
from lietower.verify import (
    NOTES_RANK4,
    SuiteContext,
    run_verification,
)

from golden import FAULT_STDOUT_SHA256, GOLDEN_STDOUT_SHA256, tampered_build


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
        report = verify_commutation(gs42)
        elapsed = time.monotonic() - start
        assert report["pair_count"] == 105
        assert report["failures"] == []
        assert elapsed < 5.0, f"suite took {elapsed:.2f}s"


def test_criterion_02_commutation_suite_rank4(gs44):
    with criterion(2, "so(4,4) commutation suite, 378 pairs, < 30 s"):
        start = time.monotonic()
        report = verify_commutation(gs44)
        elapsed = time.monotonic() - start
        assert report["pair_count"] == 378
        assert report["failures"] == []
        assert elapsed < 30.0, f"suite took {elapsed:.2f}s"


def test_criterion_03_hydrogen_alias_table(gs42):
    with criterion(3, "hydrogen alias table holds; eps-convention mismatch reported"):
        report = hydrogen_alias_check(gs42)
        assert all(c["passed"] for c in report["checks"])
        assert len(report["checks"]) == 15
        # the mismatch with the +i*eps convention is reported, not hidden
        assert report["epsilon_convention"] == "-i eps_ijk"
        alias = hydrogen_aliases(gs42)
        assert commutator(alias["L1"], alias["L2"]) == alias["L3"] * (-I)
        assert commutator(alias["L1"], alias["L2"]) != alias["L3"] * I


def test_criterion_04_yao_redundancy(gs42):
    with criterion(4, "18-generator basis has rank 15; emulation chains hold"):
        yao = yao_basis(gs42)
        assert rank(list(yao.values())) == 15
        report = emulation_check(SuiteContext(gs42).ops, EMULATION_CHAINS_SO42)
        assert [all(link["passed"] for link in c["links"]) for c in report["chains"]] == [True] * 3


def test_criterion_05_split_redundancy_and_printed_tables(gs44):
    with criterion(5, "36-generator split basis has rank 28; printed ladder tables checked as printed"):
        first, second = split_basis_so44(gs44)
        assert rank(list({**first, **second}.values())) == 28
        ops = SuiteContext(gs44).ops
        emu = emulation_check(ops, EMULATION_CHAINS_SO44)
        assert [all(link["passed"] for link in c["links"]) for c in emu["chains"]] == [True] * 4
        for table in ("ladders-1", "ladders-2"):
            report = check_relation_table(ops, table, PRINTED_TABLES[table])
            # deviations from the printed form are listed verbatim and must
            # match the recorded baseline exactly
            got = tuple(d["relation"] for d in report["deviations"])
            assert got == KNOWN_TABLE_DEVIATIONS[table]
        assert KNOWN_TABLE_DEVIATIONS["ladders-2"] == ()
        assert len(KNOWN_TABLE_DEVIATIONS["ladders-1"]) == 11


def test_criterion_06_root_table_rank3(gs42):
    with criterion(6, "12 extracted roots equal the published rank-3 table"):
        ctx = SuiteContext(gs42)
        want = {
            name: tuple(Fraction(c) for c in comps)
            for name, comps in PUBLISHED_ROOTS_RANK3.items()
        }
        assert ctx.roots.roots == want
        for name, member in ctx.cartan.items():
            assert extract_root(ctx.cartan, name, member) == (0, 0, 0)


def test_criterion_07_root_table_rank4(gs44):
    with criterion(7, "24 roots extract over the rank-4 set; axis question flagged"):
        roots = SuiteContext(gs44).roots.roots
        assert len(roots) == 24
        for name, comps in PUBLISHED_ROOTS_RANK3.items():
            assert roots["1" + name][:3] == tuple(Fraction(c) for c in comps)
            assert roots["1" + name][3] == 0
        # the unresolved second-half axis labelling is flagged in the report
        report = run_verification(build_generators(Metric(4, 4)))
        assert any("do not name its axes" in n or "do not name" in n for n in report["notes"])
        assert report["notes"] == NOTES_RANK4


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
            report = check_relation_table(basket, which, SUBALGEBRA_TABLES[which])
            assert not report["deviations"], (which, report["deviations"])
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


def _inject_fault(monkeypatch):
    monkeypatch.setattr(lietower.verify, "build_generators", tampered_build)


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
