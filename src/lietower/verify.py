"""Aggregated verification suites behind the ``verify`` CLI command.

Each suite is a named exact check with a one-line summary; a run passes
only if every suite passes, and that decides the process exit status.
Checks against published tables that carry known misprints pass exactly
when the freshly computed deviation list matches the recorded baseline,
so both a regression and a silently "fixed" table flip the run to red.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from . import cartan as cw
from .exact import ExactMatrix, SpanSolver, rank
from .sopq import (
    BracketTable,
    GeneratorSet,
    Metric,
    bracket_table,
    build_generators,
    hydrogen_alias_check,
    pseudo_antisymmetry_holds,
    span_describer,
    verify_commutation,
)

# Published rank-3 root table (axes L3, A3, D3) that the oriented ladder
# set must reproduce exactly, zero rows of the Cartan members included.
PUBLISHED_ROOTS_RANK3: dict[str, tuple[int, int, int]] = {
    "K+": (1, 1, 0),
    "K-": (-1, -1, 0),
    "J+": (-1, 1, 0),
    "J-": (1, -1, 0),
    "T+": (1, 0, 1),
    "T-": (-1, 0, -1),
    "S+": (-1, 0, 1),
    "S-": (1, 0, -1),
    "P+": (0, 1, 1),
    "P-": (0, -1, -1),
    "Q+": (0, -1, 1),
    "Q-": (0, 1, -1),
}

NOTES_RANK3 = (
    "alias brackets close left-handed ([L1,L2] = -i*L3); the +i*eps_ijk "
    "variant printed alongside them does not hold in this realisation",
    "ladder '+' operators are oriented so the root's last nonzero component "
    "is positive; for the K family this selects K1 - i*K2",
)

NOTES_RANK4 = (
    "ladder '+' operators are oriented so the root's last nonzero component "
    "is positive; this selects 1K1 - i*1K2 and 2J1 - i*2J2",
    "second-half roots are published as brute-forced 4-component vectors "
    "over (L12, L34, L56, L78); the printed 3-component second-half rows do "
    "not name their axes and are left unmatched",
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    signature: tuple[int, int]
    suites: list[SuiteResult]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json_dict(self) -> dict:
        return {
            "signature": list(self.signature),
            "passed": self.ok,
            "suites": [s.to_json_dict() for s in self.suites],
            "notes": list(self.notes),
        }

    def render_text(self, color: bool = False) -> str:
        def mark(passed: bool) -> str:
            word = "ok" if passed else "FAIL"
            if not color:
                return word
            code = "32" if passed else "31"
            return f"\x1b[{code}m{word}\x1b[0m"

        lines = [f"signature ({self.signature[0]},{self.signature[1]})"]
        for s in self.suites:
            lines.append(f"  {s.name}: {s.summary} [{mark(s.passed)}]")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"result: {mark(self.ok)}")
        return "\n".join(lines) + "\n"


def _commutator_suites(
    gs: GeneratorSet,
    brackets: BracketTable,
    solver: SpanSolver,
    cartan: Mapping[str, ExactMatrix],
) -> list[SuiteResult]:
    rep = verify_commutation(gs, brackets, solver)
    done = rep.pair_count - len(rep.failures)
    return [
        SuiteResult(
            name="commutators",
            passed=rep.ok,
            summary=f"{done}/{rep.pair_count}",
            details=rep.to_json_dict(),
        ),
        SuiteResult(
            name="membership",
            passed=pseudo_antisymmetry_holds(gs),
            summary=f"g*L^T*g = -L for {len(gs)} generators",
        ),
        SuiteResult(
            name="cartan",
            passed=cw.cartan_is_maximal(gs, cartan, brackets),
            summary=f"rank {len(cartan)}: {', '.join(cartan)}",
            details={"members": list(cartan)},
        ),
    ]


def _suites_rank3(
    gs: GeneratorSet, brackets: BracketTable, cartan: Mapping[str, ExactMatrix]
) -> list[SuiteResult]:
    suites = []
    alias_rep = hydrogen_alias_check(gs, brackets)
    suites.append(
        SuiteResult(
            name="hydrogen-aliases",
            passed=alias_rep.ok and alias_rep.epsilon_convention == "-i eps_ijk",
            summary=(
                f"{sum(c.passed for c in alias_rep.checks)}/{len(alias_rep.checks)}"
                f", convention {alias_rep.epsilon_convention}"
            ),
            details=alias_rep.to_json_dict(),
        )
    )
    yao = cw.yao_basis(gs)
    yao_rank = rank(list(yao.values()))
    suites.append(
        SuiteResult(
            name="yao-rank",
            passed=yao_rank == 15,
            summary=f"{yao_rank} (18 generators, {18 - yao_rank} dependencies)",
        )
    )
    ops = cw.operator_map(gs, yao)
    emu = cw.emulation_check(ops, cw.EMULATION_CHAINS_SO42)
    suites.append(
        SuiteResult(
            name="emulation",
            passed=emu.ok,
            summary=f"{emu.passed_count}/{len(emu.checks)}",
            details=emu.to_json_dict(),
        )
    )
    sub_ok = True
    sub_counts = []
    sub_details = {}
    for which, basket in cw.subalgebra_basis(gs, yao).items():
        rep = cw.check_relation_table(basket, cw.SUBALGEBRA_TABLES[which])
        sub_ok = sub_ok and rep.ok
        sub_counts.append(f"{which} {len(rep.checks) - len(rep.deviations)}/{len(rep.checks)}")
        sub_details[which] = rep.to_json_dict()
    suites.append(
        SuiteResult(
            name="subalgebra-tables",
            passed=sub_ok,
            summary="; ".join(sub_counts),
            details=sub_details,
        )
    )
    try:
        ladders = cw.ladder_operators(yao)
        table = cw.root_system(cartan, cw.weyl_generators(cartan, ladders))
        got = {name: tuple(root.components) for name, root in table.rows}
        want = {
            name: tuple(Fraction(c) for c in comps)
            for name, comps in PUBLISHED_ROOTS_RANK3.items()
        }
        # each member has the zero root iff no two members bracket
        members = [pair for pair, name in zip(gs.pairs, gs.names) if name in cartan]
        zero_ok = not any(pair in brackets for pair in combinations(members, 2))
        suites.append(
            SuiteResult(
                name="root-table",
                passed=got == want and zero_ok,
                summary=f"{sum(got[k] == want[k] for k in want)}/12 published rows, "
                f"cartan zero-roots {'ok' if zero_ok else 'FAIL'}",
                details=table.to_json_dict(),
            )
        )
    except cw.NotARootVectorError as exc:
        suites.append(
            SuiteResult(name="root-table", passed=False, summary=str(exc))
        )
    invariant_count = 0
    cas_parts = []
    for degree in (2, 3, 4):
        mat = cw.casimir(gs, degree)
        invariant = cw.casimir_invariance(gs, mat)
        invariant_count += invariant
        scalar = mat.scaled_identity()
        cas_parts.append(
            f"C{degree}={scalar}*1" if scalar is not None else f"C{degree} not scalar"
        )
    suites.append(
        SuiteResult(
            name="casimir",
            passed=invariant_count == 3,
            summary=f"{invariant_count}/3 invariant ({', '.join(cas_parts)})",
        )
    )
    return suites


def _suites_rank4(
    gs: GeneratorSet, solver: SpanSolver, cartan: Mapping[str, ExactMatrix]
) -> list[SuiteResult]:
    suites = []
    first, second = cw.split_basis_so44(gs)
    split = {**first, **second}
    split_rank = rank(list(split.values()))
    suites.append(
        SuiteResult(
            name="split-rank",
            passed=split_rank == 28,
            summary=f"{split_rank} (36 generators, {36 - split_rank} dependencies)",
        )
    )
    ladders = cw.ladder_operators(split)
    ops = cw.operator_map(gs, split, ladders)
    emu = cw.emulation_check(ops, cw.EMULATION_CHAINS_SO44)
    suites.append(
        SuiteResult(
            name="emulation",
            passed=emu.ok,
            summary=f"{emu.passed_count}/{len(emu.checks)}",
            details=emu.to_json_dict(),
        )
    )
    describe = span_describer(gs.names, solver, "<outside algebra>")
    for label, tables in (
        ("component-tables", (cw.COMPONENT_TABLE_FIRST, cw.COMPONENT_TABLE_SECOND)),
        ("ladder-tables", (cw.LADDER_TABLE_FIRST, cw.LADDER_TABLE_SECOND)),
    ):
        parts = []
        passed = True
        details = {}
        for table in tables:
            rep = cw.check_relation_table(ops, table, describe=describe)
            baseline = cw.KNOWN_TABLE_DEVIATIONS[table.name]
            match = tuple(rep.deviations) == baseline
            passed = passed and match
            parts.append(
                f"{table.name} {len(rep.checks) - len(rep.deviations)}"
                f"/{len(rep.checks)} as printed"
                + (f" ({len(baseline)} known misprints confirmed)" if baseline else "")
            )
            details[table.name] = rep.to_json_dict()
        suites.append(
            SuiteResult(
                name=label, passed=passed, summary="; ".join(parts), details=details
            )
        )
    try:
        table = cw.root_system(cartan, cw.weyl_generators(cartan, ladders))
        roots = table.as_dict()
        extraction_ok = len(roots) == 24 and all(
            all(abs(c) <= 1 for c in r.components) for r in roots.values()
        )
        first_half_match = all(
            tuple(roots["1" + name].components[:3])
            == tuple(Fraction(c) for c in comps)
            and not roots["1" + name].components[3]
            for name, comps in PUBLISHED_ROOTS_RANK3.items()
        )
        suites.append(
            SuiteResult(
                name="root-extraction",
                passed=extraction_ok and first_half_match,
                summary=(
                    f"{len(roots)}/24 extracted; first half matches the published "
                    "rank-3 table on its first three axes"
                ),
                details=table.to_json_dict(),
            )
        )
    except cw.NotARootVectorError as exc:
        suites.append(
            SuiteResult(name="root-extraction", passed=False, summary=str(exc))
        )
    return suites


def run_verification(metric: Metric) -> VerificationReport:
    """All suites for one signature; (4,2) and (4,4) get their full batteries."""
    gs = build_generators(metric)
    brackets = bracket_table(gs)
    cartan = cw.find_cartan(gs, brackets)
    # one factorisation of the generator basis serves every expansion
    solver = SpanSolver(gs.matrices())
    suites = _commutator_suites(gs, brackets, solver, cartan)
    notes: tuple[str, ...] = ()
    if metric == Metric(4, 2):
        suites += _suites_rank3(gs, brackets, cartan)
        notes = NOTES_RANK3
    elif metric == Metric(4, 4):
        suites += _suites_rank4(gs, solver, cartan)
        notes = NOTES_RANK4
    return VerificationReport(
        signature=(metric.p, metric.q), suites=suites, notes=notes
    )
