"""Aggregated verification suites behind the ``verify`` CLI command.

Each suite is a named exact check with a one-line summary; a run passes
only if every suite passes, and that decides the process exit status.
A builder makes one suite from the shared objects of a verdict; every
signature gets the common suites, a published one also its ``BATTERIES`` row.
A verdict is the dict that ``verify --format json`` prints, keys in order:
``{"signature", "passed", "suites", "notes"}``, each suite
``{"name", "passed", "summary", "details"}``; ``details`` holds the report
dicts of the checks that suite read, and each builder decides ``passed``
from them.
``run_verification(gs)`` judges the generator set it is handed and builds
nothing: every suite but membership reads the matrix size from the set, and
membership fails on a set whose matrices are not (p+q)x(p+q).  The
``verify`` command hands it the defining set of ``build_generators``, read
from this module when the command runs.
Checks against published tables that carry known misprints pass exactly
when the freshly computed deviation list matches the recorded baseline,
so both a regression and a silently "fixed" table flip the run to red.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, partial
from itertools import combinations

from . import cartan as cw
from . import paper
from .exact import ExactMatrix, commutes, rank
from .sopq import (
    GeneratorSet,
    Metric,
    build_generators,  # cli.cmd_verify reads it here, at call time
    hydrogen_alias_check,
    pseudo_antisymmetry_holds,
    verify_commutation,
)

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


def _suite(name: str, passed: bool, summary: str, details: object = None) -> dict:
    """One suite; ``details`` is a report, a dict of reports, or data
    already in JSON form (the Cartan members, a formatted root table)."""
    return {
        "name": name,
        "passed": passed,
        "summary": summary,
        "details": {} if details is None else details,
    }


def render_text(report: dict, color: bool = False) -> str:
    """The text form of a verdict from ``run_verification``."""

    def mark(passed: bool) -> str:
        word = "ok" if passed else "FAIL"
        if not color:
            return word
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"

    p, q = report["signature"]
    lines = [f"signature ({p},{q})"]
    for s in report["suites"]:
        lines.append(f"  {s['name']}: {s['summary']} [{mark(s['passed'])}]")
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    lines.append(f"result: {mark(report['passed'])}")
    return "\n".join(lines) + "\n"


class SuiteContext:
    """The Cartan-Weyl chain of one generator set, each object built on
    first use: Cartan set -> adapted basis -> ladders -> roots.  The bracket
    table and the span solver live on the generator set itself.  ``verify``
    reads the chain through its suites and ``roots`` reads ``roots`` alone,
    so only what a command reads is built."""

    def __init__(self, gs: GeneratorSet):
        self.gs = gs

    @cached_property
    def cartan(self) -> dict[str, ExactMatrix]:
        return cw.find_cartan(self.gs)

    @cached_property
    def basis(self) -> dict[str, ExactMatrix]:
        return cw.adapted_basis(self.gs)

    @cached_property
    def ladders(self) -> dict[str, ExactMatrix]:
        return cw.ladder_operators(self.basis)

    @cached_property
    def ops(self) -> dict[str, ExactMatrix]:
        return dict(zip(self.gs.names, self.gs.matrices())) | self.basis | self.ladders

    @cached_property
    def roots(self) -> cw.RootTable:
        return cw.root_system(self.cartan, cw.weyl_generators(self.cartan, self.ladders))


def _commutators(ctx: SuiteContext) -> dict:
    rep = verify_commutation(ctx.gs)
    total, failed = rep["pair_count"], len(rep["failures"])
    return _suite("commutators", not failed, f"{total - failed}/{total}", rep)


def _membership(ctx: SuiteContext) -> dict:
    return _suite(
        "membership",
        pseudo_antisymmetry_holds(ctx.gs),
        f"g*L^T*g = -L for {len(ctx.gs)} generators",
    )


def _cartan(ctx: SuiteContext) -> dict:
    return _suite(
        "cartan",
        cw.cartan_is_maximal(ctx.gs, ctx.cartan),
        f"rank {len(ctx.cartan)}: {', '.join(ctx.cartan)}",
        {"members": list(ctx.cartan)},
    )


def _hydrogen_aliases(ctx: SuiteContext) -> dict:
    rep = hydrogen_alias_check(ctx.gs)
    checks, convention = rep["checks"], rep["epsilon_convention"]
    held = sum(c["passed"] for c in checks)
    return _suite(
        "hydrogen-aliases",
        held == len(checks) and convention == "-i eps_ijk",
        f"{held}/{len(checks)}, convention {convention}",
        rep,
    )


def _basis_rank(ctx: SuiteContext, name: str) -> dict:
    """The adapted basis spans the algebra: its rank is the generator count."""
    got, size = rank(list(ctx.basis.values())), len(ctx.basis)
    return _suite(
        name, got == len(ctx.gs), f"{got} ({size} generators, {size - got} dependencies)"
    )


def _emulation(ctx: SuiteContext, chains: list[tuple[str, list[str]]]) -> dict:
    emu = cw.emulation_check(ctx.ops, chains)
    held = sum(all(link["passed"] for link in c["links"]) for c in emu["chains"])
    return _suite("emulation", held == len(chains), f"{held}/{len(chains)}", emu)


def _subalgebra_tables(ctx: SuiteContext) -> dict:
    reports = {
        which: cw.check_relation_table(basket, which, paper.SUBALGEBRA_TABLES[which])
        for which, basket in cw.subalgebra_basis(ctx.gs, ctx.basis).items()
    }
    return _suite(
        "subalgebra-tables",
        not any(rep["deviations"] for rep in reports.values()),
        "; ".join(
            f"{which} {rep['relation_count'] - len(rep['deviations'])}/{rep['relation_count']}"
            for which, rep in reports.items()
        ),
        reports,
    )


def _printed_tables(ctx: SuiteContext, name: str, tables: tuple[str, ...]) -> dict:
    """The named ``PRINTED_TABLES`` checked as printed; each passes when its
    deviations are exactly its recorded misprints."""
    describe = ctx.gs.solver.describer(ctx.gs.names, "<outside algebra>")
    parts = []
    passed = True
    details = {}
    for table in tables:
        rep = cw.check_relation_table(
            ctx.ops, table, paper.PRINTED_TABLES[table], describe=describe
        )
        baseline = paper.KNOWN_TABLE_DEVIATIONS[table]
        deviations, total = rep["deviations"], rep["relation_count"]
        passed = passed and tuple(d["relation"] for d in deviations) == baseline
        parts.append(
            f"{table} {total - len(deviations)}/{total} as printed"
            + (f" ({len(baseline)} known misprints confirmed)" if baseline else "")
        )
        details[table] = rep
    return _suite(name, passed, "; ".join(parts), details)


def _judge_rank3(ctx: SuiteContext, table: cw.RootTable) -> tuple[bool, str]:
    matched = sum(table.roots[k] == want for k, want in paper.PUBLISHED_ROOTS_RANK3.items())
    # each member has the zero root iff no two members bracket; decided by
    # the per-pair kernel, not by the table that find_cartan searched
    members = ctx.cartan.values()
    zero_ok = all(commutes(x, y) for x, y in combinations(members, 2))
    return (
        table.roots == paper.PUBLISHED_ROOTS_RANK3 and zero_ok,
        f"{matched}/12 published rows, cartan zero-roots {'ok' if zero_ok else 'FAIL'}",
    )


# The 24 roots +/-e_i +/-e_j (i < j) of D4, sorted, in Cartan order.
_D4_ROOTS = sorted(
    tuple(s if k == i else t if k == j else 0 for k in range(4))
    for i, j in combinations(range(4), 2)
    for s in (1, -1)
    for t in (1, -1)
)


def _judge_rank4(ctx: SuiteContext, table: cw.RootTable) -> tuple[bool, str]:
    # the roots are the 24 distinct D4 roots, so each first-half root that
    # matches its two nonzero published components is zero on the fourth axis;
    # a missing first-half row matches nothing
    roots = table.roots
    extraction_ok = sorted(roots.values()) == _D4_ROOTS
    first_half_match = all(
        roots.get("1" + name, ())[:3] == comps
        for name, comps in paper.PUBLISHED_ROOTS_RANK3.items()
    )
    return (
        extraction_ok and first_half_match,
        f"{len(roots)}/24 extracted; first half matches the published "
        "rank-3 table on its first three axes",
    )


def _roots(
    ctx: SuiteContext,
    name: str,
    judge: Callable[[SuiteContext, cw.RootTable], tuple[bool, str]],
) -> dict:
    try:
        table = ctx.roots
    except cw.NotARootVectorError as exc:
        return _suite(name, False, str(exc))
    passed, summary = judge(ctx, table)
    return _suite(name, passed, summary, table.to_json_dict())


def _casimirs(ctx: SuiteContext) -> dict:
    invariant_count = 0
    parts = []
    for degree in (2, 3, 4):
        mat = cw.casimir(ctx.gs, degree)
        invariant_count += cw.casimir_invariance(ctx.gs, mat)
        scalar = mat.scaled_identity()
        parts.append(
            f"C{degree}={scalar}*1" if scalar is not None else f"C{degree} not scalar"
        )
    return _suite(
        "casimir",
        invariant_count == 3,
        f"{invariant_count}/3 invariant ({', '.join(parts)})",
    )


SuiteBuilder = Callable[[SuiteContext], dict]

# Published signature -> (its battery, run after the common suites; notes).
BATTERIES: dict[Metric, tuple[tuple[SuiteBuilder, ...], tuple[str, ...]]] = {
    Metric(4, 2): (
        (
            _hydrogen_aliases,
            partial(_basis_rank, name="yao-rank"),
            partial(_emulation, chains=paper.EMULATION_CHAINS_SO42),
            _subalgebra_tables,
            partial(_roots, name="root-table", judge=_judge_rank3),
            _casimirs,
        ),
        NOTES_RANK3,
    ),
    Metric(4, 4): (
        (
            partial(_basis_rank, name="split-rank"),
            partial(_emulation, chains=paper.EMULATION_CHAINS_SO44),
            partial(
                _printed_tables,
                name="component-tables",
                tables=("components-1", "components-2"),
            ),
            partial(
                _printed_tables,
                name="ladder-tables",
                tables=("ladders-1", "ladders-2"),
            ),
            partial(_roots, name="root-extraction", judge=_judge_rank4),
        ),
        NOTES_RANK4,
    ),
}


def run_verification(gs: GeneratorSet) -> dict:
    """The verdict on ``gs`` as handed: the suites every signature gets,
    then the battery of a published one; it passes when every suite does."""
    ctx = SuiteContext(gs)
    battery, notes = BATTERIES.get(gs.metric, ((), ()))
    suites = [build(ctx) for build in (_commutators, _membership, _cartan, *battery)]
    return {
        "signature": (gs.metric.p, gs.metric.q),
        "passed": all(s["passed"] for s in suites),
        "suites": suites,
        "notes": notes,
    }
