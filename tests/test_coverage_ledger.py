"""Coverage ledger: a ``verify`` of a published signature decides every
published row that its battery names.

During one ``run_verification`` the ledger records each ``Relation`` that
``Relation.holds`` decides, each emulation link that ``emulation_check``
builds (read off the verdict, whose emulation report lists every link it
built), and each row of the published rank-3 root table that a root judge
compares with a computed root.  The rows the battery should reach are read
off its builders: the tables and chains bound into them, the hydrogen-alias
table, the subalgebra tables and the published root rows.  A row that no
suite decides fails the test.
"""

import pytest

import lietower.paper as paper
import lietower.verify as verify
from lietower.sopq import Metric, build_generators

SIGNATURES = [Metric(4, 2), Metric(4, 4)]


def battery_rows(metric):
    """(relations, emulation links, root-row names) that the battery of
    ``metric`` checks, in battery order."""
    relations, links, roots = [], [], []
    for build in verify.BATTERIES[metric][0]:
        func = getattr(build, "func", build)
        bound = getattr(build, "keywords", {})
        tables = [paper.PRINTED_TABLES[name] for name in bound.get("tables", ())]
        if func is verify._hydrogen_aliases:
            tables = [paper.HYDROGEN_LB_TABLE]
        elif func is verify._subalgebra_tables:
            tables = list(paper.SUBALGEBRA_TABLES.values())
        relations += [rel for table in tables for rel in table]
        links += [
            f"{exprs[0]} = {expr}" for _, exprs in bound.get("chains", ()) for expr in exprs[1:]
        ]
        if func is verify._roots:
            roots += list(paper.PUBLISHED_ROOTS_RANK3)
    return relations, links, roots


@pytest.fixture
def ledger(monkeypatch):
    """Run a verdict with every decision recorded; returns the report and
    the recorded relations, link identities and root-row names."""
    seen = {"relations": [], "links": [], "roots": []}
    holds = paper.Relation.holds

    def recording_holds(self, ops):
        seen["relations"].append(self)
        return holds(self, ops)

    class Row(tuple):
        """A published root row that records each comparison; as a tuple
        subclass it is asked first when compared with a plain tuple."""

        __hash__ = tuple.__hash__

        def __eq__(self, other):
            seen["roots"].append(self.name)
            return tuple.__eq__(self, other)

    rows = {}
    for name, comps in paper.PUBLISHED_ROOTS_RANK3.items():
        rows[name] = Row(comps)
        rows[name].name = name

    monkeypatch.setattr(paper.Relation, "holds", recording_holds)
    monkeypatch.setattr(paper, "PUBLISHED_ROOTS_RANK3", rows)

    def run(metric):
        report = verify.run_verification(build_generators(metric))
        seen["links"] += [
            link["identity"]
            for suite in report["suites"]
            if suite["name"] == "emulation"
            for chain in suite["details"]["chains"]
            for link in chain["links"]
        ]
        return report, seen

    return run


@pytest.mark.parametrize("metric", SIGNATURES, ids=str)
def test_every_published_row_is_decided(ledger, metric):
    report, seen = ledger(metric)
    assert report["passed"]
    relations, links, roots = battery_rows(metric)
    assert relations and links and roots
    decided = {id(rel) for rel in seen["relations"]}
    assert [rel.text for rel in relations if id(rel) not in decided] == []
    assert [text for text in links if text not in seen["links"]] == []
    assert [name for name in roots if name not in seen["roots"]] == []


def test_battery_rows_name_every_published_table():
    # the ledger reads its expectations off the batteries; together they
    # must reach every printed table, both chain lists and the root table
    relations42, links42, roots42 = battery_rows(Metric(4, 2))
    relations44, links44, roots44 = battery_rows(Metric(4, 4))
    tables = (
        paper.HYDROGEN_LB_TABLE,
        *paper.SUBALGEBRA_TABLES.values(),
        *paper.PRINTED_TABLES.values(),
    )
    assert [rel for table in tables for rel in table] == relations42 + relations44
    chains = paper.EMULATION_CHAINS_SO42 + paper.EMULATION_CHAINS_SO44
    assert len(links42 + links44) == sum(len(exprs) - 1 for _, exprs in chains)
    assert roots42 == roots44 == list(paper.PUBLISHED_ROOTS_RANK3)
