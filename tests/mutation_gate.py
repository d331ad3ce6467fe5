"""Mutation gate: every listed one-line mutant of ``src/`` must be killed.

Run from anywhere, with pytest installed:

    python tests/mutation_gate.py

Each mutant replaces one text, which must occur exactly once in its file,
by another.  For each one the gate copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory, applies
the mutant there and runs the Tier-1 tests except the Hypothesis
properties of ``tests/test_exact_properties.py``, stopping at the first
failure.  A mutant that passes every test survived.  Each run is stopped
after ``TIMEOUT_S`` seconds, and a mutant whose run is stopped counts as
killed (timeout), since its tests did not pass: a mutant can make a loop
run forever.  The gate exits 1 if the unmutated copy fails or times out
or any mutant survives, and 2 if a mutant's text does not occur exactly
once.  pytest does not collect this file.

``EQUIVALENT`` records mutants that no test can kill, with the reason;
they are checked against the source but not run.  Mutation analysis:
DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = ("-q", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_exact_properties.py")
# seconds one test run may take; the unmutated copy needs well under a minute
TIMEOUT_S = 300
VERDICTS = {"passed": "SURVIVED", "failed": "killed  ", "timeout": "killed (timeout)"}


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "src/lietower/verify.py",
        "extraction_ok = sorted(roots.values()) == _D4_ROOTS",
        "extraction_ok = set(roots.values()) <= set(_D4_ROOTS)",
        "rank-4 judge admits a repeated or a missing D4 root",
    ),
    Mutant(
        "src/lietower/verify.py",
        "for s in (1, -1)",
        "for s in (1,)",
        "rank-4 judge's D4 set drops the roots -e_i +/- e_j",
    ),
    Mutant(
        "src/lietower/verify.py",
        "zero_ok = all(commutes(x, y) for x, y in combinations(members, 2))",
        "zero_ok = True",
        "rank-3 judge never checks that the Cartan members commute",
    ),
    Mutant(
        "src/lietower/verify.py",
        "name, got == len(ctx.gs), f",
        "name, got <= len(ctx.gs), f",
        "basis-rank judge admits a rank below the generator count",
    ),
    Mutant(
        "src/lietower/verify.py",
        'tuple(d["relation"] for d in deviations) == baseline',
        '{d["relation"] for d in deviations} == set(baseline)',
        "printed-table judge compares deviation sets, not the printed order",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "if not lam.is_real:",
        "if False:",
        "extract_root accepts a complex root component",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "-1 if (i + j) % 2 == 0 else 1,",
        "-1 if j % 2 == 0 else 1,",
        "epsilon recursion signs by the second position only",
    ),
    Mutant(
        "src/lietower/exact.py",
        "{k: _canonical(*t) for k, t in acc.items() if t[0] or t[1]}",
        "{k: _canonical(*t) for k, t in acc.items()}",
        "product sums keep their zero entries",
    ),
    Mutant(
        "src/lietower/exact.py",
        "if r != k:\n                    continue",
        "if False:\n                    continue",
        "the product walk multiplies entries whose inner indices differ",
    ),
    Mutant(
        "src/lietower/exact.py",
        "a, b = sign * a, sign * b",
        "a, b = a, b",
        "the fused product sum drops each term's sign",
    ),
    Mutant(
        "src/lietower/exact.py",
        "return self.dim == other.dim and self._entries == other._entries",
        "return self.dim == other.dim and self._entries.keys() == other._entries.keys()",
        "matrix equality compares the stored keys only",
    ),
    Mutant(
        "src/lietower/exact.py",
        "for k, (x, y, t) in sums.items():",
        "for k, (x, y, t) in ():",
        "proportionality returns lambda without checking a single sum",
    ),
    Mutant(
        "src/lietower/exact.py",
        "if 0 < met < len(ref):",
        "if False:",
        "proportionality skips the check that a nonzero lambda meets every "
        "entry of the reference",
    ),
    Mutant(
        "src/lietower/exact.py",
        "if lhs != (",
        "if False and lhs != (",
        "proportionality skips the cross-multiplication",
    ),
    Mutant(
        "src/lietower/exact.py",
        "if w is None:  # a nonzero sum outside ref's support\n            return None",
        "if w is None:  # a nonzero sum outside ref's support\n            continue",
        "proportionality steps past a nonzero sum outside the reference's support",
    ),
    Mutant(
        "src/lietower/exact.py",
        "return not any(re or im for re, im, _ in _product_sums(a.dim, _bracket(a, b)).values())",
        "return True",
        "commutes always true",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "any((min(k, h), max(k, h)) in gs.brackets for h in members)",
        "True",
        "cartan_is_maximal always true",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "gs.overlaps.keys() <= gs.brackets.keys()",
        "True",
        "star_certificate always true",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "return all(commutes(cas, mat) for mat in gs.matrices())",
        "return True",
        "casimir_invariance always true",
    ),
    Mutant(
        "src/lietower/exact.py",
        "heappush(heap, k)",
        "pass",
        "elimination skips a key that a subtraction fills in",
    ),
    Mutant(
        "src/lietower/exact.py",
        "key = heappop(heap)",
        "key = heap.pop()",
        "elimination ignores pivot order: it pops the vector's keys in heap-array order",
    ),
    Mutant(
        "src/lietower/exact.py",
        "return _canonical(a * d, -b * d, norm)",
        "return _canonical(a * d, b * d, norm)",
        "the one scalar inverse drops the conjugate",
    ),
    Mutant(
        "src/lietower/exact.py",
        "return _scalar(lam) if self._entries == want else None",
        "return _scalar(lam)",
        "scaled_identity reads the (0, 0) entry only",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "mat.is_pseudo_antisymmetric(signs) for mat in gs.matrices()",
        "True for mat in gs.matrices()",
        "pseudo_antisymmetry_holds always true",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "sized = gs.zero.dim == len(signs)",
        "sized = True",
        "membership on a set of another size raises instead of failing",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "if len(sizes) > 1:",
        "if False:",
        "a generator set takes matrices of two sizes",
    ),
    Mutant(
        "src/lietower/exact.py",
        "if get((j, i)) != want:",
        "if get((j, i), want) != want:",
        "membership ignores a missing transpose partner",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "_eval_signed_sum(expr, ops) == first}",
        "True}",
        "every emulation link passes",
    ),
    Mutant(
        "src/lietower/verify.py",
        '"commutators", not failed,',
        '"commutators", True,',
        "the commutators suite passes whatever pairs fail",
    ),
    Mutant(
        "src/lietower/verify.py",
        'held == len(checks) and convention == "-i eps_ijk",',
        "True,",
        "the hydrogen-aliases suite passes whatever rows fail",
    ),
    Mutant(
        "src/lietower/verify.py",
        '"emulation", held == len(chains),',
        '"emulation", True,',
        "the emulation suite passes whatever chains break",
    ),
    Mutant(
        "src/lietower/verify.py",
        'not any(rep["deviations"] for rep in reports.values()),',
        "True,",
        "the subalgebra-tables suite passes whatever rows deviate",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "if next((c for c in reversed(up) if c), 0) < 0:",
        "if next((c for c in reversed(up) if c), 0) > 0:",
        "Weyl generators oriented the other way",
    ),
    Mutant(
        "src/lietower/sopq.py",
        'found.add("+i eps_ijk")',
        'found.add("-i eps_ijk")',
        "an alias family of +i eps_ijk handedness is reported as -i eps_ijk",
    ),
    Mutant(
        "src/lietower/paper.py",
        "return bracket_multiple(left, right, result) == self.coeff",
        "return bracket_multiple(left, right, result) is not None",
        "a printed relation holds for any multiple of its result",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "0 < a < b <= metric.dim for a, b in self._gens",
        "0 < a < b for a, b in self._gens",
        "a generator set takes a key outside its signature, which the sweep never compares",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "for s, t in brackets.keys() - overlaps.keys()",
        "for s, t in ()",
        "the commutation sweep ignores a pair that shares no index but does not commute",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "got = brackets.get((s, t), zero)",
        "got = brackets.get((s, t), sides.get(term))",
        "the commutation sweep skips every pair that brackets to zero, "
        "even one that shares an index",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "for pair in combinations(star, 2)",
        "for pair in combinations(star[1:], 2)",
        "the overlap table skips each star's first generator, so a correct set "
        "fails the sweep",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "stars[b].append(s)",
        "pass",
        "the overlap table misses the pairs that share a generator's second index",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "(sign, pair): mat * i for pair",
        "(sign, pair): mat * I for pair",
        "the commutation sweep builds every right-hand side as +i L_uv, whatever its sign",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "mismatches.sort(key=lambda m: m[:2])",
        "pass",
        "the commutation sweep reports its failures in overlap-table order, not pair order",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "sign = -g_x\n",
        "sign = -1\n",
        "the one-term bracket rule loses the metric sign",
    ),
    Mutant(
        "src/lietower/verify.py",
        "table.roots == paper.PUBLISHED_ROOTS_RANK3 and zero_ok,",
        "zero_ok,",
        "rank-3 judge passes a root table off the published one",
    ),
    Mutant(
        "src/lietower/paper.py",
        '("K1", [(HALF, (2, 3)), (HALF, (1, 4))]),',
        '("K1", [(HALF, (2, 3)), (MINUS_HALF, (1, 4))]),',
        "the published K1 of the (4,2) adapted basis takes the wrong sign on L14",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "linear_combination(gs.zero.dim,",
        "linear_combination(gs.metric.dim,",
        "materialize sizes the right-hand side by the signature, not the generators",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "product_sum(size, ((1, lower[ab], upper[ab])",
        "product_sum(gs.metric.dim, ((1, lower[ab], upper[ab])",
        "C2 is summed at the size of the signature, not of the generators",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "product_sum(size, ((1, lower[a, b], upper[b, c])",
        "product_sum(gs.metric.dim, ((1, lower[a, b], upper[b, c])",
        "each C4 chain is summed at the size of the signature, not of the generators",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "product_sum(size, ((1, chain[a, c], chain[c, a])",
        "product_sum(gs.metric.dim, ((1, chain[a, c], chain[c, a])",
        "C4 is summed at the size of the signature, not of the generators",
    ),
    Mutant(
        "src/lietower/cli.py",
        "from io import TextIOBase\n",
        "from io import TextIOBase\n\nfrom .verify import run_verification\n",
        "importing the CLI loads the whole algebra stack",
    ),
    Mutant(
        "src/lietower/cli.py",
        "from json.encoder import encode_basestring as quote",
        "from json.encoder import encode_basestring_ascii as quote",
        "the JSON writer escapes every non-ASCII character",
    ),
    Mutant(
        "src/lietower/cli.py",
        'if value is None and kind == "required":',
        "if False:",
        "the command line omits a required option or positional unchecked",
    ),
    Mutant(
        "src/lietower/cli.py",
        "if isinstance(kind, tuple) and value not in kind:",
        "if False:",
        "the command line takes a --format outside its choices",
    ),
    Mutant(
        "src/lietower/cli.py",
        "if group and sum(name in given for name in group) != 1:",
        "if False:",
        "elements takes neither or both of --z and --symbol",
    ),
    Mutant(
        "src/lietower/cli.py",
        'if value is None or value.startswith("--"):',
        'if value is None or value.startswith("-"):',
        "an option refuses a separate value that starts with one dash, such as --spin -1/2",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "mat if g(a) == g(b) else -mat",
        "mat if g(a) != g(b) else -mat",
        "the Casimir builds raise an index with the opposite sign",
    ),
    Mutant(
        "src/lietower/labels.py",
        "if two_s not in (-1, 1):",
        "if two_s not in (-1, 1, 3):",
        "the spin rule admits 3/2: projection_slice returns an empty tower",
    ),
    Mutant(
        "src/lietower/labels.py",
        "if two_l < 0 or two_ldot < 0:",
        "if two_l < 0:",
        "the mass formulas accept a negative l-dot",
    ),
)

EQUIVALENT = (
    Mutant(
        "src/lietower/cartan.py",
        "-1 if (i + j) % 2 == 0 else 1,",
        "-1 if (i + j) % 2 else 1,",
        "flips every sign of the epsilon recursion; each term takes one sign "
        "per level and the recursion over {1..6} is two levels deep",
    ),
    Mutant(
        "src/lietower/verify.py",
        'held == len(checks) and convention == "-i eps_ijk"',
        "held == len(checks)",
        "a commutator is antisymmetric by construction, so the three -i rows of "
        "HYDROGEN_LB_TABLE that every check must pass force the -i eps_ijk "
        "handedness, and a zero alias is refused by the alias SpanSolver",
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _check_texts(mutants: tuple[Mutant, ...]) -> list[str]:
    errors = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            errors.append(f"{m.path}: {m.old!r} occurs {count} times")
    return errors


def _run_tests(mutant: Mutant | None) -> str:
    """The outcome, "passed", "failed" or "timeout", of the tests on a copy
    with ``mutant`` applied, or on the unmutated copy for None."""
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", *PYTEST, "tests"],
                cwd=tree,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run kills the pytest process
            return "timeout"
        return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    errors = _check_texts(MUTANTS + EQUIVALENT)
    if errors:
        print("\n".join(errors))
        return 2
    outcome = _run_tests(None)
    if outcome != "passed":
        print(f"the unmutated copy {'fails' if outcome == 'failed' else 'times out in'} its tests")
        return 1
    survivors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        outcome = _run_tests(m)
        survivors += outcome == "passed"
        elapsed = time.perf_counter() - start
        print(f"{VERDICTS[outcome]} {m.path}: {m.reason} ({elapsed:.1f} s)", flush=True)
    for m in EQUIVALENT:
        print(f"equivalent {m.path}: {m.new!r} for {m.old!r}: {m.reason}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
