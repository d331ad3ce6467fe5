"""Mutation gate: every listed one-line mutant of ``src/`` must be killed.

Run from anywhere, with pytest installed:

    python tests/mutation_gate.py

Each mutant replaces one text, which must occur exactly once in its file,
by another.  For each one the gate copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory, applies
the mutant there and runs the Tier-1 tests except the Hypothesis
properties of ``tests/test_exact_properties.py``, stopping at the first
failure.  A mutant that passes every test survived.  The gate exits 1 if
the unmutated copy fails or any mutant survives, and 2 if a mutant's text
does not occur exactly once.  pytest does not collect this file.

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


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "src/lietower/verify.py",
        "all(abs(c) <= 1 for c in r)",
        "all(abs(c) <= 2 for c in r)",
        "rank-4 judge admits a root component 2",
    ),
    Mutant(
        "src/lietower/verify.py",
        'roots["1" + name][:3] == comps and not roots["1" + name][3]',
        'roots["1" + name][:3] == comps',
        "rank-4 judge ignores the fourth component of the first half",
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
        "tuple(d.relation for d in rep.deviations) == baseline",
        "{d.relation for d in rep.deviations} == set(baseline)",
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
        "if (i + j) % 2 == 0:",
        "if j % 2 == 0:",
        "epsilon recursion signs by the second position only",
    ),
    Mutant(
        "src/lietower/exact.py",
        "{k: _reduced(*t) for k, t in acc.items() if t[0] or t[1]}",
        "{k: _reduced(*t) for k, t in acc.items()}",
        "product sums keep their zero entries",
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
        "return not any(re or im for re, im, _ in _bracket_sums(a, b).values())",
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
        "(x, y) in gs.brackets\n",
        "True\n",
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
        "return lam if self == ExactMatrix.identity(self.dim) * lam else None",
        "return lam",
        "scaled_identity reads the (0, 0) entry only",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "g @ mat.transpose() @ g == -mat for _, mat in gs",
        "True for _, mat in gs",
        "pseudo_antisymmetry_holds always true",
    ),
    Mutant(
        "src/lietower/cartan.py",
        "_eval_signed_sum(expr, ops) == first)",
        "True)",
        "every emulation link passes",
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
        "src/lietower/sopq.py",
        "return bracket_multiple(left, right, result) == self.coeff",
        "return bracket_multiple(left, right, result) is not None",
        "a printed relation holds for any multiple of its result",
    ),
    Mutant(
        "src/lietower/sopq.py",
        "if got != want:",
        "if got != want and not want.is_zero():",
        "the commutation sweep ignores a pair that should commute but does not",
    ),
    Mutant(
        "src/lietower/verify.py",
        "table.roots == PUBLISHED_ROOTS_RANK3 and zero_ok,",
        "zero_ok,",
        "rank-3 judge passes a root table off the published one",
    ),
    Mutant(
        "src/lietower/verify.py",
        "extraction_ok = len(roots) == 24 and all(",
        "extraction_ok = all(",
        "rank-4 judge passes a table with a missing root",
    ),
)

EQUIVALENT = (
    Mutant(
        "src/lietower/cartan.py",
        "if (i + j) % 2 == 0:",
        "if (i + j) % 2:",
        "flips every sign of the epsilon recursion; each term takes one sign "
        "per level and the recursion over {1..6} is two levels deep",
    ),
    Mutant(
        "src/lietower/verify.py",
        'rep.ok and rep.epsilon_convention == "-i eps_ijk"',
        "rep.ok",
        "a commutator is antisymmetric by construction, so the three -i rows of "
        "HYDROGEN_LB_TABLE that rep.ok requires force the -i eps_ijk handedness, "
        "and a zero alias is refused by the alias SpanSolver",
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


def _tests_pass(mutant: Mutant | None) -> bool:
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST, "tests"],
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode == 0


def main() -> int:
    errors = _check_texts(MUTANTS + EQUIVALENT)
    if errors:
        print("\n".join(errors))
        return 2
    if not _tests_pass(None):
        print("the unmutated copy fails its tests")
        return 1
    survivors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        killed = not _tests_pass(m)
        survivors += not killed
        elapsed = time.perf_counter() - start
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict} {m.path}: {m.reason} ({elapsed:.1f} s)", flush=True)
    for m in EQUIVALENT:
        print(f"equivalent {m.path}: {m.new!r} for {m.old!r}: {m.reason}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
