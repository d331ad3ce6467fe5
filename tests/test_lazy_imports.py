"""Each command imports only the package modules it runs.

Every case starts a fresh ``python -I -S`` (no site hooks that preload
stdlib modules), imports ``lietower.cli``, runs one command and reads
``sys.modules``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import lietower

SRC = str(Path(lietower.__file__).resolve().parents[1])

CHILD = """\
import sys
sys.path.insert(0, {src!r})
import lietower.cli
argv = {argv!r}
code = lietower.cli.main(argv) if argv else 0
loaded = sorted(sys.modules)
assert callable(lietower.verify.build_generators)
try:
    lietower.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("lietower.no_such_name resolved")
sys.stderr.write(" ".join(loaded))
sys.exit(code)
"""


def fresh_modules(argv: list[str]) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``import lietower.cli``
    and, when ``argv`` is not empty, ``lietower.cli.main(argv)``."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", CHILD.format(src=SRC, argv=argv)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


@pytest.mark.parametrize(
    "argv, package",
    [
        ([], {"cli"}),
        (["mass", "1/2", "0"], {"cli", "labels"}),
        (["verify", "--signature", "4,2"], {"cli", "exact", "paper", "sopq", "cartan", "verify"}),
        (["tower", "--spin=+1/2", "--format", "svg"], {"cli", "labels", "periodic", "svgout"}),
        (["elements", "--z", "26", "--format", "json"], {"cli", "labels", "periodic"}),
        (
            ["roots", "--signature", "4,4", "--format", "json"],
            {"cli", "exact", "paper", "sopq", "cartan", "verify"},
        ),
        (
            ["verify", "--signature", "4,2", "--format", "json"],
            {"cli", "exact", "paper", "sopq", "cartan", "verify"},
        ),
    ],
)
def test_command_imports_only_its_modules(argv, package):
    loaded = fresh_modules(argv)
    assert {m for m in loaded if m.startswith("lietower.")} == {f"lietower.{m}" for m in package}
    # no record is a dataclass: importing dataclasses also loads inspect
    assert not {"typing", "importlib.resources", "dataclasses", "inspect"} & loaded
    # the command line is read without argparse, which loads gettext and
    # locale, and whose help formatter loads shutil; the package root
    # imports its submodules without importlib
    assert not {"argparse", "gettext", "locale", "shutil", "importlib"} & loaded


def test_paper_loads_only_exact():
    # the published values sit below every algorithm module
    child = f"import sys; sys.path.insert(0, {SRC!r}); import lietower.paper; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", child],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = {m for m in done.stdout.split() if m.startswith("lietower")}
    assert loaded == {"lietower", "lietower.exact", "lietower.paper"}
