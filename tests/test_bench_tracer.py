"""The benchmark's tracer still finds every lietower name that it wraps.

``perfbench/tracer.py`` patches functions by name, so a refactor that
renames or deletes one (``yao_basis``, ``weyl_generators``, ...) breaks the
traced benchmark run; this catches it within the Tier-1 suite.
"""

import importlib.util
from pathlib import Path

import lietower.cartan

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = lietower.cartan.weyl_generators
    tracer = module.Tracer()
    try:
        tracer.install()
        assert lietower.cartan.weyl_generators is not original
    finally:
        tracer.uninstall()
    assert lietower.cartan.weyl_generators is original
