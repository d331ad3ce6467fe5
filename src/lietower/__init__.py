"""Exact-arithmetic toolkit for the rotation algebras so(p,q), their
Cartan-Weyl structure, and the weight-tower model of the periodic system.

Everything is computed over the Gaussian rationals, so every identity
checked by the verification suites is decided exactly, with no tolerance.

The package root imports nothing up front (PEP 562): each exported name,
and each submodule, is imported on first access, so a command pays only
for the modules it runs.
"""

import sys

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "exact": ("ExactMatrix", "GaussianRational", "commutator", "rank"),
        "sopq": ("GeneratorSet", "Metric", "build_generators", "verify_commutation"),
        "cartan": (
            "RootVector", "adapted_basis", "casimir", "extract_root", "find_cartan",
            "ladder_operators", "root_system", "subalgebra_basis", "weyl_generators",
            "yao_basis",
        ),
        "labels": ("MadelungKet", "mass_sl2c", "mass_so42"),
        "periodic": (
            "Element", "TowerSlice", "antimatter_mirror", "assign_elements",
            "haenzel_stats", "madelung_sequence", "period_lengths", "projection_slice",
        ),
    }.items()
    for name in names
}
_SUBMODULES = (
    "cartan", "cli", "exact", "labels", "paper", "periodic", "sopq", "svgout", "verify"
)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_MODULE_OF.get(name, name)}"
    __import__(module)  # importlib.import_module would load importlib and warnings
    return getattr(sys.modules[module], name) if name in _MODULE_OF else sys.modules[module]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
