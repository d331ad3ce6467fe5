"""Exact-arithmetic toolkit for the rotation algebras so(p,q), their
Cartan-Weyl structure, and the weight-tower model of the periodic system.

Everything is computed over the Gaussian rationals, so every identity
checked by the verification suites is decided exactly, with no tolerance.
"""

from .exact import (
    ExactMatrix,
    GaussianRational,
    commutator,
    rank,
)
from .sopq import GeneratorSet, Metric, build_generators, verify_commutation
from .cartan import (
    RootVector,
    adapted_basis,
    casimir,
    extract_root,
    find_cartan,
    ladder_operators,
    root_system,
    subalgebra_basis,
    weyl_generators,
    yao_basis,
)
from .labels import (
    CARTAN_QUANTUM_NUMBERS,
    MadelungKet,
    WeightKet,
    apply_ladder,
    mass_sl2c,
    mass_so42,
    multiplet_states,
)
from .periodic import (
    Element,
    TowerSlice,
    antimatter_mirror,
    assign_elements,
    haenzel_stats,
    madelung_sequence,
    period_lengths,
    projection_slice,
)

__version__ = "0.1.0"

__all__ = [
    "CARTAN_QUANTUM_NUMBERS",
    "Element",
    "ExactMatrix",
    "GaussianRational",
    "GeneratorSet",
    "MadelungKet",
    "Metric",
    "RootVector",
    "TowerSlice",
    "WeightKet",
    "adapted_basis",
    "antimatter_mirror",
    "apply_ladder",
    "assign_elements",
    "build_generators",
    "casimir",
    "commutator",
    "extract_root",
    "find_cartan",
    "haenzel_stats",
    "ladder_operators",
    "madelung_sequence",
    "mass_sl2c",
    "mass_so42",
    "multiplet_states",
    "period_lengths",
    "projection_slice",
    "rank",
    "root_system",
    "subalgebra_basis",
    "verify_commutation",
    "weyl_generators",
    "yao_basis",
]
