"""Wigner-rotation effects on three-qubit GHZ and W states.

Library for transforming the four canonical three-qubit states under
per-qubit Wigner rotations and quantifying the result: fidelities against
the untransformed states, pairwise channel capacities and their average,
Wootters concurrence, and the three-tangle. Includes deterministic grid
sweeps with CSV output (see ``wignerqi.cli`` or the ``wignerqi`` command);
slow reference routes and the closed-form amplitude tables that check the
fast paths are in ``wignerqi.oracle``.
"""

from .lorentz import (
    MomentumConfig,
    WignerAngles,
    momentum_traced_channel,
    product_transform,
)
from .measures import (
    CapacityBreakdown,
    CapacityClampWarning,
    TangleBreakdown,
    average_capacity,
    concurrence,
    fidelity_pure,
    fidelity_vs_target,
    pair_capacity,
    three_tangle,
    von_neumann_entropy,
)
from .qmath import NumericValidationError
from .states import (
    STATE_TAGS,
    DensityOperator,
    PureState,
    make_state,
    reduced,
    to_density,
)
from .sweep import (
    MEASURE_IDS,
    SweepGrid,
    run_figure,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityBreakdown",
    "CapacityClampWarning",
    "DensityOperator",
    "MEASURE_IDS",
    "MomentumConfig",
    "NumericValidationError",
    "PureState",
    "STATE_TAGS",
    "SweepGrid",
    "TangleBreakdown",
    "WignerAngles",
    "average_capacity",
    "concurrence",
    "fidelity_pure",
    "fidelity_vs_target",
    "make_state",
    "momentum_traced_channel",
    "pair_capacity",
    "product_transform",
    "reduced",
    "run_figure",
    "run_sweep",
    "three_tangle",
    "to_density",
    "von_neumann_entropy",
    "write_csv",
]
