"""Coined quantum walks on graphs via a 2D grid representation.

The package covers the full pipeline from an abstract walk to its physical
register-level realization: graph construction and coin-isolation masks,
grid-state evolution, synthesis of coin unitaries into staged disjoint
pairwise rotations, the five-step data/register conveyor protocol, and a
Chebyshev-expansion Schrödinger solver that calibrates the barrier-controlled
rotations the protocol is built from.
"""

from .conveyor import (
    ProtocolTrace,
    embed,
    extract,
    format_trace,
    run_stage,
    run_walk_physical,
)
from .decompose import (
    Stage,
    StageSequence,
    apply_stage,
    cs_decompose,
    pad_unitary,
    reconstruct,
    stage_pairs,
)
from .graph import (
    EdgeMask,
    Graph,
    complete_graph,
    cycle_graph,
    edge_mask,
    parse_graph,
    remove_edge,
)
from .tdse import (
    BarrierTimeline,
    ChebyshevParams,
    DoubleWellSpec,
    HoldScan,
    SpatialGrid,
    WaveFunction,
    bloch_trajectory,
    build_double_well,
    calibrate_hold_time,
    chebyshev_step,
    energy_bounds,
    evolve_timeline,
    qubit_projection,
    well_ground_states,
)
from .walk import (
    CoinGroup,
    CoinPlan,
    CoinSet,
    Distribution,
    WalkState,
    apply_coin_cols,
    apply_coin_rows,
    dft_coin,
    evolve,
    grover_coin,
    hadamard_coin,
    init_localized,
    mask_coin,
    position_distribution,
    reference_evolve,
)

__version__ = "0.1.0"
