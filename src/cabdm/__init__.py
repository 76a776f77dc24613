"""Complexity estimation for cellular automata.

Builds empirical output-frequency (CTM) tables from exhaustively
enumerated small Turing machines, scores strings and arrays with the
block decomposition method, and runs perturbation and collision
experiments against LZW-compression and Shannon-entropy baselines.
"""

from .baselines import (
    LzwResult,
    compressed_size,
    lzw_compress,
    lzw_decompress,
    serialize_cells,
    shannon_block_entropy,
    temporal_cell_entropy,
)
from .bdm import (
    DEFAULT_BLOCK_LEN_1D,
    DEFAULT_BLOCK_SIDE_2D,
    BdmValue,
    BlockPartition,
    bdm_1d,
    bdm_2d,
    flatten_binary,
    flatten_ternary,
    partition_1d,
)
from .ca import (
    EcaRule,
    Spacetime,
    evolve_eca,
    evolve_gol,
    flip_cell,
    random_config,
    random_grid,
)
from .collision import (
    MIXED_NEIGHBORHOODS,
    CollisionReport,
    InteractionRule,
    collision_experiment,
    collision_initial_state,
    collision_lattice,
    evolve_interacting,
    sample_interaction_rule,
)
from .ctm import (
    DEFAULT_CUTOFF,
    CorruptTableError,
    CoverageError,
    CtmTable,
    RunOutcome,
    TuringMachine,
    build_table,
    class_size,
    decode_machine,
    default_table,
    load_table,
    max_halting_steps,
    run_machine,
    save_table,
)
from .perturbation import (
    DeltaReport,
    GolReport,
    SweepResult,
    delta_measures,
    gol_perturbation,
    perturbation_sweep,
    perturbation_trace,
    spacetime_measures,
)
from .rng import Stream

__version__ = "0.1.0"

__all__ = [
    "BdmValue",
    "BlockPartition",
    "CollisionReport",
    "CorruptTableError",
    "CoverageError",
    "CtmTable",
    "DEFAULT_BLOCK_LEN_1D",
    "DEFAULT_BLOCK_SIDE_2D",
    "DEFAULT_CUTOFF",
    "DeltaReport",
    "EcaRule",
    "GolReport",
    "InteractionRule",
    "LzwResult",
    "MIXED_NEIGHBORHOODS",
    "RunOutcome",
    "Spacetime",
    "Stream",
    "SweepResult",
    "TuringMachine",
    "bdm_1d",
    "bdm_2d",
    "build_table",
    "class_size",
    "collision_experiment",
    "collision_initial_state",
    "collision_lattice",
    "compressed_size",
    "decode_machine",
    "default_table",
    "delta_measures",
    "evolve_eca",
    "evolve_gol",
    "evolve_interacting",
    "flatten_binary",
    "flatten_ternary",
    "flip_cell",
    "gol_perturbation",
    "load_table",
    "lzw_compress",
    "lzw_decompress",
    "max_halting_steps",
    "partition_1d",
    "perturbation_sweep",
    "perturbation_trace",
    "random_config",
    "random_grid",
    "run_machine",
    "sample_interaction_rule",
    "save_table",
    "serialize_cells",
    "shannon_block_entropy",
    "spacetime_measures",
    "temporal_cell_entropy",
]
