"""Adapted variable-density subsampling for compressed sensing.

Compute sampling densities adapted to a distribution of sparse supports,
draw isolated or block-structured measurement masks, and reconstruct by
equality-constrained basis pursuit.
"""

from .density import (
    BlockPartition,
    Density,
    adapted_blocks,
    adapted_isolated,
    baseline_density,
    block_norm_terms,
)
from .errors import AvdsError
from .harness import (
    Diagnostics,
    ExperimentConfig,
    ExperimentReport,
    PhasePoint,
    diagnostics,
    phase_transition,
    psnr,
    run_experiment,
    scale_profile_weights,
    smallest_m_reaching,
    synth_corpus,
)
from .masks import DISTINCT, IID, Mask, draw_mask, expand_blocks
from .recon import (
    BPResult,
    MeasurementOp,
    SolverParams,
    adjoint_measure,
    check_fuchs,
    measure,
    solve_bp,
)
from .support_model import (
    SupportDistribution,
    WeightVector,
    draw_signals,
    estimate_weights,
    flip,
    normalize_weights,
    sample_supports,
    sequential_path_log_prob,
    support_prob,
)
from .transforms import (
    Direction,
    Measurement,
    OperatorSpec,
    Sparsity,
    apply,
    rows_batch,
)

__version__ = "0.1.0"
