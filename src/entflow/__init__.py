"""Steady-state Gaussian dynamics of a squeezed bosonic mode driving a
cascaded chain: stability, one-way entanglement transport, and thermal
limits, all in the covariance-matrix picture."""

from .errors import (
    ComplexEigenvalueError,
    ConfigError,
    EigenFailureError,
    EntflowError,
    LengthMismatchError,
    NegativeRateError,
    NonpositiveOccupationError,
    ResidualTooLargeError,
    SingularSystemError,
    UnstableError,
    ZeroModesError,
)
from .network import (
    Direction,
    NetworkConfig,
    ValidatedNetwork,
    build_drift_stack,
    build_dynamical_matrix,
    build_noise_matrix,
    config_violations,
    validate_config,
)
from .lyapunov import (
    BlockPlan,
    SpectralDecomposition,
    StabilityReport,
    block_plan,
    evolve_covariance,
    solve_steady_state_spectral,
    solve_steady_state_vectorized,
    solve_steady_states,
    spectral_abscissa,
    spectral_decomposition,
    stability_report,
)
from .measures import (
    EntanglementRecord,
    PhysicalityReport,
    certify_physicality,
    check_physical,
    effective_temperature,
    log_negativity,
    mean_occupation,
    pair_log_negativities,
    ppt_symplectic_min,
    reduce_two_mode,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezed_covariance,
)
from .sweep import (
    ENTANGLEMENT_THRESHOLD,
    FIGURE_NAMES,
    PointResult,
    SweepColumns,
    SweepGrid,
    export_csv,
    figure_dataset,
    max_entangled_node,
    run_point,
    sweep_columns,
    sweep_grid,
)
from .config_io import (
    DEFAULT_CONFIG,
    MICROWAVE,
    PRESETS,
    PhysicalPreset,
    load_config_file,
)

__version__ = "0.1.0"
