"""Joint uplink power control, MVDR detection and IRS passive beamforming
under per-user latency constraints, with a Monte-Carlo sweep harness."""

from .channel import (
    ChannelSet,
    GainParams,
    PathLossParams,
    path_loss_db,
    sample_channel_set,
    sample_direct_channel,
    sample_irs_links,
    sample_multi_antenna_channels,
    ula_steering,
    ura_steering,
)
from .system import (
    EffectiveCoeffs,
    LatencyProfile,
    SolverState,
    SystemConfig,
    dbm_to_watts,
    effective_channel,
    effective_coeffs,
    latency,
    protection_ratios,
    sinr,
    watts_to_dbm,
)
from .power_detect import (
    DegenerateDetectorError,
    InfeasibleError,
    build_interference,
    detectors,
    gram,
    mvdr_bank,
    solve_power_fixed_point,
    spectral_radius,
)
from .beamform_admm import (
    FractionalObjective,
    SingularDenominatorError,
    run_admm,
)
from .beamform_ccmo import (
    QuadraticForm,
    RetractionSingularityError,
    assemble_quadratic,
    largest_eigen_magnitude,
    optimize_phases,
    retract,
    riemannian_gradient,
    run_ccmo,
)
from .framework import (
    solve,
    solve_multi_antenna,
)
from .experiments import (
    ExperimentSpec,
    SpecError,
    emit_csv,
    read_csv,
    run_experiment,
    scenario_default,
)

__version__ = "0.1.0"
