"""Dynamic distance-based pricing simulator for managed freeway lanes.

Models a corridor as two coupled trip-flow bathtubs (managed and
general-purpose lanes), prices the managed lanes with a feedback toll built
from integral controllers on the excess density and residual service rate,
and ships the analysis tools to check the closed loop's equilibrium and
stability predictions numerically.
"""

from .analysis import (
    A1ViolationError,
    EquilibriumPrediction,
    LinearizedSystem,
    MaxOutflowAnalysis,
    constant_equilibrium,
    loop_matrix,
    max_outflow_cases,
    triangular_growth,
)
from .bathtub import HotGridlockError, SaturationStats
from .controller import ControllerState
from .estimation import (
    EstimationError,
    estimate_cdf_point,
    estimate_logit_vot,
    pool_cdf_points,
)
from .lane_choice import ExponentialVot, LogitChoice, UniformVot
from .nfd import (
    FdParams,
    capacity,
    classify_phase,
    critical_density,
    flow,
    flow_slope,
    speed,
)
from .presets import PRESETS, load_config, preset
from .scenario import (
    ComparisonResult,
    ConfigError,
    DemandProfile,
    LaneMetrics,
    Metrics,
    ScenarioConfig,
    SimulationRecord,
    compare_hov_hot,
    iter_csv,
    iter_run,
    metrics,
    read_csv,
    run,
    write_csv,
)

__version__ = "0.1.0"
