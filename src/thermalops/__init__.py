"""Single-qubit quantum heat engines driven by thermal operations.

Heat strokes range from Markovian thermalization to the extremal
(non-Markovian) thermal operation; the package computes steady-state work,
heat and efficiency for the Otto and three-stroke cycles, full counting
statistics of the generated work, gap-optimization scans, and a microscopic
Jaynes-Cummings verification of the extremal operation.  Units: hbar = k_B
= 1.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    CountingOverflowError,
    DegenerateCycleError,
    EnumerationSizeError,
    InvalidParameterError,
    NoInteriorMaximumWarning,
    NonPrimitiveMapError,
    NotAnEngineWarning,
    RegimeMismatchError,
    ThermalOpsError,
    TruncationError,
    ZeroHeatError,
    ZeroWorkError,
    ZeroVarianceError,
)
from .maps import (
    Cycle,
    GibbsStochasticMatrix,
    PopulationVector,
    ThermalOpParams,
    WorkStroke,
    apply_map,
    build_map,
    eto,
    eto_vs_thermalization_scan,
    full_thermalization_lambda,
    is_markovian,
    stationary_population,
    thermal_population,
)
from .otto import (
    MARKOV,
    NONMARKOV,
    OttoConfig,
    OttoCycleReport,
    analytic_populations,
    otto_cycle_report,
    otto_steady_state,
    otto_work,
)
from .three_stroke import (
    ThreeStrokeConfig,
    ThreeStrokeReport,
    three_stroke_report,
    three_stroke_steady_state,
)
from .fcs import (
    WorkDistribution,
    WorkStatistics,
    cumulant_gf,
    enumerate_work_distribution,
    intercycle_pcc,
    pcc_three_stroke_exact,
    scaled_cumulants,
    tilted_map_otto,
    tilted_map_three_stroke,
    work_moments,
)
from .optimize import (
    OptimumRecord,
    ScanSpec,
    fluctuation_curve,
    maximize_work,
    three_stroke_omega_for_eta,
    work_at,
    work_efficiency_curve,
)
from .microscopic import (
    FockTruncation,
    InducedMap,
    eto_approximation_report,
    eto_deviation,
    induced_population_map,
    jc_evolution_map,
    jc_unitary,
    swap_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
