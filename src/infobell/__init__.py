"""Information-distance Bell inequalities for entangled photon pairs.

Implements the entropic quadrilateral construction of Schumacher
(Phys. Rev. A 44, 7047 (1991)) end to end: two-photon polarization
statistics, Shannon information distances between measurement records,
the four-edge triangle-inequality violation, finite-count simulation
with error propagation, maximum-likelihood state tomography, CHSH
values, a mixed-state model fit, and a multipartite area/volume
generalization.
"""

from .states import (
    DensityMatrix,
    EntanglementReport,
    JointDistribution,
    MeasurementSetting,
    PureState,
    bell_state,
    concurrence,
    entanglement_report,
    fidelity,
    joint_probabilities,
    modified_werner,
    partial_trace,
    polarizer_projector,
    visibility,
)
from .infogeo import (
    REFERENCE_THETAS,
    MetricAxiomsReport,
    QuadrilateralGeometry,
    ReactivityResult,
    ViolationCurve,
    conditional_entropy,
    info_area,
    info_distance,
    info_volume,
    max_violation,
    metric_axioms_check,
    quadrilateral,
    reactivity,
    schumacher_settings,
    shannon_entropy,
    stream_rng,
    sweep,
    violation,
)
from .expsim import (
    CoincidenceRecord,
    ConfigError,
    EstimationError,
    NoiseConfig,
    SimulationConfig,
    add_accidentals,
    estimate_distribution,
    propagate_error,
    sample_counts,
    simulate_schumacher_run,
    simulate_sweep,
)
from .tomography import (
    MODE_LABELS,
    OPTIMAL_BELL_SETTINGS,
    TomoDataset,
    TomographyError,
    TomographyResult,
    chsh,
    correlation,
    expected_counts,
    linear_inversion,
    mle_reconstruct,
)
from .fitting import WernerFit, fit_werner, model_curve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "DensityMatrix",
    "EntanglementReport",
    "JointDistribution",
    "MeasurementSetting",
    "PureState",
    "bell_state",
    "concurrence",
    "entanglement_report",
    "fidelity",
    "joint_probabilities",
    "modified_werner",
    "partial_trace",
    "polarizer_projector",
    "visibility",
    # infogeo
    "REFERENCE_THETAS",
    "MetricAxiomsReport",
    "QuadrilateralGeometry",
    "ReactivityResult",
    "ViolationCurve",
    "conditional_entropy",
    "info_area",
    "info_distance",
    "info_volume",
    "max_violation",
    "metric_axioms_check",
    "quadrilateral",
    "reactivity",
    "schumacher_settings",
    "shannon_entropy",
    "stream_rng",
    "sweep",
    "violation",
    # expsim
    "CoincidenceRecord",
    "ConfigError",
    "EstimationError",
    "NoiseConfig",
    "SimulationConfig",
    "add_accidentals",
    "estimate_distribution",
    "propagate_error",
    "sample_counts",
    "simulate_schumacher_run",
    "simulate_sweep",
    # tomography
    "MODE_LABELS",
    "OPTIMAL_BELL_SETTINGS",
    "TomoDataset",
    "TomographyError",
    "TomographyResult",
    "chsh",
    "correlation",
    "expected_counts",
    "linear_inversion",
    "mle_reconstruct",
    # fitting
    "WernerFit",
    "fit_werner",
    "model_curve",
]
