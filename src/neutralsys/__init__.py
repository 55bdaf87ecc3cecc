"""Analysis toolkit for linear neutral-type delay systems.

Computes the characteristic spectrum, exponential/asymptotic stability
verdicts, stabilizability and null-controllability rank tests,
controllability indices and time bounds, and validates verdicts with a
method-of-steps simulator and a discretized reachability probe.
"""

from .sysmodel import (
    DelayKernel,
    NeutralSystem,
    ValidationReport,
    load_system,
    save_system,
    serialize_system,
    system_from_document,
    validate_document,
)
from .charmatrix import (
    ChainGrid,
    EigenvectorCandidate,
    MatrixSpectralStructure,
    chain_grid,
    delta,
    delta_derivative,
    det_delta,
    eigenvector_candidates,
    kernel_basis,
)
from .rootfinder import (
    Circle,
    Rect,
    SpectrumReport,
    count_roots_in_contour,
    find_roots_in_region,
    rightmost_root_scan,
    verify_cluster_multiplicity,
)
from .stability import (
    StabilityVerdict,
    SystemAnalysis,
    classify_asymptotic,
    matrix_spectral_structure,
)
from .structural import (
    ControllabilityReport,
    RankTestResult,
    check_null_controllability,
    check_stabilizability,
    controllability_indices,
    controllability_report,
    controllability_time_bounds,
    hautus_at,
    hautus_matrix_pair,
    kalman_rank,
)
from .simulate import HistorySegment, Trajectory, norm_profile, simulate
from .reachability import SteeringProbe, build_steering_probe, rank_profile

__version__ = "0.1.0"
