"""Analysis toolkit for linear neutral-type delay systems.

Computes the characteristic spectrum, exponential/asymptotic stability
verdicts, stabilizability and null-controllability rank tests,
controllability indices and time bounds, and validates verdicts with a
method-of-steps simulator and a discretized reachability probe.
Each public name but `simulate` imports its submodule on first access (PEP 562).
"""

import importlib

# Bound at import, not on first access: whichever code first imports the
# submodule of the same name (the CLI's simulate command does) would bind
# the module here and hide the function.
from .simulate import simulate

# Public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "sysmodel": "DelayKernel NeutralSystem ValidationReport load_system save_system "
                "serialize_system system_from_document validate_document",
    "charmatrix": "ChainGrid EigenvectorCandidate MatrixSpectralStructure chain_grid delta "
                  "delta_derivative det_delta eigenvector_candidates kernel_basis "
                  "matrix_spectral_structure",
    "rootfinder": "Circle Rect SpectrumReport count_roots_in_contour find_roots_in_region "
                  "rightmost_root_scan verify_cluster_multiplicity",
    "stability": "StabilityVerdict SystemAnalysis classify_asymptotic",
    "structural": "ControllabilityReport RankTestResult check_null_controllability "
                  "check_stabilizability controllability_indices controllability_report "
                  "controllability_time_bounds hautus_at hautus_matrix_pair kalman_rank",
    "simulate": "HistorySegment Trajectory norm_profile simulate",
    "reachability": "SteeringProbe build_steering_probe rank_profile",
}.items() for name in names.split()}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__() -> list[str]:
    return __all__
