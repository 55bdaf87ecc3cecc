"""Stability verdicts: exponential stability and the asymptotic trichotomy.

Exponential stability of the neutral system is equivalent to the pair of
conditions: all characteristic roots in the open left half-plane, and the
difference matrix strictly Schur (spectral radius < 1).  When the difference
matrix has unit-circle eigenvalues the system can still be asymptotically
(non-exponentially) stable, and the verdict depends on the fine eigenvalue
structure on the unit circle:

  case i    all unit-circle eigenvalues simple        -> asymptotically stable
  case ii   a Jordan block on the unit circle         -> unstable
  case iii  diagonalizable with a repeated eigenvalue -> undecidable from the
            spectrum alone (two systems with identical spectra can differ);
            simulation is offered as evidence, never proof.

Both verdicts rest on a finite root scan, so every 'stable' answer is
explicitly a statement about the scanned window; the evidence records it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import cluster_eigenvalues, default_cluster_tol, rank_tolerance
from .rootfinder import RootFindOptions, SpectrumReport, rightmost_root_scan
from .sysmodel import NeutralSystem

UNIT_CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEntry:
    mu: complex
    algebraic: int
    geometric: int
    rootspace_dim: int
    on_unit_circle: bool

    @property
    def has_jordan_block(self) -> bool:
        return self.geometric < self.algebraic


@dataclass(frozen=True)
class MatrixSpectralStructure:
    entries: tuple[SpectralEntry, ...]
    spectral_radius: float
    unit_tol: float
    cluster_tol: float
    raw_eigenvalues: tuple[complex, ...]

    @property
    def sigma1(self) -> tuple[SpectralEntry, ...]:
        return tuple(e for e in self.entries if e.on_unit_circle)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "mu": {"re": e.mu.real, "im": e.mu.imag},
                    "algebraic": e.algebraic,
                    "geometric": e.geometric,
                    "rootspace_dim": e.rootspace_dim,
                    "on_unit_circle": e.on_unit_circle,
                    "jordan_block": e.has_jordan_block,
                }
                for e in self.entries
            ],
            "spectral_radius": self.spectral_radius,
            "unit_tol": self.unit_tol,
            "cluster_tol": self.cluster_tol,
        }


def matrix_spectral_structure(
    A, tol: float | None = None, unit_tol: float = UNIT_CIRCLE_TOL
) -> MatrixSpectralStructure:
    """Eigenvalues of A with algebraic/geometric multiplicities and Jordan flags.

    Eigenvalues are clustered at the given absolute tolerance (defaults to
    1e-6 relative to the matrix scale) and the geometric multiplicity is the
    nullity of A - mu I at a rank cutoff no finer than the cluster tolerance,
    so borderline calls stay auditable via the recorded tolerances.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if tol is None:
        tol = default_cluster_tol(A)
    if not (tol > 0.0):
        raise ValueError("clustering tolerance must be positive")
    clusters, raw = cluster_eigenvalues(A, tol)
    entries = []
    for mu, alg in clusters:
        shifted = A - mu * np.eye(n)
        sigma = np.linalg.svd(shifted, compute_uv=False)
        cut = max(rank_tolerance(sigma, shifted.shape), tol)
        rank = int(np.count_nonzero(sigma > cut))
        geo = min(max(n - rank, 1), alg)
        entries.append(
            SpectralEntry(
                mu=mu,
                algebraic=alg,
                geometric=geo,
                rootspace_dim=alg,
                on_unit_circle=abs(abs(mu) - 1.0) <= unit_tol,
            )
        )
    return MatrixSpectralStructure(
        entries=tuple(entries),
        spectral_radius=float(np.max(np.abs(raw))) if len(raw) else 0.0,
        unit_tol=unit_tol,
        cluster_tol=tol,
        raw_eigenvalues=tuple(complex(v) for v in raw),
    )


@dataclass(frozen=True)
class ScanOptions:
    im_cap: float = 40.0
    re_floor: float | None = None   # default: max(-1, top chain abscissa - margin)
    margin: float = 0.5
    root_options: RootFindOptions = field(default_factory=RootFindOptions)


_CASE_EXPLANATIONS = {
    "exp_regime": "no unit-circle eigenvalues in the difference matrix; "
                  "stability is governed by the exponential verdict",
    "case_i_stable": "unit-circle eigenvalues are all simple: asymptotically "
                     "stable (non-exponentially), conditional on the scanned window",
    "case_ii_unstable": "a Jordan block sits on the unit circle: unstable",
    "case_iii_indeterminate": "repeated but diagonalizable unit-circle eigenvalue: "
                              "the spectrum cannot decide stability",
    "spectrum_in_RHP_unstable": "a characteristic root with Re >= 0 was located: unstable",
}


@dataclass(frozen=True)
class StabilityVerdict:
    exponential: str        # stable | not_stable | undetermined_window
    asymptotic_case: str    # exp_regime | case_i_stable | case_ii_unstable |
                            # case_iii_indeterminate | spectrum_in_RHP_unstable
    evidence: dict

    def to_json_dict(self) -> dict:
        return {
            "exponential": self.exponential,
            "asymptotic_case": self.asymptotic_case,
            "explanation": _CASE_EXPLANATIONS[self.asymptotic_case],
            "evidence": self.evidence,
        }


def _chain_abscissa(structure: MatrixSpectralStructure, h: float) -> float | None:
    mods = [abs(e.mu) for e in structure.entries if abs(e.mu) > 1e-300]
    if not mods:
        return None
    return float(np.log(max(mods)) / h)


def _stability_gap(abscissa: float | None) -> float:
    # Margin below the imaginary axis that scanned roots must clear for a
    # 'stable' call; beyond the window, roots live near the chain abscissa.
    if abscissa is None or abscissa >= 0.0:
        return 0.1
    return min(0.1, -0.5 * abscissa)


def _run_scan(sys_: NeutralSystem, structure, scan: ScanOptions) -> tuple[SpectrumReport, float]:
    abscissa = _chain_abscissa(structure, sys_.h)
    if scan.re_floor is not None:
        floor = scan.re_floor
    elif abscissa is None:
        floor = -1.0
    else:
        floor = max(-1.0, abscissa - scan.margin)
    report = rightmost_root_scan(sys_, floor, scan.im_cap, scan.root_options)
    return report, floor


def _scan_evidence(report: SpectrumReport, floor: float) -> dict:
    roots = report.all_roots()
    rightmost = max((r.lam.real for r in roots), default=None)
    return {
        "window": {
            "re_min": report.window.re_min,
            "re_max": report.window.re_max,
            "im_max": report.window.im_max,
        },
        "re_floor": floor,
        "roots_found": len(roots),
        "total_multiplicity": report.total_count,
        "rightmost_root_re": rightmost,
        "unresolved_cells": len(report.unresolved_cells),
        "completeness_note": report.completeness_note,
    }


def _exponential_verdict(
    sys_: NeutralSystem,
    structure: MatrixSpectralStructure,
    report: SpectrumReport,
    unit_tol: float,
) -> tuple[str, dict]:
    rho = structure.spectral_radius
    roots = report.all_roots()
    has_rhp_root = any(r.lam.real >= 0.0 for r in roots)
    gap = _stability_gap(_chain_abscissa(structure, sys_.h))
    detail = {"spectral_radius": rho, "unit_tol": unit_tol, "gap": gap}
    if rho >= 1.0 - unit_tol:
        detail["reason"] = "difference matrix spectral radius at or above 1"
        return "not_stable", detail
    if has_rhp_root:
        detail["reason"] = "characteristic root with Re >= 0 in the scan window"
        return "not_stable", detail
    if report.unresolved_cells:
        detail["reason"] = "scan left unresolved cells"
        return "undetermined_window", detail
    if all(r.lam.real < -gap for r in roots):
        detail["reason"] = "Schur difference matrix and scanned roots clear the gap"
        return "stable", detail
    detail["reason"] = "roots inside the stability gap; window evidence inconclusive"
    return "undetermined_window", detail


def classify_asymptotic(
    sys_: NeutralSystem,
    scan: ScanOptions | None = None,
    unit_tol: float = UNIT_CIRCLE_TOL,
) -> StabilityVerdict:
    """Full verdict: exponential field plus the asymptotic trichotomy.

    The left-half-plane premise of the trichotomy is only checkable on the
    scanned window; the evidence records the window and the rightmost root
    seen, and the case_i/case_iii labels are conditional on it.
    """
    scan = scan or ScanOptions()
    structure = matrix_spectral_structure(sys_.A_minus1, unit_tol=unit_tol)
    report, floor = _run_scan(sys_, structure, scan)
    exp_verdict, exp_detail = _exponential_verdict(sys_, structure, report, unit_tol)

    roots = report.all_roots()
    sigma1 = structure.sigma1
    if any(r.lam.real >= 0.0 for r in roots):
        case = "spectrum_in_RHP_unstable"
    elif not sigma1:
        case = "exp_regime"
    elif all(e.algebraic == 1 for e in sigma1):
        case = "case_i_stable"
    elif any(e.has_jordan_block for e in sigma1):
        case = "case_ii_unstable"
    else:
        case = "case_iii_indeterminate"

    evidence = {
        "scan": _scan_evidence(report, floor),
        "matrix_structure": structure.to_json_dict(),
        "exponential_detail": exp_detail,
    }
    if any(u.cell.re_max >= 0.0 for u in report.unresolved_cells):
        evidence["caveat"] = (
            "unresolved scan cells touch the closed right half-plane; the label "
            "rests on the roots that were located"
        )
    if case == "case_iii_indeterminate":
        evidence["warning"] = (
            "spectrum-level data cannot decide this case: systems with identical "
            "spectra can be stable or unstable; use simulation as evidence only"
        )
    if case in ("case_i_stable", "case_iii_indeterminate"):
        evidence["premise"] = (
            "left-half-plane premise verified only on the scanned window"
        )
    return StabilityVerdict(exponential=exp_verdict, asymptotic_case=case, evidence=evidence)
