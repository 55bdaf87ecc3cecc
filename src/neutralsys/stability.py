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
The difference-matrix structure is the system's cached
NeutralSystem.structure, and rightmost_root_scan alone picks the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# matrix_spectral_structure is not called here: the benchmark tracer
# (bench/spans.py) looks it up on this module by name to count the structures
# built, and a missing name fails the traced runs.
from .charmatrix import UNIT_CIRCLE_TOL, matrix_spectral_structure
from .rootfinder import LocatedRoot, Rect, SpectrumReport, rightmost_root_scan
from .sysmodel import NeutralSystem

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


def _in_closed_rhp(real: float) -> bool:
    """Re >= 0, the one closed-right-half-plane test of every verdict."""
    return real >= 0.0


def _stability_gap(abscissa: float | None) -> float:
    # Margin below the imaginary axis that scanned roots must clear for a
    # 'stable' call; beyond the window, roots live near the chain abscissa.
    if abscissa is None or abscissa >= 0.0:
        return 0.1
    return min(0.1, -0.5 * abscissa)


@dataclass(frozen=True)
class SystemAnalysis:
    """One system with the scan settings every verdict shares.

    The rightmost root scan is computed on first use and then kept, so the
    verdicts of one system see the same scan and a verdict that needs none
    computes none.  The further `windows` ride along in that one scan.  Its
    ordered roots, and those with Re >= 0, are likewise derived once.
    """

    sys_: NeutralSystem
    im_cap: float = 40.0
    windows: tuple[Rect, ...] = ()

    @cached_property
    def scans(self) -> list[SpectrumReport]:
        """The rightmost scan's report, then one per further window."""
        return rightmost_root_scan(self.sys_, self.im_cap, self.windows)

    @property
    def scan(self) -> SpectrumReport:
        return self.scans[0]

    @cached_property
    def roots(self) -> tuple[LocatedRoot, ...]:
        return self.scan.all_roots()

    @cached_property
    def rhp_roots(self) -> tuple[LocatedRoot, ...]:
        return tuple(r for r in self.roots if _in_closed_rhp(r.lam.real))

    def window_note(self, claim: str, caveat: str) -> str:
        """'<claim> [floor, ceiling] x [-cap, cap]; <caveat>', plus the number
        of unresolved scan cells when there are any."""
        report = self.scan
        note = (
            f"{claim} [{report.window.re_min:.6g}, {report.window.re_max:.6g}] x "
            f"[-{self.im_cap:.6g}, {self.im_cap:.6g}]; {caveat}"
        )
        if report.unresolved_cells:
            note += f"; {len(report.unresolved_cells)} unresolved scan cell(s)"
        return note

    def scan_evidence(self) -> dict:
        report = self.scan
        rightmost = max((r.lam.real for r in self.roots), default=None)
        return {
            "window": {
                "re_min": report.window.re_min,
                "re_max": report.window.re_max,
                "im_max": report.window.im_max,
            },
            "re_floor": report.window.re_min,
            "roots_found": len(self.roots),
            "total_multiplicity": report.total_count,
            "rightmost_root_re": rightmost,
            "unresolved_cells": len(report.unresolved_cells),
            "completeness_note": report.completeness_note,
        }


def _exponential_verdict(analysis: SystemAnalysis) -> tuple[str, dict]:
    grid = analysis.sys_.chains
    report = analysis.scan
    rho = analysis.sys_.structure.spectral_radius
    gap = _stability_gap(None if grid is None else max(grid.abscissas()))
    detail = {"spectral_radius": rho, "unit_tol": UNIT_CIRCLE_TOL, "gap": gap}
    if rho >= 1.0 - UNIT_CIRCLE_TOL:
        detail["reason"] = "difference matrix spectral radius at or above 1"
        return "not_stable", detail
    if analysis.rhp_roots:
        detail["reason"] = "characteristic root with Re >= 0 in the scan window"
        return "not_stable", detail
    if report.unresolved_cells:
        detail["reason"] = "scan left unresolved cells"
        return "undetermined_window", detail
    if all(r.lam.real < -gap for r in analysis.roots):
        detail["reason"] = "Schur difference matrix and scanned roots clear the gap"
        return "stable", detail
    detail["reason"] = "roots inside the stability gap; window evidence inconclusive"
    return "undetermined_window", detail


def classify_asymptotic(analysis: SystemAnalysis) -> StabilityVerdict:
    """Full verdict: exponential field plus the asymptotic trichotomy.

    The left-half-plane premise of the trichotomy is only checkable on the
    scanned window; the evidence records the window and the rightmost root
    seen, and the case_i/case_iii labels are conditional on it.
    """
    structure = analysis.sys_.structure
    report = analysis.scan
    exp_verdict, exp_detail = _exponential_verdict(analysis)

    sigma1 = structure.sigma1
    if analysis.rhp_roots:
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
        "scan": analysis.scan_evidence(),
        "matrix_structure": structure.to_json_dict(),
        "exponential_detail": exp_detail,
    }
    if any(_in_closed_rhp(u.cell.re_max) for u in report.unresolved_cells):
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
