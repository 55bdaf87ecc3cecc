"""Rank tests for stabilizability and exact null-controllability, plus
controllability indices and the minimal-time bounds they generate.

The universal quantifiers in the rank conditions ("for all lam", "for all
Re lam >= 0") reduce to finitely many checks: [D(lam) | B] can only lose rank
where det D(lam) = 0, and [mu I - A | B] only at eigenvalues of A.  The root
locations come from a windowed scan, so every verdict that depends on them
carries the window as a caveat.  Each rank cut is RANK_REL times a scale of
the test's inputs (`_linalg`), so no rank changes with the coordinates z -> Tz.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_REL, norm2, rank
from .charmatrix import UNIT_CIRCLE_TOL, delta_and_scale
from .stability import SystemAnalysis
from .sysmodel import NeutralSystem


@dataclass(frozen=True)
class RankTestResult:
    test_point: complex
    matrix_shape: tuple[int, int]
    min_singular_value: float
    rank: int
    passes: bool
    cut: float
    margins: list   # [sigma_rank / cut, sigma_(rank+1) / cut], None where absent

    def to_json_dict(self) -> dict:
        return {
            "test_point": {"re": self.test_point.real, "im": self.test_point.imag},
            "matrix_shape": list(self.matrix_shape),
            "min_singular_value": self.min_singular_value,
            "rank": self.rank,
            "passes": self.passes,
            "cut": self.cut,
            "margins": self.margins,
        }


def _rank_test(M: np.ndarray, point: complex, required: int, cut: float) -> RankTestResult:
    r = rank(M, cut)
    return RankTestResult(
        test_point=complex(point),
        matrix_shape=M.shape,
        min_singular_value=float(r.sigma[-1]) if r.sigma.size else 0.0,
        rank=r.rank,
        passes=r.rank >= required,
        cut=r.cut,
        margins=r.margins,
    )


def hautus_at(sys_: NeutralSystem, lam: complex) -> RankTestResult:
    """Rank of [D(lam) | B]; full rank n everywhere except possibly at roots.

    The cut is RANK_REL times the larger of ||B||_2 and the term scale of D
    at lam (`charmatrix.delta_and_scale`), which stays at the size of D's
    terms where they cancel.  lam is meant to be a numerically located root,
    and there the vanishing singular value only drops to the size of the
    localization error, far below that cut; off the roots the rank is full.
    """
    D, scale = delta_and_scale(sys_, lam)
    M = np.hstack([D, sys_.B.astype(complex)])
    return _rank_test(M, lam, sys_.n, RANK_REL * max(scale, norm2(sys_.B)))


def hautus_matrix_pair(A, B, mu: complex) -> RankTestResult:
    """Rank of [mu I - A | B], cut at RANK_REL max(1, ||A||_2, ||B||_2)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    M = np.hstack([mu * np.eye(n) - A, B]).astype(complex)
    return _rank_test(M, mu, n, RANK_REL * max(1.0, norm2(A), norm2(B)))


def _kalman(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """[B, AB, ..., A^{n-1}B] and its cut RANK_REL ||B||_2 max(1, ||A||_2)^(n-1)."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks), RANK_REL * norm2(B) * max(1.0, norm2(A)) ** (A.shape[0] - 1)


def _column_rank(M: np.ndarray) -> int:
    """Rank of a set of columns, cut at RANK_REL times their norm."""
    return rank(M, RANK_REL * norm2(M)).rank


def kalman_rank(A, B_cols) -> int:
    """Rank of [B, AB, ..., A^{n-1}B]; zero-width B gives 0."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B_cols, dtype=float)
    if B.ndim == 1:
        B = B.reshape(A.shape[0], 1)
    return rank(*_kalman(A, B)).rank


# ------------------------------------------------------------ stabilizability


@dataclass(frozen=True)
class StabilizabilityReport:
    condition_1: bool           # all |mu| <= 1
    condition_2: bool           # unit-circle eigenvalues simple
    condition_3: tuple[RankTestResult, ...]   # [D(lam) | B] at scanned RHP roots
    condition_3_passes: bool
    condition_4: tuple[RankTestResult, ...]   # [mu I - A | B] at unit eigenvalues
    condition_4_passes: bool
    verdict: str                # regularly_stabilizable_within_window |
                                # hypotheses_not_satisfied | sufficient_conditions_fail
    window_note: str
    structure: dict

    def to_json_dict(self) -> dict:
        return {
            "condition_1_all_eigenvalues_inside_closed_unit_disk": self.condition_1,
            "condition_2_unit_circle_eigenvalues_simple": self.condition_2,
            "condition_3_hautus_at_scanned_rhp_roots": [
                t.to_json_dict() for t in self.condition_3
            ],
            "condition_3_passes": self.condition_3_passes,
            "condition_4_hautus_pair_at_unit_eigenvalues": [
                t.to_json_dict() for t in self.condition_4
            ],
            "condition_4_passes": self.condition_4_passes,
            "verdict": self.verdict,
            "window_note": self.window_note,
            "matrix_structure": self.structure,
        }


def check_stabilizability(analysis: SystemAnalysis) -> StabilizabilityReport:
    """Regular-stabilizability test: two hypotheses on the difference matrix,
    then the two rank conditions, the first checked at every scanned root with
    Re >= 0 (rank can only drop there) and the second at unit-circle
    eigenvalues (elsewhere mu I - A is invertible)."""
    sys_ = analysis.sys_
    structure = sys_.structure
    cond1 = structure.spectral_radius <= 1.0 + UNIT_CIRCLE_TOL
    sigma1 = structure.sigma1
    cond2 = all(e.algebraic == 1 for e in sigma1)

    tests3 = tuple(hautus_at(sys_, r.lam) for r in analysis.rhp_roots)
    cond3 = all(t.passes for t in tests3)

    tests4 = tuple(hautus_matrix_pair(sys_.A_minus1, sys_.B, e.mu) for e in sigma1)
    cond4 = all(t.passes for t in tests4)

    if not (cond1 and cond2):
        verdict = "hypotheses_not_satisfied"
    elif cond3 and cond4:
        verdict = "regularly_stabilizable_within_window"
    else:
        verdict = "sufficient_conditions_fail"

    note = analysis.window_note(
        f"condition 3 checked at {len(tests3)} root(s) with Re >= 0 inside",
        "roots outside the window are not covered",
    )
    return StabilizabilityReport(
        condition_1=cond1,
        condition_2=cond2,
        condition_3=tests3,
        condition_3_passes=cond3,
        condition_4=tests4,
        condition_4_passes=cond4,
        verdict=verdict,
        window_note=note,
        structure=structure.to_json_dict(),
    )


# ------------------------------------------------------- null controllability


@dataclass(frozen=True)
class NullControllabilityResult:
    condition_i: tuple[RankTestResult, ...]
    condition_i_passes: bool
    condition_ii: RankTestResult
    verdict: str                      # yes | yes_within_window | no
    witness: RankTestResult | None
    window_note: str

    def to_json_dict(self) -> dict:
        return {
            "condition_i_hautus_at_scanned_roots": [t.to_json_dict() for t in self.condition_i],
            "condition_i_passes": self.condition_i_passes,
            "condition_ii_kalman": self.condition_ii.to_json_dict(),
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "window_note": self.window_note,
        }


def check_null_controllability(analysis: SystemAnalysis) -> NullControllabilityResult:
    """Null-controllability for some horizon: Kalman condition on (A, B) exact,
    Hautus condition checked at every scanned root.  An invertible B settles
    the Hautus condition globally, hence verdict 'yes' without a window caveat."""
    sys_ = analysis.sys_
    if sys_.r < 1:
        raise ValueError("null-controllability test needs at least one input")

    n = sys_.n
    kalman, cut = _kalman(sys_.A_minus1, sys_.B)
    cond_ii = _rank_test(kalman, 0.0, n, cut)

    if _column_rank(sys_.B) == n:
        note = "input matrix has full row rank; Hautus condition holds at every point"
        verdict = "yes" if cond_ii.passes else "no"
        return NullControllabilityResult(
            condition_i=(),
            condition_i_passes=True,
            condition_ii=cond_ii,
            verdict=verdict,
            witness=None if cond_ii.passes else cond_ii,
            window_note=note,
        )

    tests = tuple(hautus_at(sys_, r.lam) for r in analysis.roots)
    cond_i = all(t.passes for t in tests)
    witness = next((t for t in tests if not t.passes), None)
    if witness is None and not cond_ii.passes:
        witness = cond_ii

    if not cond_i or not cond_ii.passes:
        verdict = "no"
    else:
        verdict = "yes_within_window"
    note = analysis.window_note(
        f"Hautus condition checked at {len(tests)} scanned root(s) in",
        "rank can only drop at roots of det D",
    )
    return NullControllabilityResult(
        condition_i=tests,
        condition_i_passes=cond_i,
        condition_ii=cond_ii,
        verdict=verdict,
        witness=witness,
        window_note=note,
    )


# --------------------------------------------------- indices and time bounds


def _column_basis(B: np.ndarray) -> np.ndarray:
    """First maximal independent subset of columns, in order."""
    cols: list[int] = []
    for j in range(B.shape[1]):
        if _column_rank(B[:, cols + [j]]) == len(cols) + 1:
            cols.append(j)
    return B[:, cols]


def controllability_indices(sys_: NeutralSystem, basis) -> tuple[list[int], list[int]]:
    """Nested Kalman ranks n_i and their drops m_i for an ordered basis of Im B.

    n_0 is the Kalman rank of the full input matrix; n_i removes the first i
    basis vectors; n_d = 0 by convention.  m_i = n_{i-1} - n_i telescopes to
    n_0.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis.reshape(sys_.n, 1)
    d = basis.shape[1]
    if _column_rank(basis) != d:
        raise ValueError("basis vectors must be linearly independent")
    if _column_rank(sys_.B) != d:
        raise ValueError("basis must span the image of B")
    if _column_rank(np.hstack([sys_.B, basis])) != d:
        raise ValueError("basis vectors must lie in the image of B")

    A = sys_.A_minus1
    n_chain = [kalman_rank(A, sys_.B)]
    for i in range(1, d):
        n_chain.append(kalman_rank(A, basis[:, i:]))
    n_chain.append(0)
    m = [n_chain[i - 1] - n_chain[i] for i in range(1, d + 1)]
    return n_chain, m


@dataclass(frozen=True)
class BasisIndices:
    order: tuple[int, ...]
    n_chain: tuple[int, ...]
    m: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"order": list(self.order), "n_chain": list(self.n_chain), "m": list(self.m)}


# The bases the index search walks: every ordering of one column basis of Im B.
BASIS_POLICY = "permutations"
# More orderings than this (a basis of 8 or more columns) are not walked: the
# time bounds are refused, and the verdict still stands.
MAX_BASIS_ORDERINGS = 5040


@dataclass(frozen=True)
class TimeBounds:
    m_min: int | None
    m_max: int | None
    time_lower: float | None
    time_sufficient: float | None
    single_input_exact: bool
    refused: bool
    refusal_reason: str | None

    def to_json_dict(self) -> dict:
        return {
            "m_min": self.m_min,
            "m_max": self.m_max,
            "time_lower": self.time_lower,
            "time_sufficient": self.time_sufficient,
            "single_input_exact": self.single_input_exact,
            "policy": BASIS_POLICY,
            "refused": self.refused,
            "refusal_reason": self.refusal_reason,
        }


def _refused(reason: str) -> TimeBounds:
    return TimeBounds(m_min=None, m_max=None, time_lower=None, time_sufficient=None,
                      single_input_exact=False, refused=True, refusal_reason=reason)


def controllability_time_bounds(
    analysis: SystemAnalysis,
    verdict: NullControllabilityResult | None = None,
) -> tuple[TimeBounds, tuple[BasisIndices, ...]]:
    """Index bounds m_min = max over bases of m_1 and m_max = min over bases of
    max_i m_i, with times (m_min h, m_max h); the bases are the orderings of
    one column basis of Im B.  Refuses to bound the time when the system is
    not null-controllable, or when that basis has more than
    MAX_BASIS_ORDERINGS orderings.  For one input the time nh is sharp:
    controllable for T > nh and not controllable at T = nh."""
    sys_ = analysis.sys_
    if sys_.r < 1:
        raise ValueError("time bounds need at least one input")
    if verdict is None:
        verdict = check_null_controllability(analysis)
    if verdict.verdict == "no":
        return _refused("system is not null-controllable; witness recorded in the verdict"), ()
    base = _column_basis(sys_.B)
    orderings = math.factorial(base.shape[1])
    if orderings > MAX_BASIS_ORDERINGS:
        return _refused(f"the column basis of Im B has {orderings} orderings, more than "
                        f"the {MAX_BASIS_ORDERINGS} the index search walks"), ()
    records = []
    for order in itertools.permutations(range(base.shape[1])):
        n_chain, m = controllability_indices(sys_, base[:, list(order)])
        records.append(BasisIndices(order=order, n_chain=tuple(n_chain), m=tuple(m)))
    m_min = max(rec.m[0] for rec in records)
    m_max = min(max(rec.m) for rec in records)
    single = sys_.B.shape[1] == 1 or base.shape[1] == 1
    bounds = TimeBounds(
        m_min=m_min,
        m_max=m_max,
        time_lower=m_min * sys_.h,
        time_sufficient=m_max * sys_.h,
        single_input_exact=single,
        refused=False,
        refusal_reason=None,
    )
    return bounds, tuple(records)


@dataclass(frozen=True)
class ControllabilityReport:
    null_controllability: NullControllabilityResult
    indices: tuple[BasisIndices, ...]
    bounds: TimeBounds

    def to_json_dict(self) -> dict:
        doc = {
            "null_controllability": self.null_controllability.to_json_dict(),
            "indices": [rec.to_json_dict() for rec in self.indices],
            "bounds": self.bounds.to_json_dict(),
        }
        if self.bounds.single_input_exact and not self.bounds.refused:
            doc["sharpness"] = (
                "single input: null-controllable for T > n h and not null-controllable "
                "at T = n h"
            )
        return doc

    def summary(self) -> str:
        """Plain-text summary naming the condition behind each verdict."""
        nc = self.null_controllability
        lines = [
            f"null-controllability: {nc.verdict}",
            f"  Kalman rank condition on (A, B): "
            f"{'holds' if nc.condition_ii.passes else 'fails'} "
            f"(rank {nc.condition_ii.rank} of {nc.condition_ii.matrix_shape[0]})",
            f"  Hautus condition at characteristic roots: "
            f"{'holds on the scanned window' if nc.condition_i_passes else 'fails'}",
        ]
        if nc.witness is not None:
            w = nc.witness.test_point
            lines.append(
                f"  witness point {w.real:+.6g}{w.imag:+.6g}i with rank {nc.witness.rank}"
            )
        b = self.bounds
        if b.refused and nc.verdict == "no":
            lines.append("controllability time: no finite time (system not null-controllable)")
        elif b.refused:
            lines.append(f"controllability time: not bounded; {b.refusal_reason}")
        else:
            lines.append(
                f"controllability indices: m_min = {b.m_min}, m_max = {b.m_max} "
                f"(basis policy: {BASIS_POLICY})"
            )
            lines.append(
                f"controllability time: not below {b.time_lower:.6g}, "
                f"achieved beyond {b.time_sufficient:.6g}"
            )
            if b.single_input_exact:
                lines.append(
                    "  single-input sharpness: the bound n h is exact "
                    "(not null-controllable at T = n h)"
                )
        return "\n".join(lines)


def controllability_report(analysis: SystemAnalysis) -> ControllabilityReport:
    """Full controllability analysis: verdict, per-basis indices, time bounds."""
    verdict = check_null_controllability(analysis)
    bounds, records = controllability_time_bounds(analysis, verdict=verdict)
    return ControllabilityReport(
        null_controllability=verdict, indices=records, bounds=bounds
    )
