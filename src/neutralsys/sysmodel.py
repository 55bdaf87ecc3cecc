"""Data model and file format for linear neutral-type delay systems.

A system is the tuple (n, r, h, A_minus1, A2, A3, B) describing

    d/dt [ z(t) - A_minus1 z(t - h) ] =
        integral_{-h}^{0} A2(theta) dz/dt(t + theta) dtheta
      + integral_{-h}^{0} A3(theta) z(t + theta) dtheta
      + sum_j A3_j z(t + theta_j)
      + B u(t)

Kernels are piecewise-constant matrix densities on [-h, 0] plus a finite list
of point (Dirac) terms, which is enough to encode the classical pointwise
examples while keeping every downstream integral in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SystemParseError, SystemValidationError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DelayKernel:
    """Matrix kernel on [-h, 0]: piecewise-constant density plus point terms.

    The density is defined by strictly increasing breakpoints
    -h = t_0 < t_1 < ... < t_q = 0 with one n x n matrix per segment.
    Point evaluation uses segments half-open on the right, [t_i, t_{i+1}),
    except the last segment which is closed at 0.  Atoms are (location,
    matrix) pairs with locations in [-h, 0]; they never take part in point
    evaluation of the density.
    """

    breakpoints: np.ndarray
    segments: np.ndarray
    atoms: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        seg = np.array(self.segments, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("breakpoints must be a 1-d array with at least 2 entries")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] != 0.0:
            raise ValueError("last breakpoint must be 0")
        if bp[0] >= 0.0:
            raise ValueError("first breakpoint must be -h < 0")
        if seg.ndim != 3 or seg.shape[0] != bp.size - 1 or seg.shape[1] != seg.shape[2]:
            raise ValueError("segments must have shape (len(breakpoints)-1, n, n)")
        n = seg.shape[1]
        h = -bp[0]
        atoms = []
        for loc, mat in self.atoms:
            loc = float(loc)
            mat = _freeze(mat)
            if not (-h <= loc <= 0.0):
                raise ValueError(f"atom location {loc} outside [-{h}, 0]")
            if mat.shape != (n, n):
                raise ValueError(f"atom matrix must be {n} x {n}, got {mat.shape}")
            atoms.append((loc, mat))
        object.__setattr__(self, "breakpoints", _freeze(bp))
        object.__setattr__(self, "segments", _freeze(seg))
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def n(self) -> int:
        return self.segments.shape[1]

    @property
    def h(self) -> float:
        return float(-self.breakpoints[0])

    @classmethod
    def zero(cls, n: int, h: float) -> "DelayKernel":
        return cls(np.array([-h, 0.0]), np.zeros((1, n, n)))

    @classmethod
    def from_atoms(cls, atoms, n: int, h: float) -> "DelayKernel":
        """Zero density plus the given (location, matrix) point terms."""
        return cls(np.array([-h, 0.0]), np.zeros((1, n, n)), tuple(atoms))

    def has_zero_density(self) -> bool:
        return not np.any(self.segments)

    def eval(self, theta) -> np.ndarray:
        """The density at theta, one n x n matrix per point of theta."""
        theta = np.asarray(theta, dtype=float)
        inside = (-self.h <= theta) & (theta <= 0.0)
        if not np.all(inside):
            raise ValueError(f"theta = {theta[~inside].flat[0]} outside [-{self.h}, 0]")
        idx = np.searchsorted(self.breakpoints, theta, side="right") - 1
        return self.segments[np.clip(idx, 0, self.segments.shape[0] - 1)]


@dataclass(frozen=True)
class NeutralSystem:
    """Immutable description of one neutral-type delay system."""

    n: int
    r: int
    h: float
    A_minus1: np.ndarray
    A2: DelayKernel
    A3: DelayKernel
    B: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension n must be positive")
        if self.r < 0:
            raise ValueError("input dimension r must be non-negative")
        if not (self.h > 0.0):
            raise ValueError("delay h must be positive")
        A = np.array(self.A_minus1, dtype=float)
        B = np.array(self.B, dtype=float).reshape(self.n, self.r)
        if A.shape != (self.n, self.n):
            raise ValueError(f"A_minus1 must be {self.n} x {self.n}, got {A.shape}")
        for name, ker in (("A2", self.A2), ("A3", self.A3)):
            if ker.n != self.n:
                raise ValueError(f"{name} kernel dimension {ker.n} != n = {self.n}")
            if abs(ker.h - self.h) > 1e-12 * max(1.0, self.h):
                raise ValueError(f"{name} kernel spans [-{ker.h}, 0], system h = {self.h}")
        if self.A2.atoms:
            raise ValueError("A2 must not carry point terms")
        object.__setattr__(self, "A_minus1", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @cached_property
    def terms(self):
        """Stacked terms of the characteristic matrix (charmatrix.TermTable),
        compiled on first use and kept with the system."""
        from .charmatrix import TermTable  # charmatrix imports this module

        return TermTable.of(self)

    @cached_property
    def structure(self):
        """Eigenvalue structure of A_minus1 (charmatrix.MatrixSpectralStructure),
        computed on first use and kept with the system; the chain grid and
        every verdict read this one object."""
        from . import charmatrix

        return charmatrix.matrix_spectral_structure(self.A_minus1)

    @cached_property
    def chains(self):
        """The root chains of det D (charmatrix.ChainGrid), or None when every
        eigenvalue of A_minus1 vanishes; built on first use and kept with the
        system, so every scan and cluster check of it shares one grid."""
        from .charmatrix import chain_grid

        return chain_grid(self)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[tuple[str, str], ...]

    @classmethod
    def from_issues(cls, issues) -> "ValidationReport":
        issues = tuple((str(sev), str(msg)) for sev, msg in issues)
        return cls(ok=not any(sev == "error" for sev, _ in issues), issues=issues)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_matrix(value, rows, cols, what, issues) -> bool:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        issues.append(("error", f"{what} is not a numeric matrix"))
        return False
    if arr.shape != (rows, cols):
        issues.append(("error", f"{what} must be {rows} x {cols}, got shape {arr.shape}"))
        return False
    if not np.all(np.isfinite(arr)):
        issues.append(("error", f"{what} contains non-finite entries"))
        return False
    return True


def _check_kernel(doc, name, n, h, issues, allow_atoms=True) -> None:
    if not isinstance(doc, dict):
        issues.append(("error", f"{name} must be an object with breakpoints/segments"))
        return
    bp = doc.get("breakpoints")
    seg = doc.get("segments")
    if bp is None or seg is None:
        issues.append(("error", f"{name} must define breakpoints and segments"))
        return
    try:
        bp = np.asarray(bp, dtype=float)
    except (TypeError, ValueError):
        issues.append(("error", f"{name}.breakpoints is not a numeric array"))
        return
    if bp.ndim != 1 or bp.size < 2:
        issues.append(("error", f"{name}.breakpoints needs at least two entries"))
        return
    if np.any(np.diff(bp) <= 0):
        issues.append(("error", f"{name}.breakpoints must be strictly increasing"))
    if abs(bp[0] + h) > 1e-12 * max(1.0, h):
        issues.append(("error", f"{name}.breakpoints must start at -h = {-h}"))
    if bp[-1] != 0.0:
        issues.append(("error", f"{name}.breakpoints must end at 0"))
    if not isinstance(seg, list) or len(seg) != bp.size - 1:
        issues.append(("error", f"{name}.segments must list one matrix per segment"))
    else:
        for i, mat in enumerate(seg):
            _check_matrix(mat, n, n, f"{name}.segments[{i}]", issues)
    atoms = doc.get("atoms", [])
    if atoms and not allow_atoms:
        issues.append(("error", f"{name} must not carry atoms"))
        return
    if not isinstance(atoms, list):
        issues.append(("error", f"{name}.atoms must be a list"))
        return
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict) or "theta" not in atom or "matrix" not in atom:
            issues.append(("error", f"{name}.atoms[{i}] must have theta and matrix"))
            continue
        theta = atom["theta"]
        if not _is_number(theta) or not (-h <= theta <= 0.0):
            issues.append(("error", f"{name}.atoms[{i}].theta must lie in [-h, 0]"))
        _check_matrix(atom["matrix"], n, n, f"{name}.atoms[{i}].matrix", issues)


def validate_document(doc) -> ValidationReport:
    """Check a parsed system document against the file schema."""
    issues: list[tuple[str, str]] = []
    if not isinstance(doc, dict):
        return ValidationReport.from_issues([("error", "top level must be a JSON object")])
    for key in ("n", "r", "h", "A_minus1", "A2", "A3", "B"):
        if key not in doc:
            issues.append(("error", f"missing required field '{key}'"))
    if issues:
        return ValidationReport.from_issues(issues)

    n, r, h = doc["n"], doc["r"], doc["h"]
    if not _is_int(n) or n < 1:
        issues.append(("error", "n must be a positive integer"))
    if not _is_int(r) or r < 0:
        issues.append(("error", "r must be a non-negative integer"))
    if not _is_number(h) or not (h > 0):
        issues.append(("error", "h must be a positive number"))
    if issues:
        return ValidationReport.from_issues(issues)

    _check_matrix(doc["A_minus1"], n, n, "A_minus1", issues)
    _check_matrix(doc["B"], n, r, "B", issues)
    _check_kernel(doc["A2"], "A2", n, h, issues, allow_atoms=False)
    _check_kernel(doc["A3"], "A3", n, h, issues, allow_atoms=True)

    if r >= 1 and not issues:
        if not np.any(np.asarray(doc["B"], dtype=float)):
            issues.append(("warning", "input matrix B is identically zero"))
    return ValidationReport.from_issues(issues)


def _kernel_from_document(doc, allow_atoms=True) -> DelayKernel:
    atoms = tuple(
        (float(a["theta"]), np.asarray(a["matrix"], dtype=float))
        for a in doc.get("atoms", [])
    )
    return DelayKernel(
        np.asarray(doc["breakpoints"], dtype=float),
        np.asarray(doc["segments"], dtype=float),
        atoms if allow_atoms else (),
    )


def system_from_document(doc) -> NeutralSystem:
    report = validate_document(doc)
    if not report.ok:
        raise SystemValidationError(report)
    n, r = doc["n"], doc["r"]
    return NeutralSystem(
        n=n,
        r=r,
        h=float(doc["h"]),
        A_minus1=np.asarray(doc["A_minus1"], dtype=float),
        A2=_kernel_from_document(doc["A2"], allow_atoms=False),
        A3=_kernel_from_document(doc["A3"], allow_atoms=True),
        B=np.asarray(doc["B"], dtype=float).reshape(n, r),
    )


def load_system(path) -> NeutralSystem:
    """Load and validate a system file; raises SystemParseError or
    SystemValidationError on bad input, OSError on unreadable paths."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemParseError(f"{path}: not valid JSON ({exc})") from exc
    return system_from_document(doc)


def _matrix_to_lists(M: np.ndarray):
    return [[float(x) for x in row] for row in np.asarray(M)]


def serialize_system(sys_: NeutralSystem) -> dict:
    """Plain-dict form of a system matching the file schema exactly."""

    def kernel_doc(ker: DelayKernel, with_atoms: bool) -> dict:
        doc = {
            "breakpoints": [float(b) for b in ker.breakpoints],
            "segments": [_matrix_to_lists(m) for m in ker.segments],
        }
        if with_atoms:
            doc["atoms"] = [
                {"theta": float(t), "matrix": _matrix_to_lists(m)} for t, m in ker.atoms
            ]
        return doc

    return {
        "n": sys_.n,
        "r": sys_.r,
        "h": float(sys_.h),
        "A_minus1": _matrix_to_lists(sys_.A_minus1),
        "A2": kernel_doc(sys_.A2, with_atoms=False),
        "A3": kernel_doc(sys_.A3, with_atoms=True),
        "B": _matrix_to_lists(sys_.B),
    }


def save_system(sys_: NeutralSystem, path) -> None:
    Path(path).write_text(json.dumps(serialize_system(sys_), indent=2, sort_keys=True))


def systems_equal(a: NeutralSystem, b: NeutralSystem) -> bool:
    """Field-by-field equality (exact float comparison, atoms in order)."""
    if (a.n, a.r, a.h) != (b.n, b.r, b.h):
        return False
    if not np.array_equal(a.A_minus1, b.A_minus1) or not np.array_equal(a.B, b.B):
        return False
    for ka, kb in ((a.A2, b.A2), (a.A3, b.A3)):
        if not np.array_equal(ka.breakpoints, kb.breakpoints):
            return False
        if not np.array_equal(ka.segments, kb.segments):
            return False
        if len(ka.atoms) != len(kb.atoms):
            return False
        for (ta, ma), (tb, mb) in zip(ka.atoms, kb.atoms):
            if ta != tb or not np.array_equal(ma, mb):
                return False
    return True
