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


def _frozen(value, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """`value` as a read-only float array of finite numbers, of `shape` when
    one is given; ValueError names `what` otherwise."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a rectangular array of numbers") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} must be {' x '.join(map(str, shape))}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
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
    evaluation of the density.  Every entry is finite, so 0 < h < inf.
    """

    breakpoints: np.ndarray
    segments: np.ndarray
    atoms: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        bp = _frozen(self.breakpoints, "breakpoints")
        seg = _frozen(self.segments, "segments")
        if bp.ndim != 1 or bp.size < 2 or not np.all(np.diff(bp) > 0) or bp[-1] != 0.0:
            raise ValueError("breakpoints must be strictly increasing from -h to 0")
        if seg.ndim != 3 or seg.shape[0] != bp.size - 1 or seg.shape[1] != seg.shape[2]:
            raise ValueError("segments must have shape (len(breakpoints)-1, n, n)")
        n = seg.shape[1]
        h = -bp[0]
        atoms = []
        for theta, mat in self.atoms:
            theta = float(theta)
            if not (-h <= theta <= 0.0):
                raise ValueError(f"atom theta = {theta} outside [-{h}, 0]")
            atoms.append((theta, _frozen(mat, "atom matrix", (n, n))))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", seg)
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


_MAX_SIZE = 1e7   # grid intervals, time steps or probe entries of one run, or contour-node
                  # entries of one sampling call; a larger one is refused


def _check_size(count: float, what: str) -> None:
    """Refuse a run before it allocates arrays of count rows or entries."""
    if not count <= _MAX_SIZE:
        raise ValueError(f"{count:g} {what} exceed the limit of {_MAX_SIZE:g}")


def _check_sizes(n, r, h) -> None:
    """The system's scalar rules; the document check reports them before it
    builds the parts whose shapes depend on n and r."""
    if n < 1:
        raise ValueError(f"state dimension n must be positive, got {n}")
    if r < 0:
        raise ValueError(f"input dimension r must be non-negative, got {r}")
    if not (0.0 < h < np.inf):
        raise ValueError(f"delay h must satisfy 0 < h < inf, got {h}")


@dataclass(frozen=True)
class NeutralSystem:
    """Immutable description of one neutral-type delay system.

    The constructor checks every rule a valid system keeps: A_minus1 is
    n x n and B exactly n x r, every entry is finite, 0 < h < inf, both
    kernels have the system's n and h, and A2 carries no atoms."""

    n: int
    r: int
    h: float
    A_minus1: np.ndarray
    A2: DelayKernel
    A3: DelayKernel
    B: np.ndarray

    def __post_init__(self):
        _check_sizes(self.n, self.r, self.h)
        for name, ker in (("A2", self.A2), ("A3", self.A3)):
            if ker.n != self.n:
                raise ValueError(f"{name} kernel dimension {ker.n} != n = {self.n}")
            if abs(ker.h - self.h) > 1e-12 * max(1.0, self.h):
                raise ValueError(f"{name} kernel spans [-{ker.h}, 0], system h = {self.h}")
        if self.A2.atoms:
            raise ValueError("A2 must not carry atoms")
        object.__setattr__(self, "A_minus1", _frozen(self.A_minus1, "A_minus1", (self.n, self.n)))
        object.__setattr__(self, "B", _frozen(self.B, "B", (self.n, self.r)))

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


def _numbers(value, what: str):
    """`value` when it is a number or nested lists of numbers; ValueError
    otherwise, so no JSON string or boolean is read as a number."""
    def numeric(v):
        return _is_number(v) or isinstance(v, list) and all(map(numeric, v))

    if not numeric(value):
        raise ValueError(f"{what} holds an entry that is not a number")
    return value


def _kernel_from_document(doc, name: str) -> DelayKernel:
    """The A2 or A3 kernel of a document; its ValueError names the kernel."""
    atoms = doc.get("atoms", []) if isinstance(doc, dict) else None
    if not isinstance(atoms, list) or "breakpoints" not in doc or "segments" not in doc:
        raise ValueError(f"{name} must be an object with breakpoints, segments "
                         "and optionally a list of atoms")
    for i, atom in enumerate(atoms):
        if not (isinstance(atom, dict) and _is_number(atom.get("theta")) and "matrix" in atom):
            raise ValueError(f"{name}.atoms[{i}] must have a number theta and a matrix")
    try:
        return DelayKernel(_numbers(doc["breakpoints"], "breakpoints"),
                           _numbers(doc["segments"], "segments"),
                           tuple((atom["theta"], _numbers(atom["matrix"], "atom matrix"))
                                 for atom in atoms))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _system_of(doc) -> tuple[NeutralSystem | None, list[tuple[str, str]]]:
    """The system a parsed document describes, None if any issue is an error,
    and the issues.  The JSON types are checked here and every structural rule
    by the constructors; a faulty part gives one issue."""
    if not isinstance(doc, dict):
        return None, [("error", "top level must be a JSON object")]
    issues = [("error", f"missing required field '{key}'")
              for key in ("n", "r", "h", "A_minus1", "A2", "A3", "B") if key not in doc]
    if issues:
        return None, issues
    n, r, h = doc["n"], doc["r"], doc["h"]
    issues = [("error", f"{key} must be {kind}") for key, kind, ok in (
        ("n", "an integer", _is_int(n)), ("r", "an integer", _is_int(r)),
        ("h", "a number", _is_number(h))) if not ok]
    if issues:
        return None, issues
    try:
        _check_sizes(n, r, h)
    except ValueError as exc:
        return None, [("error", str(exc))]
    shapes = {"A_minus1": (n, n), "B": (n, r)}
    parts = {}
    for key in ("A_minus1", "B", "A2", "A3"):
        try:
            parts[key] = (_frozen(_numbers(doc[key], key), key, shapes[key]) if key in shapes
                          else _kernel_from_document(doc[key], key))
        except ValueError as exc:
            issues.append(("error", str(exc)))
    if issues:
        return None, issues
    try:
        sys_ = NeutralSystem(n=n, r=r, h=float(h), **parts)
    except ValueError as exc:
        return None, [("error", str(exc))]
    if r >= 1 and not np.any(sys_.B):
        issues.append(("warning", "input matrix B is identically zero"))
    return sys_, issues


def validate_document(doc) -> ValidationReport:
    """Check a parsed system document against the file schema."""
    return ValidationReport.from_issues(_system_of(doc)[1])


def system_from_document(doc) -> NeutralSystem:
    """The system of a parsed document, checked and built once; raises
    SystemValidationError listing the issues."""
    sys_, issues = _system_of(doc)
    if sys_ is None:
        raise SystemValidationError(ValidationReport.from_issues(issues))
    return sys_


def load_system(path) -> NeutralSystem:
    """Load and validate a system file; raises SystemParseError or
    SystemValidationError on bad input, OSError on unreadable paths."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise SystemParseError(f"{path}: not UTF-8 JSON ({exc})") from exc
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


def csv_table(header, rows) -> str:
    """CSV text of a header and rows, one line each, every cell written as
    its str: for a Python float that is the shortest round-trip form, the
    repr that the csv module writes too.  The cells are numbers, names and
    empty strings, so none needs quoting."""
    return "\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n"


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
