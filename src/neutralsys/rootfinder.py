"""Root location for det D(lam) by the argument principle.

Counting: the winding number of det D along a circle or rectangle equals the
number of enclosed roots with multiplicity (det D is entire, so there are no
poles).  The boundary image is tracked with adaptive refinement on two
triggers: a phase increment of pi/2 or more, and a segment longer than the
estimated distance |det/det'| to the nearest zero.  The second trigger is
essential: a segment that straddles the near field of a root can wrap its
phase by a full turn that the pi/2 rule alone cannot see.  The count is the
accumulated phase over 2 pi, asserted integral; no quadrature of the
logarithmic derivative is involved.

Location: quadrisection of a rectangle, one level at a time, discards
root-free cells and seeds Newton iterations in small cells.  The seeds of every
such cell on a level run through one batched Newton solve (`newton_roots`):
each iterate evaluates D and D' once, takes one batched det and one batched
solve for all seeds still running, while each seed keeps its own stopping
rules.  A cell then takes its seeds' results in seed order.  Multiplicity of a
converged root is recovered by counting in a tight circle around it, and each
cell is accepted only when its located multiplicities add up to its winding
count; the cells that fail are split, and their children's winding counts
must add up to theirs.  Cells that cannot be resolved are reported, never
dropped, in depth-first order.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, replace

import numpy as np

from .charmatrix import ChainGrid, chain_grid, delta_and_derivative
from .errors import NoChainsError, PhaseTrackingError, RootOnContourError
from .sysmodel import NeutralSystem


# ----------------------------------------------------------------- contours


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def points(self, t: np.ndarray) -> np.ndarray:
        return self.center + self.radius * np.exp(2j * np.pi * np.asarray(t))

    def perimeter(self) -> float:
        return 2.0 * np.pi * self.radius

    def inflate(self, factor: float) -> "Circle":
        return Circle(self.center, self.radius * factor)

    def contains(self, lam: complex) -> bool:
        return abs(lam - self.center) <= self.radius


@dataclass(frozen=True)
class Rect:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must be nondegenerate")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    def widths(self) -> tuple[float, float]:
        return self.re_max - self.re_min, self.im_max - self.im_min

    def diameter(self) -> float:
        w, v = self.widths()
        return float(np.hypot(w, v))

    def perimeter(self) -> float:
        w, v = self.widths()
        return 2.0 * (w + v)

    def points(self, t: np.ndarray) -> np.ndarray:
        """Counterclockwise boundary point at parameter t in [0, 1)."""
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        w, v = self.widths()
        per = self.perimeter()
        s = t * per
        out = np.empty(s.shape, dtype=complex)
        m0 = s < w
        m1 = (s >= w) & (s < w + v)
        m2 = (s >= w + v) & (s < 2 * w + v)
        m3 = s >= 2 * w + v
        out[m0] = self.re_min + s[m0] + 1j * self.im_min
        out[m1] = self.re_max + 1j * (self.im_min + (s[m1] - w))
        out[m2] = self.re_max - (s[m2] - w - v) + 1j * self.im_max
        out[m3] = self.re_min + 1j * (self.im_max - (s[m3] - 2 * w - v))
        return out

    def inflate(self, factor: float) -> "Rect":
        c = self.center
        w, v = self.widths()
        return Rect(
            c.real - 0.5 * factor * w,
            c.real + 0.5 * factor * w,
            c.imag - 0.5 * factor * v,
            c.imag + 0.5 * factor * v,
        )

    def contains(self, lam: complex) -> bool:
        return (self.re_min <= lam.real <= self.re_max) and (
            self.im_min <= lam.imag <= self.im_max
        )

    def quadrants(self, offset_frac: float = 0.0137) -> tuple["Rect", ...]:
        """Split into four cells at a slightly off-center point.

        The offset keeps split lines away from the axes and other symmetric
        loci where quasipolynomial roots habitually sit.
        """
        w, v = self.widths()
        xc = self.re_min + (0.5 + offset_frac) * w
        yc = self.im_min + (0.5 + offset_frac) * v
        return (
            Rect(self.re_min, xc, self.im_min, yc),
            Rect(xc, self.re_max, self.im_min, yc),
            Rect(self.re_min, xc, yc, self.im_max),
            Rect(xc, self.re_max, yc, self.im_max),
        )


# ------------------------------------------------------------------ options


@dataclass(frozen=True)
class RootFindOptions:
    boundary_tol: float = 1e-12      # |det| floor on contour samples
    localization_tol: float = 1e-8   # target accuracy of located roots
    merge_tol: float = 1e-6          # roots closer than this are one root
    max_depth: int = 40              # quadrisection depth limit
    multiplicity_radius: float = 1e-3
    residual_coeff: float = 1e-9     # accept root when |det| <= coeff*(1+|lam|)^n
    newton_max_iter: int = 200
    newton_restarts: int = 4
    newton_cell_size: float = 1.0    # try Newton once a cell is this small...
    newton_max_count: int = 4        # ...or holds at most this many roots
    min_nodes: int = 64
    phase_max_depth: int = 32
    contour_retries: int = 5
    seed: int = 0


def residual_bound(lam: complex, n: int, opts: RootFindOptions) -> float:
    return opts.residual_coeff * (1.0 + abs(lam)) ** n


# ------------------------------------------------------- winding computation


def _initial_nodes(sys_: NeutralSystem, contour, opts: RootFindOptions) -> int:
    # Phase of det D varies at a rate of order n*(1+h) per unit of arclength;
    # sample several nodes per radian so refinement starts unaliased.
    density = 4.0 * sys_.n * (1.0 + sys_.h)
    return int(max(opts.min_nodes, np.ceil(density * contour.perimeter())))


def _sample_nodes(sys_: NeutralSystem, pts: np.ndarray, log_floor: float):
    """Phase, log magnitude and nearest-zero distance estimate at contour nodes.

    The distance estimate is |det/det'| = 1/|trace(D^{-1} D')|, which
    underestimates the true distance near a multiple root.  It drives the
    proximity refinement: a segment longer than the estimate could hide a full
    phase turn between its endpoints (the aliasing case the plain pi/2 rule
    cannot see).
    """
    D, dD = delta_and_derivative(sys_, pts)
    sign, logabs = np.linalg.slogdet(D)
    if np.any(logabs < log_floor) or np.any(~np.isfinite(logabs)):
        raise RootOnContourError("contour sample too close to a root")
    try:
        X = np.linalg.solve(D, dD)
    except np.linalg.LinAlgError as exc:
        raise RootOnContourError(f"singular characteristic matrix on contour: {exc}")
    trace = np.trace(X, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = 1.0 / np.abs(trace)
    est = np.where(np.isfinite(est), est, np.inf)
    return sign, est


def _winding_number(sys_: NeutralSystem, contour, opts: RootFindOptions) -> int:
    n_nodes = _initial_nodes(sys_, contour, opts)
    t = np.arange(n_nodes) / n_nodes
    pts = contour.points(t)
    log_floor = np.log(opts.boundary_tol)
    sign, est = _sample_nodes(sys_, pts, log_floor)

    t0, t1 = t, np.roll(t, -1).copy()
    t1[-1] = 1.0
    p0, p1 = pts, np.roll(pts, -1)
    s0, s1 = sign, np.roll(sign, -1)
    e0, e1 = est, np.roll(est, -1)

    total = 0.0
    for _ in range(opts.phase_max_depth):
        dphi = np.angle(s1 / s0)
        chord = np.abs(p1 - p0)
        # Split on a large phase increment, or whenever the segment is long
        # relative to the estimated distance to the nearest zero.
        need = (np.abs(dphi) >= 0.5 * np.pi) | (chord > 0.5 * np.minimum(e0, e1))
        if not need.any():
            total = float(np.sum(dphi))
            break
        if np.any(chord[need] < 1e-13 * (1.0 + np.abs(p0[need]))):
            raise RootOnContourError("refinement pinned to a zero on the contour")
        tm = 0.5 * (t0[need] + t1[need])
        if np.any(tm <= t0[need]) or np.any(tm >= t1[need]):
            raise PhaseTrackingError("phase refinement hit parameter resolution")
        pm = contour.points(tm)
        sm, em = _sample_nodes(sys_, pm, log_floor)
        keep = ~need
        t0 = np.concatenate([t0[keep], t0[need], tm])
        t1 = np.concatenate([t1[keep], tm, t1[need]])
        p0 = np.concatenate([p0[keep], p0[need], pm])
        p1 = np.concatenate([p1[keep], pm, p1[need]])
        s0 = np.concatenate([s0[keep], s0[need], sm])
        s1 = np.concatenate([s1[keep], sm, s1[need]])
        e0 = np.concatenate([e0[keep], e0[need], em])
        e1 = np.concatenate([e1[keep], em, e1[need]])
    else:
        # depth exhausted: a zero hugging the contour is retryable (inflate),
        # anything else is a genuine tracking failure
        if np.any(np.minimum(e0, e1) < 1e-9 * (1.0 + np.abs(p0))):
            raise RootOnContourError("refinement exhausted next to a zero on the contour")
        raise PhaseTrackingError("phase refinement depth exhausted")

    raw = total / (2.0 * np.pi)
    count = int(np.round(raw))
    if abs(raw - count) >= 0.25:
        raise PhaseTrackingError(f"winding number not integral: {raw}")
    if count < 0:
        raise PhaseTrackingError(f"negative winding number {count} for an entire function")
    return count


def count_roots_in_contour(sys_: NeutralSystem, contour, opts: RootFindOptions | None = None) -> int:
    """Number of roots of det D inside the contour, counted with multiplicity.

    If a boundary sample sits within the boundary tolerance of a root the
    contour is inflated by 1% and retried, a bounded number of times.
    """
    opts = opts or RootFindOptions()
    attempt = contour
    last: Exception | None = None
    for _ in range(opts.contour_retries + 1):
        try:
            return _winding_number(sys_, attempt, opts)
        except RootOnContourError as exc:
            last = exc
            attempt = attempt.inflate(1.01)
    raise RootOnContourError(
        f"root on contour persisted through {opts.contour_retries} inflations: {last}"
    )


# ------------------------------------------------------------------- Newton


def newton_roots(
    sys_: NeutralSystem, seeds, opts: RootFindOptions | None = None
) -> list[tuple[complex, float, bool]]:
    """Newton iteration on det D from every seed at once.

    Returns one (lam, |det D(lam)|, converged) per seed, in seed order.  The
    Newton correction uses the Jacobi identity det' = det * trace(D^{-1} D'),
    so the step is 1/trace(D^{-1} D') and no determinant magnitudes enter until
    convergence is checked.  A seed falls back to a secant step when D is
    singular at its iterate.  Multiple roots converge linearly, hence the
    generous iteration budget.  Each seed keeps its own best iterate, stall
    count and iteration budget; the seeds still running share one evaluation
    of D and D', one det and one solve per iterate.
    """
    opts = opts or RootFindOptions()
    lam = np.array(seeds, dtype=complex).reshape(-1)
    best_abs = np.full(lam.size, np.inf)
    best_lam = lam.copy()
    prev_lam = np.zeros_like(lam)
    prev_det = np.zeros_like(lam)
    has_prev = np.zeros(lam.size, dtype=bool)
    stall = np.zeros(lam.size, dtype=int)
    failed = np.zeros(lam.size, dtype=bool)   # det went non-finite
    running = np.ones(lam.size, dtype=bool)
    # A seed whose step fell below 1e-12 (1 + |lam|) takes one more det at the
    # new iterate, in the next batch, and stops.
    final = np.zeros(lam.size, dtype=bool)
    for it in range(opts.newton_max_iter + 1):
        if it == opts.newton_max_iter:
            running[:] = False
        idx = np.flatnonzero(running | final)
        if idx.size == 0:
            break
        D, dD = delta_and_derivative(sys_, lam[idx])
        det = np.linalg.det(D)
        absdet = np.abs(det)
        better = absdet < best_abs[idx]
        best_abs[idx[better]] = absdet[better]
        best_lam[idx[better]] = lam[idx[better]]
        final[idx] = False
        iterating = running[idx]
        finite = np.isfinite(absdet)
        failed[idx[iterating & ~finite]] = True
        stall[idx[iterating & better]] = 0
        stall[idx[iterating & finite & ~better]] += 1
        go = iterating & finite & (stall[idx] <= 12)
        running[idx[~go]] = False
        g, D, dD, det = idx[go], D[go], dD[go], det[go]
        if g.size == 0:
            continue
        trace = _solve_traces(D, dD)
        newton = np.isfinite(trace) & (trace != 0.0)
        step = np.empty_like(det)
        step[newton] = 1.0 / trace[newton]
        secant = ~newton & has_prev[g] & (det != prev_det[g])
        gs = g[secant]
        step[secant] = det[secant] * (lam[gs] - prev_lam[gs]) / (det[secant] - prev_det[gs])
        nudge = ~newton & ~secant
        step[nudge] = 1e-7 * (1.0 + np.abs(lam[g[nudge]])) * (0.6 + 0.8j)
        prev_lam[g], prev_det[g] = lam[g], det
        has_prev[g] = True
        lam[g] -= step
        done = g[np.abs(step) <= 1e-12 * (1.0 + np.abs(lam[g]))]
        running[done] = False
        final[done] = True
    ok = ~failed & (best_abs <= residual_bound(best_lam, sys_.n, opts))
    return [(best_lam[i], float(best_abs[i]), bool(ok[i])) for i in range(lam.size)]


def _solve_traces(D: np.ndarray, dD: np.ndarray) -> np.ndarray:
    """trace(D^{-1} D') for a stack of matrices; NaN where D is singular."""
    try:
        return np.trace(np.linalg.solve(D, dD), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        # The batched solve fails as a whole; only the singular ones lose the step.
        trace = np.full(len(D), np.nan, dtype=complex)
        for i in range(len(D)):
            try:
                trace[i] = np.trace(np.linalg.solve(D[i], dD[i]))
            except np.linalg.LinAlgError:
                pass
        return trace


def newton_root(
    sys_: NeutralSystem, lam0: complex, opts: RootFindOptions | None = None
) -> tuple[complex, float, bool]:
    """Newton iteration on det D from lam0; returns (lam, |det D(lam)|, converged).

    The one-seed view of `newton_roots`.
    """
    return newton_roots(sys_, [lam0], opts)[0]


# ----------------------------------------------------------- report objects


@dataclass(frozen=True)
class LocatedRoot:
    lam: complex
    multiplicity: int
    residual: float
    chain_label: tuple[int, int] | None = None


@dataclass(frozen=True)
class RootCluster:
    """Roots inside one chain circle; count is their total multiplicity."""

    center: complex
    radius: float
    count: int
    roots: tuple[LocatedRoot, ...]
    chain_label: tuple[int, int] | None = None


@dataclass(frozen=True)
class UnresolvedCell:
    cell: Rect
    count: int
    reason: str


@dataclass(frozen=True)
class SpectrumReport:
    window: Rect
    clusters: tuple[RootCluster, ...]
    unclustered_roots: tuple[LocatedRoot, ...]
    unresolved_cells: tuple[UnresolvedCell, ...]
    total_count: int
    completeness_note: str

    def all_roots(self) -> tuple[LocatedRoot, ...]:
        roots = list(self.unclustered_roots)
        for c in self.clusters:
            roots.extend(c.roots)
        return tuple(sorted(roots, key=lambda r: (r.lam.real, r.lam.imag)))

    def to_json_dict(self) -> dict:
        def root_doc(r: LocatedRoot) -> dict:
            doc = {
                "re": r.lam.real,
                "im": r.lam.imag,
                "multiplicity": r.multiplicity,
                "residual": r.residual,
            }
            if r.chain_label is not None:
                doc["chain_m"], doc["chain_k"] = r.chain_label
            return doc

        return {
            "window": {
                "re_min": self.window.re_min,
                "re_max": self.window.re_max,
                "im_min": self.window.im_min,
                "im_max": self.window.im_max,
            },
            "total_count": self.total_count,
            "clusters": [
                {
                    "center": {"re": c.center.real, "im": c.center.imag},
                    "radius": c.radius,
                    "count": c.count,
                    "chain_m": None if c.chain_label is None else c.chain_label[0],
                    "chain_k": None if c.chain_label is None else c.chain_label[1],
                    "roots": [root_doc(r) for r in c.roots],
                }
                for c in self.clusters
            ],
            "unclustered_roots": [root_doc(r) for r in self.unclustered_roots],
            "unresolved_cells": [
                {
                    "re_min": u.cell.re_min,
                    "re_max": u.cell.re_max,
                    "im_min": u.cell.im_min,
                    "im_max": u.cell.im_max,
                    "count": u.count,
                    "reason": u.reason,
                }
                for u in self.unresolved_cells
            ],
            "completeness_note": self.completeness_note,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["re", "im", "multiplicity", "residual", "chain_m", "chain_k"])
        for r in self.all_roots():
            m, k = r.chain_label if r.chain_label is not None else ("", "")
            writer.writerow(
                [
                    repr(float(r.lam.real)),
                    repr(float(r.lam.imag)),
                    r.multiplicity,
                    repr(float(r.residual)),
                    m,
                    k,
                ]
            )
        return buf.getvalue()


# -------------------------------------------------------------- region scan


def _cell_rng(opts: RootFindOptions, cell: Rect) -> np.random.Generator:
    # Seed from the cell geometry so results are independent of traversal order.
    raw = np.array([cell.re_min, cell.re_max, cell.im_min, cell.im_max], dtype=float)
    digest = hashlib.blake2b(raw.tobytes(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little") ^ (opts.seed & 0xFFFFFFFF))


def _multiplicity_of(sys_, lam: complex, cell: Rect, others, opts: RootFindOptions) -> int:
    radius = min(opts.multiplicity_radius, 0.25 * cell.diameter())
    for other in others:
        gap = abs(lam - other)
        if gap > 0:
            radius = min(radius, 0.45 * gap)
    radius = max(radius, 4.0 * opts.merge_tol)
    return count_roots_in_contour(sys_, Circle(lam, radius), opts)


def _cell_seeds(cell: Rect, opts: RootFindOptions) -> list[complex]:
    rng = _cell_rng(opts, cell)
    w, v = cell.widths()
    seeds = [cell.center]
    for _ in range(opts.newton_restarts):
        seeds.append(
            cell.center
            + complex(rng.uniform(-0.4, 0.4) * w, rng.uniform(-0.4, 0.4) * v)
        )
    return seeds


def _accept_cell(sys_, cell: Rect, cnt: int, results, opts: RootFindOptions):
    """The roots that the Newton results of a cell's seeds, taken in seed
    order, locate in it; None unless their multiplicities reach its count."""
    found: list[LocatedRoot] = []
    total = 0
    for lam, absdet, ok in results:
        if not ok or not cell.contains(lam):
            continue
        if any(abs(lam - f.lam) <= opts.merge_tol for f in found):
            continue
        mult = _multiplicity_of(sys_, lam, cell, [f.lam for f in found], opts)
        if mult == 0:
            continue
        found.append(LocatedRoot(lam, mult, absdet))
        total += mult
        if total == cnt:
            return found
        if total > cnt:
            return None
    return None


def _merge_roots(roots: list[LocatedRoot], merge_tol: float) -> list[LocatedRoot]:
    roots = sorted(roots, key=lambda r: (r.lam.real, r.lam.imag))
    merged: list[LocatedRoot] = []
    for r in roots:
        dup = None
        for i, m in enumerate(merged):
            if abs(r.lam - m.lam) <= merge_tol:
                dup = i
                break
        if dup is None:
            merged.append(r)
        elif r.residual < merged[dup].residual:
            merged[dup] = r
    return merged


def find_roots_in_region(
    sys_: NeutralSystem,
    rect: Rect,
    opts: RootFindOptions | None = None,
    grid: ChainGrid | None = None,
) -> SpectrumReport:
    """Locate all roots of det D inside a rectangle.

    Roots are deduplicated at the merge tolerance and labeled with the chain
    circle that contains them when a chain grid is supplied.  The report also
    carries any cells whose winding count could not be matched by located
    roots within the depth budget.
    """
    opts = opts or RootFindOptions()
    total = count_roots_in_contour(sys_, rect, opts)
    per_cell = 1 + opts.newton_restarts
    # A cell is (rect, count, path); the path numbers each quadrant last child
    # first, so sorting unresolved cells by path gives the order of a
    # depth-first scan.
    level = [(rect, total, ())] if total > 0 else []
    roots: list[LocatedRoot] = []
    unmatched: list[tuple[tuple, UnresolvedCell]] = []
    nonadditive: list[tuple[Rect, int, int]] = []   # (cell, count, children's sum)
    depth = 0
    while level:
        tries = [
            (cell, cnt, path) for cell, cnt, path in level
            if cell.diameter() <= opts.newton_cell_size or cnt <= opts.newton_max_count
        ]
        seeds = [s for cell, _, _ in tries for s in _cell_seeds(cell, opts)]
        results = newton_roots(sys_, seeds, opts) if seeds else []
        resolved = set()
        for j, (cell, cnt, path) in enumerate(tries):
            found = _accept_cell(sys_, cell, cnt, results[j * per_cell:(j + 1) * per_cell], opts)
            if found is not None:
                roots.extend(found)
                resolved.add(path)
        next_level = []
        for cell, cnt, path in level:
            if path in resolved:
                continue
            if depth >= opts.max_depth or cell.diameter() <= opts.localization_tol:
                unmatched.append((path, UnresolvedCell(
                    cell, cnt, "refinement limit reached with roots unmatched")))
                continue
            children = cell.quadrants()
            counts = [count_roots_in_contour(sys_, child, opts) for child in children]
            if sum(counts) != cnt:
                nonadditive.append((cell, cnt, sum(counts)))
            next_level.extend(
                (child, c, path + (3 - i,))
                for i, (child, c) in enumerate(zip(children, counts))
                if c > 0
            )
        level = next_level
        depth += 1
    unresolved = [u for _, u in sorted(unmatched, key=lambda e: e[0])]

    merged = _merge_roots(roots, opts.merge_tol)

    clusters: dict[tuple[int, int], list[LocatedRoot]] = {}
    loose: list[LocatedRoot] = []
    for r in merged:
        label = grid.label_for(r.lam) if grid is not None else None
        r = replace(r, chain_label=label)
        if label is None:
            loose.append(r)
        else:
            clusters.setdefault(label, []).append(r)

    cluster_objs = tuple(
        RootCluster(
            center=grid.center(m, k),
            radius=grid.radius,
            count=sum(r.multiplicity for r in rs),
            roots=tuple(sorted(rs, key=lambda r: (r.lam.real, r.lam.imag))),
            chain_label=(m, k),
        )
        for (m, k), rs in sorted(clusters.items())
    )

    located = sum(r.multiplicity for r in merged) + sum(u.count for u in unresolved)
    note = (
        f"window [{rect.re_min}, {rect.re_max}] x [{rect.im_min}, {rect.im_max}] is a "
        f"finite slice of an infinite spectrum; winding count {total}, located "
        f"multiplicity {located}"
    )
    if nonadditive:
        note += " (winding counts not additive: " + "; ".join(
            f"cell [{c.re_min}, {c.re_max}] x [{c.im_min}, {c.im_max}] counts {cnt}, "
            f"its children {s}"
            for c, cnt, s in nonadditive
        ) + "; a child contour was inflated across a root on a split line)"
    elif located != total:
        note += " (mismatch: roots in neighbouring cells merged at merge_tol)"

    return SpectrumReport(
        window=rect,
        clusters=cluster_objs,
        unclustered_roots=tuple(sorted(loose, key=lambda r: (r.lam.real, r.lam.imag))),
        unresolved_cells=tuple(unresolved),
        total_count=total,
        completeness_note=note,
    )


def verify_cluster_multiplicity(
    sys_: NeutralSystem,
    grid: ChainGrid,
    k: int,
    m: int,
    opts: RootFindOptions | None = None,
) -> tuple[int, int, bool]:
    """Count roots in the chain circle L_m^(k) and compare with the rootspace
    dimension of the generating eigenvalue; returns (count, expected, match)."""
    center = grid.center(m, k)
    expected = grid.eigenvalues[m].rootspace_dim
    count = count_roots_in_contour(sys_, Circle(center, grid.radius), opts)
    return count, expected, count == expected


def right_half_plane_ceiling(sys_: NeutralSystem) -> float | None:
    """Real part beyond which det D provably has no roots.

    Writing D = -lam (I - e^{-lam h} A - integral e^{lam s} A2) + state terms,
    a root with Re lam = x >= 0 must satisfy

        |lam| (1 - e^{-x h} ||A|| - V2) <= C3,

    with V2 the norm integral of A2 and C3 the norm integral of A3 plus atom
    norms; the left side eventually exceeds C3 because |lam| >= x.  Returns
    None when V2 >= 1 and the bound degenerates.
    """
    a_norm = float(np.linalg.norm(sys_.A_minus1, 2)) if np.any(sys_.A_minus1) else 0.0
    v2 = sum(
        (sys_.A2.breakpoints[i + 1] - sys_.A2.breakpoints[i])
        * np.linalg.norm(sys_.A2.segments[i], 2)
        for i in range(sys_.A2.segments.shape[0])
    )
    c3 = sum(
        (sys_.A3.breakpoints[i + 1] - sys_.A3.breakpoints[i])
        * np.linalg.norm(sys_.A3.segments[i], 2)
        for i in range(sys_.A3.segments.shape[0])
    )
    c3 += sum(np.linalg.norm(M, 2) for _, M in sys_.A3.atoms)
    if v2 >= 1.0 - 1e-12:
        return None
    x = max(0.0, np.log(a_norm) / sys_.h if a_norm > 0 else 0.0)
    for _ in range(4000):
        if x * (1.0 - np.exp(-x * sys_.h) * a_norm - v2) > c3:
            return float(x + 0.25)
        x += 0.25
    return None


def rightmost_root_scan(
    sys_: NeutralSystem,
    re_floor: float,
    im_cap: float,
    opts: RootFindOptions | None = None,
) -> SpectrumReport:
    """Scan the window [re_floor, re_ceiling] x [-im_cap, im_cap] for roots.

    The ceiling is the larger of one unit right of the top chain abscissa and
    the provable right bound on root real parts, so nothing to the right of
    the window is missed; above and below it, large-|k| roots stay inside the
    chain circles whose abscissas the note records.
    """
    if not (re_floor < 0.0 < im_cap):
        raise ValueError("need re_floor < 0 < im_cap")
    opts = opts or RootFindOptions()
    grid = None
    abscissas: list[float] = []
    try:
        k_span = int(np.ceil((im_cap * sys_.h + np.pi) / (2.0 * np.pi))) + 1
        grid = chain_grid(sys_, -k_span, k_span)
        abscissas = [float(np.log(abs(e.mu)) / sys_.h) for e in grid.eigenvalues]
    except NoChainsError:
        pass
    re_ceiling = max(1.0, max(abscissas) + 1.0) if abscissas else 1.0
    bound = right_half_plane_ceiling(sys_)
    if bound is not None:
        re_ceiling = max(re_ceiling, bound)
    rect = Rect(re_floor, re_ceiling, -im_cap, im_cap)
    report = find_roots_in_region(sys_, rect, opts, grid)
    chain_note = (
        "chain abscissas: " + ", ".join(f"{a:.6g}" for a in sorted(abscissas))
        if abscissas
        else "no root chains (all difference-matrix eigenvalues vanish)"
    )
    bound_note = (
        f"no roots right of {bound:.6g} by the norm bound"
        if bound is not None
        else "no a-priori right root bound available"
    )
    note = (
        report.completeness_note
        + f"; rightmost scan with ceiling {re_ceiling:.6g} ({bound_note}); "
        + chain_note
        + "; roots beyond |Im| cap cluster in chain circles and stay near the listed abscissas"
    )
    return replace(report, completeness_note=note)
