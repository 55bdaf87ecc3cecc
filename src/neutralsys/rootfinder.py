"""Root location for det D(lam) by the argument principle.

Counting: the winding number of det D along a circle or rectangle equals the
number of enclosed roots with multiplicity (det D is entire, so there are no
poles).  The boundary image is tracked with adaptive refinement on two
triggers: a phase increment of pi/2 or more, and a segment longer than the
estimated distance |det/det'| to the nearest zero.  The second trigger is
essential: a segment that straddles the near field of a root can wrap its
phase by a full turn that the pi/2 rule alone cannot see.  The count is the
accumulated phase over 2 pi, asserted integral; no quadrature of the
logarithmic derivative is involved.  A fresh side starts at 2n(1 + h) nodes
per unit of length, two per radian of the far-field phase rate n h, and
refinement does the rest.  Since the samples feed only integer counts and
inflate decisions, for n <= 2 det D and det' are computed from the entries
in closed form; LAPACK serves larger n and every node near the floor.

Edges: every contour is counted from its sides on one edge cache and one
refiner.  A rectangle has four sides, each a straight edge keyed by its two
exact corner points; a circle (multiplicities, chain clusters) has one, a
closed arc whose last node is its first.  Each edge keeps its own refined
nodes and phase increment, and the count adds the increments, each with the
sign of its counterclockwise traversal.  A region scan counts all the
contours of all its windows, multiplicity circles included, on one cache.
A split cuts each side of its parent into two halves that keep the parent's
refined nodes and gain one node at the split point, and samples only the
four half-edges of its split cross, each once for the two siblings that run
along it in opposite directions.  All new nodes of a quadrisection level go
through one batched evaluation per refinement round.  A sample within the
boundary tolerance of a root, or refinement pinned or exhausted next to one,
poisons only the edges it lies on.  A contour with such a side is inflated
by 1% and counted again on the same cache, up to a bounded number of times;
this is the one retry path of every count, so a split line through a root
shows as children that do not add up to their parent.

Location: one scan takes several windows in lockstep, equal ones once, each
with its own cells, roots and report.  With a chain grid, one batched Newton
solve first runs from every chain center in the windows, where the large-|k|
roots of chain m sit near (ln|mu_m| + i(arg mu_m + 2 pi k))/h.
Quadrisection of the rectangles, one level at a time, then discards root-free
cells.  A cell whose winding count equals the multiplicity of the known chain
roots it owns (half-open: [re_min, re_max) x [im_min, im_max), and none within
two multiplicity radii of a side) takes them and is neither searched nor
split; every other cell goes on as without a grid, so roots outside the chain
circles come from the same cells and seeds.  Small cells seed Newton
iterations.  The seeds of every such cell of every window on a level run
through one batched Newton solve (`newton_roots`): each iterate evaluates D
and D' once, takes one batched det and one batched solve for all seeds still
running, while each seed keeps its own stopping rules.  Only the running
seeds' state is kept, compacted when seeds stop, so an iterate costs the
arithmetic of its seeds and not a gather and scatter of every seed's state.
One rule turns a stage's Newton results into located roots (`_candidates`):
each cell, or each window with its chain seeds, takes its seeds' results in
seed order, the same as alone, and keeps the distinct converged roots inside
it, a chain root only inside its own chain circle.  Multiplicity of a kept
root is counted in a tight circle around it, sized from every root kept
beside it, and a stage counts all its circles in one call: one per level,
one per window for the chain seeds.  A cell is accepted only when its
located multiplicities, in seed order, reach its winding count; the cells
that fail are split, and their children's winding counts must add up to
theirs.  Cells that cannot be resolved are reported, never dropped, in
depth-first order.

The root finder has no setting: every tolerance, budget and radius is a
module constant, and each cell's random Newton starts are seeded from its
corners alone, so they do not depend on the traversal order.  A located
root's accuracy comes from Newton: a seed stops once its step is at most
1e-12 (1 + |lam|), and its iterate counts as a root only when
|det D| <= RESIDUAL_COEFF (1 + |lam|)^n.
MIN_CELL_DIAMETER is only the size at which an unmatched cell is given up.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

import numpy as np

from .charmatrix import ChainGrid, delta_and_derivative
from .errors import ContourError, PhaseTrackingError, RootOnContourError
from .sysmodel import NeutralSystem


# ----------------------------------------------------------------- contours


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

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

    def quadrants(self) -> tuple["Rect", ...]:
        """Split into four cells at a slightly off-center point.

        The offset SPLIT_OFFSET keeps split lines away from the axes and other
        symmetric loci where quasipolynomial roots habitually sit.
        """
        w, v = self.widths()
        xc = self.re_min + (0.5 + SPLIT_OFFSET) * w
        yc = self.im_min + (0.5 + SPLIT_OFFSET) * v
        return (
            Rect(self.re_min, xc, self.im_min, yc),
            Rect(xc, self.re_max, self.im_min, yc),
            Rect(self.re_min, xc, yc, self.im_max),
            Rect(xc, self.re_max, yc, self.im_max),
        )


# ---------------------------------------------------------------- constants


BOUNDARY_TOL = 1e-12        # |det| floor on contour samples
MERGE_TOL = 1e-6            # roots closer than this are one root
MAX_DEPTH = 40              # quadrisection depth limit
MULTIPLICITY_RADIUS = 1e-3  # largest circle that counts a located root's multiplicity
RESIDUAL_COEFF = 1e-9       # accept a root when |det| <= coeff*(1+|lam|)^n
NEWTON_MAX_ITER = 200       # Newton iterates per seed
NEWTON_RESTARTS = 4         # random seeds per cell besides its center
NEWTON_CELL_SIZE = 1.0      # try Newton once a cell is this small...
NEWTON_MAX_COUNT = 4        # ...or holds at most this many roots
MIN_NODES = 64              # start nodes of a contour, split over its sides
PHASE_MAX_DEPTH = 32        # refinement rounds before an edge is given up
CONTOUR_RETRIES = 5         # 1% inflations of a contour next to a root
SPLIT_OFFSET = 0.0137       # quadrisection point, as a fraction past the middle
MIN_CELL_DIAMETER = 1e-8    # an unmatched cell this small is reported, not split


def residual_bound(lam: complex, n: int) -> float:
    return RESIDUAL_COEFF * (1.0 + abs(lam)) ** n


# ------------------------------------------------------- winding computation


_MAX_SIDE_SEGMENTS = 1e7   # start segments of one fresh side; a longer side is refused


def _node_density(sys_: NeutralSystem) -> float:
    """Start nodes per unit of arclength: 2 n (1 + h).

    Far from the roots the phase of det D turns at about n h per unit of
    arclength, so this leaves at least two nodes per radian, and a start
    segment turns by at most half a radian, a third of the pi/2 refinement
    trigger.  Refinement, not the start density, resolves the near field.
    """
    return 2.0 * sys_.n * (1.0 + sys_.h)


def _sample_nodes(sys_: NeutralSystem, pts: np.ndarray, log_floor: float):
    """Phase, nearest-zero distance estimate and a too-close flag at nodes.

    The distance estimate is |det/det'| = 1/|trace(D^{-1} D')|, which
    underestimates the true distance near a multiple root.  It drives the
    proximity refinement: a segment longer than the estimate could hide a full
    phase turn between its endpoints (the aliasing case the plain pi/2 rule
    cannot see).  A node is flagged where log|det D| is below the floor or
    not finite, a singular D included; its phase is void and its estimate is
    left at infinity.  These three feed only integer counts and the decision
    to inflate, so for n <= 2 det D and det' come from the entries in closed
    form (`_closed_form_sample`), and LAPACK (`_lapack_sample`) serves larger
    n and every node the closed form would flag.
    """
    D, dD = delta_and_derivative(sys_, pts)
    if sys_.n <= 2:
        return _closed_form_sample(D, dD, log_floor)
    return _lapack_sample(D, dD, log_floor)


def _lapack_sample(D: np.ndarray, dD: np.ndarray, log_floor: float):
    """`_sample_nodes` for a stack of D and D' by slogdet and solve."""
    sign, logabs = np.linalg.slogdet(D)
    bad = ~np.isfinite(logabs) | (logabs < log_floor)
    if bad.any():
        D, dD = D[~bad], dD[~bad]
    est = np.full(len(bad), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        est[~bad] = 1.0 / np.abs(_solve_traces(D, dD))
    est[~np.isfinite(est)] = np.inf
    return sign, est, bad


def _closed_form_sample(D: np.ndarray, dD: np.ndarray, log_floor: float):
    """`_sample_nodes` for a stack of 1x1 or 2x2 D and D', from det D and its
    derivative det' = D'00 D11 + D00 D'11 - D'01 D10 - D01 D'10 (n = 2).  A
    node whose det is below the floor or not finite, or whose det' is not
    finite, an overflowed product included, goes to `_lapack_sample`."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if D.shape[-1] == 1:
            det, ddet = D[:, 0, 0], dD[:, 0, 0]
        else:
            a, b, c, d = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]
            det = a * d - b * c
            ddet = dD[:, 0, 0] * d + a * dD[:, 1, 1] - dD[:, 0, 1] * c - b * dD[:, 1, 0]
        absdet = np.abs(det)
        sign = det / absdet
        est = absdet / np.abs(ddet)
        lapack = ~(np.isfinite(absdet) & (absdet >= np.exp(log_floor)) & np.isfinite(ddet))
    bad = np.zeros(len(det), dtype=bool)
    if lapack.any():
        sign[lapack], est[lapack], bad[lapack] = _lapack_sample(D[lapack], dD[lapack], log_floor)
    return sign, est, bad


def _needs_split(dphi, chord, e0, e1):
    # Split on a large phase increment, or whenever the segment is long
    # relative to the estimated distance to the nearest zero.
    return (np.abs(dphi) >= 0.5 * np.pi) | (chord > 0.5 * np.minimum(e0, e1))


def _integral_count(total_phase: float) -> int:
    raw = total_phase / (2.0 * np.pi)
    count = int(np.round(raw))
    if abs(raw - count) >= 0.25:
        raise PhaseTrackingError(f"winding number not integral: {raw}")
    if count < 0:
        raise PhaseTrackingError(f"negative winding number {count} for an entire function")
    return count


@dataclass(eq=False)
class _Edge:
    """Samples of det D along one side of a contour, the line origin +
    scale*u or the arc origin + scale*e^{2 pi i u}: nodes at ascending
    parameters `u`, with their points `p`, phases `sign` and nearest-zero
    estimates `est`.  Once refined, `phase` is the increment of arg det D
    from the first node to the last, unless `error` holds why refinement
    stopped; until then both are None."""

    origin: complex
    scale: complex
    arc: bool
    u: np.ndarray
    p: np.ndarray
    sign: np.ndarray
    est: np.ndarray
    phase: float | None = None
    error: ContourError | None = None


def _edge_points(origin, scale, arc, u: np.ndarray) -> np.ndarray:
    """Points at parameters u on the line origin + scale*u, or where arc
    holds on the arc origin + scale*e^{2 pi i u}; taking u mod 1 puts an
    arc's node at u = 1 exactly on its node at u = 0.  Only arc nodes take
    the exponential."""
    if np.ndim(arc) == 0:
        return origin + scale * (np.exp(2j * np.pi * np.mod(u, 1.0)) if arc else u)
    z = u.astype(complex)
    if arc.any():
        z[arc] = np.exp(2j * np.pi * np.mod(u[arc], 1.0))
    return origin + scale * z


def _sides(contour):
    """The sides of a contour as edge keys (origin, scale, arc, start, end)
    running along ascending parameters, each with the sign that turns its
    phase increment into the counterclockwise one: the four lines of a
    rectangle, or the one closed arc of a circle."""
    if isinstance(contour, Circle):
        return (((contour.center, contour.radius, True, 0.0, 1.0), 1.0),)
    r = contour
    return (
        ((1j * r.im_min, 1.0, False, r.re_min, r.re_max), 1.0),
        ((r.re_max, 1j, False, r.im_min, r.im_max), 1.0),
        ((1j * r.im_max, 1.0, False, r.re_min, r.re_max), -1.0),
        ((r.re_min, 1j, False, r.im_min, r.im_max), -1.0),
    )


class _NodeBatch:
    """Points for one `_sample_nodes` call; a corner that several edges share,
    or the node that closes an arc, is one point."""

    def __init__(self):
        self.blocks: list[np.ndarray] = []
        self.size = 0
        self.corners: dict[complex, int] = {}

    def add(self, pts: np.ndarray) -> np.ndarray:
        self.blocks.append(pts)
        self.size += pts.size
        return np.arange(self.size - pts.size, self.size)

    def corner(self, p: complex) -> int:
        if p not in self.corners:
            self.corners[p] = int(self.add(np.array([p]))[0])
        return self.corners[p]


class _EdgeCache:
    """Winding numbers of contours from phase increments kept per edge.

    An edge is a side keyed by its line or arc and its two end parameters.
    A side that is not cached is taken from a cached edge that starts or
    ends where the side does and runs past it: that edge is split at the
    side's other end into two halves, which keep its refined nodes and gain
    that one node, and it is dropped.  Any other side is sampled afresh at
    the node density, with MIN_NODES split over the sides of its contour.
    One `windings` call sends every new node of all its contours through
    one `_sample_nodes` call per refinement round.
    """

    def __init__(self, sys_: NeutralSystem):
        self.sys_ = sys_
        self.log_floor = np.log(BOUNDARY_TOL)
        self.edges: dict[tuple, _Edge] = {}
        self.starting: dict[tuple, tuple] = {}   # (origin, scale, arc, start) -> key
        self.ending: dict[tuple, tuple] = {}     # (origin, scale, arc, end) -> key

    def windings(self, contours) -> list[int | RootOnContourError]:
        """The winding count of det D along each circle or rectangle, or the
        RootOnContourError of a side that came too close to a root."""
        batch = _NodeBatch()
        # (edge, node slots to fill from the batch, their batch indices, lo,
        # hi): the segments between nodes lo and hi are left to check
        todo: list = []
        sides = []
        for contour in contours:
            keys = _sides(contour)
            min_segs = int(np.ceil(MIN_NODES / len(keys)))
            sides.append([(self._edge(key, min_segs, batch, todo), sgn) for key, sgn in keys])
        self._refine(batch, todo)
        counts = []
        for contour_sides in sides:
            errors = [edge.error for edge, _ in contour_sides if edge.error is not None]
            near = [err for err in errors if isinstance(err, RootOnContourError)]
            if near:
                counts.append(near[0])
            elif errors:
                raise errors[0]
            else:
                counts.append(_integral_count(sum(sgn * edge.phase for edge, sgn in contour_sides)))
        return counts

    def counts(self, contours) -> list[int]:
        """The winding count of each contour.  A contour with a side next to a
        root is inflated by 1% and counted again on this cache, up to
        CONTOUR_RETRIES times, before RootOnContourError is raised."""
        contours = list(contours)
        counts = self.windings(contours)
        for _ in range(CONTOUR_RETRIES):
            retry = [i for i, c in enumerate(counts) if isinstance(c, RootOnContourError)]
            if not retry:
                break
            for i in retry:
                contours[i] = contours[i].inflate(1.01)
            for i, count in zip(retry, self.windings([contours[i] for i in retry])):
                counts[i] = count
        for count in counts:
            if isinstance(count, RootOnContourError):
                raise RootOnContourError(
                    f"root on contour persisted through {CONTOUR_RETRIES} "
                    f"inflations: {count}")
        return counts

    def _put(self, key: tuple, edge: _Edge) -> _Edge:
        self.edges[key] = edge
        self.starting[key[:4]] = key
        self.ending[key[:3] + key[4:]] = key
        return edge

    def _edge(self, key: tuple, min_segs: int, batch: _NodeBatch, todo: list) -> _Edge:
        edge = self.edges.get(key)
        if edge is not None:
            return edge
        a, b = key[3:]
        for parent_key, s in (
            (self.starting.get(key[:4]), b),
            (self.ending.get(key[:3] + (b,)), a),
        ):
            parent = self.edges.get(parent_key)
            # an edge still waiting for its samples in this call is not split
            settled = parent is not None and (parent.phase is not None or parent.error is not None)
            if settled and parent.u[0] < s < parent.u[-1]:
                self._split(parent_key, s, min_segs, batch, todo)
                return self.edges[key]
        return self._fresh(key, min_segs, batch, todo)

    def _fresh(self, key: tuple, min_segs: int, batch: _NodeBatch, todo: list) -> _Edge:
        origin, scale, arc, a, b = key
        # an arc runs once around its circle, from u = 0 to u = 1
        length = 2.0 * np.pi * scale if arc else b - a
        segs = max(min_segs, np.ceil(_node_density(self.sys_) * length))
        if not segs <= _MAX_SIDE_SEGMENTS:   # also an infinite or NaN count
            raise ValueError(
                f"contour side of length {length:g} needs {segs:g} nodes, more than "
                f"{_MAX_SIDE_SEGMENTS:g}; narrow the window")
        segs = int(segs)
        u = np.arange(segs + 1) / segs if arc else np.linspace(a, b, segs + 1)
        p = _edge_points(origin, scale, arc, u)
        edge = _Edge(origin, scale, arc, u, p, np.empty(segs + 1, dtype=complex), np.empty(segs + 1))
        idx = np.concatenate([[batch.corner(complex(p[0]))], batch.add(p[1:-1]),
                              [batch.corner(complex(p[-1]))]])
        todo.append((edge, slice(None), idx, 0, segs))
        return self._put(key, edge)

    def _split(self, key: tuple, s: float, min_segs: int, batch: _NodeBatch, todo: list) -> None:
        """Replace a cached edge by its halves at s.  The halves are views of
        one copy of the parent's nodes with s inserted, so the new node is
        filled once for both, and only the segment beside it goes unchecked."""
        parent = self.edges.pop(key)
        halves = key[:4] + (s,), key[:3] + (s, key[4])
        if parent.error is not None:
            for half in halves:
                self._fresh(half, min_segs, batch, todo)
            return
        k = int(np.searchsorted(parent.u, s))
        ps = _edge_points(*key[:3], np.array([s]))
        u, p, sign, est = (
            np.concatenate((x[:k], v, x[k:]))
            for x, v in ((parent.u, [s]), (parent.p, ps), (parent.sign, [0j]), (parent.est, [0.0]))
        )
        i = batch.corner(complex(ps[0]))
        lower = self._put(halves[0], _Edge(*key[:3], u[:k + 1], p[:k + 1], sign[:k + 1], est[:k + 1]))
        upper = self._put(halves[1], _Edge(*key[:3], u[k:], p[k:], sign[k:], est[k:]))
        todo.append((lower, k, i, k - 1, k))
        todo.append((upper, 0, i, 0, 1))

    def _refine(self, batch: _NodeBatch, todo: list) -> None:
        """Sample the batch, refine the unchecked segments of every listed edge
        on the two triggers with one `_sample_nodes` call per round, and set
        each edge's phase or error.  A failure poisons only the edges it lies
        on."""
        edges = [edge for edge, *_ in todo]
        dead = np.zeros(len(edges), dtype=bool)

        def poison(ids, error):
            for j in np.unique(ids[~dead[ids]]):
                edges[j].error = error
                dead[j] = True

        if batch.size:
            sm, em, bad = _sample_nodes(self.sys_, np.concatenate(batch.blocks), self.log_floor)
            for j, (edge, slots, idx, _, _) in enumerate(todo):
                edge.sign[slots], edge.est[slots] = sm[idx], em[idx]
                if np.any(bad[idx]):
                    poison(np.array([j]), RootOnContourError("contour sample too close to a root"))

        # The unchecked segments of all live edges, flat: those between nodes
        # lo and hi of each edge in a row, by their start and end nodes.
        work = [(j, lo, hi) for j, (_, _, _, lo, hi) in enumerate(todo) if hi > lo and not dead[j]]
        eid = np.repeat(np.array([j for j, _, _ in work], dtype=int), [hi - lo for _, lo, hi in work])
        u0, u1, p0, p1, s0, s1, e0, e1 = (
            np.concatenate([getattr(edges[j], name)[lo + end:hi + end] for j, lo, hi in work]
                           or [np.empty(0)])
            for name in ("u", "p", "sign", "est") for end in (0, 1)
        )
        origin, scale = (np.array([getattr(edge, name) for edge in edges], dtype=complex)
                         for name in ("origin", "scale"))
        arc = np.array([edge.arc for edge in edges], dtype=bool)

        added = []   # (edge indices, parameters, points, phases, estimates) of new nodes
        exhausted = np.empty(0, dtype=int)
        for _ in range(PHASE_MAX_DEPTH):
            chord = np.abs(p1 - p0)
            need = _needs_split(np.angle(s1 / s0), chord, e0, e1)
            if not need.any():
                break
            pinned = need & (chord < 1e-13 * (1.0 + np.abs(p0)))
            poison(eid[pinned], RootOnContourError("refinement pinned to a zero on the contour"))
            um = 0.5 * (u0 + u1)
            poison(eid[need & ((um <= u0) | (um >= u1))],
                   PhaseTrackingError("phase refinement hit parameter resolution"))
            need &= ~dead[eid]
            if not need.any():
                break
            j, um = eid[need], um[need]
            pm = _edge_points(origin[j], scale[j], arc[j], um)
            sm, em, bad = _sample_nodes(self.sys_, pm, self.log_floor)
            poison(j[bad], RootOnContourError("contour sample too close to a root"))
            added.append((j, um, pm, sm, em))
            eid = np.concatenate([j, j])
            u0, u1 = np.concatenate([u0[need], um]), np.concatenate([um, u1[need]])
            p0, p1 = np.concatenate([p0[need], pm]), np.concatenate([pm, p1[need]])
            s0, s1 = np.concatenate([s0[need], sm]), np.concatenate([sm, s1[need]])
            e0, e1 = np.concatenate([e0[need], em]), np.concatenate([em, e1[need]])
            live = ~dead[eid]
            eid, u0, u1, p0, p1, s0, s1, e0, e1 = (
                x[live] for x in (eid, u0, u1, p0, p1, s0, s1, e0, e1))
        else:
            exhausted = np.unique(eid)

        if added:
            j = np.concatenate([a[0] for a in added])
            order = np.argsort(j, kind="stable")
            j = j[order]
            new = [np.concatenate([a[k] for a in added])[order] for k in (1, 2, 3, 4)]
            bounds = np.searchsorted(j, np.arange(len(edges) + 1))
            for i in np.unique(j):
                lo, hi = bounds[i], bounds[i + 1]
                edge = edges[i]
                o = np.argsort(np.concatenate([edge.u, new[0][lo:hi]]), kind="stable")
                edge.u, edge.p, edge.sign, edge.est = (
                    np.concatenate([old, x[lo:hi]])[o]
                    for old, x in zip((edge.u, edge.p, edge.sign, edge.est), new)
                )
        for i in exhausted:
            # a zero hugging the edge is retryable (inflate), anything else is a
            # genuine tracking failure
            edge = edges[i]
            if np.any(edge.est < 1e-9 * (1.0 + np.abs(edge.p))):
                poison(np.array([i]), RootOnContourError(
                    "refinement exhausted next to a zero on the contour"))
            else:
                poison(np.array([i]), PhaseTrackingError("phase refinement depth exhausted"))
        live = [edge for edge, dead_edge in zip(edges, dead) if not dead_edge]
        if live:
            # the phase increments of every live edge in one pass; the ratio
            # from one edge's last node to the next edge's first is zeroed
            sign = np.concatenate([edge.sign for edge in live])
            dphi = np.angle(sign[1:] / sign[:-1])
            ends = np.cumsum([edge.sign.size for edge in live])
            dphi[ends[:-1] - 1] = 0.0
            phases = np.add.reduceat(dphi, np.concatenate([[0], ends[:-1]]))
            for edge, phase in zip(live, phases.tolist()):
                edge.phase = phase


def count_roots_in_contour(sys_: NeutralSystem, contour) -> int:
    """Number of roots of det D inside the contour, counted with multiplicity.

    The contour is counted on an edge cache of its own: a rectangle from its
    four sides, a circle from its one closed arc.  If a boundary sample sits
    within the boundary tolerance of a root the contour is inflated by 1% and
    retried, a bounded number of times (`_EdgeCache.counts`).
    """
    (count,) = _EdgeCache(sys_).counts([contour])
    return count


# ------------------------------------------------------------------- Newton


# A seed may run to where det D overflows, e.g. far left, where e^{-lam h}
# does (a chain center where det' vanishes nudges its seed there).  Such a
# seed fails on its non-finite det, so the overflow is no warning.
@np.errstate(over="ignore", invalid="ignore")
def newton_roots(sys_: NeutralSystem, seeds) -> list[tuple[complex, float, bool]]:
    """Newton iteration on det D from every seed at once.

    Returns one (lam, |det D(lam)|, converged) per seed, in seed order.  The
    Newton correction uses the Jacobi identity det' = det * trace(D^{-1} D'),
    so the step is 1/trace(D^{-1} D') and no determinant magnitudes enter until
    convergence is checked.  A seed falls back to a secant step when D is
    singular at its iterate.  Multiple roots converge linearly, hence the
    generous iteration budget.  Each seed keeps its own best iterate, stall
    count and iteration budget; the seeds still running share one evaluation
    of D and D', one det and one solve per iterate.  Each iterate of a seed
    is the one it takes alone (`newton_root`), to the bit.
    """
    lam = np.array(seeds, dtype=complex).reshape(-1)
    out_lam, out_abs = lam.copy(), np.full(lam.size, np.inf)
    failed = np.zeros(lam.size, dtype=bool)   # det went non-finite
    # The state of the running seeds, at positions `at`; it is compacted only
    # when seeds stop.  Every running seed has a previous iterate after the
    # first pass, so that is when the secant step becomes possible.
    at = np.arange(lam.size)
    best_lam, best_abs = lam.copy(), out_abs.copy()
    prev_lam = prev_det = lam   # read from the second pass on
    stall = np.zeros(lam.size, dtype=int)
    # Seeds whose step fell below 1e-12 (1 + |lam|), as (positions, iterates,
    # best iterates, best |det|): each takes one more det at its new iterate,
    # in the next batch, and stops.
    owed = None

    def settle(owed, absdet):
        pos, owed_lam, owed_best, owed_abs = owed
        better = absdet < owed_abs
        out_lam[pos] = np.where(better, owed_lam, owed_best)
        out_abs[pos] = np.where(better, absdet, owed_abs)

    for it in range(NEWTON_MAX_ITER):
        m = lam.size
        if m == 0 and owed is None:
            break
        D, dD = delta_and_derivative(sys_, lam if owed is None else np.concatenate([lam, owed[1]]))
        det = np.linalg.det(D)
        absdet = np.abs(det)
        if owed is not None:
            settle(owed, absdet[m:])
            owed = None
            D, dD, det, absdet = D[:m], dD[:m], det[:m], absdet[:m]
        better = absdet < best_abs
        best_lam = np.where(better, lam, best_lam)
        best_abs = np.where(better, absdet, best_abs)
        finite = np.isfinite(absdet)
        stall = np.where(better, 0, stall + finite)
        go = finite & (stall <= 12)
        if not go.all():
            stop = ~go
            out_lam[at[stop]], out_abs[at[stop]] = best_lam[stop], best_abs[stop]
            failed[at[~finite]] = True
            at, lam, best_lam, best_abs, stall, prev_lam, prev_det, D, dD, det = (
                x[go] for x in (at, lam, best_lam, best_abs, stall, prev_lam, prev_det, D, dD, det))
        if at.size == 0:
            continue
        trace = _solve_traces(D, dD)
        newton = np.isfinite(trace) & (trace != 0.0)
        if newton.all():
            step = 1.0 / trace
        else:
            step = np.empty_like(det)
            step[newton] = 1.0 / trace[newton]
            secant = ~newton & (det != prev_det) if it > 0 else np.zeros_like(newton)
            step[secant] = det[secant] * (lam[secant] - prev_lam[secant]) / (det[secant] - prev_det[secant])
            nudge = ~newton & ~secant
            step[nudge] = 1e-7 * (1.0 + np.abs(lam[nudge])) * (0.6 + 0.8j)
        prev_lam, prev_det = lam, det
        lam = lam - step
        done = np.abs(step) <= 1e-12 * (1.0 + np.abs(lam))
        if done.any():
            owed = (at[done], lam[done], best_lam[done], best_abs[done])
            keep = ~done
            at, lam, best_lam, best_abs, stall, prev_lam, prev_det = (
                x[keep] for x in (at, lam, best_lam, best_abs, stall, prev_lam, prev_det))
    if owed is not None:
        settle(owed, np.abs(np.linalg.det(delta_and_derivative(sys_, owed[1])[0])))
    out_lam[at], out_abs[at] = best_lam, best_abs
    ok = ~failed & (out_abs <= residual_bound(out_lam, sys_.n))
    return [(out_lam[i], float(out_abs[i]), bool(ok[i])) for i in range(out_lam.size)]


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


def newton_root(sys_: NeutralSystem, lam0: complex) -> tuple[complex, float, bool]:
    """Newton iteration on det D from lam0; returns (lam, |det D(lam)|, converged).

    The one-seed view of `newton_roots`.
    """
    return newton_roots(sys_, [lam0])[0]


# ----------------------------------------------------------- report objects


@dataclass(frozen=True)
class LocatedRoot:
    lam: complex
    multiplicity: int
    residual: float
    chain_label: tuple[int, int] | None = None


_RE_TIE = 1e-9  # real parts this close count as equal when ordering roots


def _ordered(roots) -> tuple[LocatedRoot, ...]:
    """Roots by real part, and by imaginary part within each run of roots whose
    consecutive real parts differ by at most _RE_TIE: conjugate partners are
    located separately, and their order must not follow rounding noise."""
    runs: list[list[LocatedRoot]] = []
    for r in sorted(roots, key=lambda r: r.lam.real):
        if runs and r.lam.real - runs[-1][-1].lam.real <= _RE_TIE:
            runs[-1].append(r)
        else:
            runs.append([r])
    return tuple(r for run in runs for r in sorted(run, key=lambda r: r.lam.imag))


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
        return _ordered(roots)

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
            "window": asdict(self.window),
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
                {**asdict(u.cell), "count": u.count, "reason": u.reason}
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


def _cell_rng(cell: Rect) -> np.random.Generator:
    # Seed from the cell geometry so results are independent of traversal order.
    raw = np.array([cell.re_min, cell.re_max, cell.im_min, cell.im_max], dtype=float)
    digest = hashlib.blake2b(raw.tobytes(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _candidates(rect: Rect, results, circles=None):
    """One stage's Newton results, in seed order, as (lam, |det D|, circle)
    for each distinct root they locate in rect, a cell or a window, with the
    circle that counts its multiplicity.

    A converged result is kept when it lies in rect and, where circles are
    given, in its own seed's circle, and is not within MERGE_TOL of one kept
    before it.  Each circle's radius is at most MULTIPLICITY_RADIUS, a
    quarter of rect's diameter and 0.45 times the gap to every other root
    kept in rect, but no less than 4 MERGE_TOL.
    """
    kept = []
    for i, (lam, absdet, ok) in enumerate(results):
        if (ok and rect.contains(lam) and (circles is None or circles[i].contains(lam))
                and all(abs(lam - k) > MERGE_TOL for k, _ in kept)):
            kept.append((lam, absdet))
    cap = min(MULTIPLICITY_RADIUS, 0.25 * rect.diameter())
    radii = [min([cap] + [0.45 * abs(lam - other) for other, _ in kept if other != lam])
             for lam, _ in kept]
    return [(lam, absdet, Circle(lam, max(radius, 4.0 * MERGE_TOL)))
            for (lam, absdet), radius in zip(kept, radii)]


def _cell_seeds(cell: Rect) -> list[complex]:
    rng = _cell_rng(cell)
    w, v = cell.widths()
    seeds = [cell.center]
    for _ in range(NEWTON_RESTARTS):
        seeds.append(
            cell.center
            + complex(rng.uniform(-0.4, 0.4) * w, rng.uniform(-0.4, 0.4) * v)
        )
    return seeds


def _accept_cell(cnt: int, roots: list[LocatedRoot]):
    """The roots that locate a cell's winding count cnt: its located roots,
    in seed order, up to the one at which their multiplicities reach cnt;
    None when they fall short of cnt or pass it."""
    reached = list(accumulate(r.multiplicity for r in roots))
    return roots[:reached.index(cnt) + 1] if cnt in reached else None


def _merge_roots(roots: list[LocatedRoot]) -> list[LocatedRoot]:
    merged: list[LocatedRoot] = []
    for r in _ordered(roots):
        dup = None
        for i, m in enumerate(merged):
            if abs(r.lam - m.lam) <= MERGE_TOL:
                dup = i
                break
        if dup is None:
            merged.append(r)
        elif r.residual < merged[dup].residual:
            merged[dup] = r
    return merged


def _chain_roots(sys_, windows, totals, grid: ChainGrid | None, edges: _EdgeCache):
    """Roots found by Newton from the chain centers inside each window that
    holds roots, one list per window, from one Newton batch over the union of
    their centers.

    Each window takes its centers' results in its own order through
    `_candidates`, keeping a root only inside its own seed's chain circle,
    and counts all its candidates' multiplicity circles in one `counts` call
    on the scan's edge cache; a root of multiplicity 0 is dropped.  The roots
    only spare the scan work, so a window with a circle that cannot be
    counted keeps none.
    """
    centers = [grid.centers_in(rect) if grid is not None and total > 0 else []
               for rect, total in zip(windows, totals)]
    union = list(dict.fromkeys(c for cs in centers for c in cs))
    results = dict(zip(union, newton_roots(sys_, union))) if union else {}
    found = []
    for rect, cs in zip(windows, centers):
        cands = _candidates(rect, [results[c] for c in cs], [Circle(c, grid.radius) for c in cs])
        try:
            counts = edges.counts([circle for *_, circle in cands])
        except ContourError:
            counts = []
        found.append([LocatedRoot(lam, count, absdet)
                      for (lam, absdet, _), count in zip(cands, counts) if count > 0])
    return found


def _owned_roots(cell: Rect, known: list[LocatedRoot], margin: float):
    """The known roots in the half-open cell [re_min, re_max) x [im_min,
    im_max), so a root on a shared side belongs to one cell; None when one of
    them lies within margin of a side."""
    owned = [r for r in known if cell.re_min <= r.lam.real < cell.re_max
             and cell.im_min <= r.lam.imag < cell.im_max]
    for r in owned:
        if min(r.lam.real - cell.re_min, cell.re_max - r.lam.real,
               r.lam.imag - cell.im_min, cell.im_max - r.lam.imag) <= margin:
            return None
    return owned


def find_roots_in_region(
    sys_: NeutralSystem,
    rects: list[Rect],
    grid: ChainGrid | None = None,
) -> list[SpectrumReport]:
    """Locate all roots of det D inside each rectangle; one report per
    rectangle, in order.

    Roots are deduplicated at the merge tolerance and labeled with the chain
    circle that contains them when a chain grid is supplied.  With a grid,
    Newton first runs from the chain centers inside the windows, and a cell
    whose winding count equals the multiplicity of the chain roots it owns
    takes them without Newton or a split.  A report also carries any cells
    whose winding count located roots did not match before the cell reached
    MAX_DEPTH or MIN_CELL_DIAMETER; a root's accuracy is Newton's, not the
    cell size.  Each cell's random Newton starts are seeded from its corners,
    so a report depends on the system, its window and the grid alone.

    The windows are scanned in lockstep, equal ones once, on one edge cache
    with one Newton batch, one count of all multiplicity circles and one
    count of all children per level; each report is the one its window gets
    alone, to the bit.
    """
    windows = list(dict.fromkeys(rects))
    edges = _EdgeCache(sys_)
    totals = edges.counts(windows)
    known = _chain_roots(sys_, windows, totals, grid, edges)
    # a known root this close to a side may have been counted by a multiplicity
    # circle that crosses it, or be the root an inflated recount took in
    margin = 2.0 * MULTIPLICITY_RADIUS
    per_cell = 1 + NEWTON_RESTARTS
    # A cell is (window, rect, count, path); the path numbers each quadrant
    # last child first, so sorting a window's unresolved cells by path gives
    # the order of a depth-first scan.
    level = [(w, rect, total, ()) for w, (rect, total) in enumerate(zip(windows, totals))
             if total > 0]
    # per window: located roots, (path, unresolved cell), (cell, count, children's sum)
    roots, unmatched, nonadditive = ([[] for _ in windows] for _ in range(3))
    depth = 0
    while level:
        resolved = set()
        for w, cell, cnt, path in level:
            owned = _owned_roots(cell, known[w], margin)
            if owned and sum(r.multiplicity for r in owned) == cnt:
                roots[w].extend(owned)
                resolved.add((w, path))
        tries = [
            (w, cell, cnt, path) for w, cell, cnt, path in level
            if (w, path) not in resolved
            and (cell.diameter() <= NEWTON_CELL_SIZE or cnt <= NEWTON_MAX_COUNT)
        ]
        seeds = [s for _, cell, _, _ in tries for s in _cell_seeds(cell)]
        results = newton_roots(sys_, seeds) if seeds else []
        cands = [_candidates(cell, results[j * per_cell:(j + 1) * per_cell])
                 for j, (_, cell, _, _) in enumerate(tries)]
        # zip takes each cell's multiplicities from this iterator in turn
        mults = iter(edges.counts([circle for cs in cands for *_, circle in cs]))
        for (w, cell, cnt, path), cs in zip(tries, cands):
            found = _accept_cell(cnt, [LocatedRoot(lam, m, absdet)
                                       for (lam, absdet, _), m in zip(cs, mults) if m > 0])
            if found is not None:
                roots[w].extend(found)
                resolved.add((w, path))
        splits = []
        for w, cell, cnt, path in level:
            if (w, path) in resolved:
                continue
            if depth >= MAX_DEPTH or cell.diameter() <= MIN_CELL_DIAMETER:
                unmatched[w].append((path, UnresolvedCell(
                    cell, cnt, "refinement limit reached with roots unmatched")))
                continue
            splits.append((w, cell, cnt, path, cell.quadrants()))
        child_counts = edges.counts([child for *_, children in splits for child in children])
        next_level = []
        for j, (w, cell, cnt, path, children) in enumerate(splits):
            cs = child_counts[4 * j:4 * j + 4]
            if sum(cs) != cnt:
                nonadditive[w].append((cell, cnt, sum(cs)))
            next_level.extend(
                (w, child, c, path + (3 - i,))
                for i, (child, c) in enumerate(zip(children, cs))
                if c > 0
            )
        level = next_level
        depth += 1
    reports = {rect: _spectrum_report(rect, total, roots[w], unmatched[w], nonadditive[w], grid)
               for w, (rect, total) in enumerate(zip(windows, totals))}
    return [reports[rect] for rect in rects]


def _spectrum_report(rect: Rect, total: int, roots, unmatched, nonadditive,
                     grid: ChainGrid | None) -> SpectrumReport:
    """One window's report; unmatched holds (path, unresolved cell) pairs."""
    unresolved = [u for _, u in sorted(unmatched, key=lambda e: e[0])]
    merged = _merge_roots(roots)

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
            roots=_ordered(rs),
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
        unclustered_roots=_ordered(loose),
        unresolved_cells=tuple(unresolved),
        total_count=total,
        completeness_note=note,
    )


def verify_cluster_multiplicity(sys_: NeutralSystem, pairs) -> list[tuple[int, int, bool]]:
    """Count the roots in the chain circle L_m^(k) of sys_.chains for every
    (m, k) pair, all in one call on one edge cache, and compare each count
    with the rootspace dimension of the generating eigenvalue; one (count,
    expected, match) per pair.  The system must have chains."""
    grid = sys_.chains
    pairs = list(pairs)
    circles = [Circle(grid.center(m, k), grid.radius) for m, k in pairs]
    counts = _EdgeCache(sys_).counts(circles)
    expected = [grid.eigenvalues[m].rootspace_dim for m, _ in pairs]
    return [(count, e, count == e) for count, e in zip(counts, expected)]


def right_half_plane_ceiling(sys_: NeutralSystem) -> float | None:
    """Real part beyond which det D provably has no roots.

    Writing D = -lam (I - e^{-lam h} A - integral e^{lam s} A2) + state terms,
    a root with Re lam = x >= 0 must satisfy

        |lam| (1 - e^{-x h} ||A|| - V2) <= C3,

    with V2 the norm integral of A2 and C3 the norm integral of A3 plus atom
    norms; the left side eventually exceeds C3 because |lam| >= x.  Returns
    None when V2 >= 1 and the bound degenerates.
    """
    t = sys_.terms   # the norms of I, A, the atoms, then of the segments
    p = t.point0.shape[-1]
    seg = t.widths * t.norms[p:]
    a_norm, v2 = float(t.norms[1]), sum(seg[t.is_a2])
    c3 = sum(seg[~t.is_a2]) + sum(t.norms[2:p])
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
    im_cap: float,
    windows: tuple[Rect, ...] = (),
) -> list[SpectrumReport]:
    """Reports for the window [re_floor, re_ceiling] x [-im_cap, im_cap] and
    then each further window, all from one lockstep scan.

    The floor is half a unit left of the top chain abscissa, clamped to
    [-1, -0.5], and -1 when there are no chains.  The ceiling is the larger of
    one unit right of the top chain abscissa and the provable right bound on
    root real parts, so nothing to the right of the window is missed; above
    and below it, large-|k| roots stay inside the chain circles whose
    abscissas the note records.
    """
    grid = sys_.chains
    abscissas = [] if grid is None else grid.abscissas()
    top = max(abscissas, default=None)
    re_floor = -1.0 if top is None else min(-0.5, max(-1.0, top - 0.5))
    re_ceiling = 1.0 if top is None else max(1.0, top + 1.0)
    bound = right_half_plane_ceiling(sys_)
    if bound is not None:
        re_ceiling = max(re_ceiling, bound)
    rect = Rect(re_floor, re_ceiling, -im_cap, im_cap)
    report, *others = find_roots_in_region(sys_, [rect, *windows], grid)
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
    return [replace(report, completeness_note=note), *others]
