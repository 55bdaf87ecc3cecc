"""In-memory spans around the package's public entry points.

The package imports names directly (``from .charmatrix import delta``), so a
function is reachable through several module attributes.  ``Tracer.install``
replaces every attribute of every loaded ``neutralsys`` module that holds an
entry point with one wrapper, and ``uninstall`` puts the originals back.

A span is [name, parent index, analysis id, start, end, work].  ``work`` is
what the call did, counted at the boundary: points evaluated, steps taken,
the contour kind, whether Newton converged.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# Layer -> entry points.  _integrate is the one internal name: reachability
# calls it directly, so the simulator's work is only visible there.
ENTRY_POINTS = {
    "sysmodel": ("load_system",),
    "charmatrix": ("delta_batch", "delta", "delta_derivative_batch", "delta_derivative"),
    "rootfinder": (
        "count_roots_in_contour",
        "newton_root",
        "find_roots_in_region",
        "rightmost_root_scan",
        "verify_cluster_multiplicity",
    ),
    "stability": ("classify_asymptotic", "matrix_spectral_structure"),
    "structural": (
        "check_stabilizability",
        "check_null_controllability",
        "controllability_report",
        "controllability_time_bounds",
        "controllability_indices",
        "hautus_at",
        "hautus_matrix_pair",
        "kalman_rank",
    ),
    "simulate": ("simulate", "_integrate", "norm_profile"),
    "reachability": ("rank_profile", "build_steering_probe"),
}

D_CALLS = {"charmatrix.delta_batch", "charmatrix.delta"}
DPRIME_CALLS = {"charmatrix.delta_derivative_batch", "charmatrix.delta_derivative"}
ROOT_SPAN = "cli.main"


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["lams"]))


_WORK = {
    "charmatrix.delta_batch": _points,
    "charmatrix.delta_derivative_batch": _points,
    "charmatrix.delta": lambda a, k, res: 1,
    "charmatrix.delta_derivative": lambda a, k, res: 1,
    "rootfinder.count_roots_in_contour": lambda a, k, res: type(
        a[1] if len(a) > 1 else k["contour"]
    ).__name__,
    "rootfinder.newton_root": lambda a, k, res: int(res is not None and bool(res[2])),
    # _integrate(sys_, hist0, controls, nsteps, m): (steps, columns)
    "simulate._integrate": lambda a, k, res: (int(a[3]), int(a[1].shape[2])),
    "reachability.build_steering_probe": lambda a, k, res: (
        0 if res is None else int(res.control_dim)
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.analysis = -1
        self._patched: list[tuple[object, str, object]] = []
        self.sites: list[str] = []
        self.missing: list[str] = []
        self.unreadable: dict[str, str] = {}   # entry point -> why its work went uncounted

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.analysis, perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, work=None) -> None:
        span = self.spans[idx]
        span[4] = perf_counter()
        span[5] = work
        self.stack.pop()

    def analysis_span(self, analysis_id: int, call):
        """Run call() as the root span of one analysis."""
        self.analysis = analysis_id
        idx = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(idx)
            self.analysis = -1

    def _wrapper(self, name: str, fn):
        count_work = _WORK.get(name, lambda a, k, res: None)
        nested_d = name in D_CALLS or name in DPRIME_CALLS
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            # delta() calls delta_batch(); count the point once, at the outer call.
            if nested_d and stack and spans[stack[-1]][0].startswith("charmatrix."):
                return fn(*args, **kwargs)
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, self._work(name, count_work, args, kwargs, result))

        wrapper.__wrapped__ = fn
        return wrapper

    def _work(self, name, count_work, args, kwargs, result):
        """What one call did.  A changed signature loses the count, never the
        call; the entry point is listed in `unreadable`, which fails the run."""
        try:
            return count_work(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.unreadable.setdefault(name, f"{type(exc).__name__}: {exc}")
            return None

    def install(self) -> None:
        """Wrap every module attribute through which the package reaches an
        entry point.  Entry points the package no longer has are listed in
        `missing`, which fails the run."""
        originals = {}
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"neutralsys.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                originals[id(fn)] = (fn, self._wrapper(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "neutralsys" and not mod_name.startswith("neutralsys."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        self.sites = sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span: [pass, name, parent, analysis, start, end, work]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for pass_no, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([pass_no, *span]) + "\n")


def layer_metrics(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per-layer counts and times of one traced pass.

    Returns (counts, times, scans per analysis id).  Self time is a span's
    duration minus the durations of its direct children.  Times are totals
    over the pass.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    dur = np.array([s[4] - s[3] for s in spans], dtype=float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    by_name: dict[str, list[int]] = {}
    for i, nm in enumerate(names):
        by_name.setdefault(nm, []).append(i)

    def calls(*nms):
        return sum(len(by_name.get(nm, ())) for nm in nms)

    def work(*nms):
        return [spans[i][5] for nm in nms for i in by_name.get(nm, ())
                if spans[i][5] is not None]

    def span_sum(values, *nms):
        return float(sum(values[i] for nm in nms for i in by_name.get(nm, ())))

    def layer(prefix):
        return [nm for nm in by_name if nm.startswith(prefix)]

    d_points, dp_points = sum(work(*D_CALLS)), sum(work(*DPRIME_CALLS))
    d_calls, dp_calls = calls(*D_CALLS), calls(*DPRIME_CALLS)
    kinds = work("rootfinder.count_roots_in_contour")
    newton = work("rootfinder.newton_root")
    integrate = work("simulate._integrate")
    probe_cols = work("reachability.build_steering_probe")

    scans_by_analysis: dict[int, int] = {}
    for i in by_name.get("rootfinder.rightmost_root_scan", ()):
        scans_by_analysis[spans[i][2]] = scans_by_analysis.get(spans[i][2], 0) + 1

    counts = {
        "charmatrix.D.points": d_points,
        "charmatrix.D.calls": d_calls,
        "charmatrix.Dprime.points": dp_points,
        "charmatrix.Dprime.calls": dp_calls,
        "charmatrix.points_per_call": (
            (d_points + dp_points) / (d_calls + dp_calls) if d_calls + dp_calls else 0.0
        ),
        "rootfinder.contours.rect": kinds.count("Rect"),
        "rootfinder.contours.circle": kinds.count("Circle"),
        "rootfinder.newton.calls": calls("rootfinder.newton_root"),
        "rootfinder.newton.converged_frac": sum(newton) / len(newton) if newton else 0.0,
        "rootfinder.region.calls": calls("rootfinder.find_roots_in_region"),
        "rootfinder.scans": calls("rootfinder.rightmost_root_scan"),
        "rootfinder.scans_per_system": max(scans_by_analysis.values(), default=0),
        "stability.structure.calls": calls("stability.matrix_spectral_structure"),
        "structural.hautus.calls": calls("structural.hautus_at", "structural.hautus_matrix_pair"),
        "structural.bases": calls("structural.controllability_indices"),
        "simulate.steps": sum(s for s, _ in integrate),
        "simulate.step_cols": sum(s * c for s, c in integrate),
        "reachability.probes": calls("reachability.build_steering_probe"),
        "reachability.probe_cols": sum(probe_cols),
    }
    times = {
        "sysmodel.load_s": span_sum(dur, "sysmodel.load_system"),
        "charmatrix.busy_s": span_sum(dur, *D_CALLS, *DPRIME_CALLS),
        "rootfinder.contour.self_s": span_sum(self_time, "rootfinder.count_roots_in_contour"),
        "rootfinder.newton.self_s": span_sum(self_time, "rootfinder.newton_root"),
        "rootfinder.region.self_s": span_sum(
            self_time, "rootfinder.find_roots_in_region", "rootfinder.rightmost_root_scan",
            "rootfinder.verify_cluster_multiplicity"),
        "stability.self_s": span_sum(self_time, *layer("stability.")),
        "structural.self_s": span_sum(self_time, *layer("structural.")),
        "simulate.integrate_s": span_sum(dur, "simulate._integrate"),
        "reachability.self_s": span_sum(self_time, *layer("reachability.")),
        "cli.self_s": span_sum(self_time, ROOT_SPAN),
    }
    return counts, times, scans_by_analysis
