import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hst

from neutralsys import charmatrix as cm
from neutralsys import rootfinder as rf
from neutralsys.errors import ContourError
from neutralsys.stability import SystemAnalysis
from neutralsys.sysmodel import DelayKernel, NeutralSystem
from conftest import (
    density_systems,
    make_example1,
    make_example2,
    make_scalar_decay,
)


def dense_boundary(contour, nodes):
    """nodes + 1 counterclockwise points on a circle or rectangle, the last on
    the first, built here and not from the scan's own contour code."""
    t = np.arange(nodes + 1) / nodes
    if isinstance(contour, rf.Circle):
        return contour.center + contour.radius * np.exp(2j * np.pi * t)
    r = contour
    w, v = r.re_max - r.re_min, r.im_max - r.im_min
    knots = np.array([0.0, w, w + v, 2.0 * w + v, 2.0 * (w + v)])
    s = t * knots[-1]
    return (np.interp(s, knots, [r.re_min, r.re_max, r.re_max, r.re_min, r.re_min])
            + 1j * np.interp(s, knots, [r.im_min, r.im_min, r.im_max, r.im_max, r.im_min]))


def winding_oracle(sys_, contour, nodes=10_000):
    """Independent count: cumulative principal phase over a dense fixed grid."""
    vals = np.linalg.det(cm.delta_batch(sys_, dense_boundary(contour, nodes)))
    phases = np.angle(vals[1:] / vals[:-1])
    return int(round(float(np.sum(phases)) / (2 * np.pi)))


def logderiv_oracle(sys_, circle, nodes=20_000):
    """Cross-check via (1/2 pi i) contour integral of trace(D^{-1} D')."""
    pts = dense_boundary(circle, nodes)[:-1]
    D = cm.delta_batch(sys_, pts)
    dD = cm.delta_derivative_batch(sys_, pts)
    traces = np.trace(np.linalg.solve(D, dD), axis1=-2, axis2=-1)
    dz = 2j * np.pi * (pts - circle.center) / nodes
    integral = np.sum(traces * dz) / (2j * np.pi)
    return integral


def test_count_example1_neutral_chain_circle():
    s = make_example1(0.0, 0.0)
    c = rf.Circle(2j * np.pi, 1.0)
    assert rf.count_roots_in_contour(s, c) == 2
    assert winding_oracle(s, c) == 2


def test_count_example2_no_rhp_roots():
    s = make_example2(1.0)
    assert rf.count_roots_in_contour(s, rf.Circle(1.0, 0.1)) == 0


def test_count_example1_far_cluster_against_oracle():
    s = make_example1(1.0, 2.0)
    grid = cm.chain_grid(s)
    c = rf.Circle(grid.center(0, 5), 2.0 * grid.radius / 3.0)
    assert rf.count_roots_in_contour(s, c) == 2
    assert winding_oracle(s, c) == 2
    assert logderiv_oracle(s, c) == pytest.approx(2.0, abs=1e-6)


def test_count_multiplicity_four_at_origin():
    s = make_example1(0.0, 0.0)
    c = rf.Circle(0.0, 1e-3)
    assert rf.count_roots_in_contour(s, c) == 4
    assert logderiv_oracle(s, c) == pytest.approx(4.0, abs=1e-6)


def test_count_skimming_contour_is_exact():
    # roots of example 2 sit within ~5e-4 of the imaginary axis; a rectangle
    # edge along the axis must still count exactly (the aliasing trap)
    s = make_example2(0.0)
    assert rf.count_roots_in_contour(s, rf.Rect(0.0, 1.0, -40.0, 40.0)) == 0
    inner = rf.count_roots_in_contour(s, rf.Rect(-0.1, 1.0, -40.0, 40.0))
    assert inner == 24
    assert winding_oracle(s, rf.Rect(-0.1, 1.0, -40.0, 40.0), nodes=400_000) == 24


def test_find_roots_example1_degenerate():
    s = make_example1(0.0, 0.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-1.0, 1.0, -7.0, 7.0)])
    roots = {np.round(r.lam, 6): r.multiplicity for r in report.all_roots()}
    assert report.total_count == 8
    assert not report.unresolved_cells
    assert roots[np.round(0.0 + 0.0j, 6)] == 4
    assert roots[np.round(2j * np.pi, 6)] == 2
    assert roots[np.round(-2j * np.pi, 6)] == 2


def test_find_roots_scalar_decay():
    s = make_scalar_decay()
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-2.0, 0.5, -1.0, 1.0)])
    roots = report.all_roots()
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-9)
    assert roots[0].multiplicity == 1


def test_find_roots_example2_near_axis():
    s = make_example2(0.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.1, 1.0, -40.0, 40.0)])
    roots = report.all_roots()
    assert report.total_count == 24
    assert sum(r.multiplicity for r in roots) == 24
    assert all(r.lam.real < 0.0 for r in roots)
    assert all(r.multiplicity == 2 for r in roots)


def test_residual_bound_invariant():
    s = make_example1(1.0, 2.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.5, 1.0, -30.0, 30.0)])
    for r in report.all_roots():
        assert r.residual <= 1e-9 * (1.0 + abs(r.lam)) ** s.n


def test_conjugate_pairing():
    s = make_example2(0.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)])
    roots = sorted(r.lam for r in report.all_roots() if abs(r.lam.imag) > 1e-9)
    by_conj = {np.round(r, 5) for r in roots}
    assert {np.round(np.conj(r), 5) for r in roots} == by_conj


def test_additivity_under_splits():
    s = make_example1(1.0, 2.0)
    rng = np.random.default_rng(123)
    for _ in range(10):
        x0 = rng.uniform(-0.8, -0.3)
        x1 = rng.uniform(0.3, 0.9)
        y0 = rng.uniform(-25.0, -15.0)
        y1 = rng.uniform(15.0, 25.0)
        frac = rng.uniform(0.3, 0.7)
        whole = rf.Rect(x0, x1, y0, y1)
        ym = y0 + frac * (y1 - y0)
        lower = rf.Rect(x0, x1, y0, ym)
        upper = rf.Rect(x0, x1, ym, y1)
        assert rf.count_roots_in_contour(s, whole) == rf.count_roots_in_contour(
            s, lower
        ) + rf.count_roots_in_contour(s, upper)


@given(
    density_systems(n_max=3),
    hst.floats(-2.0, 0.5), hst.floats(0.2, 2.5), hst.floats(-15.0, 10.0), hst.floats(0.5, 20.0),
)
@settings(max_examples=30, deadline=None)
def test_edge_cached_child_counts_match_fresh_counts(sys_, x0, width, y0, height):
    # Two levels of splits on one cache: children take their parent's sides
    # and share the split cross.  Rectangles with a side next to a root are
    # not drawn.
    edges = rf._EdgeCache(sys_)
    rect = rf.Rect(x0, x0 + width, y0, y0 + height)
    cells = list(zip([rect], edges.windings([rect])))
    for _ in range(2):
        assume(all(isinstance(c, int) for _, c in cells))
        children = [child for cell, _ in cells for child in cell.quadrants()]
        counts = edges.windings(children)
        assume(all(isinstance(c, int) for c in counts))
        for j, (cell, cnt) in enumerate(cells):
            cached = counts[4 * j:4 * j + 4]
            assert cached == [rf.count_roots_in_contour(sys_, c) for c in cell.quadrants()]
            assert sum(cached) == cnt
        cells = list(zip(children, counts))


@given(
    density_systems(n_max=3),
    hst.lists(hst.builds(lambda x, y, r: rf.Circle(complex(x, y), r),
                         hst.floats(-2.0, 1.0), hst.floats(-15.0, 15.0), hst.floats(0.01, 3.0)),
              min_size=1, max_size=3),
    hst.lists(hst.builds(lambda x0, w, y0, v: rf.Rect(x0, x0 + w, y0, y0 + v),
                         hst.floats(-2.0, 0.5), hst.floats(0.2, 2.5),
                         hst.floats(-15.0, 10.0), hst.floats(0.5, 20.0)),
              min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
# a circle and a window side through the root -1
@example(make_scalar_decay(), [rf.Circle(-0.5, 0.5)], [rf.Rect(-1.0, 1.0, -40.0, 40.0)])
def test_circles_and_rectangles_count_in_one_call_as_alone(sys_, circles, rects):
    # A circle is one closed arc on the same edge cache as the rectangle
    # sides; its closing node is its first node, sampled once.
    contours = circles[:1] + rects + circles[1:]
    counts = rf._EdgeCache(sys_).windings(contours)
    for contour, count in zip(contours, counts):
        if isinstance(count, int):
            assert count == rf.count_roots_in_contour(sys_, contour)
    # A contour with a side next to a root is inflated on the shared cache,
    # and still counts as it does alone.
    try:
        alone = [rf.count_roots_in_contour(sys_, c) for c in contours]
    except ContourError:
        with pytest.raises(ContourError):
            rf._EdgeCache(sys_).counts(contours)
    else:
        assert rf._EdgeCache(sys_).counts(contours) == alone

    evaluate = rf.delta_and_derivative
    for circle in circles:
        sampled = []

        def recording(sys_, lams):
            sampled.append(np.array(lams, dtype=complex).ravel())
            return evaluate(sys_, lams)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rf, "delta_and_derivative", recording)
            rf._EdgeCache(sys_).windings([circle])
        points = np.concatenate(sampled)
        assert np.unique(points).size == points.size


def test_region_scan_samples_no_rectangle_point_twice(monkeypatch):
    # The window's sides serve its children, a split samples only its cross,
    # and a corner that several sides share is sampled once.
    s = make_example2(0.0)
    sampled, elsewhere = [], []
    evaluate = rf.delta_and_derivative

    def recording(sys_, lams):
        if not elsewhere:
            sampled.append(np.array(lams, dtype=complex).ravel())
        return evaluate(sys_, lams)

    def not_rectangle_counting(fn):
        def wrapped(*args, **kwargs):
            elsewhere.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                elsewhere.pop()
        return wrapped

    counts = rf._EdgeCache.counts

    def rectangles_only(self, contours):
        if any(isinstance(c, rf.Circle) for c in contours):
            return not_rectangle_counting(counts)(self, contours)
        return counts(self, contours)

    monkeypatch.setattr(rf, "delta_and_derivative", recording)
    monkeypatch.setattr(rf, "newton_roots", not_rectangle_counting(rf.newton_roots))
    monkeypatch.setattr(rf._EdgeCache, "counts", rectangles_only)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)])
    assert report.total_count == 26
    points = np.concatenate(sampled)
    assert np.unique(points).size == points.size


def test_region_scan_counts_every_contour_on_one_edge_cache(monkeypatch):
    # The window, its cells, the chain roots' circles and the cell roots'
    # multiplicity circles all go through the scan's own cache.
    s = make_example2(0.0)
    built = []
    init = rf._EdgeCache.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rf._EdgeCache, "__init__", recording)
    for grid in (None, s.chains):
        built.clear()
        (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)], grid=grid)
        assert report.total_count == 26
        assert len(built) == 1


def _table_centers(grid, k_lo, k_hi):
    """The centers a grid used to store: chain-major, k ascending."""
    table = {}
    for m, e in enumerate(grid.eigenvalues):
        base = np.log(abs(e.mu)) + 1j * np.angle(e.mu)
        for k in range(k_lo, k_hi + 1):
            table[(m, k)] = complex((base + 2j * np.pi * k) / grid.h)
    return table


@given(
    density_systems(n_max=3),
    hst.integers(0, 2), hst.floats(0.0, 1.0), hst.floats(0.1, 3.0),
    hst.floats(-40.0, 30.0), hst.floats(0.5, 30.0),
    hst.floats(0.0, 0.999), hst.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_chain_centers_by_formula_match_the_table(sys_, chain, frac, width, y0, height, rho, turn):
    grid = sys_.chains
    assume(grid is not None)
    assert grid.radius <= np.pi / (3.0 * grid.h)
    k_span = int(np.ceil((max(abs(y0), abs(y0 + height)) * grid.h + np.pi) / (2.0 * np.pi))) + 1
    table = _table_centers(grid, -k_span, k_span)
    for (m, k), c in table.items():
        assert grid.center(m, k) == c
        inside = c + rho * grid.radius * np.exp(2j * np.pi * turn)
        assert grid.label_for(inside) == (m, k)
        if k < k_span:
            # midway to the next center of its chain: no circle of chain m
            mid = 0.5 * (c + table[(m, k + 1)])
            label = next((mk for mk, d in table.items() if abs(mid - d) <= grid.radius), None)
            assert grid.label_for(mid) == label
            assert label is None or label[0] != m

    # the chain seeds of a window straddling one chain's abscissa
    mu = grid.eigenvalues[chain % len(grid.eigenvalues)].mu
    x0 = float(np.log(abs(mu)) / grid.h) - frac * width
    rect = rf.Rect(x0, x0 + width, y0, y0 + height)
    seeds = []

    def no_roots(sys_, centers):
        seeds.extend(centers)
        return [(c, np.inf, False) for c in centers]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rf, "newton_roots", no_roots)
        assert rf._chain_roots(sys_, [rect], [1], grid, rf._EdgeCache(sys_)) == [[]]
    assert seeds == [c for c in table.values() if rect.contains(c)]


def test_window_through_a_root_is_counted_once_before_it_is_inflated(monkeypatch):
    # The left side of the window runs through the root -1.  The window is
    # inflated on the scan's cache, not first counted again on a fresh one.
    s = make_scalar_decay()
    rect = rf.Rect(-1.0, 1.0, -40.0, 40.0)
    counted = []
    windings = rf._EdgeCache.windings

    def recording(self, contours):
        counted.extend(contours)
        return windings(self, contours)

    monkeypatch.setattr(rf._EdgeCache, "windings", recording)
    (report,) = rf.find_roots_in_region(s, [rect])
    assert counted.count(rect) == 1
    assert counted.count(rect.inflate(1.01)) == 1
    assert report.total_count == 1
    assert [r.lam for r in report.all_roots()] == [pytest.approx(-1.0, abs=1e-9)]


@hst.composite
def _window_sets(draw):
    """A window and one or two others nested in it (a side shared or not),
    overlapping it, disjoint from it or equal to it, in drawn order."""
    x0, w = draw(hst.floats(-2.0, 0.5)), draw(hst.floats(0.2, 2.5))
    y0, v = draw(hst.floats(-15.0, 10.0)), draw(hst.floats(0.5, 20.0))
    first = rf.Rect(x0, x0 + w, y0, y0 + v)
    lo = hst.one_of(hst.just(0.0), hst.floats(0.05, 0.4))
    hi = hst.one_of(hst.just(1.0), hst.floats(0.6, 0.95))
    others = []
    for kind in draw(hst.lists(hst.sampled_from(["nested", "overlapping", "disjoint", "equal"]),
                               min_size=1, max_size=2)):
        if kind == "nested":
            a, b, c, d = draw(lo), draw(hi), draw(lo), draw(hi)
            others.append(rf.Rect(x0 + a * w, x0 + b * w, y0 + c * v, y0 + d * v))
        elif kind == "overlapping":
            a, c = draw(hst.floats(0.3, 0.7)), draw(hst.floats(-0.7, 0.7))
            others.append(rf.Rect(x0 + a * w, x0 + (1 + a) * w, y0 + c * v, y0 + (1 + c) * v))
        elif kind == "disjoint":
            gap = draw(hst.floats(0.1, 1.0))
            others.append(rf.Rect(x0 + w + gap, x0 + 2 * w + gap, y0, y0 + v))
        else:
            others.append(rf.Rect(x0, x0 + w, y0, y0 + v))
    order = draw(hst.permutations(range(len(others) + 1)))
    return [([first] + others)[i] for i in order]


def _bits(report):
    return json.dumps(report.to_json_dict(), sort_keys=True), report.to_csv()


@given(density_systems(n_max=3), _window_sets(), hst.booleans())
@settings(max_examples=30, deadline=None)
# both left sides run along Re = -1 through the root -1: the shared side is
# inflated for each window
@example(make_scalar_decay(), [rf.Rect(-1.0, 1.0, -40.0, 40.0), rf.Rect(-1.0, 0.5, -40.0, 40.0)],
         False)
# chain roots, a window nested in the other with a shared side
@example(make_example1(1.0, 2.0), [rf.Rect(-0.6, 1.0, -20.0, 20.0), rf.Rect(-0.6, 0.3, -9.0, 20.0)],
         True)
def test_each_window_of_one_scan_is_reported_as_alone(sys_, rects, chained):
    grid = sys_.chains if chained else None
    try:
        alone = [rf.find_roots_in_region(sys_, [rect], grid)[0] for rect in rects]
    except ContourError:
        with pytest.raises(ContourError):
            rf.find_roots_in_region(sys_, rects, grid)
        return
    together = rf.find_roots_in_region(sys_, rects, grid)
    assert len(together) == len(rects)
    for rect, report, reference in zip(rects, together, alone):
        assert report.window == rect
        assert _bits(report) == _bits(reference)


def test_equal_windows_are_scanned_once(monkeypatch):
    # as report's spectrum and stability windows are for a system with no
    # chain right of -0.5 and no root bound past 1
    s = make_example1(1.0, 2.0)
    rect = rf.Rect(-1.0, 1.0, -40.0, 40.0)
    counted = []
    windings = rf._EdgeCache.windings

    def recording(self, contours):
        counted.extend(contours)
        return windings(self, contours)

    monkeypatch.setattr(rf._EdgeCache, "windings", recording)
    seeds = _seed_counting(monkeypatch)
    (alone,) = rf.find_roots_in_region(s, [rect], s.chains)
    alone_work = (list(counted), list(seeds))
    counted.clear()
    seeds.clear()
    first, second = rf.find_roots_in_region(s, [rect, rf.Rect(-1.0, 1.0, -40.0, 40.0)], s.chains)
    assert first is second
    assert _bits(first) == _bits(alone)
    assert (counted, seeds) == alone_work
    assert alone.total_count > 0 and alone.clusters


@pytest.mark.parametrize("sys_", [make_example1(1.0, 2.0), make_example2(0.0)])
def test_cluster_checks_count_every_circle_in_one_call(monkeypatch, sys_):
    grid = sys_.chains
    pairs = [(0, k) for k in range(5, 21)]
    alone = [rf.count_roots_in_contour(sys_, rf.Circle(grid.center(m, k), grid.radius))
             for m, k in pairs]
    calls = []
    windings = rf._EdgeCache.windings

    def recording(self, contours):
        calls.append(len(contours))
        return windings(self, contours)

    monkeypatch.setattr(rf._EdgeCache, "windings", recording)
    monkeypatch.setattr(rf, "count_roots_in_contour", lambda *args, **kwargs: calls.append(args))
    checks = rf.verify_cluster_multiplicity(sys_, pairs)
    assert [count for count, _, _ in checks] == alone
    assert checks == [(2, 2, True)] * len(pairs)
    assert calls == [len(pairs)]


def test_verify_cluster_multiplicity():
    s1 = make_example1(1.0, 2.0)
    assert rf.verify_cluster_multiplicity(s1, [(0, 10)]) == [(2, 2, True)]

    s2 = make_example2(0.0)
    assert s2.chains.center(0, 10) == pytest.approx(21j * np.pi)
    assert rf.verify_cluster_multiplicity(s2, [(0, 10)]) == [(2, 2, True)]


def test_verify_cluster_multiplicity_low_k_honest():
    # clustering is only guaranteed for large |k|; at k=0 the flag reports
    # whatever the count actually is
    s = make_example1(1.0, 2.0)
    g = s.chains
    ((count, expected, match),) = rf.verify_cluster_multiplicity(s, [(0, 0)])
    assert expected == 2
    assert match == (count == expected)
    circle = rf.Circle(g.center(0, 0), g.radius)
    assert count == rf.count_roots_in_contour(s, circle)


def test_rightmost_scan_scalar():
    s = make_scalar_decay()
    (report,) = rf.rightmost_root_scan(s, 10.0)
    roots = report.all_roots()
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-9)
    assert "finite slice" in report.completeness_note


def test_rightmost_scan_example2_clean_rhp():
    (report,) = rf.rightmost_root_scan(make_example2(1.0), 60.0)
    assert all(r.lam.real < 0.0 for r in report.all_roots())


def test_rightmost_scan_example1_axis_roots():
    s = make_example1(0.0, 0.0)
    (report,) = rf.rightmost_root_scan(s, 20.0)
    roots = report.all_roots()
    expected = {0: 4, 1: 2, -1: 2, 2: 2, -2: 2, 3: 2, -3: 2}
    assert len(roots) == len(expected)
    for r in roots:
        k = int(round(r.lam.imag / (2 * np.pi)))
        assert r.lam == pytest.approx(2j * np.pi * k, abs=1e-8)
        assert r.multiplicity == expected[k]


def test_rightmost_scan_ceiling_covers_rhp_roots():
    # the two real right-half-plane roots sit beyond the chain abscissa + 1
    (report,) = rf.rightmost_root_scan(make_example1(1.0, 2.0), 8.0)
    rhp = [r for r in report.all_roots() if r.lam.real > 0]
    reals = sorted(r.lam.real for r in rhp)
    # frozen from an independent scalar Newton iteration on each factor
    assert len(rhp) == 2
    assert reals[0] == pytest.approx(1.3499764854011254, abs=1e-6)
    assert reals[1] == pytest.approx(2.2386458346062827, abs=1e-6)


def test_chain_labels_in_report():
    s = make_example2(0.0)
    grid = cm.chain_grid(s)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -20.0, 20.0)], grid=grid)
    assert report.clusters
    for cluster in report.clusters:
        assert cluster.chain_label is not None
        assert cluster.count == sum(r.multiplicity for r in cluster.roots)
        for r in cluster.roots:
            assert abs(r.lam - cluster.center) < cluster.radius
    # the isolated real double root lies outside every chain circle
    assert any(abs(r.lam.imag) < 1e-6 for r in report.unclustered_roots)


def _cluster_root_distances(sys_, grid, k):
    """Distances from the roots inside chain circle k to its center, sorted."""
    center = grid.center(0, k)
    r = grid.radius
    box = rf.Rect(center.real - r, center.real + r, center.imag - r, center.imag + r)
    roots = [rt for rt in rf.find_roots_in_region(sys_, [box])[0].all_roots()
             if abs(rt.lam - center) <= r]
    return sorted(abs(rt.lam - center) for rt in roots)


@pytest.mark.parametrize("sys_", [make_example1(1.0, 2.0), make_example2(0.0)])
def test_cluster_convergence_trend(sys_):
    # roots pull into their chain centers as |k| grows: the largest in-circle
    # distance is non-increasing over k = 5..30 (sampled)
    grid = cm.chain_grid(sys_)
    ks = [5, 8, 12, 17, 23, 30]
    dists = [max(_cluster_root_distances(sys_, grid, k)) for k in ks]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_no_duplicate_roots_in_report():
    s = make_example2(0.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)])
    roots = [r.lam for r in report.all_roots()]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            assert abs(roots[i] - roots[j]) > 1e-6


def test_delay_length_rescaling_identity():
    # a system with delay h and its unit-delay rescaling (A2 -> h A2(h .),
    # A3 -> h^2 A3(h .), atoms h M at theta / h) have root sets related by
    # mu = h lam; checks every h-dependent formula at once
    import numpy as np
    from neutralsys.sysmodel import DelayKernel, NeutralSystem

    rng = np.random.default_rng(17)
    h = 2.0
    bp_h = np.array([-2.0, -1.1, -0.4, 0.0])
    A2_h = rng.uniform(-0.5, 0.5, (3, 2, 2))
    A3_h = rng.uniform(-0.5, 0.5, (3, 2, 2))
    atom_loc, atom_M = -0.8, rng.uniform(-0.5, 0.5, (2, 2))
    Am1 = np.array([[0.3, 0.5], [0.0, -0.4]])
    sys_h = NeutralSystem(n=2, r=0, h=h, A_minus1=Am1,
                          A2=DelayKernel(bp_h, A2_h),
                          A3=DelayKernel(bp_h, A3_h, ((atom_loc, atom_M),)),
                          B=np.zeros((2, 0)))
    sys_1 = NeutralSystem(n=2, r=0, h=1.0, A_minus1=Am1,
                          A2=DelayKernel(bp_h / h, h * A2_h),
                          A3=DelayKernel(bp_h / h, h * h * A3_h,
                                         ((atom_loc / h, h * atom_M),)),
                          B=np.zeros((2, 0)))
    lams = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-8, 8, 20)
    d_h = np.linalg.det(cm.delta_batch(sys_h, lams))
    d_1 = np.linalg.det(cm.delta_batch(sys_1, h * lams))
    assert np.max(np.abs(d_1 - h**2 * d_h) / np.abs(d_1)) < 1e-12

    (rep_h,) = rf.find_roots_in_region(sys_h, [rf.Rect(-1.5, 1.5, -6.0, 6.0)])
    (rep_1,) = rf.find_roots_in_region(sys_1, [rf.Rect(-3.0, 3.0, -12.0, 12.0)])
    roots_h = [r.lam for r in rep_h.all_roots()]
    roots_1 = [r.lam / h for r in rep_1.all_roots()]
    assert len(roots_h) == len(roots_1) == 9
    for z in roots_h:
        assert min(abs(z - w) for w in roots_1) < 1e-8


def test_newton_refines_to_residual():
    s = make_example1(1.0, 2.0)
    lam, resid, ok = rf.newton_root(s, 0.2 + 6.0j)
    assert ok
    assert abs(np.linalg.det(cm.delta(s, lam))) <= 1e-9 * (1 + abs(lam)) ** 2


def test_spectrum_report_serialization():
    s = make_example2(0.0)
    grid = cm.chain_grid(s)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -20.0, 20.0)], grid=grid)
    doc = report.to_json_dict()
    assert doc["total_count"] == report.total_count
    assert doc["window"]["re_min"] == -0.6
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "re,im,multiplicity,residual,chain_m,chain_k"
    assert len(lines) == 1 + len(report.all_roots())


def test_root_on_contour_inflation():
    # circle through the root at -1 must inflate and still return a count
    s = make_scalar_decay()
    count = rf.count_roots_in_contour(s, rf.Circle(-0.5, 0.5))
    assert count == 1


def test_rect_requires_nondegenerate():
    with pytest.raises(ValueError):
        rf.Rect(1.0, 1.0, -1.0, 1.0)


def scalar_newton_reference(sys_, lam0, max_iter):
    """Newton iteration on det D from one seed, one point at a time."""
    lam = complex(lam0)
    prev_lam = prev_det = None
    best = (np.inf, lam)
    stall = 0
    for _ in range(max_iter):
        D, dD = cm.delta(sys_, lam), cm.delta_derivative(sys_, lam)
        det = complex(np.linalg.det(D))
        absdet = float(np.abs(det))   # inf past the largest float, where abs() raises
        if not np.isfinite(absdet):
            return best[1], best[0], False
        if absdet < best[0]:
            best = (absdet, lam)
            stall = 0
        else:
            stall += 1
            if stall > 12:
                break
        step = None
        try:
            trace = np.trace(np.linalg.solve(D, dD))
            if np.isfinite(trace) and trace != 0.0:
                step = 1.0 / trace
        except np.linalg.LinAlgError:
            pass
        if step is None:
            if prev_lam is not None and det != prev_det:
                step = det * (lam - prev_lam) / (det - prev_det)
            else:
                step = 1e-7 * (1.0 + abs(lam)) * (0.6 + 0.8j)
        prev_lam, prev_det = lam, det
        lam = lam - step
        if abs(step) <= 1e-12 * (1.0 + abs(lam)):
            absdet = float(np.abs(np.linalg.det(cm.delta(sys_, lam))))
            if absdet < best[0]:
                best = (absdet, lam)
            break
    absdet, lam = best
    return lam, absdet, absdet <= rf.residual_bound(lam, sys_.n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("max_iter", (200, 2, 1, 3), ids=[f"opts{i}" for i in range(4)])
@pytest.mark.parametrize(
    "sys_, seeds",
    [
        # D(-1) = 0: the batched solve fails for the whole stack at the first iterate
        (make_scalar_decay(), [0.3 + 0.2j, -1.0, -3.0 + 1.0j, 5.0j, -0.999]),
        # D(0) = 0; -800 overflows e^{-lam h} and stops on a non-finite det
        (make_example1(0.0, 0.0), [0.1 + 0.1j, 0.0, 0.2 + 6.0j, -0.5 - 6.5j, 2.0, -800.0]),
    ],
)
def test_newton_roots_match_newton_root_seed_for_seed(monkeypatch, sys_, seeds, max_iter):
    # With NEWTON_MAX_ITER = 2 a seed that lost its Newton step to the singular
    # one would stop before reaching the root.  On the last pass only the
    # seeds whose step fell below tolerance take their final det.
    monkeypatch.setattr(rf, "NEWTON_MAX_ITER", max_iter)
    batch = rf.newton_roots(sys_, seeds)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        assert isinstance(got[0], np.complex128)
        assert got == rf.newton_root(sys_, seed)
        assert got == scalar_newton_reference(sys_, seed, max_iter)


def _assert_newton_matches_scalar_reference(sys_, seeds, max_iter):
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(rf, "NEWTON_MAX_ITER", max_iter)
        batch = rf.newton_roots(sys_, seeds)
        for seed, got in zip(seeds, batch):
            assert got == scalar_newton_reference(sys_, seed, max_iter), seed
    return batch


@given(
    sys_=density_systems(n_max=3),
    max_iter=hst.sampled_from([1, 2, 3, 200]),
    box=hst.lists(hst.tuples(hst.floats(-3.0, 2.0), hst.floats(-20.0, 20.0)), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_newton_roots_match_scalar_reference_bitwise(sys_, max_iter, box):
    # Seeds in a box, one that overflows e^{-lam h} and 0, then the roots
    # found, where D is numerically singular and the first step ends the run.
    seeds = [complex(x, y) for x, y in box] + [-1e6 + 1j, 0.0]
    batch = _assert_newton_matches_scalar_reference(sys_, seeds, max_iter)
    roots = [lam for lam, _, ok in batch if ok]
    if roots:
        _assert_newton_matches_scalar_reference(sys_, roots, max_iter)


@given(
    sys_=density_systems(n_max=3),
    corner=hst.tuples(hst.floats(-2.0, 1.0), hst.floats(-15.0, 10.0)),
    size=hst.tuples(hst.floats(0.1, 2.0), hst.floats(0.1, 8.0)),
    radius=hst.floats(0.05, 3.0),
)
@settings(max_examples=30, deadline=None)
def test_counts_do_not_depend_on_the_start_density(sys_, corner, size, radius):
    # Refinement, not the start density, resolves the phase: the old density
    # 4n(1 + h) gives the same counts.
    (x, y), (w, v) = corner, size
    contours = [rf.Rect(x, x + w, y, y + v), rf.Circle(complex(x, y), radius)]

    def counts():
        out = []
        for contour in contours:
            try:
                out.append(rf.count_roots_in_contour(sys_, contour))
            except ContourError as exc:
                out.append(type(exc))
        return out

    with np.errstate(all="ignore"):
        now = counts()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rf, "_node_density", lambda s: 4.0 * s.n * (1.0 + s.h))
            assert counts() == now


def _sampler_stack(n, rng, size=48):
    """D and D' stacks at every scale the sampler meets: above and below the
    floor, singular, with products that overflow, and infinite."""
    D = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    dD = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    D *= 10.0 ** rng.uniform(-8.0, 3.0, (size, 1, 1))
    dD *= 10.0 ** rng.uniform(-3.0, 3.0, (size, 1, 1))
    if n == 1:
        D[:4] = 0.0
    else:
        D[:4, 1] = 2.0 * D[:4, 0]   # rank one: the closed-form det is exactly 0
    D[4:8] *= 1e200
    dD[8:10] *= 1e300
    D[10, 0, 0] = np.inf
    return D, dD


@given(n=hst.sampled_from([1, 2]), seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_sampler_agrees_with_lapack(n, seed):
    D, dD = _sampler_stack(n, np.random.default_rng(seed))
    log_floor = np.log(rf.BOUNDARY_TOL)
    with np.errstate(all="ignore"):
        sign, est, bad = rf._closed_form_sample(D, dD, log_floor)
        sign_l, est_l, bad_l = rf._lapack_sample(D, dD, log_floor)
        _, logabs = np.linalg.slogdet(D)
        log_trace = np.log(np.abs(rf._solve_traces(D, dD)))
        log_norm, log_dnorm = (np.log(np.abs(X).max(axis=(1, 2))) for X in (D, dD))
        # relative rounding bounds of det and of det' = det trace(D^{-1} D')
        # computed from the entries, in logarithms past the largest float
        k_det = np.exp(n * log_norm - logabs)
        k_ddet = np.exp((n - 1) * log_norm + log_dnorm - logabs - log_trace)
    # det is known to eps_r max|D|^n: away from the floor is outside that band
    eps = 64 * np.finfo(float).eps
    log_band = np.log(eps) + n * log_norm
    away = ((logabs > np.logaddexp(log_floor, log_band))
            | (np.logaddexp(logabs, log_band) < log_floor))
    np.testing.assert_array_equal(bad[away], bad_l[away])
    ok = ~bad & ~bad_l
    assert np.all(np.abs(sign[ok] - sign_l[ok]) <= eps * k_det[ok])
    # compared where LAPACK's trace did not overflow, which voids its estimate
    finite = ok & np.isfinite(log_trace)
    assert np.all(np.abs(est[finite] - est_l[finite])
                  <= eps * (k_det + k_ddet)[finite] * est_l[finite])
    assert np.all(np.isinf(est[ok & (log_trace == -np.inf)]))


def test_window_count_samples_at_most_sixty_percent_of_the_old_points(monkeypatch):
    # 2,650 points at the start density 4n(1 + h).
    points = []
    evaluate = rf.delta_and_derivative

    def counted(sys_, lams):
        points.append(np.size(lams))
        return evaluate(sys_, lams)

    monkeypatch.setattr(rf, "delta_and_derivative", counted)
    count = rf.count_roots_in_contour(make_example1(-1.0, -1.0), rf.Rect(-0.5, 2.0, -40.0, 40.0))
    assert count == 28
    assert sum(points) <= 0.6 * 2650


def test_region_scan_batches_newton_once_per_level(monkeypatch):
    # Each cell's depth comes from the quadrisection that made it; the first
    # of each cell's seeds is its center.
    s = make_example2(0.0)
    rect = rf.Rect(-0.6, 1.0, -40.0, 40.0)
    depth_of = {rect.center: 0}
    quadrants = rf.Rect.quadrants

    def recording_quadrants(cell):
        children = quadrants(cell)
        for child in children:
            depth_of[child.center] = depth_of[cell.center] + 1
        return children

    call_depths = []
    newton_roots = rf.newton_roots
    per_cell = 1 + rf.NEWTON_RESTARTS

    def recording_newton_roots(sys_, seeds):
        call_depths.append({depth_of[c] for c in seeds[::per_cell]})
        return newton_roots(sys_, seeds)

    def no_single_seed(*args, **kwargs):
        raise AssertionError("region scan ran a single-seed Newton iteration")

    monkeypatch.setattr(rf.Rect, "quadrants", recording_quadrants)
    monkeypatch.setattr(rf, "newton_roots", recording_newton_roots)
    monkeypatch.setattr(rf, "newton_root", no_single_seed)
    (report,) = rf.find_roots_in_region(s, [rect])
    assert sum(r.multiplicity for r in report.all_roots()) == report.total_count == 26
    assert all(len(depths) == 1 for depths in call_depths)
    levels = [depths.pop() for depths in call_depths]
    assert levels == sorted(set(levels))
    assert len(levels) > 1


@pytest.mark.parametrize("chained", [False, True])
def test_region_scan_counts_each_stage_circles_in_one_call(monkeypatch, chained):
    # The multiplicity circles of the chain roots, and of all the cells one
    # level tries, are counted in one call beside the stage's Newton batch.
    s = make_example2(0.0)
    calls = {"circles": 0, "newton": 0}
    counts, newton_roots = rf._EdgeCache.counts, rf.newton_roots

    def recording_counts(self, contours):
        calls["circles"] += any(isinstance(c, rf.Circle) for c in contours)
        return counts(self, contours)

    def recording_newton_roots(sys_, seeds):
        calls["newton"] += 1
        return newton_roots(sys_, seeds)

    monkeypatch.setattr(rf._EdgeCache, "counts", recording_counts)
    monkeypatch.setattr(rf, "newton_roots", recording_newton_roots)
    grid = s.chains if chained else None
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)], grid=grid)
    assert sum(r.multiplicity for r in report.all_roots()) == report.total_count == 26
    assert 0 < calls["circles"] <= calls["newton"]


@pytest.mark.parametrize("g", [3e-4, 5e-5])
def test_close_simple_roots_are_located_apart(g):
    # Two simple roots closer than MULTIPLICITY_RADIUS: each root's circle is
    # sized from the other, so neither counts as a double root.
    s = NeutralSystem(
        n=2,
        r=0,
        h=1.0,
        A_minus1=np.zeros((2, 2)),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.diag([-0.5, -0.5 - g]))], 2, 1.0),
        B=np.zeros((2, 0)),
    )
    assert g < rf.MULTIPLICITY_RADIUS
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-1.0, 1.0, -1.0, 1.0)])
    roots = report.all_roots()
    assert [r.multiplicity for r in roots] == [1, 1]
    assert abs(roots[0].lam - (-0.5 - g)) <= 1e-12
    assert abs(roots[1].lam - (-0.5)) <= 1e-12
    assert report.completeness_note.endswith("winding count 2, located multiplicity 2")


def test_unresolved_cells_keep_depth_first_order(monkeypatch):
    # The list a depth-first stack scan gives: last child first.
    s = make_example2(0.0)
    monkeypatch.setattr(rf, "MAX_DEPTH", 2)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-0.6, 1.0, -40.0, 40.0)])
    x0, x1, x2 = -0.6, -0.17777969599999988, 0.22192000000000012
    y0, y1, y2 = -18.888984799999996, 1.0960000000000036, 21.080984800000003
    assert [
        (u.cell.re_min, u.cell.re_max, u.cell.im_min, u.cell.im_max, u.count)
        for u in report.unresolved_cells
    ] == [
        (x1, x2, y2, 40.0, 6),
        (x1, x2, y1, y2, 6),
        (x1, x2, y0, y1, 6),
        (x0, x1, y0, y1, 2),
        (x1, x2, -40.0, y0, 6),
    ]
    assert report.total_count == 26


def test_root_on_split_line_names_the_nonadditive_cell(monkeypatch):
    # The first split of this rectangle runs through the root at -1; both
    # children touching it inflate past it and count it.
    s = make_scalar_decay()
    rect = rf.Rect(-1.0 - 0.5137 * 2.0, -1.0 + 0.4863 * 2.0, -1.0, 1.0)
    assert rect.quadrants()[0].re_max == -1.0
    monkeypatch.setattr(rf, "NEWTON_MAX_COUNT", 0)   # no Newton before the split
    (report,) = rf.find_roots_in_region(s, [rect])
    roots = report.all_roots()
    assert len(roots) == 1 and roots[0].multiplicity == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-12)
    assert (
        f"winding counts not additive: cell [{rect.re_min}, {rect.re_max}] x "
        f"[{rect.im_min}, {rect.im_max}] counts 1, its children 2;"
    ) in report.completeness_note
    assert "merged" not in report.completeness_note

    clear = rf.Rect(rect.re_min + 0.1, rect.re_max + 0.1, -1.0, 1.0)
    (report,) = rf.find_roots_in_region(s, [clear])
    assert report.completeness_note.endswith("winding count 1, located multiplicity 1")


@pytest.mark.parametrize("gap", [np.spacing(0.3769), 5e-11])
def test_conjugate_pairs_list_negative_imaginary_first(gap):
    # partners whose real parts differ by rounding noise, either one lower
    re, im = -0.3769, 2.3797
    far = rf.LocatedRoot(complex(-0.2, 5.0), 1, 0.0)
    for sign in (1.0, -1.0):
        pair = [rf.LocatedRoot(complex(re, sign * im), 1, 0.0),
                rf.LocatedRoot(complex(re + gap, -sign * im), 1, 0.0)]
        for roots in ([far, *pair], [*pair[::-1], far]):
            report = rf.SpectrumReport(
                window=rf.Rect(-1.0, 1.0, -10.0, 10.0), clusters=(),
                unclustered_roots=tuple(roots), unresolved_cells=(), total_count=3,
                completeness_note="")
            for ordered in (rf._ordered(roots), report.all_roots(),
                            rf._merge_roots(roots)):
                assert [r.lam.imag for r in ordered] == [-im, im, 5.0]


def _root_sets_match(a, b, merge_tol):
    """Each root of a within merge_tol of a root of b with its multiplicity,
    and back."""
    for xs, ys in ((a, b), (b, a)):
        for x in xs:
            assert any(abs(x.lam - y.lam) <= merge_tol and x.multiplicity == y.multiplicity
                       for y in ys), x


@given(
    density_systems(n_max=3),
    hst.integers(0, 2), hst.floats(0.1, 0.9), hst.floats(0.5, 2.5), hst.floats(4.0, 15.0),
)
@settings(max_examples=30, deadline=None)
def test_chain_seeded_scan_matches_unseeded_scan(sys_, chain, frac, width, im_cap):
    # The window straddles the abscissa of one chain.  Chain roots may move
    # in their last bits; every other root comes from the same cells and
    # seeds, so it is the same to the bit.
    grid = sys_.chains
    assume(grid is not None)
    mu = grid.eigenvalues[chain % len(grid.eigenvalues)].mu
    x0 = float(np.log(abs(mu)) / sys_.h) - frac * width
    assume(x0 > -4.0)
    rect = rf.Rect(x0, x0 + width, -im_cap, im_cap)
    try:
        (plain,) = rf.find_roots_in_region(sys_, [rect])
    except ContourError:
        assume(False)
    assume(not plain.unresolved_cells)
    (seeded,) = rf.find_roots_in_region(sys_, [rect], grid=grid)
    assert seeded.total_count == plain.total_count
    assert not seeded.unresolved_cells
    _root_sets_match(seeded.all_roots(), plain.all_roots(), rf.MERGE_TOL)
    loose = [(r.lam, r.multiplicity) for r in plain.all_roots() if grid.label_for(r.lam) is None]
    assert [(r.lam, r.multiplicity) for r in seeded.unclustered_roots] == loose


def _seed_counting(monkeypatch):
    calls = []
    newton_roots = rf.newton_roots

    def counted(sys_, seeds):
        calls.append(len(seeds))
        return newton_roots(sys_, seeds)

    monkeypatch.setattr(rf, "newton_roots", counted)
    return calls


@pytest.mark.parametrize("stray", ["outside_every_circle", "in_the_next_circle"])
def test_chain_seed_converging_outside_its_circle_is_discarded(monkeypatch, stray):
    # Every chain seed is made to converge to a true root, but not one in its
    # own circle: no chain root is kept, and the scan is the unseeded one.
    s = make_example1(1.0, 2.0)
    rect = rf.Rect(-1.0, 1.5, -20.0, 20.0)
    grid = s.chains
    (plain,) = rf.find_roots_in_region(s, [rect])
    roots = [r.lam for r in plain.all_roots()]
    loose = [lam for lam in roots if grid.label_for(lam) is None]
    assert loose
    newton_roots = rf.newton_roots
    chain_batches = []

    def stray_chain_seeds(sys_, seeds):
        results = newton_roots(sys_, seeds)
        if chain_batches:
            return results
        chain_batches.append(seeds)
        if stray == "outside_every_circle":
            return [(loose[0], 0.0, True) for _ in seeds]
        # each seed takes the root its neighbour converged to
        return [results[(i + 1) % len(results)] for i in range(len(results))]

    monkeypatch.setattr(rf, "newton_roots", stray_chain_seeds)
    edges = rf._EdgeCache(s)
    (total,) = edges.windings([rect])
    assert rf._chain_roots(s, [rect], [total], grid, edges) == [[]]
    assert chain_batches and all(grid.label_for(c) is not None for c in chain_batches[0])

    chain_batches.clear()
    (seeded,) = rf.find_roots_in_region(s, [rect], grid=grid)
    assert seeded.total_count == plain.total_count == total
    assert [(r.lam, r.multiplicity) for r in seeded.all_roots()] == [
        (r.lam, r.multiplicity) for r in plain.all_roots()]


def test_chain_seeds_spare_most_newton_seeds_on_the_shared_scan(monkeypatch):
    # rotation: A_-1 a quarter turn, atom -I; the window of its shared scan
    s = NeutralSystem(
        n=2, r=0, h=1.0, A_minus1=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        A2=DelayKernel.zero(2, 1.0), A3=DelayKernel.from_atoms([(0.0, -np.eye(2))], 2, 1.0),
        B=np.zeros((2, 0)),
    )
    report = SystemAnalysis(s).scan
    grid = s.chains
    calls = _seed_counting(monkeypatch)
    (plain,) = rf.find_roots_in_region(s, [report.window], None)
    plain_seeds = sum(calls)
    calls.clear()
    (seeded,) = rf.find_roots_in_region(s, [report.window], grid)
    seeded_seeds = sum(calls)
    assert seeded.total_count == plain.total_count == report.total_count
    assert 3 * seeded_seeds <= plain_seeds, (seeded_seeds, plain_seeds)


@pytest.mark.parametrize("cell, expected", [
    (rf.Rect(-1.0, 1.0, -40.0, 40.0),
     [0j, -0.6497098038641624 - 25.002064023446753j, -0.49635364529232207 + 22.954212817800055j,
      -0.17739158800942467 + 20.86729139045414j, 0.41640771887805417 + 19.474457435026025j]),
    (rf.Rect(-0.75, -0.5, 2.5, 3.125),
     [-0.625 + 2.8125j, -0.577148543584943 + 2.9727968032266734j,
      -0.5980535213293436 + 2.99368143037689j, -0.630680190646083 + 2.7871078177155115j,
      -0.600997605003053 + 2.9930912995999455j]),
])
def test_cell_seeds_are_fixed_by_the_cell_corners(cell, expected):
    # Every scan's roots, and so every written output, rest on these starts:
    # a change to the cell seeding shows here before it shows in an output.
    assert rf._cell_seeds(cell) == expected


def test_owned_roots_margin_and_half_open_sides():
    cell = rf.Rect(0.0, 1.0, 0.0, 1.0)
    inner = rf.LocatedRoot(0.5 + 0.5j, 1, 0.0)
    near = rf.LocatedRoot(0.95 + 0.5j, 1, 0.0)
    assert rf._owned_roots(cell, [inner], margin=0.1) == [inner]
    # within the margin of a side: the cell cannot take its roots
    assert rf._owned_roots(cell, [inner, near], margin=0.1) is None
    assert rf._owned_roots(cell, [inner, near], margin=0.01) == [inner, near]
    # a root on the corner four cells share belongs to the one it starts,
    # which lies on its sides and so cannot take it either
    corner = rf.LocatedRoot(1.0 + 1.0j, 1, 0.0)
    cells = [rf.Rect(0.0, 1.0, 0.0, 1.0), rf.Rect(1.0, 2.0, 0.0, 1.0),
             rf.Rect(0.0, 1.0, 1.0, 2.0), rf.Rect(1.0, 2.0, 1.0, 2.0)]
    assert [rf._owned_roots(c, [corner], margin=0.0) for c in cells] == [[], [], [], None]
