import numpy as np
import pytest

from neutralsys import charmatrix as cm
from neutralsys import rootfinder as rf
from conftest import (
    make_example1,
    make_example2,
    make_scalar_decay,
)


def winding_oracle(sys_, contour, nodes=10_000):
    """Independent count: cumulative principal phase over a dense fixed grid."""
    t = np.arange(nodes + 1) / nodes
    vals = cm.det_delta_batch(sys_, contour.points(t))
    phases = np.angle(vals[1:] / vals[:-1])
    return int(round(float(np.sum(phases)) / (2 * np.pi)))


def logderiv_oracle(sys_, circle, nodes=20_000):
    """Cross-check via (1/2 pi i) contour integral of trace(D^{-1} D')."""
    t = np.arange(nodes) / nodes
    pts = circle.points(t)
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
    grid = cm.chain_grid(s, 0, 6)
    c = rf.Circle(grid.center(0, 5), grid.r0 / 3.0)
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
    report = rf.find_roots_in_region(s, rf.Rect(-1.0, 1.0, -7.0, 7.0))
    roots = {np.round(r.lam, 6): r.multiplicity for r in report.all_roots()}
    assert report.total_count == 8
    assert not report.unresolved_cells
    assert roots[np.round(0.0 + 0.0j, 6)] == 4
    assert roots[np.round(2j * np.pi, 6)] == 2
    assert roots[np.round(-2j * np.pi, 6)] == 2


def test_find_roots_scalar_decay():
    s = make_scalar_decay()
    report = rf.find_roots_in_region(s, rf.Rect(-2.0, 0.5, -1.0, 1.0))
    roots = report.all_roots()
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-9)
    assert roots[0].multiplicity == 1


def test_find_roots_example2_near_axis():
    s = make_example2(0.0)
    report = rf.find_roots_in_region(s, rf.Rect(-0.1, 1.0, -40.0, 40.0))
    roots = report.all_roots()
    assert report.total_count == 24
    assert sum(r.multiplicity for r in roots) == 24
    assert all(r.lam.real < 0.0 for r in roots)
    assert all(r.multiplicity == 2 for r in roots)


def test_residual_bound_invariant():
    s = make_example1(1.0, 2.0)
    report = rf.find_roots_in_region(s, rf.Rect(-0.5, 1.0, -30.0, 30.0))
    for r in report.all_roots():
        assert r.residual <= 1e-9 * (1.0 + abs(r.lam)) ** s.n


def test_conjugate_pairing():
    s = make_example2(0.0)
    report = rf.find_roots_in_region(s, rf.Rect(-0.6, 1.0, -40.0, 40.0))
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


def test_verify_cluster_multiplicity():
    s1 = make_example1(1.0, 2.0)
    g1 = cm.chain_grid(s1, -12, 12)
    assert rf.verify_cluster_multiplicity(s1, g1, 10, 0) == (2, 2, True)

    s2 = make_example2(0.0)
    g2 = cm.chain_grid(s2, -12, 12)
    assert g2.center(0, 10) == pytest.approx(21j * np.pi)
    assert rf.verify_cluster_multiplicity(s2, g2, 10, 0) == (2, 2, True)


def test_verify_cluster_multiplicity_low_k_honest():
    # clustering is only guaranteed for large |k|; at k=0 the flag reports
    # whatever the count actually is
    s = make_example1(1.0, 2.0)
    g = cm.chain_grid(s, 0, 1)
    count, expected, match = rf.verify_cluster_multiplicity(s, g, 0, 0)
    assert expected == 2
    assert match == (count == expected)
    circle = rf.Circle(g.center(0, 0), g.radius)
    assert count == rf.count_roots_in_contour(s, circle)


def test_rightmost_scan_scalar():
    s = make_scalar_decay()
    report = rf.rightmost_root_scan(s, -2.0, 10.0)
    roots = report.all_roots()
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-9)
    assert "finite slice" in report.completeness_note


def test_rightmost_scan_example2_clean_rhp():
    report = rf.rightmost_root_scan(make_example2(1.0), -0.02, 60.0)
    assert all(r.lam.real < 0.0 for r in report.all_roots())


def test_rightmost_scan_example1_axis_roots():
    s = make_example1(0.0, 0.0)
    report = rf.rightmost_root_scan(s, -0.5, 20.0)
    roots = report.all_roots()
    expected = {0: 4, 1: 2, -1: 2, 2: 2, -2: 2, 3: 2, -3: 2}
    assert len(roots) == len(expected)
    for r in roots:
        k = int(round(r.lam.imag / (2 * np.pi)))
        assert r.lam == pytest.approx(2j * np.pi * k, abs=1e-8)
        assert r.multiplicity == expected[k]


def test_rightmost_scan_ceiling_covers_rhp_roots():
    # the two real right-half-plane roots sit beyond the chain abscissa + 1
    report = rf.rightmost_root_scan(make_example1(1.0, 2.0), -0.05, 8.0)
    rhp = [r for r in report.all_roots() if r.lam.real > 0]
    reals = sorted(r.lam.real for r in rhp)
    # frozen from an independent scalar Newton iteration on each factor
    assert len(rhp) == 2
    assert reals[0] == pytest.approx(1.3499764854011254, abs=1e-6)
    assert reals[1] == pytest.approx(2.2386458346062827, abs=1e-6)


def test_chain_labels_in_report():
    s = make_example2(0.0)
    grid = cm.chain_grid(s, -8, 8)
    report = rf.find_roots_in_region(s, rf.Rect(-0.6, 1.0, -20.0, 20.0), grid=grid)
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
    roots = [rt for rt in rf.find_roots_in_region(sys_, box).all_roots()
             if abs(rt.lam - center) <= r]
    return sorted(abs(rt.lam - center) for rt in roots)


@pytest.mark.parametrize("sys_", [make_example1(1.0, 2.0), make_example2(0.0)])
def test_cluster_convergence_trend(sys_):
    # roots pull into their chain centers as |k| grows: the largest in-circle
    # distance is non-increasing over k = 5..30 (sampled)
    grid = cm.chain_grid(sys_, 0, 31, radius_fraction=0.5)
    ks = [5, 8, 12, 17, 23, 30]
    dists = [max(_cluster_root_distances(sys_, grid, k)) for k in ks]
    assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_no_duplicate_roots_in_report():
    s = make_example2(0.0)
    report = rf.find_roots_in_region(s, rf.Rect(-0.6, 1.0, -40.0, 40.0))
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
    d_h = cm.det_delta_batch(sys_h, lams)
    d_1 = cm.det_delta_batch(sys_1, h * lams)
    assert np.max(np.abs(d_1 - h**2 * d_h) / np.abs(d_1)) < 1e-12

    rep_h = rf.find_roots_in_region(sys_h, rf.Rect(-1.5, 1.5, -6.0, 6.0))
    rep_1 = rf.find_roots_in_region(sys_1, rf.Rect(-3.0, 3.0, -12.0, 12.0))
    roots_h = [r.lam for r in rep_h.all_roots()]
    roots_1 = [r.lam / h for r in rep_1.all_roots()]
    assert len(roots_h) == len(roots_1) == 9
    for z in roots_h:
        assert min(abs(z - w) for w in roots_1) < 1e-8


def test_newton_refines_to_residual():
    s = make_example1(1.0, 2.0)
    lam, resid, ok = rf.newton_root(s, 0.2 + 6.0j)
    assert ok
    assert abs(cm.det_delta(s, lam)) <= 1e-9 * (1 + abs(lam)) ** 2


def test_spectrum_report_serialization():
    s = make_example2(0.0)
    grid = cm.chain_grid(s, -8, 8)
    report = rf.find_roots_in_region(s, rf.Rect(-0.6, 1.0, -20.0, 20.0), grid=grid)
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


def scalar_newton_reference(sys_, lam0, opts):
    """Newton iteration on det D from one seed, one point at a time."""
    lam = complex(lam0)
    prev_lam = prev_det = None
    best = (np.inf, lam)
    stall = 0
    for _ in range(opts.newton_max_iter):
        D, dD = cm.delta(sys_, lam), cm.delta_derivative(sys_, lam)
        det = complex(np.linalg.det(D))
        if not np.isfinite(abs(det)):
            return best[1], best[0], False
        if abs(det) < best[0]:
            best = (abs(det), lam)
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
            absdet = abs(complex(np.linalg.det(cm.delta(sys_, lam))))
            if absdet < best[0]:
                best = (absdet, lam)
            break
    absdet, lam = best
    return lam, absdet, absdet <= rf.residual_bound(lam, sys_.n, opts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("opts", [rf.RootFindOptions(), rf.RootFindOptions(newton_max_iter=2)])
@pytest.mark.parametrize(
    "sys_, seeds",
    [
        # D(-1) = 0: the batched solve fails for the whole stack at the first iterate
        (make_scalar_decay(), [0.3 + 0.2j, -1.0, -3.0 + 1.0j, 5.0j, -0.999]),
        # D(0) = 0; -800 overflows e^{-lam h} and stops on a non-finite det
        (make_example1(0.0, 0.0), [0.1 + 0.1j, 0.0, 0.2 + 6.0j, -0.5 - 6.5j, 2.0, -800.0]),
    ],
)
def test_newton_roots_match_newton_root_seed_for_seed(sys_, seeds, opts):
    # With newton_max_iter=2 a seed that lost its Newton step to the singular
    # one would stop before reaching the root.
    batch = rf.newton_roots(sys_, seeds, opts)
    assert len(batch) == len(seeds)
    for seed, (lam, absdet, ok) in zip(seeds, batch):
        assert isinstance(lam, np.complex128)
        for lam1, absdet1, ok1 in (
            rf.newton_root(sys_, seed, opts),
            scalar_newton_reference(sys_, seed, opts),
        ):
            assert ok == ok1
            assert abs(lam - lam1) <= 1e-12 * (1.0 + abs(lam1))
            assert absdet == pytest.approx(absdet1, rel=1e-12, abs=1e-12)


def test_region_scan_batches_newton_once_per_level(monkeypatch):
    # Each cell's depth comes from the quadrisection that made it; the first
    # of each cell's seeds is its center.
    s = make_example2(0.0)
    rect = rf.Rect(-0.6, 1.0, -40.0, 40.0)
    depth_of = {rect.center: 0}
    quadrants = rf.Rect.quadrants

    def recording_quadrants(cell, *args, **kwargs):
        children = quadrants(cell, *args, **kwargs)
        for child in children:
            depth_of[child.center] = depth_of[cell.center] + 1
        return children

    call_depths = []
    newton_roots = rf.newton_roots
    per_cell = 1 + rf.RootFindOptions().newton_restarts

    def recording_newton_roots(sys_, seeds, opts=None):
        call_depths.append({depth_of[c] for c in seeds[::per_cell]})
        return newton_roots(sys_, seeds, opts)

    def no_single_seed(*args, **kwargs):
        raise AssertionError("region scan ran a single-seed Newton iteration")

    monkeypatch.setattr(rf.Rect, "quadrants", recording_quadrants)
    monkeypatch.setattr(rf, "newton_roots", recording_newton_roots)
    monkeypatch.setattr(rf, "newton_root", no_single_seed)
    report = rf.find_roots_in_region(s, rect)
    assert sum(r.multiplicity for r in report.all_roots()) == report.total_count == 26
    assert all(len(depths) == 1 for depths in call_depths)
    levels = [depths.pop() for depths in call_depths]
    assert levels == sorted(set(levels))
    assert len(levels) > 1


def test_unresolved_cells_keep_depth_first_order():
    # The list a depth-first stack scan gives: last child first.
    s = make_example2(0.0)
    report = rf.find_roots_in_region(
        s, rf.Rect(-0.6, 1.0, -40.0, 40.0), rf.RootFindOptions(max_depth=2)
    )
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


def test_root_on_split_line_names_the_nonadditive_cell():
    # The first split of this rectangle runs through the root at -1; both
    # children touching it inflate past it and count it.
    s = make_scalar_decay()
    rect = rf.Rect(-1.0 - 0.5137 * 2.0, -1.0 + 0.4863 * 2.0, -1.0, 1.0)
    assert rect.quadrants()[0].re_max == -1.0
    opts = rf.RootFindOptions(newton_max_count=0)   # no Newton before the split
    report = rf.find_roots_in_region(s, rect, opts)
    roots = report.all_roots()
    assert len(roots) == 1 and roots[0].multiplicity == 1
    assert roots[0].lam == pytest.approx(-1.0, abs=1e-12)
    assert (
        f"winding counts not additive: cell [{rect.re_min}, {rect.re_max}] x "
        f"[{rect.im_min}, {rect.im_max}] counts 1, its children 2;"
    ) in report.completeness_note
    assert "merged" not in report.completeness_note

    clear = rf.Rect(rect.re_min + 0.1, rect.re_max + 0.1, -1.0, 1.0)
    report = rf.find_roots_in_region(s, clear, opts)
    assert report.completeness_note.endswith("winding count 1, located multiplicity 1")
