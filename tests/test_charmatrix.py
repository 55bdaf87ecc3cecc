import cmath
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from neutralsys import charmatrix as cm
from neutralsys import rootfinder as rf
from neutralsys.sysmodel import DelayKernel, NeutralSystem

from conftest import (
    density_systems,
    make_density_system,
    make_example1,
    make_example2,
)


def factored_det_example1(lam, alpha, beta):
    g = lam * np.exp(-lam)
    return (alpha - lam + g) * (beta - lam + g)


def factored_det_example2(lam):
    return (lam + lam * np.exp(-lam) + 1.0) ** 2


def random_points(seed, count, cap):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-cap, cap, 4 * count) + 1j * rng.uniform(-cap, cap, 4 * count)
    return pts[np.abs(pts) <= cap][:count]


def test_det_matches_factored_forms():
    s1 = make_example1(1.0, 2.0)
    s2 = make_example2(1.0)
    lams = random_points(42, 100, 20.0)
    d1 = np.linalg.det(cm.delta_batch(s1, lams))
    d2 = np.linalg.det(cm.delta_batch(s2, lams))
    f1 = factored_det_example1(lams, 1.0, 2.0)
    f2 = factored_det_example2(lams)
    assert np.max(np.abs(d1 - f1) / np.abs(f1)) < 1e-10
    assert np.max(np.abs(d2 - f2) / np.abs(f2)) < 1e-10


def test_example2_zero_set_identity():
    # (lam + lam e^{-lam} + 1) and (lam e^lam + lam + e^lam) agree up to e^{-lam}
    lams = random_points(7, 50, 10.0)
    lhs = lams + lams * np.exp(-lams) + 1.0
    rhs = np.exp(-lams) * (lams * np.exp(lams) + lams + np.exp(lams))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_delta_at_zero():
    s1 = make_example1(1.0, 2.0)
    assert np.allclose(cm.delta(s1, 0.0), np.diag([1.0, 2.0]), atol=1e-15)
    assert np.linalg.det(cm.delta(s1, 0.0)) == pytest.approx(2.0)
    s2 = make_example2(1.0)
    assert np.linalg.det(cm.delta(s2, 0.0)) == pytest.approx(1.0)


def test_delta_at_zero_includes_density_exactly():
    # at lam = 0 every lam-dependent factor drops and only the A3 mass remains
    M = np.array([[0.5, -1.0], [2.0, 0.25]])
    sys_ = NeutralSystem(
        n=2, r=0, h=2.0,
        A_minus1=0.4 * np.eye(2),
        A2=DelayKernel.zero(2, 2.0),
        A3=DelayKernel(np.array([-2.0, -0.5, 0.0]), np.stack([M, 3.0 * M])),
        B=np.zeros((2, 0)),
    )
    expected = 1.5 * M + 0.5 * 3.0 * M
    assert np.allclose(cm.delta(sys_, 0.0), expected, rtol=0, atol=1e-14)


def test_det_zero_at_known_root():
    s = make_example1(0.0, 0.0)
    assert abs(np.linalg.det(cm.delta(s, 2j * np.pi))) < 1e-12


def test_density_closed_form_matches_per_segment_quadrature():
    sys_ = make_density_system()

    def oracle(lam, nodes=4001):
        out = -lam * np.eye(2) + lam * np.exp(-lam * sys_.h) * sys_.A_minus1
        for ker, lam_factor in ((sys_.A2, lam), (sys_.A3, 1.0)):
            for i in range(ker.segments.shape[0]):
                a, b = ker.breakpoints[i], ker.breakpoints[i + 1]
                s_grid = np.linspace(a, b, nodes)
                w = np.full(nodes, (b - a) / (nodes - 1))
                w[0] = w[-1] = 0.5 * (b - a) / (nodes - 1)
                out = out + lam_factor * np.sum(w * np.exp(lam * s_grid)) * ker.segments[i]
        for theta, M in sys_.A3.atoms:
            out = out + np.exp(lam * theta) * M
        return out

    for lam in (0.7 + 1.3j, -2.0 + 0.4j, 3.0j, 0.0, 1e-9 + 1e-10j):
        assert np.max(np.abs(cm.delta(sys_, lam) - oracle(lam))) < 5e-8


def test_derivative_closed_form_pure_neutral():
    sys_ = NeutralSystem(
        n=2, r=0, h=1.5,
        A_minus1=np.array([[0.2, 1.0], [0.0, -0.4]]),
        A2=DelayKernel.zero(2, 1.5),
        A3=DelayKernel.zero(2, 1.5),
        B=np.zeros((2, 0)),
    )
    for lam in (0.3 - 0.8j, 0.0, 2.0):
        expected = -np.eye(2) + (1 - lam * 1.5) * np.exp(-lam * 1.5) * sys_.A_minus1
        assert np.allclose(cm.delta_derivative(sys_, lam), expected, atol=1e-14)


def test_derivative_matches_central_differences():
    sys_ = make_density_system()
    pts = random_points(5, 100, 10.0)
    eps = 1e-5
    worst = 0.0
    for lam in pts:
        fd = (cm.delta(sys_, lam + eps) - cm.delta(sys_, lam - eps)) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(cm.delta_derivative(sys_, lam) - fd))))
    assert worst < 1e-6


def test_det_derivative_product_rule_oracle():
    # d(det)/dlam for the factored determinant, via the product rule on the
    # scalar factors, against a central difference of det D
    alpha, beta = 0.0, 0.0
    s = make_example1(alpha, beta)

    def factor(lam, c):
        return c - lam + lam * np.exp(-lam)

    def dfactor(lam):
        return -1.0 + np.exp(-lam) - lam * np.exp(-lam)

    for lam in (2j * np.pi, 0.7 + 0.2j, -0.5 + 3.0j):
        oracle = dfactor(lam) * factor(lam, beta) + factor(lam, alpha) * dfactor(lam)
        eps = 1e-6
        d_plus, d_minus = np.linalg.det(cm.delta_batch(s, [lam + eps, lam - eps]))
        fd = (d_plus - d_minus) / (2 * eps)
        assert abs(fd - oracle) < 1e-6 * max(1.0, abs(oracle))


def test_conjugate_symmetry():
    for sys_ in (make_example1(1.0, 2.0), make_density_system()):
        pts = random_points(11, 25, 15.0)
        D1 = cm.delta_batch(sys_, np.conj(pts))
        D2 = np.conj(cm.delta_batch(sys_, pts))
        assert np.allclose(D1, D2, rtol=0, atol=1e-12)
        d1 = np.linalg.det(cm.delta_batch(sys_, np.conj(pts)))
        d2 = np.conj(np.linalg.det(cm.delta_batch(sys_, pts)))
        assert np.allclose(d1, d2, rtol=1e-12, atol=1e-12)


def reference_terms(sys_, lam):
    """(c_k, c_k', M_k) for every term of D(lam), one segment at a time with
    scalar arithmetic: the closed forms and series guards the term table
    evaluates in bulk.

    Also returns the term magnitudes sum |c_k| |M_k| and sum |c_k'| |M_k|,
    which scale rounding errors, and the extra rounding in D' from phi1: just
    above the series cut its closed form cancels down to x^2 / 2, so a
    rounding difference in e^x reaches c_k' amplified by 1/|x|^2.
    """

    def phi0(x):
        if abs(x) < cm._SERIES_CUT:
            return 1.0 + x / 2.0 + x**2 / 6.0 + x**3 / 24.0 + x**4 / 120.0
        return (cmath.exp(x) - 1.0) / x

    def phi1(x):
        if abs(x) < cm._SERIES_CUT:
            return 0.5 + x / 3.0 + x**2 / 8.0 + x**3 / 30.0 + x**4 / 144.0
        return ((x - 1.0) * cmath.exp(x) + 1.0) / x**2

    h = sys_.h
    eh = cmath.exp(-lam * h)
    terms = [(-lam, -1.0, np.eye(sys_.n)), (lam * eh, (1.0 - lam * h) * eh, sys_.A_minus1)]
    amplified = 0.0
    for ker, is_a2 in ((sys_.A2, True), (sys_.A3, False)):
        bp = ker.breakpoints
        for i, M in enumerate(ker.segments):
            a, w = bp[i], bp[i + 1] - bp[i]
            x, ea = lam * w, cmath.exp(lam * a)
            if is_a2:
                c = ea * x * phi0(x)
                dc = ea * (a * x * phi0(x) + w * cmath.exp(x))
            else:
                c = w * ea * phi0(x)
                dc = w * ea * (a * phi0(x) + w * phi1(x))
                if abs(x) >= cm._SERIES_CUT:
                    amplified += abs(w * w * ea) * np.max(np.abs(M)) / abs(x) ** 2
            terms.append((c, dc, M))
    for theta, M in sys_.A3.atoms:
        e = cmath.exp(lam * theta)
        terms.append((e, theta * e, M))
    scale = sum(abs(c) * np.max(np.abs(M)) for c, _, M in terms)
    dscale = sum(abs(dc) * np.max(np.abs(M)) for _, dc, M in terms)
    return terms, scale, dscale, 1e-14 * amplified


@given(density_systems(), hst.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fused_evaluation_agrees_with_views_reference_and_differences(sys_, seed):
    rng = np.random.default_rng(seed)
    widths = np.concatenate([np.diff(sys_.A2.breakpoints), np.diff(sys_.A3.breakpoints)])
    # lam = 0 exactly, |lam w| just inside and just outside the series cut for
    # one segment width, and scattered points
    w = rng.choice(widths)
    cut = cm._SERIES_CUT / w * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    pts = np.concatenate([
        [0.0],
        (1.0 - 1e-3) * cut,
        (1.0 + 1e-3) * cut,
        rng.uniform(-2, 2, 6) + 1j * rng.uniform(-15, 15, 6),
    ])
    D, dD = cm.delta_and_derivative(sys_, pts)
    batch = cm.delta_batch(sys_, pts), cm.delta_derivative_batch(sys_, pts)
    eps = 1e-5
    for i, lam in enumerate(pts):
        terms, scale, dscale, phi1_err = reference_terms(sys_, complex(lam))
        single = cm.delta(sys_, lam), cm.delta_derivative(sys_, lam)
        # a point evaluates to the same bits alone as in a batch
        assert single[0].tobytes() == D[i].tobytes() and single[1].tobytes() == dD[i].tobytes()
        for view in (batch[0][i], single[0], sum(c * M for c, _, M in terms)):
            assert np.max(np.abs(D[i] - view)) <= 1e-13 * scale
        for view in (batch[1][i], single[1], sum(dc * M for _, dc, M in terms)):
            assert np.max(np.abs(dD[i] - view)) <= 1e-13 * dscale + phi1_err
        fd = (cm.delta(sys_, lam + eps) - cm.delta(sys_, lam - eps)) / (2 * eps)
        assert np.max(np.abs(dD[i] - fd)) <= 1e-6 * (scale + dscale)


def test_term_table_is_built_once_and_does_not_pin_the_system():
    sys_ = make_density_system()
    assert sys_.terms is sys_.terms
    cm.delta(sys_, 0.5j)
    ref = weakref.ref(sys_)
    del sys_
    gc.collect()
    assert ref() is None


def test_eigenvector_candidates_evaluate_delta_once(monkeypatch):
    # D(lam) and the term scale of its cut come from one set of coefficients
    calls = []
    real = cm._coefficients
    monkeypatch.setattr(cm, "_coefficients", lambda t, lam: calls.append(lam) or real(t, lam))
    cands = cm.eigenvector_candidates(make_example1(0.0, 0.0), 2j * np.pi, tol=1e-8)
    assert len(cands) == 1
    assert len(calls) == 1
    assert cm.kernel_basis(make_example1(0.0, 0.0), 2j * np.pi, tol=1e-8).shape == (2, 1)
    assert len(calls) == 2


def test_chain_grid_example2():
    grid = cm.chain_grid(make_example2(0.0))
    assert len(grid.eigenvalues) == 1
    assert grid.eigenvalues[0].rootspace_dim == 2
    assert grid.radius == pytest.approx(np.pi / 3.0)
    for k in range(-10, 11):
        assert grid.center(0, k) == pytest.approx(1j * (2 * k + 1) * np.pi)


def test_chain_grid_example1():
    grid = cm.chain_grid(make_example1(1.0, 2.0))
    assert grid.eigenvalues[0].rootspace_dim == 2
    for k in range(-5, 6):
        assert grid.center(0, k) == pytest.approx(2j * np.pi * k)


def test_chain_grid_contracting_diagonal():
    sys_ = NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=np.diag([0.5, 0.5]),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.zero(2, 1.0),
        B=np.zeros((2, 0)),
    )
    grid = cm.chain_grid(sys_)
    assert len(grid.eigenvalues) == 1  # one chain with rootspace dimension 2
    assert grid.eigenvalues[0].rootspace_dim == 2
    for k in range(4):
        assert grid.center(0, k) == pytest.approx(np.log(0.5) + 2j * np.pi * k)


def test_chain_grid_h_scaling():
    sys_ = NeutralSystem(
        n=1, r=0, h=2.0,
        A_minus1=np.array([[-0.5]]),
        A2=DelayKernel.zero(1, 2.0),
        A3=DelayKernel.zero(1, 2.0),
        B=np.zeros((1, 0)),
    )
    grid = cm.chain_grid(sys_)
    assert grid.center(0, 0) == pytest.approx((np.log(0.5) + 1j * np.pi) / 2.0)
    assert grid.center(0, 1) == pytest.approx((np.log(0.5) + 3j * np.pi) / 2.0)


def test_chain_grid_singular_matrix_keeps_nonzero_chains():
    sys_ = NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=np.diag([0.5, 0.0]),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.zero(2, 1.0),
        B=np.zeros((2, 0)),
    )
    grid = cm.chain_grid(sys_)
    assert len(grid.eigenvalues) == 1
    assert grid.eigenvalues[0].mu == pytest.approx(0.5)
    assert grid.eigenvalues[0].rootspace_dim == 1


def test_chain_grid_rejects_nilpotent():
    sys_ = NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=np.array([[0.0, 1.0], [0.0, 0.0]]),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.zero(2, 1.0),
        B=np.zeros((2, 0)),
    )
    assert cm.chain_grid(sys_) is None
    assert sys_.chains is None


def test_eigenvector_candidates():
    s = make_example1(0.0, 0.0)
    lam = 2j * np.pi
    cands = cm.eigenvector_candidates(s, lam, tol=1e-8)
    assert len(cands) == 1
    c = cands[0]
    assert np.linalg.norm(c.C) == pytest.approx(1.0)
    assert c.residual <= c.tol
    expected_head = c.C - np.exp(-lam) * (s.A_minus1 @ c.C)
    assert np.allclose(c.head, expected_head, rtol=0, atol=1e-15)
    # history segment of the eigenvector carries the exponential profile
    theta = np.array([-1.0, -0.5, 0.0])
    assert np.allclose(c.tail(theta), np.exp(lam * theta)[:, None] * c.C)


def test_kernel_basis_regular_point():
    s = make_example1(1.0, 2.0)
    assert cm.kernel_basis(s, 0.5 + 0.5j).shape == (2, 0)


def test_kernel_is_found_where_d_vanishes():
    # At every root of example 2 with gamma = 0, D(lam) vanishes up to the
    # root's error: both singular values are tiny, so a cutoff relative to
    # the largest of them finds no kernel at a root of geometric multiplicity 2.
    s = make_example2(0.0)
    (report,) = rf.find_roots_in_region(s, [rf.Rect(-1.0, 1.0, -40.0, 40.0)], grid=s.chains)
    roots = report.roots
    assert roots
    for r in roots:
        assert cm.kernel_basis(s, r.lam).shape == (2, 2)
        cands = cm.eigenvector_candidates(s, r.lam)
        assert len(cands) == 2
        assert all(c.residual <= c.tol for c in cands)


def test_subspace_angle():
    assert cm.subspace_angle([1.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert cm.subspace_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)
    # phase factors do not change the line

    assert cm.subspace_angle([1.0, 0.0], [1j, 0.0]) == pytest.approx(0.0, abs=1e-7)
