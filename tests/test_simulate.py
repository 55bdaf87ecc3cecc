import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from neutralsys import charmatrix as cm
from neutralsys import rootfinder as rf
from neutralsys.errors import SimulationBlowUpError
from neutralsys.simulate import HistorySegment, Trajectory, _integrate, norm_profile, simulate
from neutralsys.sysmodel import DelayKernel, NeutralSystem

from conftest import (
    density_systems,
    make_density_system,
    make_example1,
    make_example2,
    make_scalar_decay,
)


def test_scalar_exponential_error_bound():
    s = make_scalar_decay()
    for m in (100, 400):
        phi = HistorySegment.constant(s, [1.0], m)
        traj = simulate(s, phi, None, T=5.0)
        exact = np.exp(-traj.times)
        rel = np.abs(traj.z_values[:, 0].real - exact) / exact
        assert rel.max() <= 5.0 * (s.h / m)


def test_convergence_order_first_order():
    s = make_scalar_decay()
    errs = []
    for m in (100, 200, 400, 800):
        phi = HistorySegment.constant(s, [1.0], m)
        traj = simulate(s, phi, None, T=5.0)
        errs.append(abs(traj.z_values[-1, 0].real - np.exp(-5.0)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(0.8 <= p <= 1.2 for p in orders)


def test_eigenmode_reproduced_neutral_chain():
    # eigenvector initial data must evolve as a pure exponential; for the
    # degenerate pointwise system the scheme reproduces it exactly
    s = make_example1(0.0, 0.0)
    lam = 2j * np.pi
    C = cm.kernel_basis(s, lam, tol=1e-8)[:, 0]
    m = 2000
    grid = np.linspace(-1.0, 0.0, m + 1)
    phi = HistorySegment(np.exp(lam * grid)[:, None] * C[None, :])
    traj = simulate(s, phi, None, T=1.0)
    exact = np.exp(lam * traj.times)[:, None] * C[None, :]
    dev = np.linalg.norm(traj.z_values - exact, axis=1)
    assert dev.max() <= 1e-2


def test_eigenmode_reproduced_distributed_system():
    # nontrivial check on the density system: locate a root, feed its
    # eigenvector history, compare against the exponential; first-order
    # accurate, calibrated threshold at m = 1000
    s = make_density_system()
    lam, _, ok = rf.newton_root(s, 0.2)
    assert ok
    C = cm.kernel_basis(s, lam, tol=1e-6)[:, 0]
    m = 1000
    grid = np.linspace(-1.0, 0.0, m + 1)
    phi = HistorySegment(np.exp(lam * grid)[:, None] * C[None, :])
    traj = simulate(s, phi, None, T=1.0)
    exact = np.exp(lam * traj.times)[:, None] * C[None, :]
    dev = np.linalg.norm(traj.z_values - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert dev.max() <= 2e-3


def test_linearity():
    s = make_example2(1.0, np.array([[1.0], [0.5]]))
    m = 200
    rng = np.random.default_rng(8)
    phi1 = HistorySegment.random(s, m, seed=1)
    phi2 = HistorySegment.random(s, m, seed=2)
    phi_sum = HistorySegment(phi1.values + phi2.values)
    u1 = rng.standard_normal((m * 3, 1))
    u2 = rng.standard_normal((m * 3, 1))
    t1 = simulate(s, phi1, u1, T=3.0)
    t2 = simulate(s, phi2, u2, T=3.0)
    t12 = simulate(s, phi_sum, u1 + u2, T=3.0)
    scale = np.abs(t1.z_values).max() + np.abs(t2.z_values).max()
    assert np.max(np.abs(t12.z_values - t1.z_values - t2.z_values)) <= 1e-8 * scale


def test_zero_dynamics():
    s = make_example2(0.0)
    traj = simulate(s, HistorySegment.zero(s, 100), None, T=2.0)
    assert np.all(traj.z_values == 0.0)
    assert np.all(traj.m2_norm == 0.0)


def test_delay_shift_identity_pure_neutral():
    # with no state terms, w(t) = z(t) - A z(t-h) is constant; the scheme
    # keeps it exactly constant
    s = NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=np.array([[0.4, 0.3], [0.0, -0.2]]),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.zero(2, 1.0),
        B=np.zeros((2, 0)),
    )
    m = 100
    phi = HistorySegment.random(s, m, seed=4)
    traj = simulate(s, phi, None, T=4.0)
    z = traj.z_values
    w0 = phi.values[-1] - s.A_minus1 @ phi.values[0]
    for k in range(m, z.shape[0]):
        w = z[k] - s.A_minus1 @ z[k - m]
        assert np.allclose(w, w0, rtol=0, atol=1e-12)


def test_norm_profile_scalar_decreasing():
    s = make_scalar_decay()
    traj = simulate(s, HistorySegment.constant(s, [1.0], 200), None, T=6.0)
    prof = norm_profile(traj)
    after_delay = prof[prof[:, 0] >= 1.0]
    assert np.all(np.diff(after_delay[:, 1]) < 0.0)


def test_norm_profile_case_ii_growth():
    # Jordan block on the unit circle: trajectories eventually dwarf the
    # initial state (horizon calibrated against a refined grid)
    s = make_example1(-1.0, -1.0)
    m = 400
    phi = HistorySegment.random(s, m, seed=11)
    traj = simulate(s, phi, None, T=30.0)
    assert traj.m2_norm[-1] > 2.0 * traj.m2_norm[0]


def test_control_callable_matches_sampled():
    s = make_example2(0.0, np.array([[1.0], [0.0]]))
    m = 100
    phi = HistorySegment.zero(s, m)
    func = lambda t: np.array([np.sin(t)])
    times = np.arange(3 * m) * (s.h / m)
    table = np.sin(times)[:, None]
    t1 = simulate(s, phi, func, T=3.0)
    t2 = simulate(s, phi, table, T=3.0)
    assert np.array_equal(t1.z_values, t2.z_values)


def test_atom_snapped_to_nearest_grid_node():
    # an atom at an off-grid location behaves exactly like one at the nearest
    # node of the history grid
    m = 10  # dt = 0.1; -0.333 snaps to -0.3
    M = np.array([[-0.8]])
    off = NeutralSystem(
        n=1, r=0, h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(-0.333, M)], 1, 1.0),
        B=np.zeros((1, 0)),
    )
    on = NeutralSystem(
        n=1, r=0, h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(-0.3, M)], 1, 1.0),
        B=np.zeros((1, 0)),
    )
    phi = HistorySegment.random(off, m, seed=6)
    t_off = simulate(off, phi, None, T=3.0)
    t_on = simulate(on, phi, None, T=3.0)
    assert np.array_equal(t_off.z_values, t_on.z_values)


def test_blowup_reported():
    s = NeutralSystem(
        n=1, r=0, h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.array([[50.0]]))], 1, 1.0),
        B=np.zeros((1, 0)),
    )
    phi = HistorySegment.constant(s, [1.0], 100)
    with pytest.raises(SimulationBlowUpError) as err:
        simulate(s, phi, None, T=40.0)
    assert 0.0 < err.value.t_blowup <= 40.0
    with pytest.raises(SimulationBlowUpError) as oracle:
        _integrate_oracle(s, phi.values[:, :, None], None, 4000, 100)
    assert err.value.t_blowup == oracle.value.t_blowup


def _integrate_oracle(sys_, hist0, controls, nsteps, m):
    """The per-step formula the window operator replaced, kept as a reference:
    np.gradient over the window, one einsum per density, each snapped atom and
    B u, evaluated afresh on every step."""
    n = sys_.n
    dt = sys_.h / m
    c = hist0.shape[2]
    Z = np.zeros((m + nsteps + 1, n, c), dtype=hist0.dtype)
    Z[: m + 1] = hist0

    grid = np.linspace(-sys_.h, 0.0, m + 1)
    trapezoid = np.full(m + 1, dt)
    trapezoid[0] = trapezoid[-1] = 0.5 * dt

    def weights(kernel):
        if kernel.has_zero_density():
            return None
        return np.stack([kernel.eval(t) for t in grid]) * trapezoid[:, None, None]

    W2 = weights(sys_.A2)
    W3 = weights(sys_.A3)
    atom_terms = [
        (int(np.clip(np.round((theta + sys_.h) / dt), 0, m)), M)
        for theta, M in sys_.A3.atoms
    ]
    A = sys_.A_minus1
    B = sys_.B

    w_cur = Z[m] - A @ Z[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            win = Z[k : k + m + 1]
            rhs = np.zeros((n, c), dtype=Z.dtype)
            if W3 is not None:
                rhs += np.einsum("pij,pjc->ic", W3, win)
            if W2 is not None:
                dwin = np.gradient(win, dt, axis=0)
                rhs += np.einsum("pij,pjc->ic", W2, dwin)
            for idx, M in atom_terms:
                rhs += M @ win[idx]
            if controls is not None:
                rhs += B @ controls[k]
            w_cur = w_cur + dt * rhs
            Z[k + m + 1] = w_cur + A @ Z[k + 1]
            if (k % 50 == 0 or k == nsteps - 1) and not np.all(np.isfinite(Z[k + m + 1])):
                raise SimulationBlowUpError((k + 1) * dt)
    return Z


def _assert_matches_oracle(sys_, hist0, controls, nsteps, m):
    Z = _integrate(sys_, hist0, controls, nsteps, m)
    ref = _integrate_oracle(sys_, hist0, controls, nsteps, m)
    assert Z.shape == ref.shape and Z.dtype == ref.dtype
    assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))


def _both_densities_off_grid_atoms():
    rng = np.random.default_rng(21)
    bp = np.array([-1.5, -0.9, -0.4, 0.0])
    return NeutralSystem(
        n=2, r=2, h=1.5,
        A_minus1=np.array([[0.3, -0.2], [0.1, 0.4]]),
        A2=DelayKernel(bp, rng.uniform(-1, 1, (3, 2, 2))),
        A3=DelayKernel(bp, rng.uniform(-1, 1, (3, 2, 2)),
                       ((-1.234, rng.uniform(-1, 1, (2, 2))), (-0.517, rng.uniform(-1, 1, (2, 2))),
                        (-0.05, rng.uniform(-1, 1, (2, 2))))),
        B=np.array([[1.0, 0.5], [-0.25, 1.0]]),
    )


def _end_cell_densities(m):
    # A2 and A3 nonzero only on the first and the last grid node: the whole
    # derivative term comes from the one-sided ends of the stencil
    dt = 1.0 / m
    bp = np.array([-1.0, -1.0 + 0.5 * dt, -0.5 * dt, 0.0])
    seg = np.array([[[0.7, -0.3], [0.2, 0.5]], np.zeros((2, 2)), [[-0.4, 0.1], [0.6, -0.8]]])
    return NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=0.25 * np.eye(2),
        A2=DelayKernel(bp, seg),
        A3=DelayKernel(bp, seg[::-1]),
        B=np.zeros((2, 0)),
    )


@pytest.mark.parametrize("m", [8, 9, 50])
@pytest.mark.parametrize("case", ["density", "off_grid_atoms", "end_cells", "complex", "columns"])
def test_window_operator_matches_per_step_formula(case, m):
    rng = np.random.default_rng(m)
    nsteps = 4 * m + 3
    controls = None
    if case == "density":
        s = make_density_system()
    elif case == "end_cells":
        s = _end_cell_densities(m)
    else:
        s = _both_densities_off_grid_atoms()
    c = 3 if case == "columns" else 1
    hist0 = rng.uniform(-1, 1, (m + 1, s.n, c))
    if case == "complex":
        hist0 = hist0 + 1j * rng.uniform(-1, 1, hist0.shape)
    if case in ("off_grid_atoms", "columns", "complex"):
        controls = rng.standard_normal((nsteps, s.r, c))
    if case == "complex":
        controls = controls + 1j * rng.standard_normal(controls.shape)
    if case == "columns":
        # as the steering probe passes them: zero history, unit pulses
        hist0 = np.zeros_like(hist0)
        controls = np.zeros((nsteps, s.r, c))
        controls[0, :, :s.r] = np.eye(s.r)
        controls[m // 2, 0, 2] = 1.0
    _assert_matches_oracle(s, hist0, controls, nsteps, m)


@given(density_systems(n_max=3), hst.integers(8, 40), hst.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_window_operator_matches_per_step_formula_on_random_systems(sys_, m, seed):
    rng = np.random.default_rng(seed)
    s = NeutralSystem(n=sys_.n, r=1, h=sys_.h, A_minus1=sys_.A_minus1, A2=sys_.A2, A3=sys_.A3,
                      B=rng.uniform(-1, 1, (sys_.n, 1)))
    nsteps = 3 * m
    hist0 = rng.uniform(-1, 1, (m + 1, s.n, 2))
    controls = rng.standard_normal((nsteps, 1, 2))
    _assert_matches_oracle(s, hist0, controls, nsteps, m)


def test_history_validation():
    s = make_scalar_decay()
    with pytest.raises(ValueError):
        HistorySegment(np.zeros(5))  # not one row per grid point
    with pytest.raises(ValueError):
        HistorySegment(np.zeros((1, 1)))  # m = 0
    with pytest.raises(ValueError):
        HistorySegment(np.array([[0.0], [np.inf]]))
    with pytest.raises(ValueError):
        HistorySegment.zero(s, 4)  # m too small
    with pytest.raises(ValueError):
        simulate(s, HistorySegment(np.zeros((5, 1))), None, T=1.0)  # m too small
    with pytest.raises(ValueError):
        simulate(s, HistorySegment.zero(s, 100), None, T=-1.0)
    # a wrong state dimension is rejected
    bad_dim = HistorySegment(np.zeros((101, 2)))
    with pytest.raises(ValueError):
        simulate(s, bad_dim, None, T=1.0)


def test_non_finite_control_samples_rejected():
    s = make_example2(0.0, np.array([[1.0], [0.0]]))
    phi = HistorySegment.zero(s, 16)
    with pytest.raises(ValueError, match="finite"):
        simulate(s, phi, lambda t: np.array([np.nan if t > 0.5 else 0.0]), T=1.0)
    table = np.zeros((16, 1))
    table[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        simulate(s, phi, table, T=1.0)


def _csv_writer_text(traj, complex_state):
    """The table csv.writer writes from one repr(float(...)) cell at a time."""
    n = traj.z_values.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if complex_state:
        parts = [p for j in range(n) for p in (
            (f"z{j + 1}_re", lambda z, j=j: z[j].real), (f"z{j + 1}_im", lambda z, j=j: z[j].imag))]
    else:
        parts = [(f"z{j + 1}", lambda z, j=j: np.real(z[j])) for j in range(n)]
    writer.writerow(["t"] + [name for name, _ in parts] + ["m2_norm"])
    for t, z, norm in zip(traj.times, traj.z_values, traj.m2_norm):
        writer.writerow([repr(float(t))] + [repr(float(get(z))) for _, get in parts]
                        + [repr(float(norm))])
    return buf.getvalue()


def test_trajectory_csv_matches_csv_writer():
    s = make_density_system()
    real = simulate(s, HistorySegment.random(s, 16, 5), None, T=2.0)
    assert real.to_csv() == _csv_writer_text(real, complex_state=False)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    z[0, 1] = complex(-0.0, 1e-300)
    cplx = Trajectory(np.linspace(0.0, 1.0, 5), z, np.abs(z).sum(axis=1))
    text = cplx.to_csv()
    assert text.splitlines()[0] == "t,z1_re,z1_im,z2_re,z2_im,m2_norm"
    assert text == _csv_writer_text(cplx, complex_state=True)
    # a complex state with no imaginary part is written as a real one
    flat = Trajectory(real.times, real.z_values.astype(complex), real.m2_norm)
    assert flat.to_csv() == real.to_csv()


def test_trajectory_csv():
    s = make_scalar_decay()
    traj = simulate(s, HistorySegment.constant(s, [1.0], 16), None, T=0.5)
    text = traj.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t,z1,m2_norm"
    assert len(lines) == 1 + len(traj.times)
