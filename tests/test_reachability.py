import tracemalloc

import numpy as np
import pytest

from neutralsys import reachability
from neutralsys.reachability import build_steering_probe, rank_profile
from neutralsys.simulate import _integrate
from neutralsys.sysmodel import DelayKernel, NeutralSystem

from conftest import make_density_system, make_reach_fixture


def make_scalar_ode_with_input():
    return NeutralSystem(
        n=1, r=1, h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.array([[-1.0]]))], 1, 1.0),
        B=np.array([[1.0]]),
    )


def make_two_input_density_system():
    s = make_density_system()
    return NeutralSystem(n=2, r=2, h=s.h, A_minus1=s.A_minus1, A2=s.A2, A3=s.A3,
                         B=np.array([[1.0, 0.5], [-0.25, 1.0]]))


def probe_from_one_hot_controls(sys_, T, m):
    """The probe matrix built without shift invariance: one simulation whose
    column j*r + c carries a unit control on step j, channel c."""
    nsteps = max(1, int(round(T / (sys_.h / m))))
    r = sys_.r
    ncols = nsteps * r
    controls = np.zeros((nsteps, r, ncols))
    for j in range(nsteps):
        controls[j, :, j * r:(j + 1) * r] = np.eye(r)
    Z = _integrate(sys_, np.zeros((m + 1, sys_.n, ncols)), controls, nsteps, m)
    tail = Z[nsteps: nsteps + m + 1]
    head = Z[nsteps + m] - sys_.A_minus1 @ Z[nsteps]
    return np.concatenate([head, tail.reshape(-1, ncols)], axis=0)


@pytest.mark.parametrize("T", [0.5, 1.5, 2.5, 3.5])
def test_probe_equals_one_hot_reference_on_reach_fixture(T):
    s = make_reach_fixture()
    probe = build_steering_probe(s, T, m=100)
    assert np.array_equal(probe.matrix, probe_from_one_hot_controls(s, T, 100))


@pytest.mark.parametrize("T", [0.5, 2.5])
def test_probe_matches_one_hot_reference_with_densities(T):
    # einsum may sum in another order when the column count changes
    s = make_two_input_density_system()
    probe = build_steering_probe(s, T, m=40)
    ref = probe_from_one_hot_controls(s, T, 40)
    assert probe.matrix.shape == ref.shape
    assert np.max(np.abs(probe.matrix - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_rank_profile_runs_one_simulation(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return _integrate(*args, **kwargs)

    monkeypatch.setattr(reachability, "_integrate", counted)
    s = make_two_input_density_system()
    horizons = [0.3, 1.1, 2.5]
    profile = rank_profile(s, horizons, m=40)
    assert calls == [100]
    for T, entry in zip(horizons, profile.entries):
        probe = build_steering_probe(s, T, m=40)
        assert entry.T == probe.T
        assert entry.effective_rank == probe.effective_rank()
        assert np.array_equal(entry.singular_values, probe.singular_values)


def make_free3():
    # x' = -x(t) + u with three inputs: the widest probe of the report workload
    return NeutralSystem(
        n=3, r=3, h=1.0,
        A_minus1=np.zeros((3, 3)),
        A2=DelayKernel.zero(3, 1.0),
        A3=DelayKernel.from_atoms([(0.0, -np.eye(3))], 3, 1.0),
        B=np.eye(3),
    )


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [make_reach_fixture, make_free3])
def test_probe_keeps_one_probe_sized_array(make):
    # numpy's SVD is untraced: it copies the matrix into LAPACK work buffers
    # from plain malloc, which tracemalloc does not see.  What is traced is
    # the probe buffer, plus a fixed allowance for the pulse response, the
    # window operator and small objects.
    s = make()
    nbytes = build_steering_probe(s, 3.5 * s.h, m=100).matrix.nbytes
    bound = 1.25 * nbytes + 256 * 1024
    assert _traced_peak(lambda: build_steering_probe(s, 3.5 * s.h, m=100)) <= bound
    horizons = [f * s.h for f in (0.5, 1.5, 2.5, 3.5)]
    assert _traced_peak(lambda: rank_profile(s, horizons, m=100)) <= bound


def test_zero_input_matrix_gives_zero_probe():
    s = make_reach_fixture(b_scale=0.0)
    probe = build_steering_probe(s, 1.5, m=50)
    assert np.all(probe.matrix == 0.0)
    assert np.all(probe.singular_values == 0.0)
    assert probe.effective_rank() == 0


def test_scalar_ode_reachable_immediately():
    s = make_scalar_ode_with_input()
    for T in (0.2, 1.0):
        probe = build_steering_probe(s, T, m=50)
        assert probe.singular_values[0] > 0.0


def test_probe_dimensions():
    s = make_reach_fixture()
    probe = build_steering_probe(s, 2.5, m=50)
    assert probe.state_dim == 2 * 51 + 2
    assert probe.control_dim == 125  # one column per step
    assert probe.matrix.shape == (probe.state_dim, probe.control_dim)
    sv = probe.singular_values
    assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0.0)


@pytest.mark.parametrize("make", [make_reach_fixture, make_two_input_density_system])
def test_one_basis_element_per_step(make):
    s = make()
    for T, nsteps in ((0.01, 1), (0.5, 25), (1.5, 75), (2.5, 125)):
        probe = build_steering_probe(s, T, m=50)
        assert probe.control_dim == nsteps * s.r
        assert np.all(np.any(probe.matrix != 0.0, axis=0))


def test_rank_profile_transition():
    s = make_reach_fixture()
    profile = rank_profile(s, [0.5, 1.5, 2.5, 3.5], m=100)
    ranks = [e.effective_rank for e in profile.entries]
    assert profile.monotone
    assert ranks[2] > ranks[1]
    # saturation only after two delay intervals
    assert ranks[2] == ranks[3]
    assert ranks[1] < ranks[2]


def test_rank_profile_requires_increasing():
    s = make_reach_fixture()
    with pytest.raises(ValueError):
        rank_profile(s, [1.0, 0.5])


@pytest.mark.parametrize("horizons", [[], [0.0, 1.0], [-1.0, 1.0]])
def test_rank_profile_rejects_empty_or_nonpositive_horizons(horizons):
    with pytest.raises(ValueError):
        rank_profile(make_reach_fixture(), horizons)


@pytest.mark.xfail(strict=True, reason="the relative cliff tau drops the m=200 rank at "
                   "T=3.5 although the column blocks nest")
def test_rank_profile_monotone_at_fine_grid():
    assert rank_profile(make_reach_fixture(), [0.5, 1.5, 2.5, 3.5], m=200).monotone


def test_scaling_covariance():
    p1 = build_steering_probe(make_reach_fixture(1.0), 1.5, m=50)
    p3 = build_steering_probe(make_reach_fixture(3.0), 1.5, m=50)
    assert np.allclose(p3.singular_values, 3.0 * p1.singular_values,
                       rtol=1e-13, atol=1e-13)


def test_transition_decision_stable_under_grid_doubling():
    s = make_reach_fixture()
    r_lo = rank_profile(s, [1.5, 2.5], m=100)
    r_hi = rank_profile(s, [1.5, 2.5], m=200)
    for prof in (r_lo, r_hi):
        ranks = [e.effective_rank for e in prof.entries]
        assert ranks[1] > ranks[0]


def test_profile_csv_and_json():
    s = make_reach_fixture()
    profile = rank_profile(s, [0.5, 1.5], m=50)
    text = profile.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("T,sigma_1")
    assert len(lines) == 3
    doc = profile.to_json_dict()
    assert doc["tau"] == 1e-6
    assert len(doc["entries"]) == 2


def test_probe_rejects_bad_arguments():
    s = make_reach_fixture()
    with pytest.raises(ValueError):
        build_steering_probe(s, -1.0)
    with pytest.raises(ValueError):
        build_steering_probe(s, 1.0, m=4)
    with pytest.raises(ValueError):
        build_steering_probe(make_reach_fixture(0.0).__class__(
            n=1, r=0, h=1.0,
            A_minus1=np.zeros((1, 1)),
            A2=DelayKernel.zero(1, 1.0),
            A3=DelayKernel.zero(1, 1.0),
            B=np.zeros((1, 0)),
        ), 1.0)
