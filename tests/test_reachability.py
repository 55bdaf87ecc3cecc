import numpy as np
import pytest

from neutralsys.reachability import _BasisControls, build_steering_probe, rank_profile
from neutralsys.sysmodel import DelayKernel, NeutralSystem

from conftest import make_reach_fixture


def make_scalar_ode_with_input():
    return NeutralSystem(
        n=1, r=1, h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.array([[-1.0]]))], 1, 1.0),
        B=np.array([[1.0]]),
    )


def test_basis_controls_match_dense_one_hot_layout():
    nsteps, q, r = 7, 3, 2
    interval = np.minimum((np.arange(nsteps) * q) // nsteps, q - 1)
    dense = np.zeros((nsteps, r, q * r))
    for k in range(nsteps):
        for c in range(r):
            dense[k, c, interval[k] * r + c] = 1.0
    controls = _BasisControls(interval, r, q * r)
    assert all(np.array_equal(controls[k], dense[k]) for k in range(nsteps))


def test_zero_input_matrix_gives_zero_probe():
    s = make_reach_fixture(b_scale=0.0)
    probe = build_steering_probe(s, 1.5, m=50, q=100)
    assert np.all(probe.matrix == 0.0)
    assert np.all(probe.singular_values == 0.0)
    assert probe.effective_rank() == 0


def test_scalar_ode_reachable_immediately():
    s = make_scalar_ode_with_input()
    for T in (0.2, 1.0):
        probe = build_steering_probe(s, T, m=50, q=50)
        assert probe.singular_values[0] > 0.0


def test_probe_dimensions():
    s = make_reach_fixture()
    probe = build_steering_probe(s, 2.5, m=50, q=100)
    assert probe.state_dim == 2 * 51 + 2
    assert probe.control_dim == 100
    assert probe.matrix.shape == (probe.state_dim, probe.control_dim)
    sv = probe.singular_values
    assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0.0)


def test_control_intervals_capped_at_steps():
    s = make_reach_fixture()
    probe = build_steering_probe(s, 0.5, m=50, q=400)
    assert probe.control_dim == 25  # nsteps = 25 < q


def test_rank_profile_transition():
    s = make_reach_fixture()
    profile, sigmas = rank_profile(s, [0.5, 1.5, 2.5, 3.5], m=100, q=400)
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


def test_scaling_covariance():
    p1 = build_steering_probe(make_reach_fixture(1.0), 1.5, m=50, q=100)
    p3 = build_steering_probe(make_reach_fixture(3.0), 1.5, m=50, q=100)
    assert np.allclose(p3.singular_values, 3.0 * p1.singular_values,
                       rtol=1e-13, atol=1e-13)


def test_transition_decision_stable_under_grid_doubling():
    s = make_reach_fixture()
    r_lo, _ = rank_profile(s, [1.5, 2.5], m=100, q=400)
    r_hi, _ = rank_profile(s, [1.5, 2.5], m=200, q=800)
    for prof in (r_lo, r_hi):
        ranks = [e.effective_rank for e in prof.entries]
        assert ranks[1] > ranks[0]


def test_profile_csv_and_json():
    s = make_reach_fixture()
    profile, sigmas = rank_profile(s, [0.5, 1.5], m=50, q=100)
    text = profile.to_csv(sigmas)
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
