import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from neutralsys import charmatrix as cm
from neutralsys import rootfinder as rf
from neutralsys import structural as sr
from neutralsys.stability import SystemAnalysis
from neutralsys.sysmodel import DelayKernel, NeutralSystem

from conftest import (conjugate, make_density_system, make_example1, make_example2,
                      make_reach_fixture, make_scalar_decay, random_transform)


def plain_system(A, B, h=1.0, state_feedback=None):
    """Neutral system with the given difference matrix, optional pointwise
    state term, and input matrix."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    atoms = [] if state_feedback is None else [(0.0, np.asarray(state_feedback, float))]
    return NeutralSystem(
        n=n, r=B.shape[1], h=h,
        A_minus1=A,
        A2=DelayKernel.zero(n, h),
        A3=DelayKernel.from_atoms(atoms, n, h) if atoms else DelayKernel.zero(n, h),
        B=B,
    )


# ----------------------------------------------------------------- kalman


def test_kalman_jordan_pair():
    assert sr.kalman_rank(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 1.0])) == 2


def test_kalman_identity_input():
    rng = np.random.default_rng(1)
    for n in (1, 3, 5):
        A = rng.standard_normal((n, n))
        assert sr.kalman_rank(A, np.eye(n)) == n


def test_kalman_nilpotent_partial():
    assert sr.kalman_rank(np.zeros((3, 3)), np.eye(3)[:, :2]) == 2


def test_kalman_zero_width():
    assert sr.kalman_rank(np.zeros((3, 3)), np.zeros((3, 0))) == 0


@given(hst.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kalman_invariant_under_input_basis_change(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    r = int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, r))
    base = sr.kalman_rank(A, B)
    perm = rng.permutation(r)
    assert sr.kalman_rank(A, B[:, perm]) == base
    while True:
        G = rng.standard_normal((r, r))
        if abs(np.linalg.det(G)) > 1e-2:
            break
    assert sr.kalman_rank(A, B @ G) == base


# ------------------------------------------------------------------ hautus


def test_hautus_identity_input_everywhere():
    s = make_example2(1.0, np.eye(2))
    rng = np.random.default_rng(2)
    for _ in range(10):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert sr.hautus_at(s, lam).passes


def test_hautus_passes_off_roots():
    s = make_example1(1.0, 1.0, [[0.0], [1.0]])
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-20, 20))
        if abs(np.linalg.det(cm.delta(s, lam))) > 1e-6:
            assert sr.hautus_at(s, lam).passes


def test_hautus_at_root_distinguishes_inputs():
    # at any root of the doubled scalar factor, D has the explicit form
    # [[0, lam-1], [0, 0]]: the second input column restores full rank, the
    # first cannot
    s_good = make_example1(1.0, 1.0, [[0.0], [1.0]])
    s_bad = make_example1(1.0, 1.0, [[1.0], [0.0]])
    lam, _, ok = rf.newton_root(s_good, 0.2 + 6.0j)
    assert ok
    good = sr.hautus_at(s_good, lam)
    bad = sr.hautus_at(s_bad, lam)
    assert good.rank == 2 and good.passes
    assert bad.rank == 1 and not bad.passes


def test_hautus_matrix_pair_cases():
    r1 = sr.hautus_matrix_pair(-np.eye(2), np.array([[0.0], [1.0]]), -1.0)
    assert r1.rank == 1 and not r1.passes
    r2 = sr.hautus_matrix_pair(np.array([[1.0, 1.0], [0.0, 1.0]]),
                               np.array([[0.0], [1.0]]), 1.0)
    assert r2.rank == 2 and r2.passes
    r3 = sr.hautus_matrix_pair(np.diag([0.3, 0.7]), np.eye(2), 1.0)
    assert r3.passes
    # mu I - A vanishes, so its sigma_1 is rounding noise, which a cut
    # relative to sigma_1 would count as rank
    T = random_transform(np.random.default_rng(5), 2, 30.0)
    A = T @ -np.eye(2) @ np.linalg.inv(T)
    (entry,) = cm.matrix_spectral_structure(A).entries
    r4 = sr.hautus_matrix_pair(A, np.zeros((2, 0)), entry.mu)
    assert r4.rank == 0 and not r4.passes
    assert r4.cut == sr.RANK_REL * np.linalg.norm(A, 2)


def test_rank_test_reports_cut_and_margins():
    t = sr.hautus_matrix_pair(-np.eye(2), np.array([[0.0], [1.0]]), -1.0)
    assert t.cut == sr.RANK_REL
    assert t.margins == [1.0 / sr.RANK_REL, 0.0]
    doc = t.to_json_dict()
    assert doc["cut"] == t.cut and doc["margins"] == t.margins
    full = sr.hautus_matrix_pair(np.diag([0.3, 0.7]), np.eye(2), 1.0)
    assert full.rank == 2 and full.margins[1] is None
    assert sr.hautus_matrix_pair(np.zeros((1, 1)), np.zeros((1, 0)), 0.0).margins[0] is None


CONJUGATION_ROWS = {
    "ex1_jordan": lambda: make_example1(-1.0, -1.0),
    "ex1_ctrl": lambda: make_example1(1.0, 1.0, [[0.0], [1.0]]),
    "ex1_unctrl": lambda: make_example1(1.0, 1.0, [[1.0], [0.0]]),
    "ex2_repeated_g0": lambda: make_example2(0.0),
    "ex2_repeated_g1": lambda: make_example2(1.0),
    "ex2_column_input": lambda: make_example2(0.0, [[0.0], [1.0]]),
    "ex2_full_input": lambda: make_example2(1.0, np.eye(2)),
    "scalar_decay": make_scalar_decay,
    "reach_fixture": make_reach_fixture,
    "density": make_density_system,
}


def _rank_evidence(s):
    """Every rank a change of coordinates must leave alone."""
    structure = sorted((e.algebraic, e.geometric) for e in s.structure.entries)
    pair = sorted(sr.hautus_matrix_pair(s.A_minus1, s.B, e.mu).rank for e in s.structure.sigma1)
    return structure, pair, sr.kalman_rank(s.A_minus1, s.B)


@pytest.mark.parametrize("name", CONJUGATION_ROWS)
def test_ranks_invariant_under_change_of_coordinates(name):
    s = CONJUGATION_ROWS[name]()
    expected = _rank_evidence(s)
    rng = np.random.default_rng(17)
    for cond in np.geomspace(1.5, 1e3, 24):
        T = random_transform(rng, s.n, cond)
        assert _rank_evidence(conjugate(s, T)) == expected, f"cond(T) = {cond:.3g}"


# --------------------------------------------------------- stabilizability


def test_stabilizability_example2_hypotheses_fail():
    report = sr.check_stabilizability(SystemAnalysis(make_example2(0.0, np.eye(2))))
    assert report.condition_1
    assert not report.condition_2  # repeated unit-circle eigenvalue
    assert report.verdict == "hypotheses_not_satisfied"


def test_stabilizability_spectral_radius_above_one():
    s = plain_system(np.diag([1.5, 0.2]), np.eye(2))
    report = sr.check_stabilizability(SystemAnalysis(s))
    assert not report.condition_1
    assert report.verdict == "hypotheses_not_satisfied"


def test_stabilizability_diag_fixture():
    # difference matrix diag(1, 0.5): unit eigenvalue simple, condition 4
    # passes, but lam = 0 is a root where [D(0) | B] = [0 | B] has rank 1
    s = plain_system(np.diag([1.0, 0.5]), np.array([[1.0], [1.0]]))
    report = sr.check_stabilizability(SystemAnalysis(s))
    assert report.condition_1 and report.condition_2
    assert report.condition_4_passes
    assert not report.condition_3_passes
    witnesses = [t for t in report.condition_3 if not t.passes]
    assert witnesses and abs(witnesses[0].test_point) < 1e-6
    assert report.verdict == "sufficient_conditions_fail"


def test_stabilizability_passing_fixture():
    # Schur difference matrix, stable-ish state term, full-rank input
    s = plain_system(np.diag([0.5, -0.25]), np.eye(2), state_feedback=-np.eye(2))
    report = sr.check_stabilizability(SystemAnalysis(s))
    assert report.verdict == "regularly_stabilizable_within_window"


# ------------------------------------------------------ null controllability


def test_null_controllability_identity_input():
    report = sr.check_null_controllability(SystemAnalysis(make_example2(0.0, np.eye(2))))
    assert report.verdict == "yes"
    assert report.condition_ii.passes


def test_null_controllability_example1_good_column():
    report = sr.check_null_controllability(SystemAnalysis(make_example1(1.0, 1.0, [[0.0], [1.0]])))
    assert report.verdict == "yes_within_window"
    assert report.condition_i_passes and report.condition_ii.passes


def test_null_controllability_example1_bad_column():
    report = sr.check_null_controllability(SystemAnalysis(make_example1(1.0, 1.0, [[1.0], [0.0]])))
    assert report.verdict == "no"
    assert report.witness is not None
    assert report.witness.rank == 1
    # the recorded witness is an actual characteristic root
    lam = report.witness.test_point
    assert abs(np.linalg.det(cm.delta(make_example1(1.0, 1.0, [[1.0], [0.0]]), lam))) < 1e-8


def test_null_controllability_kalman_failure():
    s = plain_system(np.zeros((3, 3)), np.array([[1.0], [0.0], [0.0]]),
                     state_feedback=-np.eye(3))
    report = sr.check_null_controllability(SystemAnalysis(s))
    assert report.verdict == "no"
    assert not report.condition_ii.passes


def test_null_controllability_requires_input():
    with pytest.raises(ValueError):
        sr.check_null_controllability(SystemAnalysis(make_example1(1.0, 1.0)))


# ------------------------------------------------------- indices and bounds


def test_indices_single_input():
    s = make_example1(1.0, 1.0, [[0.0], [1.0]])
    n_chain, m = sr.controllability_indices(s, s.B)
    assert n_chain == [2, 0]
    assert m == [2]


def test_indices_identity_nilpotent_free():
    s = plain_system(np.zeros((3, 3)), np.eye(3), state_feedback=-np.eye(3))
    n_chain, m = sr.controllability_indices(s, np.eye(3))
    assert n_chain == [3, 2, 1, 0]
    assert m == [1, 1, 1]


def test_indices_jordan_nilpotent_orderings():
    s = plain_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                     state_feedback=-np.eye(2))
    n_chain, m = sr.controllability_indices(s, np.eye(2))
    assert n_chain == [2, 2, 0] and m == [0, 2]
    n_chain2, m2 = sr.controllability_indices(s, np.eye(2)[:, ::-1])
    assert n_chain2 == [2, 1, 0] and m2 == [1, 1]


def test_indices_reject_bad_basis():
    s = plain_system(np.zeros((2, 2)), np.eye(2), state_feedback=-np.eye(2))
    with pytest.raises(ValueError):
        sr.controllability_indices(s, np.array([[1.0, 2.0], [1.0, 2.0]]))
    s1 = make_example1(1.0, 1.0, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        sr.controllability_indices(s1, np.array([[1.0], [0.0]]))  # not in Im B


def test_time_bounds_single_input_sharp():
    s = make_example1(1.0, 1.0, [[0.0], [1.0]])
    bounds, records = sr.controllability_time_bounds(SystemAnalysis(s))
    assert (bounds.m_min, bounds.m_max) == (2, 2)
    assert (bounds.time_lower, bounds.time_sufficient) == (2.0, 2.0)
    assert bounds.single_input_exact
    assert not bounds.refused
    assert len(records) == 1


def test_time_bounds_identity_input():
    s = plain_system(np.zeros((3, 3)), np.eye(3), state_feedback=-np.eye(3))
    bounds, records = sr.controllability_time_bounds(SystemAnalysis(s))
    assert (bounds.m_min, bounds.m_max) == (1, 1)
    assert len(records) == 6  # all orderings of the three columns
    assert all(tuple(rec.m) == (1, 1, 1) for rec in records)


def test_time_bounds_jordan_identity_input():
    s = plain_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                     state_feedback=-np.eye(2))
    bounds, records = sr.controllability_time_bounds(SystemAnalysis(s))
    assert bounds.m_min == 1
    assert bounds.m_max == 1  # ordering (e2, e1) achieves max_i m_i = 1
    assert {tuple(rec.m) for rec in records} == {(0, 2), (1, 1)}


def test_time_bounds_refused_when_not_controllable():
    s = make_example1(1.0, 1.0, [[1.0], [0.0]])
    bounds, records = sr.controllability_time_bounds(SystemAnalysis(s))
    assert bounds.refused
    assert bounds.m_min is None and bounds.time_lower is None
    assert records == ()


def test_time_bounds_walk_the_ordering_limit_itself(monkeypatch):
    monkeypatch.setattr(sr, "MAX_BASIS_ORDERINGS", 6)
    s = plain_system(np.zeros((3, 3)), np.eye(3), state_feedback=-np.eye(3))
    bounds, records = sr.controllability_time_bounds(SystemAnalysis(s))
    assert not bounds.refused and len(records) == 6


def test_time_bounds_refused_beyond_the_ordering_limit():
    # 8! = 40,320 orderings of the column basis: refused without walking them
    s = plain_system(np.zeros((8, 8)), np.eye(8), state_feedback=-np.eye(8))
    started = time.perf_counter()
    report = sr.controllability_report(SystemAnalysis(s))
    assert time.perf_counter() - started < 1.0
    assert report.null_controllability.verdict == "yes"
    assert report.bounds.refused and report.indices == ()
    assert "40320 orderings" in report.bounds.refusal_reason
    assert report.bounds.m_min is None
    assert report.bounds.refusal_reason in report.summary()
    assert "not null-controllable" not in report.summary()


def test_h_scaling_of_times():
    s = plain_system(np.zeros((2, 2)), np.array([[0.0], [1.0]]), h=0.25,
                     state_feedback=np.array([[0.0, 1.0], [0.0, 0.0]]))
    # kalman rank of (0 matrix, single column) is 1 < 2: not controllable
    report = sr.check_null_controllability(SystemAnalysis(s))
    assert report.verdict == "no"
    s2 = plain_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                      h=0.25, state_feedback=-np.eye(2))
    bounds, _ = sr.controllability_time_bounds(SystemAnalysis(s2))
    assert bounds.time_sufficient == pytest.approx(2 * 0.25)


@given(hst.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_telescoping_and_monotone_chain(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    r = int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, r))
    s = plain_system(A, B, state_feedback=-np.eye(n))
    from itertools import permutations

    base = sr._column_basis(s.B)
    d = base.shape[1]
    for perm in permutations(range(d)):
        n_chain, m = sr.controllability_indices(s, base[:, list(perm)])
        assert sum(m) == n_chain[0]
        assert all(a >= b for a, b in zip(n_chain, n_chain[1:]))
        assert n_chain[-1] == 0
        assert all(x >= 0 for x in m)


def test_report_assembly():
    s = make_example1(1.0, 1.0, [[0.0], [1.0]])
    report = sr.controllability_report(SystemAnalysis(s))
    doc = report.to_json_dict()
    assert doc["null_controllability"]["verdict"] == "yes_within_window"
    assert doc["bounds"]["m_min"] == 2
    assert "sharpness" in doc
