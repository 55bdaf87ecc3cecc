import numpy as np
import pytest

from neutralsys import rootfinder as rf
from neutralsys import stability as st
from neutralsys.sysmodel import DelayKernel, NeutralSystem, system_from_document

from conftest import bench_module, make_example1, make_example2, make_scalar_decay


def make_rotation_case_i(c: float = 1.0) -> NeutralSystem:
    """Difference matrix with simple unit-circle eigenvalues +/- i and a
    contracting state term; spectrum verified left of the axis by scan."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return NeutralSystem(
        n=2, r=0, h=1.0,
        A_minus1=J,
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.from_atoms([(0.0, -c * np.eye(2))], 2, 1.0),
        B=np.zeros((2, 0)),
    )


def test_structure_jordan_block():
    ms = st.matrix_spectral_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(ms.entries) == 1
    e = ms.entries[0]
    assert e.mu == pytest.approx(1.0)
    assert (e.algebraic, e.geometric, e.rootspace_dim) == (2, 1, 2)
    assert e.has_jordan_block
    assert ms.spectral_radius == pytest.approx(1.0)


def test_structure_diagonalizable_repeated():
    ms = st.matrix_spectral_structure(-np.eye(2))
    e = ms.entries[0]
    assert e.mu == pytest.approx(-1.0)
    assert (e.algebraic, e.geometric) == (2, 2)
    assert not e.has_jordan_block
    assert e.on_unit_circle


def test_structure_simple_pair():
    ms = st.matrix_spectral_structure(np.diag([0.5, -0.3]))
    assert [e.algebraic for e in ms.entries] == [1, 1]
    assert [e.geometric for e in ms.entries] == [1, 1]
    assert ms.spectral_radius == pytest.approx(0.5)
    assert not ms.sigma1


def test_structure_multiplicity_sums_to_n():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        ms = st.matrix_spectral_structure(A)
        assert sum(e.algebraic for e in ms.entries) == n
        assert all(1 <= e.geometric <= e.algebraic for e in ms.entries)


def test_exponential_scalar_decay():
    v = st.classify_asymptotic(st.SystemAnalysis(make_scalar_decay()))
    assert v.exponential == "stable"
    assert v.asymptotic_case == "exp_regime"


def test_exponential_fails_on_unit_circle():
    # spectral radius exactly 1 rules out exponential stability regardless of
    # the root scan
    jordan = st.SystemAnalysis(make_example1(-1.0, -1.0))
    repeated = st.SystemAnalysis(make_example2(0.0))
    assert st.classify_asymptotic(jordan).exponential == "not_stable"
    assert st.classify_asymptotic(repeated).exponential == "not_stable"


def test_classify_example1_jordan_unstable():
    v = st.classify_asymptotic(st.SystemAnalysis(make_example1(-1.0, -1.0)))
    assert v.asymptotic_case == "case_ii_unstable"


def test_classify_example2_indeterminate_both_gammas():
    for gamma in (0.0, 1.0):
        v = st.classify_asymptotic(st.SystemAnalysis(make_example2(gamma)))
        assert v.asymptotic_case == "case_iii_indeterminate"
        assert "warning" in v.evidence


def test_classify_rhp_spectrum():
    v = st.classify_asymptotic(st.SystemAnalysis(make_example1(1.0, 2.0)))
    assert v.asymptotic_case == "spectrum_in_RHP_unstable"
    assert v.exponential == "not_stable"


def test_classify_case_i():
    v = st.classify_asymptotic(st.SystemAnalysis(make_rotation_case_i(1.0)))
    assert v.asymptotic_case == "case_i_stable"
    assert v.exponential == "not_stable"  # unit-circle difference matrix
    assert "premise" in v.evidence


def make_rotation_with_tail_root() -> NeutralSystem:
    """ROADMAP item 10's reproducer: the rotation case i system with a further
    A3 atom 0.01 I at theta = -0.3, which moves chain roots past the default
    |Im| cap of 40 across the imaginary axis."""
    rotation = make_rotation_case_i(1.0)
    atoms = [(0.0, -np.eye(2)), (-0.3, 0.01 * np.eye(2))]
    return NeutralSystem(n=2, r=0, h=1.0, A_minus1=rotation.A_minus1, A2=rotation.A2,
                         A3=DelayKernel.from_atoms(atoms, 2, 1.0), B=rotation.B)


def test_item10_reproducer_has_a_root_right_of_the_axis_past_the_cap():
    sys_ = make_rotation_with_tail_root()
    (report,) = rf.find_roots_in_region(sys_, [rf.Rect(0.0, 0.5, 55.0, 60.0)], sys_.chains)
    assert report.total_count == 1
    (root,) = report.roots
    assert root.multiplicity == 1
    assert root.lam.real == pytest.approx(2.227e-5, rel=1e-3)
    assert root.lam.imag == pytest.approx(58.1366, abs=1e-4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: case i reads only the scanned window, "
                   "which misses the root at 2.227e-5 + 58.137i past the |Im| cap")
def test_item10_reproducer_is_not_case_i_stable():
    v = st.classify_asymptotic(st.SystemAnalysis(make_rotation_with_tail_root()))
    assert v.asymptotic_case != "case_i_stable"


def test_trichotomy_exclusive_labels():
    fixtures = [
        make_scalar_decay(),
        make_example1(-1.0, -1.0),
        make_example2(0.0),
        make_rotation_case_i(1.0),
        make_example1(1.0, 2.0),
    ]
    valid = {
        "exp_regime",
        "case_i_stable",
        "case_ii_unstable",
        "case_iii_indeterminate",
        "spectrum_in_RHP_unstable",
    }
    for sys_ in fixtures:
        v = st.classify_asymptotic(st.SystemAnalysis(sys_))
        assert v.asymptotic_case in valid
        if v.exponential == "stable":
            assert v.asymptotic_case == "exp_regime"


def test_similarity_invariance():
    rng = np.random.default_rng(5)
    base = st.SystemAnalysis(make_example1(-1.0, -1.0))
    base_label = st.classify_asymptotic(base).asymptotic_case
    for _ in range(2):
        while True:
            S = rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2)
            if np.linalg.cond(S) < 10:
                break
        Sinv = np.linalg.inv(S)
        A = S @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ Sinv
        A0 = S @ np.diag([-1.0, -1.0]) @ Sinv
        transformed = NeutralSystem(
            n=2, r=0, h=1.0,
            A_minus1=A,
            A2=DelayKernel.zero(2, 1.0),
            A3=DelayKernel.from_atoms([(0.0, A0)], 2, 1.0),
            B=np.zeros((2, 0)),
        )
        assert st.classify_asymptotic(st.SystemAnalysis(transformed)).asymptotic_case == base_label


def test_verdict_serialization():
    v = st.classify_asymptotic(st.SystemAnalysis(make_scalar_decay()))
    doc = v.to_json_dict()
    assert doc["exponential"] == "stable"
    assert doc["evidence"]["scan"]["roots_found"] >= 1


def test_evidence_records_window():
    v = st.classify_asymptotic(st.SystemAnalysis(make_example2(0.0), im_cap=25.0))
    scan = v.evidence["scan"]
    assert scan["window"]["im_max"] == 25.0
    assert scan["rightmost_root_re"] < 0.0


def test_eigenvalues_below_the_chain_cutoff_place_no_chain_abscissa():
    # A_minus1 = 1e-10 is nonzero but below the chain cutoff, so the system
    # has no root chains: neither the scan floor nor the stability gap may
    # come from ln(1e-10) / h.
    sys_ = NeutralSystem(
        n=1, r=0, h=200.0,
        A_minus1=np.array([[1e-10]]),
        A2=DelayKernel.zero(1, 200.0),
        A3=DelayKernel.from_atoms([(0.0, -np.eye(1))], 1, 200.0),
        B=np.zeros((1, 0)),
    )
    analysis = st.SystemAnalysis(sys_, im_cap=0.5)
    v = st.classify_asymptotic(analysis)
    assert sys_.chains is None
    assert analysis.scan.window.re_min == -1.0
    assert v.evidence["exponential_detail"]["gap"] == 0.1
    assert "no root chains" in analysis.scan.completeness_note


@pytest.mark.parametrize("name", ["density", "dense_n2", "rand_n2_r1"])
def test_unresolved_scan_cells_leave_the_window_undetermined(monkeypatch, name):
    # with no quadrisection the window's one cell stays unresolved, and it
    # reaches into the closed right half-plane
    monkeypatch.setattr(rf, "MAX_DEPTH", 0)
    sys_ = system_from_document(bench_module("corpus").build(1)[name])
    verdict = st.classify_asymptotic(st.SystemAnalysis(sys_))
    assert verdict.exponential == "undetermined_window"
    assert verdict.evidence["exponential_detail"]["reason"] == "scan left unresolved cells"
    assert verdict.evidence["scan"]["unresolved_cells"] > 0
    assert "closed right half-plane" in verdict.evidence["caveat"]
