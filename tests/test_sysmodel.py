import json

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from neutralsys.errors import SystemParseError, SystemValidationError
from neutralsys.sysmodel import (
    DelayKernel,
    NeutralSystem,
    load_system,
    serialize_system,
    system_from_document,
    systems_equal,
    validate_document,
)

from conftest import EXAMPLE1_DOC


def test_load_example1(example1_file):
    sys_ = load_system(example1_file)
    assert sys_.n == 2 and sys_.r == 0 and sys_.h == 1.0
    assert np.array_equal(sys_.A_minus1, [[1.0, 1.0], [0.0, 1.0]])
    assert sys_.A2.has_zero_density() and not sys_.A2.atoms
    assert len(sys_.A3.atoms) == 1
    theta, M = sys_.A3.atoms[0]
    assert theta == 0.0
    assert np.array_equal(M, np.diag([1.0, 2.0]))
    assert sys_.B.shape == (2, 0)


def test_load_example2(example2_file):
    sys_ = load_system(example2_file)
    assert np.array_equal(sys_.A_minus1, -np.eye(2))
    assert np.array_equal(sys_.A3.atoms[0][1], [[-1.0, 1.0], [0.0, -1.0]])


def test_dimension_mismatch_rejected(tmp_path):
    doc = dict(EXAMPLE1_DOC)
    doc["A_minus1"] = [[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]  # 3x2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemValidationError) as err:
        load_system(path)
    assert any("A_minus1" in msg for _, msg in err.value.report.issues)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemParseError):
        load_system(path)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(h=-1.0), "h"),
        (lambda d: d["A2"].update(breakpoints=[-1.0, -0.5, -0.7, 0.0],
                                  segments=[[[0, 0], [0, 0]]] * 3), "increasing"),
        (lambda d: d["A3"]["atoms"].append({"theta": 0.5, "matrix": [[0, 0], [0, 0]]}),
         "theta"),
        (lambda d: d["A2"].update(atoms=[{"theta": 0.0, "matrix": [[0, 0], [0, 0]]}]),
         "atoms"),
    ],
)
def test_validation_errors(mutate, needle):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    mutate(doc)
    report = validate_document(doc)
    assert not report.ok
    assert any(needle in msg for sev, msg in report.issues if sev == "error")


def test_zero_input_matrix_warns():
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["r"] = 1
    doc["B"] = [[0.0], [0.0]]
    report = validate_document(doc)
    assert report.ok
    assert any(sev == "warning" for sev, _ in report.issues)


def test_roundtrip_serialization(example1_file, example2_file, tmp_path):
    for path in (example1_file, example2_file):
        sys_ = load_system(path)
        doc = serialize_system(sys_)
        again = system_from_document(json.loads(json.dumps(doc)))
        assert systems_equal(sys_, again)


def test_kernel_eval_zero():
    k = DelayKernel.zero(2, 1.0)
    for theta in (-1.0, -0.3, 0.0):
        assert np.array_equal(k.eval(theta), np.zeros((2, 2)))


def test_kernel_eval_single_segment():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = DelayKernel(np.array([-1.0, 0.0]), M[None, :, :])
    assert np.array_equal(k.eval(-0.5), M)


def test_kernel_eval_boundary_convention():
    M1 = np.eye(2)
    M2 = 2.0 * np.eye(2)
    k = DelayKernel(np.array([-1.0, -0.5, 0.0]), np.stack([M1, M2]))
    # segments are half-open from the left; the shared breakpoint belongs to
    # the right segment, and the last segment is closed at 0
    assert np.array_equal(k.eval(-0.5), M2)
    assert np.array_equal(k.eval(-0.500001), M1)
    assert np.array_equal(k.eval(0.0), M2)
    assert np.array_equal(k.eval(-1.0), M1)


def test_kernel_eval_domain_error():
    k = DelayKernel.zero(2, 1.0)
    with pytest.raises(ValueError):
        k.eval(0.1)
    with pytest.raises(ValueError):
        k.eval(-1.1)


@given(
    hst.floats(min_value=-1.0, max_value=0.0, allow_nan=False),
    hst.floats(min_value=-1.0, max_value=0.0, allow_nan=False),
)
def test_kernel_eval_piecewise_constant(theta_a, theta_b):
    bp = np.array([-1.0, -0.6, -0.25, 0.0])
    segs = np.stack([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)])
    k = DelayKernel(bp, segs)
    seg_of = lambda t: min(
        max(int(np.searchsorted(bp, t, side="right")) - 1, 0), 2
    )
    if seg_of(theta_a) == seg_of(theta_b):
        assert np.array_equal(k.eval(theta_a), k.eval(theta_b))


def test_neutral_system_rejects_a2_atoms():
    with pytest.raises(ValueError):
        NeutralSystem(
            n=1,
            r=0,
            h=1.0,
            A_minus1=np.zeros((1, 1)),
            A2=DelayKernel.from_atoms([(0.0, np.zeros((1, 1)))], 1, 1.0),
            A3=DelayKernel.zero(1, 1.0),
            B=np.zeros((1, 0)),
        )


def test_system_arrays_immutable(example1_file):
    sys_ = load_system(example1_file)
    with pytest.raises(ValueError):
        sys_.A_minus1[0, 0] = 5.0
