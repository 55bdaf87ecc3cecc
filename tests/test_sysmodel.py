import json
from dataclasses import replace
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from neutralsys import cli
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

from conftest import EXAMPLE1_DOC, density_systems


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
    ],
)
def test_validation_errors(mutate, needle):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    mutate(doc)
    report = validate_document(doc)
    assert not report.ok
    assert any(needle in msg for sev, msg in report.issues if sev == "error")


def _set(*path_and_value):
    """A mutation that sets doc[path[0]]...[path[-1]] to value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


# Each row breaks one rule of a valid system in EXAMPLE1 given the input B = e2.
INVALID_SYSTEMS = {
    **{f"A_minus1={v}": (_set("A_minus1", 0, 1, v), "A_minus1") for v in (nan, inf, -inf)},
    **{f"B={v}": (_set("B", 1, 0, v), "B") for v in (nan, inf, -inf)},
    **{f"segment={v}": (_set("A3", "segments", 0, 0, 0, v), "segments") for v in (nan, inf, -inf)},
    **{f"atom_matrix={v}": (_set("A3", "atoms", 0, "matrix", 1, 1, v), "atom matrix")
       for v in (nan, inf, -inf)},
    "breakpoint=nan": (lambda d: d["A3"].update(breakpoints=[-1.0, nan, 0.0],
                                                segments=[[[0.0, 0.0], [0.0, 0.0]]] * 2),
                       "breakpoints"),
    "h=inf": (_set("h", inf), "h"),
    "B_r_x_n": (_set("B", [[0.0, 1.0]]), "B"),
    "A2_atom": (_set("A2", "atoms", [{"theta": 0.0, "matrix": [[0.0, 0.0], [0.0, 0.0]]}]),
                "atoms"),
    **{f"theta={v}": (_set("A3", "atoms", 0, "theta", v), "theta") for v in (0.5, -1.5)},
}


def _constructed(doc) -> NeutralSystem:
    """The system a document describes, built by the constructors alone."""

    def kernel(k):
        return DelayKernel(np.array(k["breakpoints"]), np.array(k["segments"]),
                           tuple((a["theta"], np.array(a["matrix"])) for a in k.get("atoms", [])))

    return NeutralSystem(n=doc["n"], r=doc["r"], h=doc["h"], A_minus1=np.array(doc["A_minus1"]),
                         A2=kernel(doc["A2"]), A3=kernel(doc["A3"]), B=np.array(doc["B"]))


@pytest.mark.parametrize("mutate, needle", INVALID_SYSTEMS.values(), ids=INVALID_SYSTEMS)
def test_documents_and_constructors_reject_the_same_systems(tmp_path, capsys, mutate, needle):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc["r"], doc["B"] = 1, [[0.0], [1.0]]
    assert validate_document(doc).issues == ()
    mutate(doc)
    with pytest.raises(ValueError) as raised:
        _constructed(doc)
    report = validate_document(doc)
    assert not report.ok
    # one issue, the constructor's own message, prefixed by its kernel's name
    ((severity, message),) = report.issues
    assert severity == "error" and message.endswith(str(raised.value)) and needle in message

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["event"] for r in records] == ["validation_error"]
    assert records[0]["issues"] == [list(issue) for issue in report.issues]


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


@given(density_systems(), hst.integers(0, 2), hst.integers(0, 2**32 - 1))
def test_roundtrip_serialization_of_density_systems(sys_, r, seed):
    sys_ = replace(sys_, r=r, B=np.random.default_rng(seed).uniform(-1, 1, (sys_.n, r)))
    doc = json.loads(json.dumps(serialize_system(sys_)))
    assert not any(severity == "error" for severity, _ in validate_document(doc).issues)
    assert systems_equal(system_from_document(doc), sys_)


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


def test_kernel_eval_array_matches_pointwise():
    bp = np.array([-1.0, -0.6, -0.25, 0.0])
    k = DelayKernel(bp, np.stack([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)]))
    thetas = np.array([-1.0, -0.6, np.nextafter(-0.6, -1.0), -0.25, -0.3, np.nextafter(-0.25, 0.0), 0.0])
    mats = k.eval(thetas)
    assert mats.shape == (thetas.size, 2, 2)
    for theta, mat in zip(thetas, mats):
        assert np.array_equal(mat, k.eval(float(theta)))
    assert k.eval(np.array([-0.3])).shape == (1, 2, 2)


@pytest.mark.parametrize("bad", [0.1, -1.1, np.nan])
def test_kernel_eval_array_domain_error(bad):
    k = DelayKernel.zero(2, 1.0)
    with pytest.raises(ValueError, match="outside"):
        k.eval(np.array([-1.0, -0.5, bad, 0.0]))


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
