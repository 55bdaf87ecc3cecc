import numpy as np
import pytest
from hypothesis import strategies as hst

from neutralsys.sysmodel import DelayKernel, NeutralSystem


def make_example1(alpha: float, beta: float, B=None) -> NeutralSystem:
    """Pointwise neutral system with a Jordan block in the difference matrix:
    dz/dt = A dz/dt(t-1) + diag(alpha, beta) z(t) (+ B u)."""
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.zeros((2, 0)) if B is None else np.asarray(B, dtype=float).reshape(2, -1)
    return NeutralSystem(
        n=2,
        r=B.shape[1],
        h=1.0,
        A_minus1=A,
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.diag([alpha, beta]).astype(float))], 2, 1.0),
        B=B,
    )


def make_example2(gamma: float, B=None) -> NeutralSystem:
    """Difference matrix -I (repeated unit-circle eigenvalue, no Jordan block);
    gamma only couples the state term, leaving the spectrum unchanged."""
    B = np.zeros((2, 0)) if B is None else np.asarray(B, dtype=float).reshape(2, -1)
    return NeutralSystem(
        n=2,
        r=B.shape[1],
        h=1.0,
        A_minus1=-np.eye(2),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.from_atoms(
            [(0.0, np.array([[-1.0, gamma], [0.0, -1.0]]))], 2, 1.0
        ),
        B=B,
    )


def make_scalar_decay() -> NeutralSystem:
    """dz/dt = -z as a degenerate neutral system (difference matrix 0)."""
    return NeutralSystem(
        n=1,
        r=0,
        h=1.0,
        A_minus1=np.zeros((1, 1)),
        A2=DelayKernel.zero(1, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.array([[-1.0]]))], 1, 1.0),
        B=np.zeros((1, 0)),
    )


def make_reach_fixture(b_scale: float = 1.0) -> NeutralSystem:
    """Single-input n=2 neutral chain-of-integrators fixture used for the
    controllability-time phase transition."""
    return NeutralSystem(
        n=2,
        r=1,
        h=1.0,
        A_minus1=np.diag([0.5, 1.0 / 3.0]),
        A2=DelayKernel.zero(2, 1.0),
        A3=DelayKernel.from_atoms([(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))], 2, 1.0),
        B=np.array([[0.0], [b_scale]]),
    )


def make_density_system(seed: int = 3) -> NeutralSystem:
    """Distributed-delay system with three-segment A2/A3 densities and one
    interior atom; exercises every closed-form integral path."""
    rng = np.random.default_rng(seed)
    bp = np.array([-1.0, -0.55, -0.2, 0.0])
    return NeutralSystem(
        n=2,
        r=0,
        h=1.0,
        A_minus1=0.3 * np.eye(2),
        A2=DelayKernel(bp, rng.uniform(-1, 1, (3, 2, 2))),
        A3=DelayKernel(
            bp, rng.uniform(-1, 1, (3, 2, 2)), ((-0.35, rng.uniform(-1, 1, (2, 2))),)
        ),
        B=np.zeros((2, 0)),
    )


def random_transform(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Random n x n matrix with condition number cond: random orthogonal
    factors around singular values spread log-evenly over [1, cond]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q1 @ np.diag(np.geomspace(cond, 1.0, n)) @ Q2


def conjugate(sys_: NeutralSystem, T: np.ndarray) -> NeutralSystem:
    """The same system in the coordinates z -> T z: every matrix acting on
    the state becomes T M T^-1 and the input matrix T B."""
    Ti = np.linalg.inv(T)

    def kernel(ker):
        return DelayKernel(ker.breakpoints, T @ ker.segments @ Ti,
                           tuple((theta, T @ M @ Ti) for theta, M in ker.atoms))

    return NeutralSystem(n=sys_.n, r=sys_.r, h=sys_.h, A_minus1=T @ sys_.A_minus1 @ Ti,
                         A2=kernel(sys_.A2), A3=kernel(sys_.A3), B=T @ sys_.B)


@hst.composite
def density_systems(draw, n_max: int = 4):
    """n <= n_max, one to three A2 and A3 segments (some of them zero), up to two atoms."""
    n = draw(hst.integers(1, n_max))
    h = draw(hst.floats(0.25, 3.0))
    q2, q3 = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    n_atoms = draw(hst.integers(0, 2))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))

    def kernel(q, atoms):
        bp = np.concatenate([[-h], -h + h * np.cumsum(rng.dirichlet(np.ones(q)))])
        bp[-1] = 0.0
        segs = rng.uniform(-1, 1, (q, n, n)) * (rng.random((q, 1, 1)) < 0.8)
        return DelayKernel(bp, segs, atoms)

    atoms = tuple(
        (float(rng.choice([rng.uniform(-h, 0.0), 0.0, -h])), rng.uniform(-1, 1, (n, n)))
        for _ in range(n_atoms)
    )
    return NeutralSystem(
        n=n, r=0, h=h,
        A_minus1=rng.uniform(-1, 1, (n, n)),
        A2=kernel(q2, ()),
        A3=kernel(q3, atoms),
        B=np.zeros((n, 0)),
    )


EXAMPLE1_DOC = {
    "n": 2,
    "r": 0,
    "h": 1.0,
    "A_minus1": [[1.0, 1.0], [0.0, 1.0]],
    "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0, 0.0], [0.0, 0.0]]]},
    "A3": {
        "breakpoints": [-1.0, 0.0],
        "segments": [[[0.0, 0.0], [0.0, 0.0]]],
        "atoms": [{"theta": 0.0, "matrix": [[1.0, 0.0], [0.0, 2.0]]}],
    },
    "B": [[], []],
}

EXAMPLE2_DOC = {
    "n": 2,
    "r": 0,
    "h": 1.0,
    "A_minus1": [[-1.0, 0.0], [0.0, -1.0]],
    "A2": {"breakpoints": [-1.0, 0.0], "segments": [[[0.0, 0.0], [0.0, 0.0]]]},
    "A3": {
        "breakpoints": [-1.0, 0.0],
        "segments": [[[0.0, 0.0], [0.0, 0.0]]],
        "atoms": [{"theta": 0.0, "matrix": [[-1.0, 1.0], [0.0, -1.0]]}],
    },
    "B": [[], []],
}


@pytest.fixture
def example1_file(tmp_path):
    import json

    path = tmp_path / "example1.json"
    path.write_text(json.dumps(EXAMPLE1_DOC))
    return path


@pytest.fixture
def example2_file(tmp_path):
    import json

    path = tmp_path / "example2.json"
    path.write_text(json.dumps(EXAMPLE2_DOC))
    return path
