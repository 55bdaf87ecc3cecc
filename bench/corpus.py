"""System corpus shared by every benchmark workload.

The corpus is a list of system documents in the CLI's input format: fixed
known-answer fixtures, one system with fixed random dynamics and a seeded
input matrix, and seeded random systems.  Nothing here imports the package,
so the program under test sees nothing but the JSON files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

H = 1.0
RANDOM_BREAKPOINTS = [-1.0, -0.4, 0.0]

# Random systems drawn from the seed, by shape (n, r).  n = 16 is left out:
# one root scan there takes over half a minute.
RANDOM_SHAPES = ((2, 1), (2, 2), (4, 1), (4, 2), (8, 1))

# dense_n2 has fixed dynamics drawn once by the random generator and an input
# matrix drawn from the seed.  Root-finding cost varies by a factor of two
# between random draws of the same shape, more than the run-to-run spread a
# benchmark can allow, while the roots do not depend on B at all.
DENSE_DYNAMICS_SEED = 20091005


def _lists(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _kernel(n: int, segments=None, atoms=(), breakpoints=None) -> dict:
    if segments is None:
        breakpoints, segments = [-H, 0.0], np.zeros((1, n, n))
    doc = {"breakpoints": list(breakpoints), "segments": [_lists(s) for s in segments]}
    if atoms:
        doc["atoms"] = [{"theta": float(t), "matrix": _lists(M)} for t, M in atoms]
    return doc


def _system(A, A2: dict, A3: dict, B=None) -> dict:
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.zeros((n, 0)) if B is None else np.asarray(B, dtype=float).reshape(n, -1)
    return {
        "n": n,
        "r": B.shape[1],
        "h": H,
        "A_minus1": _lists(A),
        "A2": A2,
        "A3": A3,
        "B": [list(row) for row in B.tolist()],
    }


def _example1(alpha: float, beta: float, B=None) -> dict:
    """d/dt[z - A z(t-1)] = diag(alpha, beta) z with a Jordan block in A."""
    return _system(
        [[1.0, 1.0], [0.0, 1.0]], _kernel(2), _kernel(2, atoms=[(0.0, np.diag([alpha, beta]))]), B
    )


def _example2(gamma: float) -> dict:
    """Difference matrix -I: repeated unit-circle eigenvalue, no Jordan block."""
    return _system(-np.eye(2), _kernel(2), _kernel(2, atoms=[(0.0, [[-1.0, gamma], [0.0, -1.0]])]))


def _density() -> dict:
    """Three-segment A2/A3 densities and one interior atom."""
    rng = np.random.default_rng(3)
    bp = [-1.0, -0.55, -0.2, 0.0]
    A2 = _kernel(2, rng.uniform(-1, 1, (3, 2, 2)), breakpoints=bp)
    seg3 = rng.uniform(-1, 1, (3, 2, 2))
    A3 = _kernel(2, seg3, atoms=[(-0.35, rng.uniform(-1, 1, (2, 2)))], breakpoints=bp)
    return _system(0.3 * np.eye(2), A2, A3)


def fixtures() -> dict[str, dict]:
    """Known-answer systems; the answers live in the checks module."""
    return {
        "ex1_jordan": _example1(-1.0, -1.0),
        "ex2_repeated_g0": _example2(0.0),
        "ex2_repeated_g1": _example2(1.0),
        "rotation": _system(
            [[0.0, 1.0], [-1.0, 0.0]], _kernel(2), _kernel(2, atoms=[(0.0, -np.eye(2))])
        ),
        "scalar_decay": _system([[0.0]], _kernel(1), _kernel(1, atoms=[(0.0, [[-1.0]])])),
        "ex1_ctrl": _example1(1.0, 1.0, [[0.0], [1.0]]),
        "ex1_unctrl": _example1(1.0, 1.0, [[1.0], [0.0]]),
        "free3": _system(
            np.zeros((3, 3)), _kernel(3), _kernel(3, atoms=[(0.0, -np.eye(3))]), np.eye(3)
        ),
        "reach_fixture": _system(
            np.diag([0.5, 1.0 / 3.0]),
            _kernel(2),
            _kernel(2, atoms=[(0.0, [[0.0, 1.0], [0.0, 0.0]])]),
            [[0.0], [1.0]],
        ),
        "density": _density(),
    }


def random_system(rng: np.random.Generator, n: int, r: int, rng_b=None) -> dict:
    """Difference matrix at spectral radius 0.8, two-segment A2/A3 densities
    on [-1, -0.4, 0], an atom -2I at theta = 0 and a Gaussian input matrix,
    drawn from rng_b when given."""
    A = rng.standard_normal((n, n))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    seg2 = rng.standard_normal((2, n, n)) * (0.3 / np.sqrt(n))
    seg3 = rng.standard_normal((2, n, n)) * (0.5 / np.sqrt(n))
    A2 = _kernel(n, seg2, breakpoints=RANDOM_BREAKPOINTS)
    A3 = _kernel(n, seg3, atoms=[(0.0, -2.0 * np.eye(n))], breakpoints=RANDOM_BREAKPOINTS)
    return _system(A, A2, A3, (rng if rng_b is None else rng_b).standard_normal((n, r)))


def build(seed: int) -> dict[str, dict]:
    """Every corpus system by name; the same seed gives the same documents."""
    corpus = fixtures()
    rng = np.random.default_rng(seed)
    corpus["dense_n2"] = random_system(np.random.default_rng(DENSE_DYNAMICS_SEED), 2, 1, rng)
    for n, r in RANDOM_SHAPES:
        corpus[f"rand_n{n}_r{r}"] = random_system(rng, n, r)
    return corpus


def dynamics_key(system: dict) -> str:
    """Digest of everything but the input matrix: the roots depend on nothing else."""
    dyn = {k: v for k, v in system.items() if k not in ("r", "B")}
    return hashlib.sha256(json.dumps(dyn, sort_keys=True).encode()).hexdigest()[:16]


def document_key(system: dict) -> str:
    """Digest of the whole system document."""
    return hashlib.sha256(json.dumps(system, sort_keys=True).encode()).hexdigest()[:16]
