"""Shared rank and eigenvalue-clustering helpers."""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff used by every rank decision in the package:
# sigma_k counts toward the rank when sigma_k > max(shape) * sigma_1 * 1.1e-15.
RANK_TOL_SCALE = 1.1e-15


def rank_tolerance(sigma: np.ndarray, shape) -> float:
    if len(sigma) == 0 or sigma[0] == 0.0:
        return 0.0
    return max(shape) * float(sigma[0]) * RANK_TOL_SCALE


def svd_rank(M) -> tuple[int, np.ndarray]:
    """Numerical rank of M at the default cutoff, with its singular values."""
    M = np.asarray(M)
    if M.size == 0:
        return 0, np.zeros(0)
    sigma = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(sigma > rank_tolerance(sigma, M.shape))), sigma


def default_cluster_tol(A) -> float:
    """Absolute eigenvalue-clustering tolerance: 1e-6 relative to the matrix scale.

    Defective eigenvalues computed in double precision split on the order of
    sqrt(eps); the default must sit comfortably above that to recover the
    intended multiplicity structure of moderately conditioned inputs.
    """
    A = np.asarray(A, dtype=float)
    scale = float(np.linalg.norm(A, 2)) if A.size else 0.0
    return 1e-6 * max(1.0, scale)


def cluster_eigenvalues(A, tol: float) -> tuple[list[tuple[complex, int]], np.ndarray]:
    """Group eigenvalues of A into clusters of pairwise distance <= tol.

    Single-linkage merge; returns (clusters, raw_eigenvalues) where each
    cluster is (mean value, algebraic multiplicity), sorted by (Re, Im).
    """
    vals = np.linalg.eigvals(np.asarray(A, dtype=float))
    k = len(vals)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(vals[i] - vals[j]) <= tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(vals[idx])), len(idx)) for idx in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters, vals
