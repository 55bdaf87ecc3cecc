"""Shared rank and eigenvalue-clustering helpers.

Every rank decision in the package counts the singular values above a cut
(`sigma_rank`) that the caller scales from its inputs: a matrix that should
vanish has rounding noise for its sigma_1, and a cut relative to that counts
the noise as rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_REL = 1e-8   # a rank cut is RANK_REL times a norm of the inputs


def norm2(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


@dataclass(frozen=True)
class Rank:
    rank: int            # number of sigma above cut
    sigma: np.ndarray    # singular values, descending
    cut: float

    @property
    def margins(self) -> list[float | None]:
        """[sigma_rank, sigma_(rank+1)] / cut, None where that sigma is absent
        or the cut is 0: a near-tie shows as a margin near 1."""
        return [float(self.sigma[k] / self.cut) if 0 <= k < self.sigma.size and self.cut > 0
                else None for k in (self.rank - 1, self.rank)]


def sigma_rank(sigma: np.ndarray, cut: float) -> Rank:
    return Rank(int(np.count_nonzero(sigma > cut)), sigma, float(cut))


def rank(M: np.ndarray, cut: float) -> Rank:
    return sigma_rank(np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0), cut)


def default_cluster_tol(A) -> float:
    """Absolute eigenvalue-clustering tolerance: 1e-6 relative to the matrix scale.

    Defective eigenvalues computed in double precision split on the order of
    sqrt(eps); the default must sit comfortably above that to recover the
    intended multiplicity structure of moderately conditioned inputs.
    """
    return 1e-6 * max(1.0, norm2(np.asarray(A, dtype=float)))


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
