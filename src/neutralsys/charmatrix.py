"""Characteristic matrix of a neutral delay system and root-chain geometry.

For d/dt[z(t) - A z(t-h)] = L z_t + B u(t) the characteristic matrix is

    D(lam) = -lam I + lam e^{-lam h} A
             + sum_seg [ e^{lam a} (e^{lam w} - 1) ] A2_seg
             + sum_seg [ w e^{lam a} phi0(w lam) ] A3_seg
             + sum_atoms e^{lam theta_j} A3_j

over segments [a, a + w], with phi0(x) = (e^x - 1)/x.  Both segment
coefficients are closed forms of the exponential integrals, so D has no
quadrature error and is an entire function of lam.

Every term has the shape c_k(lam) M_k with c_k(lam) = e^{lam a_k} R_k(lam):
a location a_k (0 for I, -h for A, the segment start, the atom location) and
a factor R_k that is -lam, lam, 1, e^{lam w} - 1 or w phi0(w lam).  Hence

    D(lam)  = sum_k e^{lam a_k} R_k(lam) M_k,
    D'(lam) = sum_k e^{lam a_k} (a_k R_k(lam) + R_k'(lam)) M_k.

A system is compiled once, on first use, into a TermTable (the cached
NeutralSystem.terms) that stacks the M_k, dropping zero density segments,
beside the a_k, the linear factors of the point terms and the segment
widths.  delta_and_derivative evaluates D and D' together at a batch of
points: one set of exponentials e^{lam a_k} and e^{lam w}, phi0 and
phi1 = phi0' computed from the latter, and one contraction of the stacked
coefficients of D and D' with the M_k.  phi0 and phi1 switch to a short
Taylor series for |w lam| below _SERIES_CUT, so the removable singularity at
lam = 0 never produces cancellation.  delta, delta_batch, delta_derivative
and delta_derivative_batch are views of that one evaluation.

Root chains: every eigenvalue mu != 0 of A generates the vertical sequence of
asymptotic root locations (ln|mu| + i(arg mu + 2 pi k))/h, k integer.  Large-k
roots of det D cluster around those points, with total multiplicity equal to
the rootspace dimension of mu; the chain grid records the centers and a safe
circle radius (a fraction of one third of the minimal center separation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cluster_eigenvalues, default_cluster_tol
from .errors import NoChainsError
from .sysmodel import NeutralSystem

_SERIES_CUT = 1e-4


def _phi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^x, phi0(x) = (e^x - 1)/x and phi1(x) = phi0'(x) from one exponential.

    phi0 and phi1 switch to their Taylor series for |x| < _SERIES_CUT, where
    the closed forms cancel.
    """
    ex = np.exp(x)
    small = np.abs(x) < _SERIES_CUT
    xl = np.where(small, 1.0, x)  # the series overwrites these entries below
    phi0 = (ex - 1.0) / xl
    phi1 = ((xl - 1.0) * ex + 1.0) / xl**2
    if small.any():
        xs = x[small]
        phi0[small] = 1.0 + xs / 2.0 + xs**2 / 6.0 + xs**3 / 24.0 + xs**4 / 120.0
        phi1[small] = 0.5 + xs / 3.0 + xs**2 / 8.0 + xs**3 / 30.0 + xs**4 / 144.0
    return ex, phi0, phi1


def _readonly(arr) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TermTable:
    """The K terms e^{lam a_k} R_k(lam) M_k of D(lam) for one system.

    The P point terms come first: I, A_minus1 and the A3 atoms.  Their
    factors are linear, R_k = r0_k + r1_k lam, so (R_k, a_k R_k + R_k') is
    point0 + lam * point1.  The segment terms follow, the nonzero A2
    segments and then the nonzero A3 segments, with R_k a segment integral
    of width w_k.  mats holds the M_k flattened to rows, stored complex so
    the contraction needs no cast.
    """

    n: int
    mats: np.ndarray     # (K, n*n)
    locs: np.ndarray     # (K,) a_k
    point0: np.ndarray   # (2, 1, P) (r0, a r0 + r1)
    point1: np.ndarray   # (2, 1, P) (r1, a r1)
    widths: np.ndarray   # (K - P,) w_k of the segment terms
    is_a2: np.ndarray    # (K - P,) A2 (True) or A3 (False) segment

    @classmethod
    def of(cls, sys_: NeutralSystem) -> "TermTable":
        n, atoms = sys_.n, sys_.A3.atoms
        mats = [np.eye(n), sys_.A_minus1] + [M for _, M in atoms]
        a = np.array([0.0, -sys_.h] + [theta for theta, _ in atoms])
        r0 = np.array([0.0, 0.0] + [1.0] * len(atoms))
        r1 = np.array([-1.0, 1.0] + [0.0] * len(atoms))
        starts, widths, is_a2 = [], [], []
        for ker, a2 in ((sys_.A2, True), (sys_.A3, False)):
            bp = ker.breakpoints
            for i, M in enumerate(ker.segments):
                if np.any(M):
                    mats.append(M)
                    starts.append(bp[i])
                    widths.append(bp[i + 1] - bp[i])
                    is_a2.append(a2)
        return cls(
            n=n,
            mats=_readonly(np.array(mats, dtype=complex).reshape(len(mats), n * n)),
            locs=_readonly(np.concatenate([a, starts])),
            point0=_readonly(np.stack([r0, a * r0 + r1])[:, None, :]),
            point1=_readonly(np.stack([r1, a * r1])[:, None, :]),
            widths=_readonly(np.array(widths, dtype=float)),
            is_a2=_readonly(np.array(is_a2, dtype=bool)),
        )


def delta_and_derivative(sys_: NeutralSystem, lams) -> tuple[np.ndarray, np.ndarray]:
    """D(lam) and D'(lam) at an array of points; two arrays of shape (N, n, n)."""
    t = sys_.terms
    lam = np.asarray(lams, dtype=complex).reshape(-1, 1)
    p = t.point0.shape[-1]
    x = lam * t.widths
    ex, phi0, phi1 = _phi(x)
    # Row 0 collects R_k, row 1 a_k R_k + R_k'; times e^{lam a_k} they are the
    # coefficients of D and D', and one contraction gives both.
    coeff = np.empty((2, lam.shape[0], t.locs.size), dtype=complex)
    coeff[:, :, :p] = t.point0 + lam * t.point1
    # A2 segments integrate lam e^{lam s} to e^{lam a} (e^{lam w} - 1), exact at
    # lam = 0; A3 segments integrate e^{lam s} to e^{lam a} w phi0(lam w).
    R = coeff[0, :, p:] = np.where(t.is_a2, x, t.widths) * phi0
    coeff[1, :, p:] = t.locs[p:] * R + t.widths * np.where(t.is_a2, ex, t.widths * phi1)
    coeff *= np.exp(lam * t.locs)
    D, dD = (coeff @ t.mats).reshape(2, lam.shape[0], t.n, t.n)
    return D, dD


def delta_batch(sys_: NeutralSystem, lams) -> np.ndarray:
    """Characteristic matrix at an array of points; shape (N, n, n)."""
    return delta_and_derivative(sys_, lams)[0]


def delta(sys_: NeutralSystem, lam: complex) -> np.ndarray:
    """Characteristic matrix at a single point; shape (n, n)."""
    return delta_and_derivative(sys_, lam)[0][0]


def delta_derivative_batch(sys_: NeutralSystem, lams) -> np.ndarray:
    """Entrywise d/dlam of the characteristic matrix at an array of points."""
    return delta_and_derivative(sys_, lams)[1]


def delta_derivative(sys_: NeutralSystem, lam: complex) -> np.ndarray:
    return delta_and_derivative(sys_, lam)[1][0]


def det_delta(sys_: NeutralSystem, lam: complex) -> complex:
    """det D(lam) via pivoted elimination."""
    return complex(np.linalg.det(delta(sys_, lam)))


def det_delta_batch(sys_: NeutralSystem, lams) -> np.ndarray:
    return np.linalg.det(delta_batch(sys_, lams))


@dataclass(frozen=True)
class ChainEigenvalue:
    mu: complex
    rootspace_dim: int


@dataclass(frozen=True)
class ChainGrid:
    """Asymptotic root-chain centers and the circle radius used around them."""

    eigenvalues: tuple[ChainEigenvalue, ...]
    centers: dict
    radius: float
    r0: float
    h: float

    def center(self, m: int, k: int) -> complex:
        return self.centers[(m, k)]

    def label_for(self, lam: complex):
        """(m, k) of the chain circle containing lam, or None."""
        for (m, k), c in self.centers.items():
            if abs(lam - c) <= self.radius:
                return (m, k)
        return None


def chain_centers_radius0(mus, h: float) -> float:
    """One third of the minimal distance between distinct chain centers.

    Within one chain consecutive centers are 2 pi / h apart; across chains the
    minimum over the integer offset reduces the angle difference to [-pi, pi].
    """
    best = 2.0 * np.pi
    mus = list(mus)
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            dlog = np.log(abs(mus[i])) - np.log(abs(mus[j]))
            darg = np.angle(mus[i]) - np.angle(mus[j])
            darg -= 2.0 * np.pi * np.round(darg / (2.0 * np.pi))
            best = min(best, float(np.hypot(dlog, darg)))
    return best / (3.0 * h)


def chain_grid(
    sys_: NeutralSystem,
    k_min: int,
    k_max: int,
    radius_fraction: float = 0.5,
    zero_tol: float | None = None,
) -> ChainGrid:
    """Chain centers for every nonzero eigenvalue of the difference matrix and
    k in [k_min, k_max], with radius = radius_fraction * r0.

    Eigenvalues with |mu| below zero_tol have no finite chain center and are
    skipped; if all of them are (numerically) zero the spectrum is
    retarded-like and NoChainsError is raised.
    """
    if not (0.0 < radius_fraction <= 1.0):
        raise ValueError("radius_fraction must lie in (0, 1]")
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    A = sys_.A_minus1
    if zero_tol is None:
        scale = float(np.linalg.norm(A, 2)) if np.any(A) else 0.0
        zero_tol = np.sqrt(np.finfo(float).eps) * max(1.0, scale)
    clusters, _ = cluster_eigenvalues(A, default_cluster_tol(A))
    kept = [(mu, p) for mu, p in clusters if abs(mu) > zero_tol]
    if not kept:
        raise NoChainsError(
            "all eigenvalues of the difference matrix vanish; no root chains"
        )
    r0 = chain_centers_radius0([mu for mu, _ in kept], sys_.h)
    centers = {}
    for m, (mu, _) in enumerate(kept):
        base = np.log(abs(mu)) + 1j * np.angle(mu)  # arg branch (-pi, pi]
        for k in range(k_min, k_max + 1):
            centers[(m, k)] = complex((base + 2j * np.pi * k) / sys_.h)
    return ChainGrid(
        eigenvalues=tuple(ChainEigenvalue(mu, p) for mu, p in kept),
        centers=centers,
        radius=radius_fraction * r0,
        r0=r0,
        h=sys_.h,
    )


@dataclass(frozen=True)
class EigenvectorCandidate:
    """Null vector of D(lam) packaged as a generator eigenvector.

    The abstract eigenvector attached to (lam, C) has head C - e^{-lam h} A C
    and history segment theta -> e^{lam theta} C; the tail is kept symbolic.
    """

    lam: complex
    C: np.ndarray
    head: np.ndarray
    residual: float
    tol: float

    def tail(self, theta) -> np.ndarray:
        return np.exp(self.lam * np.asarray(theta))[..., None] * self.C


def kernel_basis(sys_: NeutralSystem, lam: complex, tol: float = 1e-6) -> np.ndarray:
    """Orthonormal basis of the numerical null space of D(lam), shape (n, k).

    tol is relative to the largest singular value; at refined roots of
    det D the null directions sit many orders below the cutoff.
    """
    return _null_basis(delta(sys_, lam), tol)


def _null_basis(D: np.ndarray, tol: float) -> np.ndarray:
    _, sigma, vh = np.linalg.svd(D)
    smax = sigma[0] if sigma.size else 0.0
    null = sigma <= tol * max(smax, 1e-300)
    return vh[null].conj().T


def eigenvector_candidates(
    sys_: NeutralSystem, lam: complex, tol: float = 1e-6
) -> list[EigenvectorCandidate]:
    """One candidate per null direction of D(lam); empty if D is regular there."""
    D = delta(sys_, lam)
    basis = _null_basis(D, tol)
    scale = float(np.linalg.norm(D, 2))
    out = []
    for j in range(basis.shape[1]):
        C = basis[:, j]
        residual = float(np.linalg.norm(D @ C))
        head = C - np.exp(-lam * sys_.h) * (sys_.A_minus1 @ C)
        out.append(
            EigenvectorCandidate(
                lam=complex(lam), C=C, head=head, residual=residual, tol=tol * scale
            )
        )
    return out


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Principal angle between the complex lines spanned by u and v, in radians."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, c)))
