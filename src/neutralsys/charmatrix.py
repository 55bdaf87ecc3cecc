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
beside their norms, the a_k, the linear factors of the point terms and the
segment widths.  delta_and_derivative evaluates D and D' together at a batch
of points: one set of exponentials e^{lam a_k} and e^{lam w}, phi0 and
phi1 = phi0' computed from the latter, and one contraction of the stacked
coefficients of D and D' with the M_k.  A table without segments skips the
segment block.  phi0 and phi1 switch to a short Taylor series for |w lam|
below _SERIES_CUT, so the removable singularity at lam = 0 never cancels.
delta, delta_batch, delta_derivative, delta_derivative_batch and
delta_and_scale (D and sum_k |c_k| ||M_k||_2) are views of that evaluation.

Root chains: matrix_spectral_structure lists the eigenvalues mu of A with
their multiplicities, once per system (the cached NeutralSystem.structure,
which the verdicts read too).  Every mu with |mu| above
sqrt(eps) max(1, ||A||_2) generates the vertical sequence of asymptotic root
locations (ln|mu| + i(arg mu + 2 pi k))/h, k integer; smaller ones count as
zero.  Large-k roots of det D cluster around those points, with total
multiplicity equal to the rootspace dimension of mu.  The chain grid keeps
those eigenvalues and a safe circle radius (half of one third of the minimal
center separation) and computes the center for any k from that formula; it
records no centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cluster_eigenvalues, default_cluster_tol, norm2, rank, sigma_rank
from .sysmodel import NeutralSystem

_SERIES_CUT = 1e-4
UNIT_CIRCLE_TOL = 1e-9


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
    the contraction needs no cast, and norms their spectral norms.
    """

    n: int
    mats: np.ndarray     # (K, n*n)
    norms: np.ndarray    # (K,) ||M_k||_2
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
        stack = np.array(mats, dtype=float)
        return cls(
            n=n,
            mats=_readonly(stack.astype(complex).reshape(len(mats), n * n)),
            norms=_readonly(np.linalg.norm(stack, 2, axis=(1, 2))),
            locs=_readonly(np.concatenate([a, starts])),
            point0=_readonly(np.stack([r0, a * r0 + r1])[:, None, :]),
            point1=_readonly(np.stack([r1, a * r1])[:, None, :]),
            widths=_readonly(np.array(widths, dtype=float)),
            is_a2=_readonly(np.array(is_a2, dtype=bool)),
        )


def _coefficients(t: TermTable, lam: np.ndarray) -> np.ndarray:
    """The coefficients of the M_k in D and D' at a column of points, shape
    (2, N, K): row 0 holds e^{lam a_k} R_k, row 1 e^{lam a_k} (a_k R_k + R_k')."""
    coeff = t.point0 + lam * t.point1
    if t.widths.size:
        # A2 segments integrate lam e^{lam s} to e^{lam a} (e^{lam w} - 1), exact
        # at lam = 0; A3 segments integrate e^{lam s} to e^{lam a} w phi0(lam w).
        x = lam * t.widths
        ex, phi0, phi1 = _phi(x)
        R = np.where(t.is_a2, x, t.widths) * phi0
        dR = t.locs[t.point0.shape[-1]:] * R + t.widths * np.where(t.is_a2, ex, t.widths * phi1)
        coeff = np.concatenate([coeff, np.stack([R, dR])], axis=-1)
    coeff *= np.exp(lam * t.locs)
    return coeff


def _evaluate(t: TermTable, lams) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (2, N, K) and D, D' stacked as (2, N, n, n)."""
    lam = np.asarray(lams, dtype=complex).reshape(-1, 1)
    coeff = _coefficients(t, lam)
    # One (2N, terms) @ (terms, n*n) product: a stack of one point would go
    # through numpy's vector-matrix path and round differently, and a point's
    # D must not depend on how many other points share its batch.
    return coeff, (coeff.reshape(2 * lam.shape[0], -1) @ t.mats).reshape(2, -1, t.n, t.n)


def delta_and_derivative(sys_: NeutralSystem, lams) -> tuple[np.ndarray, np.ndarray]:
    """D(lam) and D'(lam) at an array of points; two arrays of shape (N, n, n)."""
    return tuple(_evaluate(sys_.terms, lams)[1])


def delta_and_scale(sys_: NeutralSystem, lam: complex) -> tuple[np.ndarray, float]:
    """D(lam), bitwise as `delta` gives it, and its term scale
    sum_k |c_k(lam)| ||M_k||_2: a bound on ||D(lam)||_2 that stays at the size
    of the terms where they cancel.  One evaluation of the coefficients."""
    coeff, DD = _evaluate(sys_.terms, lam)
    return DD[0, 0], float(np.abs(coeff[0, 0]) @ sys_.terms.norms)


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
class SpectralEntry:
    mu: complex
    algebraic: int
    geometric: int
    on_unit_circle: bool

    @property
    def rootspace_dim(self) -> int:
        # the root chains of mu carry its algebraic multiplicity
        return self.algebraic

    @property
    def has_jordan_block(self) -> bool:
        return self.geometric < self.algebraic


@dataclass(frozen=True)
class MatrixSpectralStructure:
    entries: tuple[SpectralEntry, ...]
    spectral_radius: float
    cluster_tol: float

    @property
    def sigma1(self) -> tuple[SpectralEntry, ...]:
        return tuple(e for e in self.entries if e.on_unit_circle)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "mu": {"re": e.mu.real, "im": e.mu.imag},
                    "algebraic": e.algebraic,
                    "geometric": e.geometric,
                    "rootspace_dim": e.rootspace_dim,
                    "on_unit_circle": e.on_unit_circle,
                    "jordan_block": e.has_jordan_block,
                }
                for e in self.entries
            ],
            "spectral_radius": self.spectral_radius,
            "unit_tol": UNIT_CIRCLE_TOL,
            "cluster_tol": self.cluster_tol,
        }


def matrix_spectral_structure(A) -> MatrixSpectralStructure:
    """Eigenvalues of A with algebraic/geometric multiplicities and Jordan flags.

    Eigenvalues are clustered at 1e-6 relative to the matrix scale, and the
    geometric multiplicity is the nullity of A - mu I with the cluster
    tolerance as the rank cut, so borderline calls stay auditable via the
    recorded tolerance.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    tol = default_cluster_tol(A)
    clusters, raw = cluster_eigenvalues(A, tol)
    entries = []
    for mu, alg in clusters:
        geo = min(max(n - rank(A - mu * np.eye(n), tol).rank, 1), alg)
        entries.append(
            SpectralEntry(
                mu=mu,
                algebraic=alg,
                geometric=geo,
                on_unit_circle=abs(abs(mu) - 1.0) <= UNIT_CIRCLE_TOL,
            )
        )
    return MatrixSpectralStructure(
        entries=tuple(entries),
        spectral_radius=float(np.max(np.abs(raw))) if len(raw) else 0.0,
        cluster_tol=tol,
    )


@dataclass(frozen=True)
class ChainGrid:
    """The root chains of det D: their generating eigenvalues and the radius
    of the circle around every chain center."""

    eigenvalues: tuple[SpectralEntry, ...]
    radius: float
    r0: float
    h: float

    def abscissas(self) -> list[float]:
        """ln|mu_m| / h, the real part every center of chain m shares."""
        return [float(np.log(abs(e.mu)) / self.h) for e in self.eigenvalues]

    def center(self, m: int, k: int) -> complex:
        mu = self.eigenvalues[m].mu
        base = np.log(abs(mu)) + 1j * np.angle(mu)  # arg branch (-pi, pi]
        return complex((base + 2j * np.pi * k) / self.h)

    def _k_at(self, m: int, im: float) -> float:
        """The chain index k, not rounded, whose center of chain m has
        imaginary part im."""
        return (self.h * im - np.angle(self.eigenvalues[m].mu)) / (2.0 * np.pi)

    def label_for(self, lam: complex):
        """(m, k) of the chain circle containing lam, or None.  Only the
        nearest center of each chain can hold lam: the radius is at most a
        sixth of the spacing 2 pi / h."""
        for m in range(len(self.eigenvalues)):
            k = int(np.round(self._k_at(m, lam.imag)))
            if abs(lam - self.center(m, k)) <= self.radius:
                return (m, k)
        return None

    def centers_in(self, rect) -> list[complex]:
        """The centers that rect contains, by chain m and then ascending k."""
        centers = []
        for m in range(len(self.eigenvalues)):
            k_lo, k_hi = np.floor(self._k_at(m, rect.im_min)), np.ceil(self._k_at(m, rect.im_max))
            centers.extend(c for c in (self.center(m, k) for k in range(int(k_lo), int(k_hi) + 1))
                           if rect.contains(c))
        return centers


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


def chain_grid(sys_: NeutralSystem) -> ChainGrid | None:
    """The chains of every nonzero eigenvalue in sys_.structure, with circle
    radius r0 / 2.

    Eigenvalues with |mu| at most sqrt(eps) times max(1, ||A||_2) have no
    finite chain center and are skipped; if all of them are (numerically)
    zero the spectrum is retarded-like and there is no grid: None.
    """
    A = sys_.A_minus1
    zero_tol = np.sqrt(np.finfo(float).eps) * max(1.0, norm2(A))
    kept = tuple(e for e in sys_.structure.entries if abs(e.mu) > zero_tol)
    if not kept:
        return None
    r0 = chain_centers_radius0([e.mu for e in kept], sys_.h)
    return ChainGrid(eigenvalues=kept, radius=0.5 * r0, r0=r0, h=sys_.h)


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

    tol is relative to the size of D's terms at lam (`delta_and_scale`), not
    to the largest singular value: at a root where D vanishes altogether,
    every direction is null.
    """
    return _kernel(sys_, lam, tol)[2]


def _kernel(sys_: NeutralSystem, lam: complex, tol: float):
    """D(lam), the cut tol * term scale, and the right singular vectors of D
    whose singular values the rank does not count."""
    D, scale = delta_and_scale(sys_, lam)
    _, sigma, vh = np.linalg.svd(D)
    cut = tol * scale
    return D, cut, vh[sigma_rank(sigma, cut).rank:].conj().T


def eigenvector_candidates(
    sys_: NeutralSystem, lam: complex, tol: float = 1e-6
) -> list[EigenvectorCandidate]:
    """One candidate per null direction of D(lam); empty if D is regular there."""
    D, cut, basis = _kernel(sys_, lam, tol)
    return [EigenvectorCandidate(lam=complex(lam), C=C, residual=float(np.linalg.norm(D @ C)),
                                 head=C - np.exp(-lam * sys_.h) * (sys_.A_minus1 @ C), tol=cut)
            for C in basis.T]


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Principal angle between the complex lines spanned by u and v, in radians."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, c)))
