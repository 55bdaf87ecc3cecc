"""Discretized steering-operator probe for reachability growth over time.

Each column of the probe matrix is the terminal state (head vector plus the
trailing delay segment of z) reached from zero history by one element of a
piecewise-constant control basis on [0, T].  Singular values of that matrix
show how the reachable set fills out as T grows; the effective rank at a
relative cliff is the auditable summary.  This is numerical evidence on a
finite grid, not a proof about the infinite-dimensional reachable set.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .simulate import _integrate
from .sysmodel import NeutralSystem


@dataclass(frozen=True)
class SteeringProbe:
    T: float
    control_dim: int
    state_dim: int
    matrix: np.ndarray
    singular_values: np.ndarray

    def effective_rank(self, tau: float = 1e-6) -> int:
        """Number of singular values above tau relative to the largest."""
        s = self.singular_values
        if s.size == 0 or s[0] <= 0.0:
            return 0
        return int(np.count_nonzero(s >= tau * s[0]))


class _BasisControls:
    """Samples of the piecewise-constant control basis, made one step at a time.

    Indexing by step k gives the (r, ncols) slice a stored (nsteps, r, ncols)
    array would hold: 1 at channel c, column j * r + c for the interval j
    that contains step k, 0 elsewhere.
    """

    def __init__(self, interval: np.ndarray, r: int, ncols: int):
        self.interval = interval
        self.r = r
        self.ncols = ncols

    def __getitem__(self, k: int) -> np.ndarray:
        u = np.zeros((self.r, self.ncols))
        channels = np.arange(self.r)
        u[channels, int(self.interval[k]) * self.r + channels] = 1.0
        return u


def build_steering_probe(
    sys_: NeutralSystem, T: float, m: int = 100, q: int = 400
) -> SteeringProbe:
    """Assemble the control-to-terminal-state matrix from zero initial history.

    The control basis has q intervals per input channel (capped at the number
    of simulation steps so no basis element vanishes); column order is
    interval-major, then channel.  T is rounded to the simulation grid.  For
    rank questions the control side must not bind, so the default q exceeds
    the default state dimension n(m+1) + n for small n.
    """
    if sys_.r < 1:
        raise ValueError("steering probe needs at least one input channel")
    if not (T > 0):
        raise ValueError("horizon must be positive")
    if m < 8 or q < 1:
        raise ValueError("need m >= 8 history points and q >= 1 control intervals")
    dt = sys_.h / m
    nsteps = max(1, int(round(T / dt)))
    t_eff = nsteps * dt

    r = sys_.r
    q = min(q, nsteps)
    ncols = q * r
    interval = np.minimum((np.arange(nsteps) * q) // nsteps, q - 1)
    # Neither the zero history nor the one-hot controls is stored in full: at
    # the report's horizons they would be the largest arrays of the probe.
    hist0 = np.broadcast_to(0.0, (m + 1, sys_.n, ncols))
    Z = _integrate(sys_, hist0, _BasisControls(interval, r, ncols), nsteps, m)

    tail = Z[nsteps : nsteps + m + 1]                  # z(T + theta) on the grid
    head = Z[nsteps + m] - sys_.A_minus1 @ Z[nsteps]   # z(T) - A z(T - h)
    state = np.concatenate([head, tail.reshape(-1, ncols)], axis=0)
    sigma = np.linalg.svd(state, compute_uv=False)
    return SteeringProbe(
        T=t_eff,
        control_dim=ncols,
        state_dim=state.shape[0],
        matrix=state,
        singular_values=sigma,
    )


@dataclass(frozen=True)
class ProbeSummary:
    T: float
    sigma_max: float
    sigma_at_rank: float
    effective_rank: int


@dataclass(frozen=True)
class RankProfile:
    entries: tuple[ProbeSummary, ...]
    tau: float
    monotone: bool

    def to_csv(self, singular_values: dict | None = None, k: int = 12) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["T"] + [f"sigma_{i + 1}" for i in range(k)] + ["effective_rank"])
        for e in self.entries:
            sig = (singular_values or {}).get(e.T, np.array([e.sigma_max]))
            padded = list(sig[:k]) + [0.0] * max(0, k - len(sig))
            writer.writerow([repr(e.T)] + [repr(float(s)) for s in padded] + [e.effective_rank])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "monotone_effective_rank": self.monotone,
            "entries": [
                {
                    "T": e.T,
                    "sigma_max": e.sigma_max,
                    "sigma_at_rank": e.sigma_at_rank,
                    "effective_rank": e.effective_rank,
                }
                for e in self.entries
            ],
        }


def rank_profile(
    sys_: NeutralSystem,
    T_list,
    m: int = 100,
    q: int = 400,
    tau: float = 1e-6,
) -> tuple[RankProfile, dict]:
    """Probe summaries over increasing horizons on a shared state grid.

    Returns the profile plus the raw singular values per horizon.  The
    reachable set only grows with T, so the effective rank should be
    non-decreasing; the profile records whether the discretization respects
    that.
    """
    T_list = list(T_list)
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("horizons must be strictly increasing")
    entries = []
    sigmas: dict = {}
    for T in T_list:
        probe = build_steering_probe(sys_, T, m=m, q=q)
        rank = probe.effective_rank(tau)
        s = probe.singular_values
        entries.append(
            ProbeSummary(
                T=probe.T,
                sigma_max=float(s[0]) if s.size else 0.0,
                sigma_at_rank=float(s[rank - 1]) if rank > 0 else 0.0,
                effective_rank=rank,
            )
        )
        sigmas[probe.T] = s
        del probe  # its matrix would otherwise stay alive through the next build
    ranks = [e.effective_rank for e in entries]
    monotone = all(b >= a for a, b in zip(ranks, ranks[1:]))
    return RankProfile(entries=tuple(entries), tau=tau, monotone=monotone), sigmas
