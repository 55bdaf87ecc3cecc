"""Discretized steering-operator probe for reachability growth over time.

Each column of the probe matrix is the terminal state (head vector plus the
trailing delay segment of z) reached from zero history by a unit pulse on
one simulation step and one input channel.  Singular values of that matrix
show how the reachable set fills out as T grows; the effective rank, the
number of singular values above RANK_TAU times the largest (`_linalg.rank`),
is the auditable summary.  This is numerical evidence on a finite grid, not a
proof about the infinite-dimensional reachable set.

The cut stays relative to sigma_1: the probe's singular values can show
cliffs decades apart, and which one marks the rank of the reachable set is
still open, so no scale of the inputs is yet the right one.  As sigma_1 grows
with T, a later horizon can drop a value an earlier one kept.

The stepper's coefficients do not depend on the step and the history is
zero, so a pulse on step j gives the step-0 pulse response P delayed by j
steps (the first j steps compute exact zeros), and at T = nsteps*dt its
terminal state is that of P at age nsteps - j.  One simulation of P yields
every column, and the probe at an earlier horizon of s steps is the last s*r
columns of a later one: the column blocks, and the reachable sets they span,
nest.  The probe is filled in place in one buffer, the only probe-sized
array beside numpy's own SVD buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import sigma_rank
from .simulate import _history_grid, _integrate, _steps
from .sysmodel import NeutralSystem, _check_size, csv_table

CSV_SIGMAS = 12   # singular values per horizon in rank_profile.csv
RANK_TAU = 1e-6   # effective-rank cut, relative to sigma_1


@dataclass(frozen=True)
class SteeringProbe:
    T: float
    control_dim: int
    matrix: np.ndarray
    singular_values: np.ndarray


def build_steering_probe(sys_: NeutralSystem, T: float, m: int = 100) -> SteeringProbe:
    """Assemble the control-to-terminal-state matrix from zero initial history.

    One column per simulation step and input channel, step-major, all from
    one simulated pulse response.  T is rounded to the simulation grid.
    """
    if sys_.r < 1:
        raise ValueError("steering probe needs at least one input channel")
    if not (0 < T < np.inf):
        raise ValueError("horizon must be positive and finite")
    _history_grid(sys_, m)   # refuses m < 8 before _steps divides by m
    n, r = sys_.n, sys_.r
    nsteps = _steps(sys_, T, m)
    _check_size((m + 2) * n * nsteps * r, "probe entries")
    controls = np.zeros((nsteps, r, r))
    controls[0] = np.eye(r)
    P = _integrate(sys_, np.zeros((m + 1, n, r)), controls, nsteps, m)

    # The pulse on step j is s = nsteps - j steps old at T; its terminal
    # segment is P[s : s + m + 1], i.e. z(T + theta) on the grid: the windows
    # of P for s = nsteps, ..., 1, as (theta, n, step, channel), fill the tail.
    state = np.empty(((m + 2) * n, nsteps * r))
    windows = np.lib.stride_tricks.sliding_window_view(P, m + 1, axis=0)[nsteps:0:-1]
    state[n:].reshape(m + 1, n, nsteps, r)[...] = windows.transpose(3, 1, 0, 2)
    np.matmul(sys_.A_minus1, state[n : 2 * n], out=state[:n])   # z(T) - A z(T - h)
    np.subtract(state[(m + 1) * n :], state[:n], out=state[:n])
    return SteeringProbe(
        T=nsteps * (sys_.h / m),
        control_dim=nsteps * r,
        matrix=state,
        singular_values=np.linalg.svd(state, compute_uv=False),
    )


@dataclass(frozen=True)
class ProbeSummary:
    T: float
    sigma_max: float
    sigma_at_rank: float
    effective_rank: int
    # every singular value of the horizon, descending; rank_profile.csv lists them
    singular_values: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class RankProfile:
    entries: tuple[ProbeSummary, ...]
    monotone: bool

    def to_csv(self) -> str:
        header = ["T"] + [f"sigma_{i + 1}" for i in range(CSV_SIGMAS)] + ["effective_rank"]
        rows = []
        for e in self.entries:
            sig = e.singular_values[:CSV_SIGMAS].tolist()
            rows.append([e.T] + sig + [0.0] * (CSV_SIGMAS - len(sig)) + [e.effective_rank])
        return csv_table(header, rows)

    def to_json_dict(self) -> dict:
        return {
            "tau": RANK_TAU,
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


def rank_profile(sys_: NeutralSystem, T_list, m: int = 100) -> RankProfile:
    """Probe summaries over increasing horizons on a shared state grid.

    Each horizon's probe is the trailing columns of the last horizon's, and
    each summary keeps its horizon's singular values.  The reachable set only
    grows with T, so the effective rank should be non-decreasing; the profile
    records whether the discretization respects that.
    """
    T_list = list(T_list)
    if not T_list or not T_list[0] > 0 or any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("horizons must be positive and strictly increasing")
    probe = build_steering_probe(sys_, T_list[-1], m=m)
    entries = []
    for T in T_list:
        nsteps = _steps(sys_, T, m)
        cols, T_eff = nsteps * sys_.r, nsteps * (sys_.h / m)
        s = (probe.singular_values if cols == probe.control_dim
             else np.linalg.svd(probe.matrix[:, -cols:], compute_uv=False))
        rank = sigma_rank(s, RANK_TAU * s[0]).rank
        entries.append(
            ProbeSummary(
                T=T_eff,
                sigma_max=float(s[0]) if s.size else 0.0,
                sigma_at_rank=float(s[rank - 1]) if rank > 0 else 0.0,
                effective_rank=rank,
                singular_values=s,
            )
        )
    ranks = [e.effective_rank for e in entries]
    monotone = all(b >= a for a, b in zip(ranks, ranks[1:]))
    return RankProfile(entries=tuple(entries), monotone=monotone)
