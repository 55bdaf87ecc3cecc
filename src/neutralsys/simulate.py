"""Method-of-steps time integration for neutral delay systems.

The integrated variable is the difference state w(t) = z(t) - A z(t-h), so
the neutral structure is handled exactly and only the functional terms are
discretized:

    w(t+dt) = w(t) + dt * [ integral A2(theta) dz(t+theta)
                          + integral A3(theta) z(t+theta)
                          + sum_j A3_j z(t+theta_j) + B u(t) ]
    z(t+dt) = w(t+dt) + A z(t+dt-h)

History integrals use the trapezoid rule on the stored grid, the history
derivative uses centered differences (one-sided at the ends), and atom
locations snap to the nearest grid node.  All of that is linear in the window
of the last m+1 samples, so it is assembled once per run, with dt in it,
into one window operator, and a step is one matrix product with the
flattened window, added to the carried w together with dt * B u.  The
scheme is first-order in dt; it is an evidence generator for the stability
and reachability verdicts, not a production integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationBlowUpError
from .sysmodel import NeutralSystem, _check_size, csv_table

_FINITE_CHECK_STRIDE = 50


def _steps(sys_: NeutralSystem, T: float, m: int) -> int:
    """Simulation steps of dt = h/m that reach horizon T, at least one; the
    ratio is size-checked before rounding, which overflows on an infinite one."""
    ratio = T / (sys_.h / m)
    _check_size(ratio, "time steps")
    return max(1, int(round(ratio)))


def _history_grid(sys_: NeutralSystem, m: int) -> np.ndarray:
    """The m+1 uniform points on [-h, 0]; m below 8 is refused."""
    if m < 8:
        raise ValueError("need at least 8 grid intervals per delay")
    _check_size(m, "grid intervals per delay")
    return np.linspace(-sys_.h, 0.0, m + 1)


@dataclass(frozen=True)
class HistorySegment:
    """Initial state samples, one row per point of the uniform grid of m+1
    points on [-h, 0] (`_history_grid`); m is the row count less one."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("values must have shape (m + 1, n) with m >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("history values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @classmethod
    def constant(cls, sys_: NeutralSystem, vec, m: int) -> "HistorySegment":
        _history_grid(sys_, m)   # refuses m before the samples are allocated
        return cls(np.tile(np.asarray(vec).reshape(sys_.n), (m + 1, 1)))

    @classmethod
    def zero(cls, sys_: NeutralSystem, m: int) -> "HistorySegment":
        return cls.constant(sys_, np.zeros(sys_.n), m)

    @classmethod
    def random(cls, sys_: NeutralSystem, m: int, seed: int) -> "HistorySegment":
        _history_grid(sys_, m)
        return cls(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m + 1, sys_.n)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    z_values: np.ndarray
    m2_norm: np.ndarray

    def to_csv(self) -> str:
        n = self.z_values.shape[1]
        if np.iscomplexobj(self.z_values) and np.any(self.z_values.imag):
            header = ["t"] + [f"z{j + 1}_{part}" for j in range(n) for part in ("re", "im")]
            z = np.stack([self.z_values.real, self.z_values.imag], axis=-1).reshape(-1, 2 * n)
        else:
            header = ["t"] + [f"z{j + 1}" for j in range(n)]
            z = np.real(self.z_values)
        return csv_table(header + ["m2_norm"], np.column_stack([self.times, z, self.m2_norm]).tolist())


def _kernel_weights(kernel, grid: np.ndarray, dt: float):
    """Trapezoid-weighted kernel samples, or None when the density vanishes."""
    if kernel.has_zero_density():
        return None
    w = np.full(grid.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return kernel.eval(grid) * w[:, None, None]


def _sample_control(u, times: np.ndarray, r: int, dtype) -> np.ndarray | None:
    if u is None or r == 0:
        return None
    if callable(u):
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            u = np.array([np.asarray(u(t), dtype=dtype).reshape(r) for t in times])
    u = np.asarray(u, dtype=dtype)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[0] < times.size or u.shape[1] != r:
        raise ValueError(f"control samples must cover {times.size} steps with {r} channels")
    u = u[: times.size]
    if not np.all(np.isfinite(u)):
        raise ValueError("control samples must be finite")
    return u


def _window_operator(sys_: NeutralSystem, m: int, dtype) -> np.ndarray:
    """The linear map from the flattened window Z[k : k+m+1] to one step's terms.

    Shape (2n, (m+1)n).  The top n rows give dt times the history part of the
    right-hand side: the trapezoid A3 weights, the A2 trapezoid weights
    carried through np.gradient's stencil (centered inside, one-sided at both
    ends), and each atom at its snapped node.  The bottom n rows give
    A z(t+dt-h), A applied to the second window node.
    """
    n = sys_.n
    dt = sys_.h / m
    grid = _history_grid(sys_, m)
    K = np.zeros((m + 1, n, n))
    W3 = _kernel_weights(sys_.A3, grid, dt)
    if W3 is not None:
        K += W3
    W2 = _kernel_weights(sys_.A2, grid, dt)
    if W2 is not None:
        # each gradient sample's weight, moved onto the samples it differences
        D = W2 / dt
        K[2:] += 0.5 * D[1:-1]
        K[:-2] -= 0.5 * D[1:-1]
        K[1] += D[0]
        K[0] -= D[0]
        K[m] += D[m]
        K[m - 1] -= D[m]
    for theta, M in sys_.A3.atoms:
        K[int(np.clip(np.round((theta + sys_.h) / dt), 0, m))] += M
    op = np.zeros((2 * n, m + 1, n), dtype=dtype)
    op[:n] = dt * K.transpose(1, 0, 2)
    op[n:, 1] = sys_.A_minus1
    return op.reshape(2 * n, (m + 1) * n)


def _integrate(sys_: NeutralSystem, hist0: np.ndarray, controls: np.ndarray | None,
               nsteps: int, m: int) -> np.ndarray:
    """Core stepper; hist0 has shape (m+1, n, c), controls (nsteps, r, c) or None.

    Returns the full sample array of shape (m + nsteps + 1, n, c) covering
    t in [-h, nsteps*dt].  Each step is one product of the window operator
    with the flattened window of the last m+1 samples; its top half and
    dt * B u_k, scaled once per run, are added to the carried w.
    """
    n = sys_.n
    dt = sys_.h / m
    c = hist0.shape[2]
    Z = np.zeros((m + nsteps + 1, n, c), dtype=hist0.dtype)
    Z[: m + 1] = hist0
    flat = Z.reshape(-1, c)
    op = _window_operator(sys_, m, Z.dtype)
    inputs = None if controls is None else dt * np.einsum("ij,kjc->kic", sys_.B, controls)

    out = np.empty((2 * n, c), dtype=Z.dtype)
    rhs, shifted = out[:n], out[n:]
    w_cur = Z[m] - sys_.A_minus1 @ Z[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            np.matmul(op, flat[k * n : (k + m + 1) * n], out=out)
            if inputs is not None:
                rhs += inputs[k]
            w_cur += rhs
            np.add(w_cur, shifted, out=Z[k + m + 1])
            if (k % _FINITE_CHECK_STRIDE == 0 or k == nsteps - 1) and not np.all(
                np.isfinite(Z[k + m + 1])
            ):
                raise SimulationBlowUpError((k + 1) * dt)
    return Z


def _m2_norms(sys_: NeutralSystem, Z: np.ndarray, m: int, dt: float) -> np.ndarray:
    """Product-space norm at every output time: |z(t) - A z(t-h)|^2 plus the
    trapezoid integral of |z|^2 over the trailing delay interval, square-rooted."""
    A = sys_.A_minus1
    K = Z.shape[0] - m
    heads = Z[m:] - np.einsum("ij,kj->ki", A, Z[:K])
    s = np.sum(np.abs(Z) ** 2, axis=1)
    csum = np.concatenate([[0.0], np.cumsum(s)])
    integrals = dt * (csum[m + 1 :] - csum[:K] - 0.5 * (s[:K] + s[m:]))
    return np.sqrt(np.sum(np.abs(heads) ** 2, axis=1) + integrals)


def simulate(
    sys_: NeutralSystem,
    phi: HistorySegment,
    u=None,
    T: float = 1.0,
) -> Trajectory:
    """Integrate from history phi under control u up to time T.

    u may be None (zero input), a callable t -> r-vector, or an array of
    per-step samples.  The step is dt = h/m for the m = phi.m grid intervals
    per delay of the history, and T is rounded to the nearest step.  Raises
    SimulationBlowUpError when the state leaves the representable range, with
    the blow-up time attached.
    """
    m = phi.m
    if phi.values.shape[1] != sys_.n:
        raise ValueError(f"history has {phi.values.shape[1]} components, state dimension is {sys_.n}")
    if not (0 < T < np.inf):
        raise ValueError("final time must be positive and finite")
    dt = sys_.h / m
    nsteps = _steps(sys_, T, m)
    times = np.arange(nsteps + 1) * dt

    dtype = complex if np.iscomplexobj(phi.values) else float
    hist0 = np.asarray(phi.values, dtype=dtype)[:, :, None]
    controls = _sample_control(u, times[:-1], sys_.r, dtype)
    if controls is not None:
        controls = controls[:, :, None]

    Z = _integrate(sys_, hist0, controls, nsteps, m)
    z_out = Z[m:, :, 0]
    norms = _m2_norms(sys_, Z[:, :, 0], m, dt)
    return Trajectory(times=times, z_values=z_out, m2_norm=norms)


def norm_profile(traj: Trajectory) -> np.ndarray:
    """(t, m2_norm) pairs as a two-column array."""
    return np.column_stack([traj.times, traj.m2_norm])
