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
locations snap to the nearest grid node.  The scheme is first-order in dt; it
is an evidence generator for the stability and reachability verdicts, not a
production integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationBlowUpError
from .sysmodel import NeutralSystem

_FINITE_CHECK_STRIDE = 50


@dataclass(frozen=True)
class HistorySegment:
    """Initial state samples on [-h, 0] over a uniform grid of m+1 points."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two points")
        steps = np.diff(grid)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform and increasing")
        if grid[-1] != 0.0:
            raise ValueError("grid must end at 0")
        if values.shape[0] != grid.size or values.ndim != 2:
            raise ValueError("values must have shape (len(grid), n)")
        if not np.all(np.isfinite(values)):
            raise ValueError("history values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.grid.size - 1

    @classmethod
    def from_function(cls, sys_: NeutralSystem, func, m: int) -> "HistorySegment":
        grid = np.linspace(-sys_.h, 0.0, m + 1)
        values = np.array([np.asarray(func(t)).reshape(sys_.n) for t in grid])
        return cls(grid, values)

    @classmethod
    def constant(cls, sys_: NeutralSystem, vec, m: int) -> "HistorySegment":
        vec = np.asarray(vec).reshape(sys_.n)
        return cls(np.linspace(-sys_.h, 0.0, m + 1), np.tile(vec, (m + 1, 1)))

    @classmethod
    def zero(cls, sys_: NeutralSystem, m: int) -> "HistorySegment":
        return cls.constant(sys_, np.zeros(sys_.n), m)

    @classmethod
    def random(cls, sys_: NeutralSystem, m: int, seed: int) -> "HistorySegment":
        rng = np.random.default_rng(seed)
        grid = np.linspace(-sys_.h, 0.0, m + 1)
        return cls(grid, rng.uniform(-1.0, 1.0, size=(m + 1, sys_.n)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    z_values: np.ndarray
    m2_norm: np.ndarray

    def to_csv(self) -> str:
        import csv as _csv
        import io

        n = self.z_values.shape[1]
        complex_state = np.iscomplexobj(self.z_values) and np.any(self.z_values.imag)
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        if complex_state:
            header = ["t"]
            for j in range(n):
                header += [f"z{j + 1}_re", f"z{j + 1}_im"]
            header.append("m2_norm")
            writer.writerow(header)
            for i, t in enumerate(self.times):
                row = [repr(float(t))]
                for j in range(n):
                    row += [repr(float(self.z_values[i, j].real)),
                            repr(float(self.z_values[i, j].imag))]
                row.append(repr(float(self.m2_norm[i])))
                writer.writerow(row)
        else:
            writer.writerow(["t"] + [f"z{j + 1}" for j in range(n)] + ["m2_norm"])
            for i, t in enumerate(self.times):
                row = [repr(float(t))]
                row += [repr(float(np.real(self.z_values[i, j]))) for j in range(n)]
                row.append(repr(float(self.m2_norm[i])))
                writer.writerow(row)
        return buf.getvalue()


def _kernel_weights(kernel, grid: np.ndarray, dt: float):
    """Trapezoid-weighted kernel samples, or None when the density vanishes."""
    if kernel.has_zero_density():
        return None
    mats = np.stack([kernel.eval(t) for t in grid])
    w = np.full(grid.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return mats * w[:, None, None]


def _sample_control(u, times: np.ndarray, r: int, dtype) -> np.ndarray | None:
    if u is None or r == 0:
        return None
    if callable(u):
        return np.array([np.asarray(u(t), dtype=dtype).reshape(r) for t in times])
    u = np.asarray(u, dtype=dtype)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[0] < times.size or u.shape[1] != r:
        raise ValueError(f"control samples must cover {times.size} steps with {r} channels")
    return u[: times.size]


def _integrate(sys_: NeutralSystem, hist0: np.ndarray, controls: np.ndarray | None,
               nsteps: int, m: int) -> np.ndarray:
    """Core stepper; hist0 has shape (m+1, n, c), controls (nsteps, r, c) or None.

    controls only needs indexing by step, controls[k] of shape (r, c), so the
    reachability probe passes its basis without storing it.

    Returns the full sample array of shape (m + nsteps + 1, n, c) covering
    t in [-h, nsteps*dt].
    """
    n = sys_.n
    dt = sys_.h / m
    c = hist0.shape[2]
    Z = np.zeros((m + nsteps + 1, n, c), dtype=hist0.dtype)
    Z[: m + 1] = hist0

    grid = np.linspace(-sys_.h, 0.0, m + 1)
    W2 = _kernel_weights(sys_.A2, grid, dt)
    W3 = _kernel_weights(sys_.A3, grid, dt)
    atom_terms = [
        (int(np.clip(np.round((theta + sys_.h) / dt), 0, m)), M)
        for theta, M in sys_.A3.atoms
    ]
    A = sys_.A_minus1
    B = sys_.B

    w_cur = Z[m] - A @ Z[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            win = Z[k : k + m + 1]
            rhs = np.zeros((n, c), dtype=Z.dtype)
            if W3 is not None:
                rhs += np.einsum("pij,pjc->ic", W3, win)
            if W2 is not None:
                dwin = np.gradient(win, dt, axis=0)
                rhs += np.einsum("pij,pjc->ic", W2, dwin)
            for idx, M in atom_terms:
                rhs += M @ win[idx]
            if controls is not None:
                rhs += B @ controls[k]
            w_cur = w_cur + dt * rhs
            Z[k + m + 1] = w_cur + A @ Z[k + 1]
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
    m: int | None = None,
) -> Trajectory:
    """Integrate from history phi under control u up to time T.

    u may be None (zero input), a callable t -> r-vector, or an array of
    per-step samples.  m is the number of grid intervals per delay and must
    match the history grid when given; the step is dt = h/m and T is rounded
    to the nearest step.  Raises SimulationBlowUpError when the state leaves
    the representable range, with the blow-up time attached.
    """
    if m is None:
        m = phi.m
    if m != phi.m:
        raise ValueError(f"phi has {phi.m} intervals per delay, m = {m} given")
    if m < 8:
        raise ValueError("need at least 8 grid points per delay interval")
    if abs(phi.grid[0] + sys_.h) > 1e-9 * max(1.0, sys_.h):
        raise ValueError(f"history grid spans [{phi.grid[0]}, 0], system delay is {sys_.h}")
    if phi.values.shape[1] != sys_.n:
        raise ValueError(f"history has {phi.values.shape[1]} components, state dimension is {sys_.n}")
    if not (T > 0):
        raise ValueError("final time must be positive")
    dt = sys_.h / m
    nsteps = max(1, int(round(T / dt)))
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
