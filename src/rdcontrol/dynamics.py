"""Time integration of the controlled reaction-diffusion equation.

IMEX scheme: diffusion and drift are implicit (one tridiagonal solve per
step, the same spatial operator the steady solvers assemble), the
reaction explicit.  Each run builds one stepper, which factors the
implicit matrix once and reuses the factor at every step.  Boundary
rows are pinned to the control values, which are always clamped to
[0, 1].
With controls and data in [0, 1] and dt * ||f'||_inf < 1 the update is
monotone, so the discrete comparison principle and the invariant region
survive exactly; discrete steady states are exact fixed points of the
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import assemble_operator, factor_tridiagonal, solve_tridiagonal
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile, lipschitz_and_sup_fprime

__all__ = [
    "PdeState",
    "ControlSchedule",
    "SimulationResult",
    "Verdict",
    "default_dt",
    "step",
    "simulate",
    "verdict",
    "asymptotic_verdict",
]


@dataclass(frozen=True)
class PdeState:
    t: float
    profile: GridProfile
    drift: DriftField


@dataclass(frozen=True)
class ControlSchedule:
    """Boundary control law; every emitted value is clamped to [0, 1].

    kinds: "static" (u = value), "piecewise" (list of (t_i, u_i), each
    value applied from t_i on) and "feedback" (target boundary trace
    plus gain times the mismatch at the boundary-adjacent node).
    """

    kind: str
    value: float = 0.0
    pieces: tuple = ()
    target: Optional[GridProfile] = None
    gain: float = 0.0

    @classmethod
    def static(cls, a: float) -> "ControlSchedule":
        return cls(kind="static", value=float(a))

    @classmethod
    def piecewise(cls, pieces) -> "ControlSchedule":
        pc = tuple(sorted((float(t), float(u)) for t, u in pieces))
        if not pc:
            raise InvalidInput("invalid-schedule: empty piecewise schedule")
        return cls(kind="piecewise", pieces=pc)

    @classmethod
    def feedback(cls, target: GridProfile, gain: float) -> "ControlSchedule":
        return cls(kind="feedback", target=target, gain=float(gain))

    def boundary_values(self, t: float, values: np.ndarray) -> tuple[float, float]:
        if self.kind == "static":
            u = min(max(self.value, 0.0), 1.0)
            return u, u
        if self.kind == "piecewise":
            u = self.pieces[0][1]
            for ti, ui in self.pieces:
                if t >= ti:
                    u = ui
            u = min(max(u, 0.0), 1.0)
            return u, u
        tgt = self.target.values
        u_left = tgt[0] + self.gain * (tgt[1] - values[1])
        u_right = tgt[-1] + self.gain * (tgt[-2] - values[-2])
        return (min(max(float(u_left), 0.0), 1.0),
                min(max(float(u_right), 0.0), 1.0))


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    snapshots: list
    control_log: np.ndarray  # rows (t, u_left, u_right)


@dataclass(frozen=True)
class Verdict:
    status: str  # "converged" | "blocked"
    time: Optional[float]    # first converged check; None when blocked
    residual_sup: float      # gap sup|p - a| at that check, or at the horizon
    residual_profile: Optional[GridProfile]  # state at the deciding check
    stall: Optional[float]   # sup-move over the last tenth when blocked
    horizon: float


def default_dt(nl: BistableNonlinearity, h: float) -> float:
    """Conservative default step: 0.4 min(h^2/2, 1/||f'||_inf)."""
    M, _ = lipschitz_and_sup_fprime(nl)
    return 0.4 * min(0.5 * h * h, 1.0 / M)


class _Stepper:
    """Holds the factored implicit operator for fixed (grid, drift, dt)."""

    def __init__(self, geometry: DomainGeometry, n: int, drift: DriftField,
                 nl: BistableNonlinearity, dt: float):
        M, _ = lipschitz_and_sup_fprime(nl)
        if dt <= 0.0:
            raise InvalidInput("invalid-scalar: dt must be positive")
        if dt * M >= 1.0:
            raise InvalidInput(f"dt-too-large: dt*||f'|| = {dt * M:.3g} >= 1 "
                               "breaks the monotone reaction bound")
        lower, diag, upper = assemble_operator(geometry, n, drift)
        lo = -dt * lower
        di = 1.0 - dt * diag
        up = -dt * upper
        ball = geometry.kind == "ball"
        self.pin_left = not ball
        lo[-1], di[-1], up[-1] = 0.0, 1.0, 0.0
        if self.pin_left:
            lo[0], di[0], up[0] = 0.0, 1.0, 0.0
        self.factor = factor_tridiagonal(lo, di, up)
        self.dt = dt
        self.nl = nl

    def advance(self, vals: np.ndarray, u_left: float, u_right: float) -> np.ndarray:
        rhs = vals + self.dt * np.asarray(self.nl.f(vals))
        rhs[-1] = u_right
        if self.pin_left:
            rhs[0] = u_left
        return solve_tridiagonal(self.factor, rhs)

    def checks(self, vals: np.ndarray, u: float, n_steps: int, every: int):
        """Yield the checked states (t, values) of the static control u:
        the start state, then every ``every`` steps and at step n_steps."""
        yield 0.0, vals
        for k in range(1, n_steps + 1):
            vals = self.advance(vals, u, u)
            if k % every == 0 or k == n_steps:
                yield k * self.dt, vals


def step(state: PdeState, nl: BistableNonlinearity, u_left: float, u_right: float,
         dt: float) -> PdeState:
    """One IMEX step with the boundary rows pinned to the controls."""
    for u in (u_left, u_right):
        if not (0.0 <= u <= 1.0):
            raise InvalidInput(f"invalid-control: u={u} outside [0,1]")
    st = _Stepper(state.profile.geometry, state.profile.n, state.drift, nl, dt)
    vals = st.advance(state.profile.values, u_left, u_right)
    return PdeState(t=state.t + dt, profile=GridProfile(state.profile.geometry, vals),
                    drift=state.drift)


def simulate(p0: GridProfile, nl: BistableNonlinearity, drift: DriftField,
             schedule: ControlSchedule, T: float, dt: float,
             snapshot_every: int = 10) -> SimulationResult:
    """March the controlled equation to time T, keeping periodic snapshots."""
    geometry = p0.geometry
    st = _Stepper(geometry, p0.n, drift, nl, dt)
    prof = GridProfile(geometry, p0.values.copy())
    n_steps = max(1, int(round(T / dt)))
    times = [0.0]
    snaps = [prof]
    controls = []
    t = 0.0
    for k in range(n_steps):
        uL, uR = schedule.boundary_values(t, prof.values)
        controls.append((t, uL, uR))
        prof = GridProfile(geometry, st.advance(prof.values, uL, uR))
        t = (k + 1) * dt
        if (k + 1) % snapshot_every == 0 or k == n_steps - 1:
            times.append(t)
            snaps.append(prof)
    return SimulationResult(times=np.asarray(times), snapshots=snaps,
                            control_log=np.asarray(controls))


def verdict(checks, a: float, horizon: float, geometry: DomainGeometry,
            tol: float = 1e-3) -> Verdict:
    """The one verdict rule for a run of the static control u = a.

    ``checks`` yields the checked states (t, values) in time order, the
    last at t = horizon, and is consumed only up to the verdict.
    converged: the first check with gap sup|p - a| < tol.
    blocked:   still tol-far at the horizon, and moved < tol/10 since
               the first check at t >= 0.9 horizon, which must come
               before the last check.
    Anything else raises horizon-too-short.
    """
    if tol <= 0.0:
        raise InvalidInput("invalid-scalar: tol must be positive")
    mark = None
    for t, vals in checks:
        gap = float(np.max(np.abs(vals - a)))
        if gap < tol:
            return Verdict("converged", float(t), gap, GridProfile(geometry, vals), None, horizon)
        if mark is None and t >= 0.9 * horizon:
            t_mark, mark = t, vals
    stall = float(np.max(np.abs(vals - mark))) if mark is not None and t_mark < t else np.inf
    if stall < tol / 10.0:
        return Verdict("blocked", None, gap, GridProfile(geometry, vals), stall, horizon)
    raise SolverFailure(f"horizon-too-short: neither converged (gap {gap:.3g}) "
                        f"nor stalled (stall {stall:.3g}) by T={horizon}")


def asymptotic_verdict(p0: GridProfile, nl: BistableNonlinearity, drift: DriftField,
                       a: float, T_max: float, dt: float) -> Verdict:
    """Run the static control u = a from p0, checking the start state, the
    state every n_steps // 400 steps and at T_max, and classify it by
    :func:`verdict` with its default tol."""
    st = _Stepper(p0.geometry, p0.n, drift, nl, dt)
    u = min(max(float(a), 0.0), 1.0)
    n_steps = max(2, int(round(T_max / dt)))
    return verdict(st.checks(p0.values, u, n_steps, max(1, n_steps // 400)),
                   a, T_max, p0.geometry)
