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

Finiteness is checked once per step, by the tridiagonal solve: a step
that overflows raises SolverFailure there.  The reaction term is
evaluated unchecked (``BistableNonlinearity._f_values``), since the
state it reads is a validated start profile or the previous checked
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import assemble_operator, factor_tridiagonal, solve_tridiagonal
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile, lipschitz_and_sup_fprime

__all__ = [
    "ControlSchedule",
    "SimulationResult",
    "Verdict",
    "simulate",
    "verdict",
    "asymptotic_verdict",
]


@dataclass(frozen=True)
class ControlSchedule:
    """Static boundary control u = value, clamped to [0, 1] by :meth:`static`."""

    value: float

    @classmethod
    def static(cls, a: float) -> "ControlSchedule":
        return cls(min(max(float(a), 0.0), 1.0))


@dataclass(frozen=True)
class SimulationResult:
    times: np.ndarray
    snapshots: list


@dataclass(frozen=True)
class Verdict:
    status: str  # "converged" | "blocked"
    time: Optional[float]    # first converged check; None when blocked
    residual_sup: float      # gap sup|p - a| at that check, or at the horizon
    residual_profile: Optional[GridProfile]  # state at the deciding check
    stall: Optional[float]   # sup-move over the last tenth when blocked
    horizon: float


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
        # the pinned rows of A are empty, so they are identity rows here
        self.factor = factor_tridiagonal(-dt * lower, 1.0 - dt * diag, -dt * upper)
        self.first_free = geometry.first_free
        self.dt = dt
        self.nl = nl

    def advance(self, vals: np.ndarray, u_left: float, u_right: float) -> np.ndarray:
        rhs = vals + self.dt * self.nl._f_values(vals)
        if self.first_free:
            rhs[0] = u_left
        rhs[-1] = u_right
        return solve_tridiagonal(self.factor, rhs)

    def checks(self, vals: np.ndarray, u: float, n_steps: int, every: int):
        """Yield the checked states (t, values) of the static control u:
        the start state, then every ``every`` steps and at step n_steps."""
        yield 0.0, vals
        for k in range(1, n_steps + 1):
            vals = self.advance(vals, u, u)
            if k % every == 0 or k == n_steps:
                yield k * self.dt, vals


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
    u = schedule.value
    for k in range(n_steps):
        prof = GridProfile(geometry, st.advance(prof.values, u, u))
        if (k + 1) % snapshot_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            snaps.append(prof)
    return SimulationResult(times=np.asarray(times), snapshots=snaps)


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
