"""Control synthesis: static strategies, the staircase method along a
discrete path of steady states, controllability verdicts and
minimal-time scans.

Step 1 of the staircase runs the static control 0 and is decided by the
same rule as every static-control run, :func:`dynamics.verdict`.  The
staircase then walks the path built by :func:`steady.build_steady_path`.
Each leg applies clamped boundary feedback toward the next member's
boundary trace; a leg succeeds at the first step whose sup-error to its
target is below half the staircase tolerance, so errors cannot
accumulate from leg to leg.  Exact local controllability is replaced by
this feedback surrogate; the clamp enforces the [0, 1] control
constraint exactly.

Because the sup-error is checked after every step, a leg's success step
does not depend on its budget.  The minimal time is therefore read off
one staircase run at the largest horizon: each smaller horizon applies
the staircase's own leg rule (:func:`_leg_budget`) to the recorded legs,
with no bisection and no further time stepping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _Stepper, asymptotic_verdict, verdict
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from .steady import Barrier, SteadyPath, build_steady_path, find_barrier_one, find_barrier_zero

__all__ = [
    "StaircaseResult",
    "MinTimeResult",
    "staircase_to_theta",
    "controllability_report",
    "minimal_time_to_theta",
    "mintime_scan",
]


_DELTA1 = 0.05  # staircase tolerance; a leg ends within half of it from its target
_T1 = 20.0      # per-leg time budget of the staircase


@dataclass(frozen=True)
class LegRecord:
    steps: int              # time steps to the first in-tolerance step (the budget on a stall)
    duration: float
    sup_error: float
    control_min: float
    control_max: float


@dataclass(frozen=True)
class StaircaseResult:
    success: bool
    total_time: float
    stage: Optional[str] = None      # failing stage on failure ("step1", "path" or "leg<i>")
    reason: Optional[str] = None
    terminal_error: float = math.inf
    legs: tuple = ()
    control_min: float = math.inf
    control_max: float = -math.inf


@dataclass(frozen=True)
class MinTimeResult:
    parameter: float
    T_min: float            # +inf sentinel when infeasible on the grid


def _leg_budget(T1: float, remaining: float, dt: float) -> int:
    """Time steps a leg may take: its budget T1 capped by the remaining
    time, rounded to at least one step; 0 when no more than dt remains."""
    return max(1, int(round(min(T1, remaining) / dt))) if remaining > dt else 0


def _run_leg(st: _Stepper, vals, target: GridProfile, n_steps: int, tol: float):
    """Feedback leg toward a steady target for at most n_steps steps, ending
    at the first step whose sup-error is within tol; returns (values,
    LegRecord).  Each boundary control is the target's trace plus the
    target's mismatch at the boundary-adjacent node, clamped to [0, 1]."""
    tgt = target.values
    t_used = 0.0
    u_min, u_max = math.inf, -math.inf
    for steps in range(1, n_steps + 1):
        uL = min(max(float(tgt[0] + (tgt[1] - vals[1])), 0.0), 1.0)
        uR = min(max(float(tgt[-1] + (tgt[-2] - vals[-2])), 0.0), 1.0)
        u_min = min(u_min, uL, uR)
        u_max = max(u_max, uL, uR)
        vals = st.advance(vals, uL, uR)
        t_used += st.dt
        err = float(np.maximum.reduce(np.abs(vals - tgt)))
        if err <= tol:
            break
    return vals, LegRecord(steps, t_used, err, u_min, u_max)


def _check_staircase(delta1: float, T1: float) -> None:
    """InvalidInput unless the staircase tolerance and leg budget are positive."""
    for name, value in (("delta1", delta1), ("T1", T1)):
        if value <= 0.0:
            raise InvalidInput(f"invalid-scalar: {name} must be positive")


def staircase_to_theta(p0: GridProfile, nl: BistableNonlinearity, drift: DriftField,
                       T_max: float, delta1: float = _DELTA1, T1: float = _T1, dt: float = 0.02,
                       path: Optional[SteadyPath] = None) -> StaircaseResult:
    """Drive any admissible initial state to the Allee constant.

    Step 1 applies the static control 0 and is decided by
    :func:`dynamics.verdict` with tol delta1/2 and horizon T_max, checking
    the start state and then every 0.5 time units.  Converged: the
    staircase goes on from the checked state (at once when the start is
    already within delta1/2).  Blocked: it fails as "barrier-to-0" (the
    blocking mechanism).  Neither raises horizon-too-short.  The remaining
    steps walk the steady-state path with leg tolerance delta1/2 and the
    step budgets of :func:`_leg_budget` (per-leg budget T1, capped by the
    time left); a leg stall fails with the leg index, and so does a walk
    that runs out of time or whose last leg ends past T_max + 1e-9.
    Everything runs on the grid of ``p0``, and a given ``path`` must lie
    on it.
    """
    _check_staircase(delta1, T1)
    geometry, n = p0.geometry, p0.n
    if path is not None and any(m.geometry != geometry or m.n != n for m in path.profiles):
        raise InvalidInput("invalid-path: the steady path is not on the grid of p0")
    tol = delta1 / 2.0

    # Step 1: static zero control toward the trivial state
    st = _Stepper(geometry, n, drift, nl, dt)
    checks = st.checks(np.clip(p0.values, 0.0, 1.0), 0.0, max(1, int(round(T_max / dt))),
                       max(1, int(round(0.5 / dt))))
    v = verdict(checks, 0.0, T_max, geometry, tol)
    vals, total, legs = v.residual_profile.values, v.time, []
    # u = 0 was applied unless the start was already within tol
    step1_controls = [] if total == 0.0 else [0.0]
    stage, reason, error = None, None, math.inf
    if v.status == "blocked":
        total, stage, reason, error = T_max, "step1", "barrier-to-0", v.residual_sup
    else:
        # Steps 2-3: walk the path of steady states
        if path is None:
            path = build_steady_path(nl, drift, geometry, delta=tol, n_grid=n)
        if not path.admissible:
            stage, reason = "path", "path-inadmissible"
        for i, target in enumerate(path.profiles[1:] if path.admissible else (), start=1):
            n_steps = _leg_budget(T1, T_max - total, dt)
            if n_steps == 0:
                stage, reason = f"leg{i}", "budget-exhausted"
                break
            vals, leg = _run_leg(st, vals, target, n_steps, tol)
            legs.append(leg)
            total += leg.duration
            if leg.sup_error > tol:
                stage, reason, error = f"leg{i}", "leg-stall", leg.sup_error
                break
        if reason is None and total > T_max + 1e-9:  # the last leg ended past T_max
            stage, reason = f"leg{len(legs)}", "budget-exhausted"
        elif reason is None:
            error = float(np.max(np.abs(vals - nl.theta)))
    return StaircaseResult(
        reason is None, total, stage=stage, reason=reason, terminal_error=error, legs=tuple(legs),
        control_min=min(step1_controls + [leg.control_min for leg in legs], default=math.inf),
        control_max=max(step1_controls + [leg.control_max for leg in legs], default=-math.inf))


@dataclass(frozen=True)
class TargetVerdict:
    status: str                 # "converged" | "blocked" | "failure"
    time: Optional[float]
    witness: Optional[Barrier] = field(default=None, repr=False)
    detail: object = field(default=None, repr=False)


def controllability_report(nl: BistableNonlinearity, drift: DriftField,
                           geometry: DomainGeometry, n: int, dt: float, T_max: float,
                           delta1: float = _DELTA1, T1: float = _T1) -> dict:
    """Verdicts for the three homogeneous targets with blocking witnesses.

    Targets 0 and 1 run static controls from the extreme data (p0 = 1,
    resp. 0), which dominate every admissible initial state by the
    comparison principle, and are decided with verdict tolerance 1e-3;
    theta runs the staircase from p0 = 1.  Blocked verdicts attach the
    matching barrier as a witness when one is found; each barrier is
    searched for at most once and shared by the verdicts that cite it.
    """
    _check_staircase(delta1, T1)
    ones = GridProfile(geometry, np.ones(n))
    zeros = GridProfile(geometry, np.zeros(n))
    report = {}

    @functools.cache
    def witness(finder) -> Optional[Barrier]:
        return finder(nl, drift, geometry, n_grid=n)

    v0 = asymptotic_verdict(ones, nl, drift, 0.0, T_max, dt)
    w0 = witness(find_barrier_zero) if v0.status == "blocked" else None
    report["to_zero"] = TargetVerdict(v0.status, v0.time, w0, v0)

    v1 = asymptotic_verdict(zeros, nl, drift, 1.0, T_max, dt)
    w1 = witness(find_barrier_one) if v1.status == "blocked" else None
    report["to_one"] = TargetVerdict(v1.status, v1.time, w1, v1)

    sc = staircase_to_theta(ones, nl, drift, delta1=delta1, T1=T1, T_max=T_max, dt=dt)
    if sc.success:
        report["to_theta"] = TargetVerdict("converged", sc.total_time, None, sc)
    else:
        wt = None
        if sc.reason == "barrier-to-0":
            wt = witness(find_barrier_zero)
        elif sc.reason in ("leg-stall", "path-inadmissible"):
            wt = witness(find_barrier_one)
        report["to_theta"] = TargetVerdict("blocked" if wt is not None else "failure",
                                           None, wt, sc)
    return report


def minimal_time_to_theta(nl: BistableNonlinearity, drift: DriftField,
                          geometry: DomainGeometry, horizon_grid,
                          n: int = 101, dt: float = 0.02) -> MinTimeResult:
    """Smallest feasible horizon on the grid for controlling 0 to theta.

    A horizon T is feasible when the staircase with per-leg budget
    T/n_legs succeeds within T.
    The staircase runs once, at the largest horizon; every horizon is
    then decided exactly from its recorded legs (:func:`_fits`), so
    there is no bisection and feasibility is never assumed monotone in T.
    """
    horizons = np.sort(np.asarray(horizon_grid, dtype=float))
    if horizons.size == 0:
        raise InvalidInput("invalid-grid: horizons must be non-empty")
    if not np.all(np.isfinite(horizons)) or horizons[0] <= 0.0:
        raise InvalidInput("invalid-grid: horizons must be finite and positive")
    zeros = GridProfile(geometry, np.zeros(n))
    try:
        path = build_steady_path(nl, drift, geometry, delta=_DELTA1 / 2.0, n_grid=n)
    except SolverFailure:
        path = None
    if path is None or not path.admissible:
        return MinTimeResult(drift.sigma, math.inf)
    n_legs = max(1, len(path) - 1)
    T_top = horizons[-1]
    run = staircase_to_theta(zeros, nl, drift, T1=T_top / n_legs, T_max=T_top, dt=dt,
                             path=path)
    feasible = [T for T in horizons if run.success and _fits(run.legs, T, n_legs, dt)]
    return MinTimeResult(drift.sigma, float(feasible[0]) if feasible else math.inf)


def _fits(legs, T: float, n_legs: int, dt: float) -> bool:
    """Whether the staircase from 0 succeeds within horizon T, replayed from
    the legs of a successful run at a larger horizon with the staircase's
    own leg rule (:func:`_leg_budget`, success within T + 1e-9)."""
    total = 0.0
    for leg in legs:
        if leg.steps > _leg_budget(T / n_legs, T - total, dt):
            return False
        total += leg.duration
    return total <= T + 1e-9


def mintime_scan(drift_family: str, sigma_grid, nl: BistableNonlinearity,
                 geometry: DomainGeometry, horizon_grid, n: int = 101,
                 dt: float = 0.02) -> list[MinTimeResult]:
    """One minimal-time search per drift intensity for a named family."""
    return [minimal_time_to_theta(nl, DriftField.radial(drift_family, sig), geometry,
                                  horizon_grid, n=n, dt=dt)
            for sig in np.asarray(sigma_grid, dtype=float)]
