"""Radial steady states: the shooting integrator, barrier search and
discrete steady-state paths.

Barriers (non-trivial steady states with constant boundary value 0 or 1)
and the members of a steady-state path are found by shooting on the
discrete scheme.  Row i of A p + f(p) = 0 is the recurrence
p_{i+1} = -(lower_i p_{i-1} + diag_i p_i + f(p_i)) / upper_i with
upper_i > 0 (A is an M-matrix), so the centre value alpha and the
symmetric centre row fix a profile.  The march runs outward for many
alpha lanes at once.  For a barrier every edge of the feasible alpha set
is multisected (Keller 1968) and a Newton solve pins the boundary node;
the march is the whole search, because its columns are exact discrete
steady states (the projected-gradient minimizer of ``rdcontrol.energy``,
a test oracle, reaches the same boundary-0 barriers).  A path member is
the column marched from alpha = s theta with its last node as the
boundary trace.  Either way the result is an exact fixed point of the
package's own time stepper.

``shoot_radial`` integrates the continuous problem
p'' = -f(p) - ((2/sigma) b(r) + (d-1)/r) p', p(0) = alpha, p'(0) = 0 with
an adaptive step-doubling RK4 (p''(0) = -f(alpha)/d regularizes the
origin, the first step is a Taylor step).  It is the continuum
reference, not part of the search: the ``barriers`` experiment shoots
from a returned barrier's ``alpha`` for the phase-plane trajectory and
crossing radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .elliptic import assemble_operator, newton_steady, steady_residual
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile

__all__ = [
    "RadialTrajectory",
    "Barrier",
    "SteadyPath",
    "shoot_radial",
    "find_barrier_one",
    "find_barrier_zero",
    "build_steady_path",
]

NONTRIVIAL_MARGIN = 0.1  # sup distance from the constant boundary state


@dataclass(frozen=True)
class RadialTrajectory:
    """Output of the shooting integrator: samples of (r, p, p')."""

    sigma: float
    alpha: float
    d: int
    r: np.ndarray
    p: np.ndarray
    v: np.ndarray
    events: dict
    blow_up: bool
    exit_reason: str


@dataclass(frozen=True)
class Barrier:
    """Non-trivial steady state pinned to boundary value 0 or 1."""

    profile: GridProfile
    boundary_value: float
    residual: float
    p_min: float
    p_max: float
    alpha: float  # centre value the discrete march started from

    def deviation(self) -> float:
        return float(np.max(np.abs(self.profile.values - self.boundary_value)))


@dataclass(frozen=True)
class SteadyPath:
    """Chain of discrete steady states linking ~0 to the Allee state."""

    profiles: list
    s_values: np.ndarray
    delta: float
    admissible: bool
    max_residual: float

    def __len__(self) -> int:
        return len(self.profiles)

    def max_gap(self) -> float:
        gaps = [self.profiles[i].sup_distance(self.profiles[i + 1])
                for i in range(len(self.profiles) - 1)]
        return float(max(gaps)) if gaps else 0.0


# ---------------------------------------------------------------------------
# shooting integrator
# ---------------------------------------------------------------------------

def _scalar_f(nl: BistableNonlinearity) -> Callable:
    """Plain-float reaction closure; the integrator loop is scalar-hot."""
    if nl.kind == "cubic":
        th = nl.theta
        return lambda p: p * (p - th) * (1.0 - p)
    interp = nl._f_interp
    return lambda p: 0.0 if (p < 0.0 or p > 1.0) else float(interp(p))


def _scalar_b(drift: DriftField) -> Callable:
    if drift.kind == "homogeneous":
        return lambda r: 0.0
    if drift.kind == "radial":
        fam = drift.family
        if fam == "gauss_out":
            return lambda r: -r
        if fam == "gauss_in":
            return lambda r: r
        if fam == "abs_exp":
            return lambda r: 1.0 if r > 0 else (-1.0 if r < 0 else 0.0)
        return math.sin
    b = drift.b  # for an infection drift, every call raises invalid-drift-kind
    return lambda r: float(b(r))


def _rhs_factory(nl: BistableNonlinearity, drift: DriftField, sigma: float, d: int) -> Callable:
    two_over_sigma = 2.0 / sigma
    f = _scalar_f(nl)
    b = _scalar_b(drift)
    dm1 = d - 1

    def rhs(r: float, p: float, v: float):
        c = two_over_sigma * b(r)
        if dm1:
            c += dm1 / r
        return v, -f(p) - c * v

    return rhs


def _rk4(rhs, r, p, v, h):
    k1p, k1v = rhs(r, p, v)
    k2p, k2v = rhs(r + 0.5 * h, p + 0.5 * h * k1p, v + 0.5 * h * k1v)
    k3p, k3v = rhs(r + 0.5 * h, p + 0.5 * h * k2p, v + 0.5 * h * k2v)
    k4p, k4v = rhs(r + h, p + h * k3p, v + h * k3v)
    return (p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


_V_LIMIT = 1e3  # |p'| at which a shot counts as blown up


def shoot_radial(nl: BistableNonlinearity, drift: DriftField, sigma: float,
                 alpha: float, d: int, r_max: float, h: float) -> RadialTrajectory:
    """Integrate the radial steady ODE outward from the center.

    Stops at ``r_max``, when p leaves [-0.1, 1.1] or |p'| exceeds
    _V_LIMIT.  First crossings of theta, theta/2, 1 and 0 are located
    by linear interpolation between the stored samples and recorded in
    ``events``.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInput(f"invalid-alpha: {alpha} not in (0,1)")
    if r_max <= 0.0 or h <= 0.0:
        raise InvalidInput("invalid-scalar: r_max and h must be positive")
    h_max = min(h, 1e-3 * r_max if 1e-3 * r_max > 0 else h, sigma / 10.0)
    h_max = max(h_max, 1e-9)
    rhs = _rhs_factory(nl, drift, sigma, d)
    theta = nl.theta
    levels = {"r_theta": theta, "r_theta_half": theta / 2.0, "r_one": 1.0, "r_zero": 0.0}
    events: dict = {}

    # second-order Taylor start around the regularized origin
    r0 = h_max
    a0 = -float(nl.f(alpha)) / d
    rs = [0.0, r0]
    ps = [alpha, alpha + 0.5 * a0 * r0**2]
    vs = [0.0, a0 * r0]

    r, p, v = r0, ps[-1], vs[-1]
    h_cur = h_max
    exit_reason = "r-max"
    blow_up = False
    h_floor = h_max * 1e-8
    while r < r_max:
        h_step = min(h_cur, r_max - r)
        p_full, v_full = _rk4(rhs, r, p, v, h_step)
        p_h, v_h = _rk4(rhs, r, p, v, 0.5 * h_step)
        p_half, v_half = _rk4(rhs, r + 0.5 * h_step, p_h, v_h, 0.5 * h_step)
        err = max(abs(p_full - p_half), abs(v_full - v_half)) / 15.0
        scale = max(1.0, abs(p), abs(v))
        if not np.isfinite(err) or err > 1e-10 * scale:
            h_cur = 0.5 * h_step
            if h_cur < h_floor:
                raise SolverFailure(
                    f"stiff-failure: step collapse at r={r:.4g} (alpha={alpha:.4g}, sigma={sigma:.4g})")
            continue
        p_new = p_half + (p_half - p_full) / 15.0
        v_new = v_half + (v_half - v_full) / 15.0
        r_new = r + h_step
        for name, level in levels.items():
            if name not in events and (p - level) * (p_new - level) <= 0.0 and p != p_new:
                frac = (level - p) / (p_new - p)
                if 0.0 <= frac <= 1.0:
                    events[name] = r + frac * h_step
        rs.append(r_new)
        ps.append(p_new)
        vs.append(v_new)
        r, p, v = r_new, p_new, v_new
        if err < 1e-12 * scale:
            h_cur = min(2.0 * h_step, h_max)
        if p < -0.1 or p > 1.1:
            exit_reason = "range-exit"
            break
        if abs(v) > _V_LIMIT:
            exit_reason = "blow-up"
            blow_up = True
            break

    return RadialTrajectory(sigma=sigma, alpha=alpha, d=d,
                            r=np.asarray(rs), p=np.asarray(ps), v=np.asarray(vs),
                            events=events, blow_up=blow_up, exit_reason=exit_reason)


# ---------------------------------------------------------------------------
# barrier search: shooting on the discrete scheme
# ---------------------------------------------------------------------------

_LANES = 31          # multisection points per feasibility edge and round
_ALPHA_RTOL = 1e-10  # relative width at which an edge of the alpha scan is resolved
_MONO_TOL = 1e-12    # node-to-node step away from the target still counted as monotone
_P_MAX = 5.0         # a lane stops once |p| exceeds this: it has left every admissible range


def _march(nl: BistableNonlinearity, geometry: DomainGeometry, ops, alphas,
           target: Optional[float] = None, keep: bool = False):
    """March the steady rows of ``ops = (lower, diag, upper)`` outward from
    the centre, one lane per centre value in ``alphas``.

    Returns ``(reach, column)``.  ``reach[k]`` is the first node, counted
    from the centre, where lane k meets ``target`` having moved
    monotonically toward it, and n when it never does by the boundary
    node; a lane stops once decided.  Without a ``target`` every lane
    runs to the boundary node, unless it stops where |p| first exceeds
    _P_MAX and keeps that value.  With ``keep`` ``column`` holds the
    marched nodes, one row per node from the centre outward and one
    column per lane, else it is None; a scan carries only two rows.
    """
    lower, diag, upper = ops
    n = lower.size
    s = 0 if geometry.kind == "ball" else n // 2
    if geometry.kind == "interval" and n % 2 == 0:
        a, b = lower[s] + diag[s], upper[s]  # nodes s-1 and s mirror each other
    else:
        a, b = diag[s], lower[s] + upper[s]  # p_{s-1} = p_{s+1}; lower[0] = 0 in a ball
    prev = np.asarray(alphas, dtype=float)
    cur = -(a * prev + nl.f(prev)) / b
    reach = np.full(prev.size, n)
    live = np.ones(prev.size, dtype=bool)
    column = [prev, cur]
    sign = 1.0 if target is None or target > 0.5 else -1.0
    for i in range(s + 1, n):
        if target is not None:
            hit = live & (sign * (cur - target) >= 0.0)
            reach[hit] = i - s
            live &= ~hit & (sign * (cur - prev) >= -_MONO_TOL)
        else:
            live &= np.abs(cur) <= _P_MAX
        if i == n - 1 or not live.any():
            break
        nxt = -(lower[i] * prev + diag[i] * cur + nl.f(cur)) / upper[i]
        prev, cur = cur, np.where(live, nxt, cur)  # stopped lanes stay frozen
        if keep:
            column.append(cur)
    return reach, (np.stack(column) if keep else None)


def _unfold(geometry: DomainGeometry, n: int, half: np.ndarray) -> np.ndarray:
    """Whole-grid columns from the n - n // 2 nodes marched from the centre
    of an interval (mirrored) or the n nodes of a ball (unchanged)."""
    if geometry.kind == "ball":
        return half
    return np.concatenate([half[:0:-1] if n % 2 else half[::-1], half])


def _edges(nl, geometry, ops, alphas, feasible, target) -> list[float]:
    """Every edge of the feasibility set over the sorted scan ``alphas``,
    multisected with _LANES points per round until each bracket is
    narrower than _ALPHA_RTOL relative to its upper end.

    Returns the infeasible side of each bracket, as the continuous search
    did: where the column meets the target exactly at the boundary node,
    that column runs to the boundary node just short of the target.
    """
    n = ops[0].size
    i = np.flatnonzero(feasible[:-1] != feasible[1:])
    lo, hi, f_lo = alphas[i], alphas[i + 1], feasible[i]
    rows = np.arange(i.size)
    t = np.linspace(0.0, 1.0, _LANES + 2)
    while np.any(hi - lo > _ALPHA_RTOL * hi):
        grid = lo[:, None] + (hi - lo)[:, None] * t
        grid[:, -1] = hi
        inner = _march(nl, geometry, ops, grid[:, 1:-1].ravel(), target)[0] < n
        feas = np.column_stack([inner.reshape(i.size, _LANES), ~f_lo])
        k = np.argmax(feas != f_lo[:, None], axis=1)  # first point past the edge
        lo, hi = grid[rows, k], grid[rows, k + 1]
    return list(np.where(f_lo, hi, lo))


def _setup(drift: DriftField, R: float, d: int, n_grid: int):
    """Geometry and grid operator of a barrier search."""
    geometry = DomainGeometry.interval(R) if d == 1 else DomainGeometry.ball(R, d)
    return geometry, assemble_operator(geometry, n_grid, drift)


def _marched_barrier(nl, drift, geometry, ops, alpha, bv) -> Optional[Barrier]:
    """Barrier seeded by the column marched from ``alpha``, extended by
    ``bv`` past its reach node, mirrored onto an interval grid and
    Newton-polished with the boundary pinned to ``bv``; None when Newton
    fails or the result leaves [0, 1] or stays trivial."""
    n = ops[0].size
    column = _march(nl, geometry, ops, [alpha], bv, keep=True)[1][:, 0]
    half = np.full(n if geometry.kind == "ball" else n - n // 2, bv)
    half[:column.size] = column
    try:
        vals, residual = newton_steady(geometry, drift, nl, _unfold(geometry, n, half), bv, bv)
    except SolverFailure:
        return None
    if np.min(vals) < -1e-9 or np.max(vals) > 1.0 + 1e-9:
        return None
    vals = np.clip(vals, 0.0, 1.0)
    barrier = Barrier(profile=GridProfile(geometry, vals), boundary_value=bv, residual=residual,
                      p_min=float(np.min(vals)), p_max=float(np.max(vals)), alpha=float(alpha))
    return barrier if barrier.deviation() > NONTRIVIAL_MARGIN else None


def find_barrier_one(nl: BistableNonlinearity, drift: DriftField,
                     R: float, d: int, n_grid: int = 801) -> Optional[Barrier]:
    """Barrier with boundary value 1 on a domain of radius R, if any.

    Scans the centre value alpha over (0, theta) with the discrete march
    and multisects every edge of the set of alphas whose column rises
    monotonically to 1 by the boundary node.  The lowest edge whose
    Newton polish is admissible wins (a second, upper edge can exist).
    Returns None when no column reaches 1.
    """
    geometry, ops = _setup(drift, R, d, n_grid)
    # strong drifts push the feasibility edge to exponentially small
    # alpha (Gronwall: theta <= alpha e^{2 r^2/sigma + ...}); the scan
    # floor is the first infeasible one of 1e-7 * 1e-6^k, or 1e-91
    floors = 1e-7 * 1e-6 ** np.arange(15)
    floor_ok = _march(nl, geometry, ops, floors[:-1], 1.0)[0] < n_grid
    lo = floors[np.argmin(np.append(floor_ok, False))]
    alphas = np.geomspace(lo, nl.theta * (1.0 - 1e-9), 48)
    reach = _march(nl, geometry, ops, alphas, 1.0)[0]
    feasible = reach < n_grid
    roots = _edges(nl, geometry, ops, alphas, feasible, 1.0)  # ascending
    if not roots:
        # every probe reaches 1: seed Newton from the column that reaches
        # it last, extended by 1 (the classical supersolution seed)
        if not feasible.any():
            return None
        roots = [max(zip(reach[feasible], alphas[feasible]))[1]]
    for a in roots:
        barrier = _marched_barrier(nl, drift, geometry, ops, a, 1.0)
        if barrier is not None:
            return barrier
    return None


def find_barrier_zero(nl: BistableNonlinearity, drift: DriftField,
                      R: float, d: int, n_grid: int = 801) -> Optional[Barrier]:
    """Barrier with boundary value 0 on a domain of radius R, if any.

    Scans the centre value alpha over (theta, 1) with the discrete march
    and multisects every edge of the set of alphas whose column falls
    monotonically to 0 by the boundary node.  Of the admissible Newton
    polishes (a band can have two edges) the one with the smallest
    residual is returned.  Returns None when no column reaches 0.
    """
    geometry, ops = _setup(drift, R, d, n_grid)
    alphas = np.linspace(nl.theta + 0.01, 1.0 - 1e-6, 64)
    reach = _march(nl, geometry, ops, alphas, 0.0)[0]
    candidates = [_marched_barrier(nl, drift, geometry, ops, a, 0.0)
                  for a in _edges(nl, geometry, ops, alphas, reach < n_grid, 0.0)]
    return min((b for b in candidates if b is not None), key=lambda b: b.residual, default=None)


# ---------------------------------------------------------------------------
# the steady-state path
# ---------------------------------------------------------------------------

_MAX_MEMBERS = 1024  # path refinement beyond this raises continuation-failure


def build_steady_path(nl: BistableNonlinearity, drift: DriftField,
                      geometry: DomainGeometry, K: int = 9, delta: float = 0.05,
                      n_grid: int = 401) -> SteadyPath:
    """Discrete path of steady states from ~0 to the Allee constant.

    Members are the columns marched from the centre value s*theta, one
    lane per s, on an s-grid that is refined until consecutive sup-gaps
    stay below ``delta`` (at most _MAX_MEMBERS members); each column is
    an exact discrete steady state and keeps its last node as the pinned
    boundary trace under the Newton polish.  Homogeneous and radial
    drifts march their own rows.  Slowly-varying (spatial-log) drifts
    march the homogeneous rows and switch the advection term on
    gradually under Newton continuation; a failed continuation retries
    once on a 5% inflated domain before reporting the resonant parameter.
    """
    if K < 2:
        raise InvalidInput("invalid-scalar: K must be >= 2")
    if delta <= 0.0:
        raise InvalidInput("invalid-scalar: delta must be positive")
    homog = DriftField.homogeneous()

    def columns(geom, s_values) -> np.ndarray:
        """Whole-grid columns marched on ``geom`` from s*theta, one row per s."""
        ops = assemble_operator(geom, n_grid, homog if drift.kind == "spatial-log" else drift)
        half = _march(nl, geom, ops, np.asarray(s_values) * nl.theta, keep=True)[1]
        if not np.all(np.abs(half) <= _P_MAX):
            raise SolverFailure(f"stiff-failure: a marched path member left |p| <= {_P_MAX:g}")
        return _unfold(geom, n_grid, half).T

    def members(s_values) -> list:
        block = columns(geometry, s_values)
        if drift.kind == "spatial-log":
            return [GridProfile(geometry, continued(s, col)) for s, col in zip(s_values, block)]
        return [GridProfile(geometry, newton_steady(geometry, drift, nl, col, col[-1], col[-1])[0])
                for col in block]

    def continued(s, vals):
        trace_l, trace_r = float(vals[0]), float(vals[-1])
        for tau in (0.25, 0.5, 0.75, 1.0):
            scaled = DriftField(kind="spatial-log", sigma=drift.sigma / tau,
                                b_func=drift.b_func, ln_N_func=drift.ln_N_func)
            try:
                vals, _ = newton_steady(geometry, scaled, nl, vals, trace_l, trace_r)
            except SolverFailure:
                vals = _inflated_retry(s, scaled)
        return vals

    def _inflated_retry(s, scaled):
        geom_inf = replace(geometry, half_width=1.05 * geometry.half_width)
        seed_inf = columns(geom_inf, [s])[0]
        try:
            vals_inf, _ = newton_steady(geom_inf, scaled, nl, seed_inf,
                                        float(seed_inf[0]), float(seed_inf[-1]))
        except SolverFailure as exc:
            raise SolverFailure(f"continuation-failure: resonant member s={s:.6g}") from exc
        x_inf = geom_inf.grid(n_grid)
        x = geometry.grid(n_grid)
        restricted = np.interp(x, x_inf, vals_inf)
        vals, _ = newton_steady(geometry, scaled, nl, restricted,
                                float(restricted[0]), float(restricted[-1]))
        return vals

    s_values = list(np.linspace(0.0, 1.0, K))
    profiles = dict(zip(s_values, members(s_values)))
    while True:
        inserts = []
        for a, b in zip(s_values[:-1], s_values[1:]):
            if profiles[a].sup_distance(profiles[b]) > delta:
                inserts.append(0.5 * (a + b))
        if not inserts:
            break
        if len(s_values) + len(inserts) > _MAX_MEMBERS:
            raise SolverFailure("continuation-failure: path refinement exceeded member cap")
        profiles.update(zip(inserts, members(inserts)))
        s_values = sorted(s_values + inserts)

    ordered = [profiles[s] for s in s_values]
    max_res = max(steady_residual(geometry, drift, nl, pr.values) for pr in ordered)
    admissible = all(np.min(pr.values) >= -1e-9 and np.max(pr.values) <= 1.0 + 1e-9
                     for pr in ordered)
    return SteadyPath(profiles=ordered, s_values=np.asarray(s_values), delta=delta,
                      admissible=admissible, max_residual=float(max_res))
