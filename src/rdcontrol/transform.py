"""Infection-dependent reduction: the change of variables that turns the
quasilinear gene-flow equation into a plain heat equation.

With N = N(p) normalized so that int_0^1 N^2 = 1, the map

    script_N(x) = int_0^x N^2(xi) d xi

conjugates   dp/dt = Lap(p) + 2 (N'/N)(p) |grad p|^2 + f(p)
to           dq/dt = Lap(q) + f_tilde(q),     q = script_N(p),

with f_tilde(q) = f(x) N^2(x) at x = script_N^{-1}(q).  f_tilde is again
bistable with Allee root script_N(theta), so every controllability
verdict transfers through the map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import apply_operator, assemble_operator, factor_tridiagonal, solve_tridiagonal
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from .numerics import Pchip, cumulative_simpson, simpson

__all__ = [
    "GeneFlowMap",
    "build_map",
    "tilde_f",
    "tilde_nonlinearity",
    "equivalence_check",
]


@dataclass(frozen=True)
class GeneFlowMap:
    """Normalized density N(p) and the cumulative map script_N with its inverse."""

    x_table: np.ndarray = field(repr=False)
    N_table: np.ndarray = field(repr=False)      # normalized: int N^2 = 1
    script_table: np.ndarray = field(repr=False)
    _fwd: Pchip = field(repr=False, compare=False, default=None)
    _inv: Pchip = field(repr=False, compare=False, default=None)
    _Nsq: Pchip = field(repr=False, compare=False, default=None)

    def script_N(self, x):
        return self._fwd(np.clip(x, 0.0, 1.0))

    def inverse(self, q):
        return self._inv(np.clip(q, 0.0, 1.0))

    def N_squared(self, x):
        return self._Nsq(np.clip(x, 0.0, 1.0))


def build_map(N_of_p: Callable) -> GeneFlowMap:
    """Normalize N so that int_0^1 N^2 = 1 and tabulate script_N and its
    inverse (monotone cubic interpolation of a cumulative Simpson table
    on 8193 nodes)."""
    x = np.linspace(0.0, 1.0, 8193)
    vals = np.asarray(N_of_p(x), dtype=float)
    if vals.shape != x.shape or np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise InvalidInput("invalid-N: N(p) must be positive and finite on [0,1]")
    norm = simpson(vals**2, x=x)
    n_hat = vals / np.sqrt(norm)
    script = cumulative_simpson(n_hat**2, x)
    script /= script[-1]  # exact endpoint normalization
    if np.any(np.diff(script) <= 0.0):
        raise InvalidInput("invalid-N: cumulative map failed to be strictly increasing")
    return GeneFlowMap(
        x_table=x,
        N_table=n_hat,
        script_table=script,
        _fwd=Pchip(x, script),
        _inv=Pchip(script, x),
        _Nsq=Pchip(x, n_hat**2),
    )


def tilde_f(gf: GeneFlowMap, nl: BistableNonlinearity, q):
    """Transformed reaction f(x) N^2(x) at x = inverse(q); q is clamped
    to [0, 1] with a warning when it strays outside."""
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < -1e-12) or np.any(q_arr > 1.0 + 1e-12):
        warnings.warn("tilde_f evaluated outside [0,1]; clamping", stacklevel=2)
    x = gf.inverse(q_arr)
    out = np.asarray(nl.f(x)) * gf.N_squared(x)
    return out if out.ndim else float(out)


def tilde_nonlinearity(gf: GeneFlowMap, nl: BistableNonlinearity) -> BistableNonlinearity:
    """The transformed reaction as a validated tabulated nonlinearity
    with Allee root script_N(theta).

    Samples are produced by the forward map (q_i = script_N(x_i)) at 513
    nodes plus theta, so the three roots are hit exactly and the bistable
    validation runs on construction.
    """
    x = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), [nl.theta]]))
    q = np.asarray(gf.script_N(x), dtype=float)
    q[0], q[-1] = 0.0, 1.0
    vals = np.asarray(nl.f(x)) * np.asarray(gf.N_squared(x))
    theta_t = float(gf.script_N(nl.theta))
    return BistableNonlinearity.tabulated(q, vals, theta_t)


class _CnAb2:
    """Second-order IMEX stepper (Crank-Nicolson diffusion + AB2 explicit
    part) with the Dirichlet rows of ``geometry.first_free`` pinned.  Used
    by the equivalence check so that the time error O(dt^2) refines at the
    same rate as the O(h^2) space error."""

    def __init__(self, geometry: DomainGeometry, n: int, dt: float):
        drift0 = DriftField.homogeneous()
        lower, diag, upper = assemble_operator(geometry, n, drift0)
        self.exp_lo = 0.5 * dt * lower
        self.exp_di = 1.0 + 0.5 * dt * diag
        self.exp_up = 0.5 * dt * upper
        # the pinned rows of A are empty, so they are identity rows here
        self.factor = factor_tridiagonal(-0.5 * dt * lower, 1.0 - 0.5 * dt * diag,
                                         -0.5 * dt * upper)
        self.first_free = geometry.first_free
        self.dt = dt

    def advance(self, vals, g_now, g_prev, u):
        rhs = apply_operator(self.exp_lo, self.exp_di, self.exp_up, vals)
        rhs += self.dt * (1.5 * g_now - 0.5 * g_prev)
        rhs[:self.first_free] = rhs[-1] = u
        return solve_tridiagonal(self.factor, rhs)


def equivalence_check(nl: BistableNonlinearity, N_of_p: Callable, p0: GridProfile,
                      u: float, T: float, dt: float, snapshot_every: int = 10) -> float:
    """Sup over snapshots of |script_N(p) - q| between the quasilinear
    simulation of p and the transformed heat simulation of q, both on the
    grid of ``p0``.

    Both sides run the same second-order scheme with matching snapshot
    times; the quasilinear gradient-squared term and the reactions are
    explicit (AB2), diffusion implicit (CN).  The constant boundary
    control ``u``, clamped to [0, 1], is mapped through script_N on the
    q side.
    """
    gf = build_map(N_of_p)
    n = p0.n
    x = p0.x
    h = p0.h
    stepper = _CnAb2(p0.geometry, n, dt)
    n_steps = max(1, int(round(T / dt)))

    def n_ratio(p):
        pc = np.clip(p, 0.0, 1.0)
        eps = 1e-6
        lo = np.clip(pc - eps, 0.0, 1.0)
        hi = np.clip(pc + eps, 0.0, 1.0)
        nv = np.asarray(N_of_p(pc), dtype=float)
        dn = (np.asarray(N_of_p(hi), dtype=float) - np.asarray(N_of_p(lo), dtype=float)) / (hi - lo)
        return dn / nv

    def g_quasi(p):
        grad = np.gradient(p, h, edge_order=2)
        out = np.asarray(nl.f(p)) + 2.0 * n_ratio(p) * grad**2
        return out

    def g_heat(q):
        return np.asarray(tilde_f(gf, nl, np.clip(q, 0.0, 1.0)))

    p = p0.values.copy()
    q = np.asarray(gf.script_N(p0.values), dtype=float)
    gp_prev = g_quasi(p)
    gq_prev = g_heat(q)
    worst = float(np.max(np.abs(np.asarray(gf.script_N(p)) - q)))
    u = min(max(float(u), 0.0), 1.0)
    uq = float(gf.script_N(u))
    for k in range(n_steps):
        gp = g_quasi(p)
        gq = g_heat(q)
        try:
            p = stepper.advance(p, gp, gp_prev, u)
            stable = np.max(np.abs(p)) <= 10.0
        except SolverFailure:  # non-finite quasilinear state
            stable = False
        if not stable:
            raise SolverFailure("gf-stiff: quasilinear step unstable, halve dt")
        q = stepper.advance(q, gq, gq_prev, uq)
        gp_prev, gq_prev = gp, gq
        if (k + 1) % snapshot_every == 0 or k == n_steps - 1:
            worst = max(worst, float(np.max(np.abs(np.asarray(gf.script_N(np.clip(p, 0.0, 1.0))) - q))))
    return worst
