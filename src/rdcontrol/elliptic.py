"""Shared finite-difference machinery for the steady and parabolic solvers.

Assembles the tridiagonal spatial operator

    (A p)_i = p''_i + c(x_i) p'_i        (interval)
    (A p)_i = p''_i + ((d-1)/r_i + c(r_i)) p'_i   (ball, r > 0)

with c = (2/sigma) d/dx ln N, second order in h.  The drift term is
discretized with centered differences when the cell Peclet number
|c| h / 2 stays below 1 and with first-order upwinding otherwise, so the
resulting matrix is always an M-matrix and the discrete comparison
principle survives.  At the origin of a ball the operator uses the
regularized row Lap(p)(0) = 2 d (p_1 - p_0)/h^2 (symmetry, p'(0) = 0).

The same assembly backs the elliptic Newton solver, the steady-state
residual and the implicit part of the time stepper, so elliptic
solutions are exact fixed points of the dynamics.  Tridiagonal systems
are LU-factored once per operator (LAPACK dgttrf); the time steppers and
the inverse iteration reuse that factor for every right-hand side.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField

__all__ = [
    "advection_coeff",
    "assemble_operator",
    "apply_operator",
    "steady_residual",
    "newton_steady",
    "TridiagonalFactor",
    "factor_tridiagonal",
    "solve_tridiagonal",
]


def advection_coeff(geometry: DomainGeometry, x: np.ndarray, drift: DriftField) -> np.ndarray:
    """Total first-order coefficient c(x), including the radial (d-1)/r term."""
    c = np.asarray(drift.coeff(x), dtype=float).copy()
    if geometry.kind == "ball" and geometry.d > 1:
        with np.errstate(divide="ignore"):
            radial = np.where(x > 0.0, (geometry.d - 1) / np.where(x > 0.0, x, 1.0), 0.0)
        c = c + radial
    return c


def assemble_operator(geometry: DomainGeometry, n: int, drift: DriftField):
    """Return (lower, diag, upper) of A with zeroed boundary rows.

    ``lower[i]`` multiplies p_{i-1} in row i, ``upper[i]`` multiplies
    p_{i+1}; row 0 and row n-1 are left empty for boundary conditions.
    An infection drift, which depends on p, has no such operator
    (``DriftField.coeff`` raises).
    """
    x = geometry.grid(n)
    h = x[1] - x[0]
    c = advection_coeff(geometry, x, drift)
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    inner = slice(1, n - 1)
    ci = c[inner]
    centered = np.abs(ci) * h / 2.0 < 1.0  # cell Peclet number below 1

    lo = 1.0 / h**2 - ci / (2.0 * h)
    di = -2.0 / h**2 * np.ones(n - 2)
    up = 1.0 / h**2 + ci / (2.0 * h)
    # upwind where the centered stencil would lose positivity
    pos = (~centered) & (ci > 0.0)
    neg = (~centered) & (ci < 0.0)
    lo[pos] = 1.0 / h**2
    di[pos] = -2.0 / h**2 - ci[pos] / h
    up[pos] = 1.0 / h**2 + ci[pos] / h
    lo[neg] = 1.0 / h**2 - ci[neg] / h
    di[neg] = -2.0 / h**2 + ci[neg] / h
    up[neg] = 1.0 / h**2

    lower[inner] = lo
    diag[inner] = di
    upper[inner] = up

    if geometry.kind == "ball":
        # origin row: symmetric Neumann, Lap(p)(0) = 2 d (p1 - p0)/h^2
        diag[0] = -2.0 * geometry.d / h**2
        upper[0] = 2.0 * geometry.d / h**2
    return lower, diag, upper


def apply_operator(lower, diag, upper, p: np.ndarray) -> np.ndarray:
    out = diag * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out


class TridiagonalFactor(NamedTuple):
    """LU factors of a tridiagonal matrix, as LAPACK dgttrf returns them."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray
    info: int


def factor_tridiagonal(lower, diag, upper) -> TridiagonalFactor:
    """LU-factor a tridiagonal matrix once for :func:`solve_tridiagonal`.

    ``lower[i]`` and ``upper[i]`` are the off-diagonals of row i, as
    :func:`assemble_operator` returns them.  A singular matrix is reported
    by the first solve.
    """
    return TridiagonalFactor(*dgttrf(lower[1:], diag, upper[:-1]))


def solve_tridiagonal(factor: TridiagonalFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factor of :func:`factor_tridiagonal` (LAPACK dgttrs).

    Raises SolverFailure when the matrix is singular or the solution is
    not finite.
    """
    dl, d, du, du2, ipiv, info = factor
    if info != 0:
        raise SolverFailure(f"solver-failure: singular tridiagonal matrix (pivot {info})")
    x, _ = dgttrs(dl, d, du, du2, ipiv, rhs)
    if not np.all(np.isfinite(x)):
        raise SolverFailure("solver-failure: non-finite tridiagonal solution")
    return x


def _interior_rows(geometry: DomainGeometry, n: int):
    """Row indices where the PDE holds (origin row of a ball included)."""
    if geometry.kind == "ball":
        return slice(0, n - 1)
    return slice(1, n - 1)


def steady_residual(
    geometry: DomainGeometry,
    drift: DriftField,
    nl: BistableNonlinearity,
    p: np.ndarray,
) -> float:
    """Max norm of A p + f(p) over the PDE rows."""
    n = p.size
    lower, diag, upper = assemble_operator(geometry, n, drift)
    res = apply_operator(lower, diag, upper, p) + nl.f(p)
    return float(np.max(np.abs(res[_interior_rows(geometry, n)])))


_NEWTON_TOL = 1e-11  # max-norm residual at which Newton stops
_NEWTON_MAX_ITER = 60


def newton_steady(
    geometry: DomainGeometry,
    drift: DriftField,
    nl: BistableNonlinearity,
    seed: np.ndarray,
    bc_left: float,
    bc_right: float,
) -> tuple[np.ndarray, float]:
    """Damped Newton solve of A p + f(p) = 0 with pinned boundary values.

    For a ball only ``bc_right`` (r = R) is a boundary condition; the
    origin row carries the regularized operator.  Returns the solution
    and its residual; raises SolverFailure on divergence.  A stalled line
    search returns the iterate when its residual is within 4x the
    roundoff floor eps * max|diag| * max|p| of A p, which can exceed
    _NEWTON_TOL on fine grids.
    """
    n = seed.size
    lower, diag, upper = assemble_operator(geometry, n, drift)
    p = seed.astype(float).copy()
    p[-1] = bc_right
    ball = geometry.kind == "ball"
    if not ball:
        p[0] = bc_left

    def residual_vec(q):
        res = apply_operator(lower, diag, upper, q) + nl.f(q)
        res[-1] = 0.0
        if not ball:
            res[0] = 0.0
        return res

    res = residual_vec(p)
    norm = np.max(np.abs(res))
    for _ in range(_NEWTON_MAX_ITER):
        if norm < _NEWTON_TOL:
            break
        jl = lower.copy()
        jd = diag + nl.fprime(p)
        ju = upper.copy()
        # boundary rows: identity, zero correction
        jd[-1] = 1.0
        jl[-1] = 0.0
        if not ball:
            jd[0] = 1.0
            ju[0] = 0.0
        delta = solve_tridiagonal(factor_tridiagonal(jl, jd, ju), -res)
        step = 1.0
        for _ in range(40):
            trial = p + step * delta
            tres = residual_vec(trial)
            tnorm = np.max(np.abs(tres))
            if tnorm < norm * (1.0 - 0.25 * step) or tnorm < _NEWTON_TOL:
                p, res, norm = trial, tres, tnorm
                break
            step *= 0.5
        else:
            if norm > 4.0 * np.finfo(float).eps * np.max(np.abs(diag)) * np.max(np.abs(p)):
                raise SolverFailure("solver-failure: Newton line search stalled")
            break
    else:
        raise SolverFailure(f"solver-failure: Newton did not converge (residual {norm:.3e})")
    return p, float(norm)

