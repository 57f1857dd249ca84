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
the inverse iteration reuse that factor for every right-hand side
(dgttrs).

LAPACK comes from the OpenBLAS that a numpy wheel bundles and has already
loaded (``numpy.libs/libscipy_openblas64_-*.so``, 64-bit integers),
called through ``ctypes``, so a run imports no scipy.  Where numpy
carries no such library or it lacks either routine (a conda/MKL, macOS
or Windows numpy), both functions use ``scipy.linalg.lapack`` instead,
imported at the first factorization.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import NamedTuple, Optional

import numpy as np

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
    if geometry.d > 1:
        with np.errstate(divide="ignore"):
            radial = np.where(x > 0.0, (geometry.d - 1) / np.where(x > 0.0, x, 1.0), 0.0)
        c = c + radial
    return c


def assemble_operator(geometry: DomainGeometry, n: int, drift: DriftField):
    """Return (lower, diag, upper) of A with zeroed boundary rows.

    ``lower[i]`` multiplies p_{i-1} in row i, ``upper[i]`` multiplies
    p_{i+1}; the pinned rows (``geometry.first_free``) are left empty for
    boundary conditions.  An infection drift, which depends on p, has no
    such operator (``DriftField.coeff`` raises).
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

    if geometry.first_free == 0:
        # origin row of a ball: symmetric Neumann, Lap(p)(0) = 2 d (p1 - p0)/h^2
        diag[0] = -2.0 * geometry.d / h**2
        upper[0] = 2.0 * geometry.d / h**2
    return lower, diag, upper


def apply_operator(lower, diag, upper, p: np.ndarray) -> np.ndarray:
    out = diag * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out


def _bundled_lapack():
    """(dgttrf, dgttrs) of the OpenBLAS the numpy wheel bundles, or None
    where numpy carries no such library or it lacks either routine.

    The library is the one numpy has already loaded, so opening it maps
    nothing new.  ``PyDLL`` keeps the interpreter lock through a call: a
    solve takes microseconds, and releasing and taking back the lock
    would add about 0.1 µs to each.
    """
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(numpy_libs, "libscipy_openblas64_*.so")))
    try:
        lib = ctypes.PyDLL(found[0])
        routines = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
    except (IndexError, OSError, AttributeError):
        return None
    for routine in routines:
        routine.restype = None
    return routines


def _scipy_lapack():
    """(dgttrf, dgttrs) of scipy: the fallback where :func:`_bundled_lapack` finds none."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    return dgttrf, dgttrs


_DGTTRF, _DGTTRS = _bundled_lapack() or (None, None)


def _ref(value):
    """A Fortran by-reference argument: a pointer to ``value``'s data,
    which it keeps alive; ``value`` is an array or a ctypes scalar.

    The routines take no ``argtypes``: every argument is already the
    pointer the Fortran routine reads, and a prebuilt ``byref`` passes
    unconverted.  ``c_void_p`` arguments, converted on every call, and an
    ``argtypes`` check would add about 0.3 and 1 µs to a 4 µs solve at
    n = 201.
    """
    if isinstance(value, np.ndarray):
        value = (ctypes.c_char * value.nbytes).from_buffer(value)
    return ctypes.byref(value)


# dgttrs' constant arguments: TRANS = "N" (solve A x = b), NRHS = 1, and
# the hidden length of TRANS that gfortran appends for a character argument
_TRANS, _NRHS = _ref(ctypes.c_char(b"N")), _ref(ctypes.c_int64(1))
_TRANS_LEN = ctypes.c_size_t.from_param(1)


class TridiagonalFactor(NamedTuple):
    """LU factors of a tridiagonal matrix, as LAPACK dgttrf returns them.

    On the bundled library, ``work`` is the length-n right-hand side that
    each dgttrs call overwrites with its solution, and ``args`` that
    call's arguments, built once (pointers into the arrays above and into
    ``work``); both are None on the scipy fallback.  A solve writes
    ``work``, so one factor serves one thread at a time.
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray
    info: int
    work: Optional[np.ndarray]
    args: Optional[tuple]


def factor_tridiagonal(lower, diag, upper) -> TridiagonalFactor:
    """LU-factor a tridiagonal matrix once for :func:`solve_tridiagonal`.

    ``lower[i]`` and ``upper[i]`` are the off-diagonals of row i, as
    :func:`assemble_operator` returns them.  A singular matrix is reported
    by the first solve.
    """
    if _DGTTRF is None:
        dgttrf, _ = _scipy_lapack()
        return TridiagonalFactor(*dgttrf(lower[1:], diag, upper[:-1]), None, None)
    dl, d, du = (np.array(a, dtype=np.float64) for a in (lower[1:], diag, upper[:-1]))
    n = d.size
    if not (d.shape == (n,) and dl.shape == du.shape == (max(n - 1, 0),)):
        raise ValueError(f"tridiagonal bands of shapes {dl.shape}, {d.shape}, {du.shape}")
    # the library's integers are 64-bit, ipiv included
    du2, ipiv, work = np.empty(max(n - 2, 0)), np.empty(n, dtype=np.int64), np.empty(n)
    size, info = _ref(ctypes.c_int64(n)), ctypes.c_int64(0)
    factors = [_ref(a) for a in (dl, d, du, du2, ipiv)]
    _DGTTRF(size, *factors, _ref(info))
    args = (_TRANS, size, _NRHS, *factors, _ref(work), size, _ref(ctypes.c_int64(0)), _TRANS_LEN)
    return TridiagonalFactor(dl, d, du, du2, ipiv, info.value, work, args)


def solve_tridiagonal(factor: TridiagonalFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factor of :func:`factor_tridiagonal` (LAPACK dgttrs).

    Raises SolverFailure when the matrix is singular or the solution is
    not finite.
    """
    dl, d, du, du2, ipiv, info, work, args = factor
    if info != 0:
        raise SolverFailure(f"solver-failure: singular tridiagonal matrix (pivot {info})")
    if args is None:
        _, dgttrs = _scipy_lapack()
        x, _ = dgttrs(dl, d, du, du2, ipiv, rhs)
    else:
        work[...] = rhs
        _DGTTRS(*args)
        x = work.copy()
    # the ufunc reduce: ndarray.all() dispatches through a Python function,
    # 0.2 µs of a 5 µs solve at n = 201
    if not np.logical_and.reduce(np.isfinite(x)):
        raise SolverFailure("solver-failure: non-finite tridiagonal solution")
    return x


def steady_residual(
    geometry: DomainGeometry,
    ops: tuple,
    nl: BistableNonlinearity,
    p: np.ndarray,
) -> float:
    """Max norm of A p + f(p) over the free rows; ``ops`` is the
    (lower, diag, upper) of :func:`assemble_operator` on the grid of p."""
    res = apply_operator(*ops, p) + nl.f(p)
    return float(np.max(np.abs(res[geometry.first_free:-1])))


_NEWTON_TOL = 1e-11  # max-norm residual at which Newton stops
_NEWTON_MAX_ITER = 60


def newton_steady(
    geometry: DomainGeometry,
    ops: tuple,
    nl: BistableNonlinearity,
    seed: np.ndarray,
    bc: float,
) -> tuple[np.ndarray, float]:
    """Damped Newton solve of A p + f(p) = 0 with the boundary pinned to ``bc``.

    ``ops`` is the (lower, diag, upper) of :func:`assemble_operator` on
    the grid of ``seed``; the rows ``geometry.first_free`` marks are
    pinned.  Returns the solution and its residual; raises SolverFailure
    on divergence.  A stalled line search returns the iterate when its
    residual is within 4x the roundoff floor eps * max|diag| * max|p| of
    A p, which can exceed _NEWTON_TOL on fine grids.
    """
    lower, diag, upper = ops
    first = geometry.first_free
    p = seed.astype(float).copy()
    p[:first] = p[-1] = bc

    def residual_vec(q):
        res = apply_operator(lower, diag, upper, q) + nl.f(q)
        res[:first] = res[-1] = 0.0
        return res

    res = residual_vec(p)
    norm = np.max(np.abs(res))
    for _ in range(_NEWTON_MAX_ITER):
        if norm < _NEWTON_TOL:
            break
        jl = lower.copy()
        jd = diag + nl.fprime(p)
        ju = upper.copy()
        # pinned rows: identity, zero correction
        jd[:first] = jd[-1] = 1.0
        ju[:first] = jl[-1] = 0.0
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

