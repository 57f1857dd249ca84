"""First Dirichlet eigenvalues, plain and weighted, and the uniqueness
certificates built on them.

The discrete eigenproblem is the variational one: minimize

    sum_cells w_{i+1/2} m_{i+1/2} (p_{i+1}-p_i)^2 / h
    -----------------------------------------------
    sum_nodes w_i m_i p_i^2 h

over grid functions vanishing at Dirichlet nodes, where m = r^{d-1} is
the radial cell measure (1 on an interval).  The stiffness matrix is
symmetric positive definite and tridiagonal; the smallest eigenvalue is
found by inverse power iteration with the weighted mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import apply_operator, factor_tridiagonal, solve_tridiagonal
from .errors import InvalidInput, SolverFailure
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile, lipschitz_and_sup_fprime

__all__ = [
    "EigenResult",
    "Certificate",
    "dirichlet_lambda1",
    "weighted_lambda1",
    "lambda_sigma",
    "uniqueness_certificate",
]


@dataclass(frozen=True)
class EigenResult:
    lambda_: float
    eigenprofile: GridProfile
    iterations: int
    residual: float


_EIGEN_TOL = 1e-12  # inverse iteration stops when lambda moves less than this
_EIGEN_MAX_ITER = 10000


def weighted_lambda1(geometry: DomainGeometry, w: np.ndarray) -> EigenResult:
    """Smallest eigenvalue of the weighted Dirichlet form on the
    ``w.size``-node grid of ``geometry``.

    ``w`` holds the positive weight on the nodes (1, or N^{2/sigma}); the
    quotient is invariant under rescaling of w.  The free nodes are those
    of ``geometry.first_free`` (a ball's centre is a natural, Neumann node).
    """
    n = w.size
    if n < 32:
        raise InvalidInput("invalid-grid: eigenvalue solves need n >= 32")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise InvalidInput("invalid-weight: weight must be positive and finite")
    x = geometry.grid(n)
    h = x[1] - x[0]
    w = w / np.max(w)  # scale invariance; keeps strong drifts in range

    measure = np.maximum(x, 0.0) ** (geometry.d - 1) if geometry.d > 1 else np.ones_like(x)
    first = geometry.first_free
    free = np.arange(first, n - 1)

    w_mid = 0.5 * (w[:-1] + w[1:])
    m_mid = 0.5 * (measure[:-1] + measure[1:])
    k_edge = w_mid * m_mid / h  # stiffness contribution of each cell

    # a free node j couples through cells j - 1 (none at r = 0) and j to
    # its free neighbours; node n - 1 is Dirichlet
    nf = free.size
    diag = np.concatenate(([0.0], k_edge[:-1]))[first:] + k_edge[first:]
    lower = np.zeros(nf)
    upper = np.zeros(nf)
    lower[1:] = upper[:-1] = -k_edge[first:-1]

    mass = w[free] * measure[free] * h
    if first == 0:
        # a ball's centre: lumped mass of the half cell [0, h/2]
        mass[0] = w[0] * (h / 2.0) ** geometry.d / geometry.d
    if np.any(mass <= 0.0):
        raise InvalidInput("invalid-weight: degenerate mass matrix")

    u = np.sin(np.pi * (np.arange(nf) + 1) / (nf + 1))
    u /= np.sqrt(u @ (mass * u))
    lam_prev = np.inf
    lam = 0.0
    factor = factor_tridiagonal(lower, diag, upper)
    for it in range(1, _EIGEN_MAX_ITER + 1):
        v = solve_tridiagonal(factor, mass * u)
        ku = apply_operator(lower, diag, upper, v)
        lam = float((v @ ku) / (v @ (mass * v)))
        u = v / np.sqrt(v @ (mass * v))
        if abs(lam - lam_prev) < _EIGEN_TOL:
            break
        lam_prev = lam
    else:
        raise SolverFailure("eigen-stall: inverse iteration did not converge")

    ku = apply_operator(lower, diag, upper, u)
    residual = float(np.max(np.abs(ku - lam * mass * u)) / np.max(np.abs(ku)))
    full = np.zeros(n)
    full[free] = u if u[np.argmax(np.abs(u))] > 0 else -u
    full /= np.max(np.abs(full))
    return EigenResult(lambda_=lam, eigenprofile=GridProfile(geometry, full),
                       iterations=it, residual=residual)


def dirichlet_lambda1(geometry: DomainGeometry, n: int) -> EigenResult:
    """First Laplace-Dirichlet eigenvalue of the geometry."""
    return weighted_lambda1(geometry, np.ones(n))


def lambda_sigma(geometry: DomainGeometry, drift: DriftField, n: int) -> EigenResult:
    """Weighted eigenvalue with the drift's own weight N^{2/sigma}."""
    return weighted_lambda1(geometry, drift.weight(geometry.grid(n)))


@dataclass(frozen=True)
class Certificate:
    holds: bool
    lhs: float
    rhs: float
    which: str
    sup_fprime: float


def uniqueness_certificate(nl: BistableNonlinearity, drift: DriftField,
                           geometry: DomainGeometry, n: int = 513) -> Certificate:
    """Sufficient uniqueness condition for the steady problem: the weighted
    eigenvalue lambda_sigma with weight N^{2/sigma} exceeds M.

    For a homogeneous drift the weight is 1, so lambda_sigma is the plain
    lambda_1^D(Omega) and the certificate is labelled ``zero-bc``; any
    other drift gives ``general``.  M = ``rhs`` is the Lipschitz constant
    of f, sup |f'| on [0, 1]; ``sup_fprime`` is the signed max of f' (0.260
    against M = 0.67 for the cubic at theta = 0.33).
    """
    M, sup_fp = lipschitz_and_sup_fprime(nl)
    lam = lambda_sigma(geometry, drift, n).lambda_
    return Certificate(holds=lam > M, lhs=lam, rhs=M,
                       which="zero-bc" if drift.kind == "homogeneous" else "general",
                       sup_fprime=sup_fp)
