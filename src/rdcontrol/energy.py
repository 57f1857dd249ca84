"""Energy functionals and asymptotic existence tests.

Two energies appear throughout:

  weighted energy    E_sigma(p) = 1/2 int w |p'|^2 - int w F(p),
                     w = N^{2/sigma}, F under the extension-by-zero
                     convention (F constant outside [0, 1]),
  the sigma-free variant (w = e^{eps n}) used by the slowly-varying model.

Quadrature is composite Simpson on the uniform grid with the radial
measure r^{d-1} (times the sphere area) on balls.  Strong drifts push
N^{2/sigma} far outside floating-point range, so every weighted energy
runs on the weight divided by its max and reports that log-shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from .numerics import simpson

__all__ = [
    "EnergyReport",
    "energy_sigma",
    "plateau_ramp_eta",
    "negative_energy_sigma_threshold",
    "laplace_ratio_check",
    "minimize_energy_sigma",
]


@dataclass(frozen=True)
class EnergyReport:
    value: float
    gradient_part: float
    potential_part: float
    log_shift: float  # parts are scaled by exp(-log_shift)


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _measure(geometry: DomainGeometry, x: np.ndarray) -> np.ndarray:
    if geometry.kind == "ball" and geometry.d > 1:
        return _sphere_area(geometry.d) * np.maximum(x, 0.0) ** (geometry.d - 1)
    if geometry.kind == "ball":
        return np.full_like(x, 2.0)  # d = 1 ball = symmetric interval
    return np.ones_like(x)


def _log_weight(N_profile: DriftField, sigma: float, x: np.ndarray) -> np.ndarray:
    """(2/sigma) ln N on the nodes x: the log of the weight N^{2/sigma}."""
    return (2.0 / sigma) * N_profile.ln_N(x)


def energy_sigma(nl: BistableNonlinearity, N_profile: DriftField, sigma: float,
                 p_profile: GridProfile, geometry: DomainGeometry) -> EnergyReport:
    """Weighted energy of a zero-boundary profile.

    ``N_profile`` is the drift whose density N gives the weight; F uses
    the extension-by-zero convention.  The weight is normalized by its
    max (sign and minimizers unchanged), which keeps extreme sigmas
    representable; the applied shift is reported.
    """
    vals = p_profile.values
    x = p_profile.x
    h = p_profile.h
    if abs(vals[-1]) > 1e-12 or (geometry.kind == "interval" and abs(vals[0]) > 1e-12):
        raise InvalidInput("bc-violation: energy profiles must vanish on the boundary")
    logw = _log_weight(N_profile, sigma, x)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    meas = _measure(geometry, x)
    grad = np.gradient(vals, h, edge_order=2)
    gradient_part = 0.5 * simpson(w * meas * grad**2, dx=h)
    potential_part = simpson(w * meas * np.asarray(nl.F_zero(vals)), dx=h)
    return EnergyReport(value=float(gradient_part - potential_part),
                        gradient_part=float(gradient_part),
                        potential_part=float(potential_part),
                        log_shift=shift)


def plateau_ramp_eta(delta: float, geometry: DomainGeometry, n: int) -> GridProfile:
    """Radially non-increasing test function: 1 on [0, delta], 0 beyond
    2*delta, joined by the C^1 cubic smoothstep."""
    R = geometry.inradius()
    if not (0.0 < delta < R / 2.0):
        raise InvalidInput(f"bad-delta: need 0 < delta < R/2, got {delta} vs R={R}")
    x = geometry.grid(n)
    r = np.abs(x)
    t = np.clip((r - delta) / delta, 0.0, 1.0)
    vals = 1.0 - (3.0 * t**2 - 2.0 * t**3)
    return GridProfile(geometry, vals)


def negative_energy_sigma_threshold(nl: BistableNonlinearity, N_profile: DriftField,
                                    geometry: DomainGeometry, delta: float,
                                    n: int = 2049) -> tuple[float, str]:
    """Sign-change threshold sigma* of sigma -> E_sigma(eta) on the
    probed window [1e-6, 1e6].

    Returns (sigma*, "bracketed") with two-digit relative accuracy, the
    sentinel (0.0, "always-negative") when the energy is already
    negative at sigma = 1e6, and (inf, "never-negative") when no sign
    change exists in the window.
    """
    eta = plateau_ramp_eta(delta, geometry, n)

    def sign_at(sigma: float) -> float:
        return energy_sigma(nl, N_profile, sigma, eta, geometry).value

    if sign_at(1e6) < 0.0:
        return 0.0, "always-negative"
    if sign_at(1e-6) >= 0.0:
        return math.inf, "never-negative"
    lo, hi = math.log(1e-6), math.log(1e6)
    while hi - lo > math.log(1.02):
        mid = 0.5 * (lo + hi)
        if sign_at(math.exp(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return float(math.exp(0.5 * (lo + hi))), "bracketed"


def laplace_ratio_check(c0: float, d: int, phi, eps_list) -> list[float]:
    """Ratios int_0^1 t^{d-1} phi(t) e^{-c0 t^2/eps} dt / (phi(0) eps^{d/2}).

    The sequence must converge to M(c0, d) = Gamma(d/2) / (2 c0^{d/2})
    as eps decreases (Gaussian closed form of the Laplace method).
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if np.any(np.diff(eps_arr) >= 0.0):
        raise InvalidInput("invalid-scalar: eps list must decrease")
    phi0 = float(phi(0.0))
    if abs(phi0) < 1e-14:
        raise InvalidInput("degenerate-phi: phi(0) must be nonzero")
    ratios = []
    for eps in eps_arr:
        width = math.sqrt(eps / c0)
        n_nodes = int(min(400001, max(4001, 40.0 / width))) | 1
        t = np.linspace(0.0, 1.0, n_nodes)
        integrand = t ** (d - 1) * np.asarray(phi(t), dtype=float) * np.exp(-c0 * t**2 / eps)
        val = simpson(integrand, dx=t[1] - t[0])
        ratios.append(float(val / (phi0 * eps ** (d / 2.0))))
    return ratios


def minimize_energy_sigma(nl: BistableNonlinearity, N_profile: DriftField, sigma: float,
                          geometry: DomainGeometry, n: int, p_init: GridProfile,
                          max_iter: int = 10000) -> tuple[GridProfile, EnergyReport]:
    """Projected gradient descent of the weighted energy over profiles
    clipped to [0, 1] with zero boundary values.

    Fixed step 0.5 h^2 / max(w) on the mass-normalized gradient, halved
    whenever a step would increase the energy (the truncation-to-[0,1]
    argument guarantees descent is possible).  Stops on stagnation or at
    the iteration cap.
    """
    x = geometry.grid(n)
    h = x[1] - x[0]
    logw = _log_weight(N_profile, sigma, x)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    meas = _measure(geometry, x)
    mw = w * meas
    mw_mid = 0.5 * (mw[:-1] + mw[1:])

    p = np.clip(p_init.values.copy(), 0.0, 1.0)
    p[-1] = 0.0
    first = 0 if geometry.kind == "ball" else 1
    if geometry.kind == "interval":
        p[0] = 0.0

    def discrete_energy(q):
        grad = np.diff(q) / h
        return 0.5 * np.sum(mw_mid * grad**2) * h - np.sum(mw * np.asarray(nl.F_zero(q))) * h

    def gradient(q):
        g = np.zeros_like(q)
        dq = np.diff(q) / h
        flux = mw_mid * dq
        g[1:] += flux
        g[:-1] -= flux
        g -= mw * np.asarray(nl.f(np.clip(q, 0.0, 1.0))) * h
        g[-1] = 0.0
        if geometry.kind == "interval":
            g[0] = 0.0
        return g

    tau0 = 0.5 * h**2 / float(np.max(w))
    energy = discrete_energy(p)
    for _ in range(max_iter):
        g = gradient(p)
        scale = np.maximum(mw * h, 1e-300)
        step_dir = g / scale
        tau = tau0
        for _ in range(30):
            q = np.clip(p - tau * step_dir, 0.0, 1.0)
            q[-1] = 0.0
            if geometry.kind == "interval":
                q[0] = 0.0
            e_new = discrete_energy(q)
            if e_new <= energy:
                break
            tau *= 0.5
        else:
            q, e_new = p, energy
        moved = float(np.max(np.abs(q - p)))
        p, energy = q, e_new
        if moved < 1e-13:
            break
    report = energy_sigma(nl, N_profile, sigma, GridProfile(geometry, p), geometry)
    return GridProfile(geometry, p), report
