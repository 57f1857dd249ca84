"""Domain types shared by every solver module.

Defines the bistable reaction term, the drift field induced by a
population density N, the computational domain (interval or ball, via
the radial reduction), and profiles sampled on uniform grids.  All
types are immutable after construction; every operation is pure.

The drift convention used throughout the package: the PDE is

    dp/dt = Lap(p) + (2/sigma) * b(x) * dp/dx + f(p)

with b(x) = d/dx ln N(x) the *base* log-derivative of the density and
``sigma`` the inverse drift intensity.  The steady one-dimensional
equation then reads  -p'' + (2x/sigma) p' = f(p)  for the outward
Gaussian family N(x) = exp(-x^2/2), which is the form the barrier
solvers integrate.  ``DriftField.coeff`` exposes the raw effective
coefficient so convention mismatches stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput
from .numerics import Pchip, cumulative_simpson

__all__ = [
    "BistableNonlinearity",
    "DriftField",
    "DomainGeometry",
    "GridProfile",
    "lipschitz_and_sup_fprime",
]


def _check_scalar(p) -> None:
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("invalid-scalar: non-finite evaluation point")


@dataclass(frozen=True)
class BistableNonlinearity:
    """Bistable reaction term f with roots exactly at 0, theta and 1.

    ``kind="cubic"`` is f(p) = p (p - theta) (1 - p) extended by its own
    formula outside [0, 1] (smooth extension, used by the dynamics).
    ``kind="tabulated"`` interpolates samples on [0, 1] with a monotone
    cubic and is extended by zero outside [0, 1].

    The antiderivative F with F(0) = 0 is available both with the
    natural extension (``F``) and with the extension-by-zero convention
    used by the energy functionals (``F_zero``: constant outside [0,1]).
    """

    theta: float
    kind: str = "cubic"
    _f_interp: Optional[Pchip] = field(default=None, repr=False, compare=False)
    _fp_interp: Optional[Pchip] = field(default=None, repr=False, compare=False)
    _F_interp: Optional[Pchip] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise InvalidInput(f"invalid-theta: theta={self.theta} not in (0,1)")
        if self.kind not in ("cubic", "tabulated"):
            raise InvalidInput(f"invalid-kind: {self.kind}")
        self._validate()

    # -- constructors ------------------------------------------------

    @classmethod
    def cubic(cls, theta: float) -> "BistableNonlinearity":
        return cls(theta=theta, kind="cubic")

    @classmethod
    def tabulated(cls, p_samples, f_samples, theta: float) -> "BistableNonlinearity":
        p = np.asarray(p_samples, dtype=float)
        fs = np.asarray(f_samples, dtype=float)
        if p.ndim != 1 or p.shape != fs.shape or p.size < 8:
            raise InvalidInput("invalid-samples: need matching 1-d arrays, >= 8 points")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(fs))):
            raise InvalidInput("invalid-samples: non-finite sample")
        if p[0] != 0.0 or p[-1] != 1.0 or np.any(np.diff(p) <= 0):
            raise InvalidInput("invalid-samples: p grid must increase from 0 to 1")
        f_i = Pchip(p, fs)
        dense = np.linspace(0.0, 1.0, 8193)
        F_tab = cumulative_simpson(f_i(dense), dense)
        return cls(
            theta=theta,
            kind="tabulated",
            _f_interp=f_i,
            _fp_interp=f_i.derivative(),
            _F_interp=Pchip(dense, F_tab),
        )

    # -- evaluation --------------------------------------------------

    def f(self, p):
        """Reaction term; scalar in, scalar out (arrays accepted)."""
        _check_scalar(p)
        p = np.asarray(p, dtype=float)
        if self.kind == "cubic":
            out = p * (p - self.theta) * (1.0 - p)
        else:
            out = np.where((p < 0.0) | (p > 1.0), 0.0, self._f_interp(np.clip(p, 0.0, 1.0)))
        return out if out.ndim else float(out)

    def fprime(self, p):
        _check_scalar(p)
        p = np.asarray(p, dtype=float)
        if self.kind == "cubic":
            out = -3.0 * p**2 + 2.0 * (1.0 + self.theta) * p - self.theta
        else:
            out = np.where((p < 0.0) | (p > 1.0), 0.0, self._fp_interp(np.clip(p, 0.0, 1.0)))
        return out if out.ndim else float(out)

    def F(self, p):
        """Antiderivative of f with F(0) = 0 (natural extension)."""
        _check_scalar(p)
        p = np.asarray(p, dtype=float)
        if self.kind == "cubic":
            th = self.theta
            out = -(p**4) / 4.0 + (1.0 + th) * p**3 / 3.0 - th * p**2 / 2.0
        else:
            out = self._F_interp(np.clip(p, 0.0, 1.0))
            # extension by zero: F flat outside [0,1]
        return out if out.ndim else float(out)

    def F_zero(self, p):
        """Antiderivative under the extension-by-zero convention for f."""
        p = np.asarray(p, dtype=float)
        out = self.F(np.clip(p, 0.0, 1.0))
        return out if np.ndim(out) else float(out)

    # -- validation --------------------------------------------------

    def _validate(self) -> None:
        th = self.theta
        for root in (0.0, th, 1.0):
            if abs(float(self.f(root))) > 1e-12:
                raise InvalidInput(f"invalid-bistable: f({root}) = {self.f(root)!r} != 0")
        probe = np.linspace(0.0, 1.0, 4097)[1:-1]
        vals = self.f(probe)
        lower = probe < th - 1e-9
        upper = probe > th + 1e-9
        if np.any(vals[lower] >= 0.0) or np.any(vals[upper] <= 0.0):
            raise InvalidInput("invalid-bistable: sign pattern violated on (0,1)")
        if not (self.fprime(0.0) < 0.0 and self.fprime(1.0) < 0.0 and self.fprime(th) > 0.0):
            raise InvalidInput("invalid-bistable: derivative signs at roots")
        if float(self.F(1.0)) <= 0.0:
            raise InvalidInput("invalid-bistable: integral of f over (0,1) must be positive")


def lipschitz_and_sup_fprime(nl: BistableNonlinearity) -> tuple[float, float]:
    """(M, sup f') over [0, 1]: M = sup |f'| (the Lipschitz constant of
    f under the extension-by-zero convention), sup f' the signed max.

    For the cubic f' is a quadratic, so both extremes lie at 0, 1 or its
    vertex (1 + theta)/3; a tabulated f' is probed at 10 001 points."""
    if nl.kind == "cubic":
        probe = np.array([0.0, 1.0, (1.0 + nl.theta) / 3.0])
    else:
        probe = np.linspace(0.0, 1.0, 10001)
    vals = np.asarray(nl.fprime(probe))
    return float(np.max(np.abs(vals))), float(np.max(vals))


@dataclass(frozen=True)
class DriftField:
    """Gene-flow drift: the log-derivative of a population density N.

    kinds:
      homogeneous  -- N = 1, no drift.
      radial       -- closed-form radial family with intensity 1/sigma:
                      gauss_out N=e^{-r^2/2}, gauss_in N=e^{r^2/2},
                      abs_exp N=e^{|r|}, sin with b(r)=sin(r).
      spatial-log  -- profile b(x) = d/dx ln N plus sigma; the
                      slowly-varying form has sigma = 2/eps, so the
                      advection coefficient is eps * n'(x).
      infection    -- N depends on the proportion p, not on x.

    ``coeff(x) = (2/sigma) b(x)`` is the advection coefficient in front
    of dp/dx, ``weight_sigma`` the variational weight N^{2/sigma}.
    """

    kind: str
    sigma: float = 1.0
    family: Optional[str] = None
    b_func: Optional[Callable] = field(default=None, repr=False, compare=False)
    ln_N_func: Optional[Callable] = field(default=None, repr=False, compare=False)
    N_of_p: Optional[Callable] = field(default=None, repr=False, compare=False)

    _FAMILIES = {
        "gauss_out": (lambda x: -x, lambda x: -0.5 * x**2),
        "gauss_in": (lambda x: x, lambda x: 0.5 * x**2),
        "abs_exp": (lambda x: np.sign(x), lambda x: np.abs(x)),
        "sin": (lambda x: np.sin(x), lambda x: 1.0 - np.cos(x)),
    }

    def __post_init__(self):
        if self.sigma <= 0.0 or not np.isfinite(self.sigma):
            raise InvalidInput(f"invalid-sigma: sigma={self.sigma} must be positive")
        if self.kind not in ("homogeneous", "radial", "spatial-log", "infection"):
            raise InvalidInput(f"invalid-drift-kind: {self.kind}")
        if self.kind == "radial" and self.family not in self._FAMILIES:
            raise InvalidInput(f"invalid-family: {self.family}")
        if self.kind == "infection":
            self._validate_infection()

    # -- constructors ------------------------------------------------

    @classmethod
    def homogeneous(cls) -> "DriftField":
        return cls(kind="homogeneous", sigma=1.0)

    @classmethod
    def radial(cls, family: str, sigma: float) -> "DriftField":
        return cls(kind="radial", family=family, sigma=sigma)

    @classmethod
    def slow(cls, n: Callable, n_prime: Callable, eps: float) -> "DriftField":
        """Slowly varying heterogeneity: advection term eps * n'(x) p'."""
        if eps < 0.0:
            raise InvalidInput("invalid-eps: eps must be >= 0")
        if eps == 0.0:
            return cls.homogeneous()
        return cls(kind="spatial-log", sigma=2.0 / eps, b_func=n_prime, ln_N_func=n)

    @classmethod
    def infection(cls, N_of_p: Callable) -> "DriftField":
        return cls(kind="infection", N_of_p=N_of_p)

    # -- evaluation --------------------------------------------------

    def b(self, x):
        """Base log-derivative d/dx ln N (before the 1/sigma intensity)."""
        x = np.asarray(x, dtype=float)
        self._check_spatial()
        if self.kind == "homogeneous":
            return np.zeros_like(x)
        if self.kind == "radial":
            return np.asarray(self._FAMILIES[self.family][0](x), dtype=float)
        return np.asarray(self.b_func(x), dtype=float)

    def ln_N(self, x):
        x = np.asarray(x, dtype=float)
        self._check_spatial()
        if self.kind == "homogeneous":
            return np.zeros_like(x)
        if self.kind == "radial":
            return np.asarray(self._FAMILIES[self.family][1](x), dtype=float)
        if self.ln_N_func is None:
            raise InvalidInput("invalid-drift: spatial-log drift without ln N profile")
        return np.asarray(self.ln_N_func(x), dtype=float)

    def N(self, x):
        vals = np.exp(self.ln_N(x))
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise InvalidInput("invalid-N: density must stay positive and finite")
        return vals

    def coeff(self, x):
        """Effective advection coefficient (2/sigma) b(x) in front of dp/dx."""
        return (2.0 / self.sigma) * self.b(x)

    def weight_sigma(self, x, shift: float = 0.0):
        """Variational weight N^{2/sigma}; ``shift`` subtracts a constant
        from (2/sigma) ln N before exponentiating (quotients are scale
        invariant, so a shift avoids overflow for strong drifts)."""
        return np.exp((2.0 / self.sigma) * self.ln_N(x) - shift)

    def eps_n_inf(self, x) -> float:
        """eps * ||n||_inf over the sample points x (0 when no drift).

        In this parametrization eps*n(x) == (2/sigma) ln N(x) exactly.
        """
        if self.kind == "homogeneous":
            return 0.0
        return float(np.max(np.abs((2.0 / self.sigma) * self.ln_N(x))))

    def _check_spatial(self) -> None:
        """An infection drift depends on p, not on x: it has no b(x), ln N(x)
        or operator in p, only the transformed heat equation in q."""
        if self.kind == "infection":
            raise InvalidInput("invalid-drift-kind: an infection drift depends on p, so its "
                               "operator lives in the transformed variable; use transform-check")

    def _validate_infection(self) -> None:
        p = np.linspace(0.0, 1.0, 1001)
        vals = np.asarray(self.N_of_p(p), dtype=float)
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise InvalidInput("invalid-N: N(p) must be positive on [0,1]")
        fd = np.diff(vals) / np.diff(p)
        if np.max(np.abs(fd)) > 1e6 * max(1.0, np.max(np.abs(vals))):
            raise InvalidInput("invalid-N: N(p) derivative looks unbounded")


@dataclass(frozen=True)
class DomainGeometry:
    """Interval (-L, L) or ball of radius R in dimension d (radial)."""

    kind: str
    half_width: float
    d: int = 1

    def __post_init__(self):
        if self.kind not in ("interval", "ball"):
            raise InvalidInput(f"invalid-geometry: {self.kind}")
        if self.half_width <= 0.0 or not np.isfinite(self.half_width):
            raise InvalidInput("invalid-geometry: size must be positive")
        if self.kind == "ball" and (self.d < 1 or int(self.d) != self.d):
            raise InvalidInput("invalid-geometry: dimension must be an integer >= 1")

    @classmethod
    def interval(cls, L: float) -> "DomainGeometry":
        return cls(kind="interval", half_width=float(L), d=1)

    @classmethod
    def ball(cls, R: float, d: int) -> "DomainGeometry":
        return cls(kind="ball", half_width=float(R), d=int(d))

    def inradius(self) -> float:
        return self.half_width

    def grid(self, n: int) -> np.ndarray:
        """Uniform node coordinates, boundary nodes included."""
        if n < 3:
            raise InvalidInput("invalid-grid: need at least 3 nodes")
        if self.kind == "interval":
            return np.linspace(-self.half_width, self.half_width, n)
        return np.linspace(0.0, self.half_width, n)

    def spacing(self, n: int) -> float:
        x = self.grid(n)
        return float(x[1] - x[0])


@dataclass(frozen=True)
class GridProfile:
    """A function sampled on the uniform grid of a geometry."""

    geometry: DomainGeometry
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 3:
            raise InvalidInput("invalid-profile: need a 1-d array of >= 3 values")
        if not np.all(np.isfinite(vals)):
            raise InvalidInput("invalid-profile: non-finite values")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.geometry.grid(self.n)

    @property
    def h(self) -> float:
        return self.geometry.spacing(self.n)

    def check_proportion(self) -> None:
        """Raise InvalidInput when a value leaves [0, 1] by more than 1e-9."""
        if np.min(self.values) < -1e-9 or np.max(self.values) > 1.0 + 1e-9:
            raise InvalidInput("invalid-profile: proportion outside [0,1]")

    def sup_distance(self, other) -> float:
        other_vals = other.values if isinstance(other, GridProfile) else np.asarray(other)
        return float(np.max(np.abs(self.values - other_vals)))
