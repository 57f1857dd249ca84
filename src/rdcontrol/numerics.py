"""Composite Simpson quadrature and monotone cubic interpolation in numpy.

Each routine repeats, operation for operation, the scipy 1.17 code path
that the package used before (named in its docstring), so results are
bit-identical on the data the package passes: 1-d float arrays,
strictly increasing abscissae.  Keeping them here spares every run the
import of ``scipy.integrate`` and ``scipy.interpolate``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson", "cumulative_simpson", "Pchip"]


def _basic_simpson(y, stop, x, dx):
    """Composite Simpson over the panels [0, 2], [2, 4], ... ending at
    ``stop + 2``; scipy's ``integrate._quadrature._basic_simpson``."""
    y0, y1, y2 = y[0:stop:2], y[1:stop + 1:2], y[2:stop + 2:2]
    if x is None:
        return np.sum(y0 + 4.0 * y1 + y2) * (dx / 3.0)
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    return np.sum(hsum / 6.0 * (y0 * (2.0 - 1.0 / h0divh1)
                                + y1 * (hsum * (hsum / (h0 * h1)))
                                + y2 * (2.0 - h0divh1)))


def simpson(y, *, x=None, dx=None):
    """Integral of samples ``y`` by the composite Simpson rule, on the
    abscissae ``x`` or on a uniform spacing ``dx``.

    Reproduces ``scipy.integrate.simpson`` (its ``_basic_simpson``) bit for
    bit; an even sample count closes with scipy's last-interval correction
    (Cartwright 2017, in the form scipy uses)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n % 2:
        return _basic_simpson(y, n - 2, x, dx)
    h0, h1 = (np.float64(dx), np.float64(dx)) if x is None else np.diff(x[-3:])
    alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
    eta = (1 * h1**3) / (6 * h0 * (h0 + h1))
    return _basic_simpson(y, n - 3, x, dx) + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


def _simpson_first_subintervals(y, dx):
    """Integral over [x_i, x_{i+1}] of the parabola through nodes i, i+1, i+2
    (Cartwright 2017, eq. 8); scipy's ``_cumulative_simpson_unequal_intervals``."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + (-x21x21_x31x32) * y[2:])


def cumulative_simpson(y, x):
    """Running integral of ``y`` over the strictly increasing ``x``, 0 at x[0].

    Reproduces ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)``
    bit for bit (``_cumulatively_sum_simpson_integrals``): interval 2k
    integrates the parabola through its two nodes and the next one,
    interval 2k + 1 and the last interval the parabola through their two
    nodes and the previous one."""
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    ahead = _simpson_first_subintervals(y, dx)
    behind = _simpson_first_subintervals(y[::-1], dx[::-1])[::-1]
    sub = np.empty(y.size - 1)
    sub[:-1:2] = ahead[::2]
    sub[1::2] = behind[::2]
    sub[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape;
    scipy's ``PchipInterpolator._edge_case``."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x, y) with at
    least 3 strictly increasing, finite nodes (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17, 1980), extrapolated by its end cubics.

    Reproduces ``scipy.interpolate.PchipInterpolator`` bit for bit: node
    slopes from its ``_find_derivatives`` and ``_edge_case``, coefficients
    as in ``CubicHermiteSpline``, evaluation and ``derivative`` as
    ``PPoly``'s.  ``c[k][i]`` multiplies (t - x[i])**(3-k) on interval i;
    ``c`` holds its four rows apart so that evaluation indexes each once.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _edge_slope(h[0], h[1], m[0], m[1])
        d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = tuple(np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def derivative(self) -> "Pchip":
        """The derivative: ``PPoly``'s quadratic coefficients c[:-1] * [3, 2, 1]
        (the factor 1 is exact) under a zero cubic row.  That row adds
        0 * s**3 = +-0 to a power sum that is never -0, so no value at a
        finite point changes by a bit."""
        c0, c1, c2, _ = self.c
        out = object.__new__(Pchip)
        out.x = self.x
        out.c = (np.zeros_like(c0), c0 * 3.0, c1 * 2.0, c2)
        return out

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        # the interval i with x[i] <= q < x[i+1], the end intervals open outward
        i = self.x[1:-1].searchsorted(q, "right")
        s = q - self.x[i]
        c0, c1, c2, out = [row[i] for row in self.c]
        # PPoly's power sum 0 + c3 + c2 s + c1 s^2 + c0 s^3, in its order,
        # on the fresh copies that the indexing made
        out += 0.0
        c2 *= s
        out += c2
        z = s * s
        c1 *= z
        out += c1
        z *= s
        c0 *= z
        out += c0
        return out
