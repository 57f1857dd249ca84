"""Independent oracles used by the test suite.

Everything here is deliberately written against the math, not against
the package: Simpson quadrature from scratch, a plain fixed-step RK4,
the exact phase-plane time map of the homogeneous steady problem, and
closed-form eigenvalues.  Tests compare package output to these.
"""

import math

import numpy as np


def simpson_quad(fn, a: float, b: float, panels: int = 10000) -> float:
    """Composite Simpson with 2*panels subintervals, written out longhand."""
    n = 2 * panels
    x = np.linspace(a, b, n + 1)
    y = np.asarray([fn(float(t)) for t in x])
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def cubic_f(theta: float):
    return lambda p: p * (p - theta) * (1.0 - p)


def F_quad(theta: float, p: float, panels: int = 10000) -> float:
    """Antiderivative of the cubic by quadrature (oracle for closed forms)."""
    if p == 0.0:
        return 0.0
    return simpson_quad(cubic_f(theta), 0.0, p, panels)


def rk4_fixed(rhs, y0, t0: float, t1: float, n_steps: int):
    """Plain fixed-step classical RK4 for a first-order system; returns
    the (t, y) arrays.  Independent of the package integrator."""
    y = np.asarray(y0, dtype=float)
    t = t0
    h = (t1 - t0) / n_steps
    ts = [t]
    ys = [y.copy()]
    for _ in range(n_steps):
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1))
        k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        ts.append(t)
        ys.append(y.copy())
    return np.asarray(ts), np.asarray(ys)


def homogeneous_time_map(theta: float, alpha: float, n: int = 4000) -> float:
    """Half-length of the homogeneous bump with maximum alpha:

        T(alpha) = int_0^alpha dp / sqrt(2 (F(alpha) - F(p))),

    computed with the square-root substitution t = sqrt(alpha - p) that
    removes the endpoint singularity.  A bump on (-L, L) with boundary
    value 0 exists iff L >= min_alpha T(alpha).
    """
    f = cubic_f(theta)

    def F(p):
        return -p**4 / 4 + (1 + theta) * p**3 / 3 - theta * p**2 / 2

    Fa = F(alpha)
    if Fa <= 0.0:
        return math.inf

    def integrand(t):
        p = alpha - t * t
        df = Fa - F(p)
        if df <= 0.0:
            # only at t = 0; use the regular limit 2/sqrt(2 f(alpha))
            return 2.0 / math.sqrt(2.0 * f(alpha))
        return 2.0 * t / math.sqrt(2.0 * df)

    return simpson_quad(integrand, 0.0, math.sqrt(alpha), n)


def homogeneous_critical_length(theta: float) -> float:
    """min_alpha T(alpha) over the admissible bump heights."""
    # F(beta) = 0 for beta in (theta, 1); bumps need alpha in (beta, 1)
    beta_lo, beta_hi = theta, 1.0
    for _ in range(80):
        mid = 0.5 * (beta_lo + beta_hi)
        Fm = -mid**4 / 4 + (1 + theta) * mid**3 / 3 - theta * mid**2 / 2
        if Fm < 0.0:
            beta_lo = mid
        else:
            beta_hi = mid
    beta = beta_hi
    alphas = np.linspace(beta + 1e-4, 1.0 - 1e-4, 400)
    return float(min(homogeneous_time_map(theta, float(a), n=1500) for a in alphas))


def interval_lambda1(L: float) -> float:
    return (math.pi / (2.0 * L)) ** 2


def ball_lambda1_d3(R: float) -> float:
    return (math.pi / R) ** 2


def reference_march(nl, geometry, ops, alphas, target=None, keep=False):
    """The barrier march one row at a time, with the checked ``nl.f`` and
    one decision per row: the form ``rdcontrol.steady._march`` had before
    it marched blocks of rows.  Same arguments and results."""
    lower, diag, upper = ops
    n = lower.size
    s = 0 if geometry.kind == "ball" else n // 2
    if geometry.kind == "interval" and n % 2 == 0:
        a, b = lower[s] + diag[s], upper[s]
    else:
        a, b = diag[s], lower[s] + upper[s]
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
            live &= ~hit & (sign * (cur - prev) >= -1e-12)
        else:
            live &= np.abs(cur) <= 5.0
        if i == n - 1 or not live.any():
            break
        nxt = -(lower[i] * prev + diag[i] * cur + nl.f(cur)) / upper[i]
        prev, cur = cur, np.where(live, nxt, cur)  # stopped lanes stay frozen
        if keep:
            column.append(cur)
    return reach, (np.stack(column) if keep else None)


def reference_equivalence_check(nl, N_of_p, p0, u, T, dt, snapshot_every=10):
    """``rdcontrol.transform.equivalence_check`` as it was before it took
    the map: it builds its own map from ``N_of_p``, evaluates N three times
    and calls the checked ``tilde_f`` and ``nl.f`` at every step.  Same
    results."""
    from rdcontrol.errors import SolverFailure
    from rdcontrol.transform import _CnAb2, build_map, tilde_f

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
