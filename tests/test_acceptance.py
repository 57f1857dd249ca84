"""Acceptance criteria, one test per criterion, at their stated
tolerances.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live).

Criteria 1 and 2 check the figure 4-6 phenomena (barriers to 1 and to 0,
double blocking) at sigma = 1, read from the fig4_strong, fig5_strong
and fig6_strong presets.  At the caption value sigma = 40 on (-2.5, 2.5)
the advection coefficient 2x/sigma admits no barrier of either kind:
the weighted Rayleigh bound min(w)/max(w) * lambda_1^D = 0.338 exceeds
sup f(p)/p = 0.112 (and theta^2/4 = 0.027 for boundary 1), which
test_steady asserts as a nonexistence result.  Criterion 1 bounds the
cost of its barrier searches by the RK4 steps and discrete-march
lane-rows they take, not by wall time, so the bound does not depend on
the host.

Criterion 4 checks what the spectral certificate promises: it is
sufficient for barrier nonexistence, not necessary.  Homogeneous
boundary-0 barriers exist exactly when L >= L_c = min_alpha T(alpha)
= 5.18 (the phase-plane time map), far above the certificate crossover
1.92.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from oracles import homogeneous_critical_length, interval_lambda1
from rdcontrol import steady
from rdcontrol.control import controllability_report, mintime_scan, staircase_to_theta
from rdcontrol.dynamics import _Stepper, asymptotic_verdict
from rdcontrol.elliptic import assemble_operator, newton_steady, steady_residual
from rdcontrol.energy import (
    energy_sigma,
    laplace_ratio_check,
    minimize_energy_sigma,
    negative_energy_sigma_threshold,
    plateau_ramp_eta,
)
from rdcontrol.model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from rdcontrol.scenario import PRESETS
from rdcontrol.spectral import dirichlet_lambda1, lambda_sigma, uniqueness_certificate
from rdcontrol.steady import find_barrier_one, find_barrier_zero, shoot_radial
from rdcontrol.transform import build_map, equivalence_check, tilde_nonlinearity

THETA = 0.33


@contextlib.contextmanager
def criterion(num: int, text: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text} ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[PASS] criterion {num}: {text} ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def nl():
    return BistableNonlinearity.cubic(THETA)


def _preset_sigma(name: str) -> float:
    return float(PRESETS[name]["drift"]["sigma"])


# Work budget of criterion 1, in accepted RK4 steps of shoot_radial.  The
# stored reference run (test_output.txt) spent 5.7 s on the two barrier
# searches at sigma = 40, L = 2.5, which take 161 shots and 410 872 steps;
# the original 10 s wall-clock bound therefore allows
# 10 s * 410 872 / 5.7 s ~ 7.2e5 steps on that host.  The discrete march
# of the barrier search counts one step per lane and row: one evaluation
# of f, against the 12 of an accepted step-doubling RK4 step.
_STEP_BUDGET = 10.0 * 410_872 / 5.7


def test_criterion_1_figure_4_5_barriers(nl, monkeypatch):
    s1, s0 = _preset_sigma("fig4_strong"), _preset_sigma("fig5_strong")
    with criterion(1, f"fig 4/5 barriers at the *_strong sigma={s1:g}/{s0:g}, L=2.5, "
                      f"within {_STEP_BUDGET:.3g} RK4 steps and march lane-rows"):
        steps = []
        shoot, march = steady.shoot_radial, steady._march

        def counting_shoot(*args, **kwargs):
            traj = shoot(*args, **kwargs)
            steps.append(len(traj.r))
            return traj

        def counting_march(nl_, geometry, ops, alphas, *args, **kwargs):
            # every row from the centre node of the odd interval grid outward
            steps.append(ops[0].size // 2 * np.size(alphas))
            return march(nl_, geometry, ops, alphas, *args, **kwargs)

        monkeypatch.setattr(steady, "shoot_radial", counting_shoot)
        monkeypatch.setattr(steady, "_march", counting_march)
        drift1 = DriftField.radial("gauss_out", s1)
        g = DomainGeometry.interval(2.5)
        b1 = find_barrier_one(nl, drift1, g)
        b0 = find_barrier_zero(nl, DriftField.radial("gauss_out", s0), g)
        assert b1 is not None, f"no boundary-1 barrier at sigma={s1:g}, L=2.5"
        assert b0 is not None, f"no boundary-0 barrier at sigma={s0:g}, L=2.5"
        for b in (b1, b0):
            assert b.residual < 1e-6
            assert b.deviation() > 0.1
        # phase trajectory, shot as the barriers experiment shoots it,
        # crosses both energy level sets
        tr = steady.shoot_radial(nl, drift1, b1.alpha, 1, 1.02 * 2.5, 1e-3)
        E = 0.5 * tr.v**2 + np.asarray(nl.F(tr.p))
        assert E[0] < 0.0 < float(nl.F(1.0)) < E[-1]
        assert sum(steps) <= _STEP_BUDGET, (
            f"barrier searches took {sum(steps)} RK4 steps and lane-rows in {len(steps)} "
            f"shots and marches, "
            f"over the budget of {_STEP_BUDGET:.0f}")


def test_criterion_2_figure_6_blocking(nl):
    sigma = _preset_sigma("fig6_strong")
    with criterion(2, f"fig 6 double blocking at the fig6_strong sigma={sigma:g}, L=2.5"):
        t0 = time.monotonic()
        drift = DriftField.radial("gauss_out", sigma)
        g = DomainGeometry.interval(2.5)
        v0 = asymptotic_verdict(GridProfile(g, np.ones(201)), nl, drift, 0.0,
                                T_max=150.0, dt=0.02)
        v1 = asymptotic_verdict(GridProfile(g, np.zeros(201)), nl, drift, 1.0,
                                T_max=150.0, dt=0.02)
        assert v0.status == "blocked", f"run to 0 {v0.status} at sigma={sigma:g}"
        assert v1.status == "blocked", f"run to 1 {v1.status} at sigma={sigma:g}"
        witness = find_barrier_zero(nl, drift, g, n_grid=201)
        assert witness is not None, f"no barrier-to-0 witness at sigma={sigma:g}"
        assert np.min(v0.residual_profile.values - witness.profile.values) >= -1e-6
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_spectral_exactness():
    with criterion(3, "interval eigenvalues exact to 1e-4, order ~2"):
        for L in (1.0, 2.5):
            lam = dirichlet_lambda1(DomainGeometry.interval(L), 512).lambda_
            assert abs(lam - interval_lambda1(L)) / interval_lambda1(L) < 1e-4
        errs = []
        for n in (64, 128, 256, 512):
            lam = dirichlet_lambda1(DomainGeometry.interval(1.0), n).lambda_
            errs.append(abs(lam - interval_lambda1(1.0)))
        hs = [2.0 / (n - 1) for n in (64, 128, 256, 512)]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2


def test_criterion_4_certificate_barrier_sweep(nl):
    L_c = homogeneous_critical_length(THETA)
    with criterion(4, f"certificate => no barrier, barriers iff L >= L_c={L_c:.3g}, "
                      "crossover ~1.918"):
        homog = DriftField.homogeneous()
        crossover_lo, crossover_hi = [], []
        unsound, wrong_side = [], []
        for L in np.linspace(0.5, 4.0, 20):
            g = DomainGeometry.interval(float(L))
            holds = uniqueness_certificate(nl, homog, g).holds
            barrier = find_barrier_zero(nl, homog, g, n_grid=401)
            if holds:
                crossover_lo.append(L)
            else:
                crossover_hi.append(L)
            if holds and barrier is not None:
                unsound.append(float(L))
            if (barrier is None) != (L < L_c):
                wrong_side.append((float(L), barrier is not None))
        assert not unsound, f"certificate holds but a barrier exists at L={unsound}"
        assert not wrong_side, (
            f"(L, barrier found) {wrong_side} contradict the time-map threshold "
            f"L_c={L_c:.3f}: homogeneous barriers exist iff L >= L_c")
        L_star = 0.5 * (max(crossover_lo) + min(crossover_hi))
        target = math.pi / (2 * math.sqrt(0.67))
        assert abs(L_star - target) / target < 0.10


def test_criterion_5_unblocking_scaling(nl):
    with criterion(5, "lambda_sigma ratio ~2 and full controllability at sigma<=0.25"):
        t0 = time.monotonic()
        g6 = DomainGeometry.interval(6.0)
        lams = {s: lambda_sigma(g6, DriftField.radial("gauss_in", s), 1024).lambda_
                for s in (1.0, 0.5, 0.25)}
        assert 1.8 < lams[0.5] / lams[1.0] < 2.2
        assert 1.8 < lams[0.25] / lams[0.5] < 2.2
        rep = controllability_report(nl, DriftField.radial("gauss_in", 0.25),
                                     DomainGeometry.interval(4.0),
                                     n=161, dt=0.02, T_max=80.0)
        assert rep["to_zero"].status == "converged"
        assert rep["to_one"].status == "converged"
        assert rep["to_theta"].status == "converged"
        assert time.monotonic() - t0 < 60.0


def test_criterion_6_r_theta_monotone(nl):
    with criterion(6, "r_theta strictly increasing as alpha shrinks"):
        drift = DriftField.radial("gauss_out", 40.0)
        radii = []
        for a in (0.2, 0.1, 0.05, 0.025, 0.0125):
            t = shoot_radial(nl, drift, a, 1, 30.0, 1e-2)
            radii.append(t.events["r_theta"])
        assert all(r2 - r1 > 1e-6 for r1, r2 in zip(radii, radii[1:]))
        assert radii[-1] > radii[0] + 2.0  # grows without plateau in range


def test_criterion_7_energy_threshold(nl):
    with criterion(7, "finite sigma* with bracketing signs and solvable minimizer"):
        g = DomainGeometry.interval(2.5)
        drift = DriftField.radial("gauss_out", 1.0)  # base N = e^{-x^2/2}
        eta = plateau_ramp_eta(0.5, g, 2049)
        sigma_star, status = negative_energy_sigma_threshold(nl, drift, eta)
        assert status == "bracketed" and 0.0 < sigma_star < math.inf
        drift_eff = DriftField.radial("gauss_out", sigma_star / 2)
        low = energy_sigma(nl, drift_eff, eta)
        high = energy_sigma(nl, DriftField.radial("gauss_out", 2 * sigma_star), eta)
        assert low.value < 0.0 < high.value
        n = 513
        prof, rep = minimize_energy_sigma(nl, drift_eff, p_init=plateau_ramp_eta(0.5, g, n))
        assert rep.value < 0.0
        ops = assemble_operator(g, n, drift_eff)
        vals, _ = newton_steady(g, ops, nl, prof.values, 0.0)
        assert steady_residual(g, ops, nl, vals) < 1e-5
        assert np.max(vals) > 0.1  # non-trivial steady state


def test_criterion_8_laplace_ratio():
    with criterion(8, "Laplace ratio -> sqrt(pi)/2 within 1% at eps=1e-4"):
        ratios = laplace_ratio_check(1.0, 1, lambda t: np.ones_like(np.asarray(t, float)),
                                     [1e-2, 1e-3, 1e-4])
        target = math.sqrt(math.pi) / 2.0
        assert abs(ratios[-1] - target) / target < 0.01


def test_criterion_9_gene_flow_equivalence(nl):
    with criterion(9, "transform equivalence refines ~4x; script_N(theta) exact; "
                      "f~ bistable with Allee root script_N(theta)"):
        gf = build_map(lambda p: 1.0 + np.asarray(p, dtype=float))
        assert abs(float(gf.script_N(THETA)) - ((1.33) ** 3 - 1) / 7) < 1e-10
        # construction validates the three roots and F~(1) > 0
        assert tilde_nonlinearity(gf, nl).theta == float(gf.script_N(THETA))
        g = DomainGeometry.interval(1.0)
        discs = []
        for lev in range(3):
            n = 51 * 2**lev - (2**lev - 1)
            dt = 0.004 / 2**lev
            x = g.grid(n)
            p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * x)) * THETA)
            discs.append(equivalence_check(nl, lambda p: 1.0 + np.asarray(p, dtype=float),
                                           p0, 0.0, T=2.0, dt=dt, snapshot_every=25))
        assert 3.5 < discs[0] / discs[1] < 4.5
        assert 3.5 < discs[1] / discs[2] < 4.5


def test_criterion_10_staircase_and_mintime_trends(nl):
    with criterion(10, "staircase success and min-time trends"):
        t0 = time.monotonic()
        g1 = DomainGeometry.interval(1.0)
        res = staircase_to_theta(GridProfile(g1, np.ones(101)), nl, DriftField.homogeneous(),
                                 delta1=0.05, T1=20.0, T_max=200.0, dt=0.02)
        assert res.success
        assert res.control_min >= 0.0 and res.control_max <= 1.0

        g25 = DomainGeometry.interval(2.5)
        grid_in = list(np.geomspace(1.0, 150.0, 20))
        rows_in = mintime_scan("gauss_in", [40.0, 10.0, 2.5, 0.625], nl, g25,
                               grid_in, n=101, dt=0.02)
        times_in = [r.T_min for r in rows_in]
        assert all(math.isfinite(t) for t in times_in)
        assert all(b <= a for a, b in zip(times_in, times_in[1:]))
        assert times_in[-1] < times_in[0]

        rows_out = mintime_scan("gauss_out", [40.0, 16.0, 8.0, 4.0], nl, g25,
                                list(np.geomspace(2.0, 500.0, 24)), n=101, dt=0.02)
        times_out = [r.T_min for r in rows_out]
        assert times_out[-1] == math.inf            # +inf tail
        finite = [t for t in times_out if math.isfinite(t)]
        assert finite and all(b >= a for a, b in zip(finite, finite[1:]))
        assert time.monotonic() - t0 < 300.0


def test_criterion_11_invariant_suite(nl):
    with criterion(11, "comparison, invariant region, fixed points, energy law"):
        g = DomainGeometry.interval(2.5)
        drift = DriftField.radial("gauss_out", 2.0)
        rng = np.random.default_rng(42)
        st = _Stepper(g, 81, drift, nl, 0.05)
        # discrete comparison principle on 50 random ordered pairs
        for _ in range(50):
            lo = rng.uniform(0.0, 0.8, 81)
            hi = np.clip(lo + rng.uniform(0.0, 0.2, 81), 0.0, 1.0)
            for _ in range(15):
                u = float(rng.uniform(0.0, 1.0))
                lo, hi = st.advance(lo, u, u), st.advance(hi, u, u)
            assert np.min(hi - lo) >= -1e-9

        # invariant region under admissible controls
        vals = rng.uniform(0.0, 1.0, 81)
        for _ in range(100):
            u = float(rng.uniform(0.0, 1.0))
            vals = st.advance(vals, u, u)
            assert -1e-9 <= np.min(vals)
            assert np.max(vals) <= 1.0 + 1e-9

        # steady states are fixed points of the dynamics
        b = find_barrier_zero(nl, DriftField.radial("gauss_out", 1.0), g, n_grid=121)
        st = _Stepper(g, 121, DriftField.radial("gauss_out", 1.0), nl, 0.02)
        vals = b.profile.values
        for _ in range(50):
            vals = st.advance(vals, 0.0, 0.0)
        assert np.max(np.abs(vals - b.profile.values)) < 1e-9

        # discrete phase-energy derivative law, second order
        defects = []
        for h in (4e-3, 2e-3):
            t = shoot_radial(nl, DriftField.radial("gauss_out", 40.0), 0.05, 1, 4.0, h)
            E = 0.5 * t.v**2 + np.asarray(nl.F(t.p))
            gg = (2.0 * t.r / 40.0) * t.v**2
            rhs = np.cumsum(0.5 * (gg[1:] + gg[:-1]) * np.diff(t.r))
            defects.append(np.max(np.abs(E[1:] - E[0] - rhs)))
        assert defects[1] < 1e-8
