import math

import numpy as np
import pytest

from rdcontrol.control import (
    _fits,
    controllability_report,
    minimal_time_to_theta,
    mintime_scan,
    staircase_to_theta,
)
from rdcontrol.errors import InvalidInput, SolverFailure
from rdcontrol.model import DomainGeometry, DriftField, GridProfile
from rdcontrol.scenario import load_scenario
from rdcontrol.steady import build_steady_path


class TestStaircase:
    def test_homogeneous_small_interval_from_one(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.ones(101))
        res = staircase_to_theta(p0, nl033, homog, delta1=0.05, T1=20.0, T_max=200.0, dt=0.02)
        assert res.success
        assert res.terminal_error <= 0.05
        assert 0.0 <= res.control_min and res.control_max <= 1.0
        assert all(leg.sup_error <= 0.05 for leg in res.legs)

    def test_already_at_target(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.full(101, 0.33))
        res = staircase_to_theta(p0, nl033, homog, delta1=0.05, T1=10.0, T_max=100.0, dt=0.02)
        assert res.success
        # step 1 must still run (state is far from 0), so only assert success
        assert res.terminal_error <= 0.05

    def test_blocked_by_barrier_reports_step1(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        g = DomainGeometry.interval(2.5)
        p0 = GridProfile(g, np.ones(201))
        res = staircase_to_theta(p0, nl033, drift, delta1=0.05, T1=10.0, T_max=120.0, dt=0.02)
        assert not res.success
        assert res.stage == "step1"
        assert res.reason == "barrier-to-0"

    def test_step1_short_horizon_is_not_a_barrier(self):
        # Step 1 is decided by dynamics.verdict: at T_max = 2 the run from 1
        # has neither reached delta1/2 nor stalled, so it cannot tell
        sc = load_scenario({"preset": "fig6_strong"})
        with pytest.raises(SolverFailure, match="horizon-too-short"):
            staircase_to_theta(GridProfile(sc.geometry, np.ones(sc.n)), sc.nl, sc.drift,
                               T_max=2.0, dt=sc.dt)

    def test_leg_success_step_does_not_depend_on_budget(self, nl033, homog, interval_1):
        # the sup-error is checked after every step, so a leg that succeeds
        # under a long budget succeeds at the same step under any budget
        # that reaches that step
        p0 = GridProfile(interval_1, np.zeros(101))
        long = staircase_to_theta(p0, nl033, homog, T1=20.0, T_max=400.0)
        assert long.success
        tight = max(leg.steps for leg in long.legs) * 0.02
        short = staircase_to_theta(p0, nl033, homog, T1=tight, T_max=400.0)
        assert short.success
        assert [leg.steps for leg in short.legs] == [leg.steps for leg in long.legs]
        assert short.total_time == long.total_time
        for leg in long.legs:
            assert leg.sup_error <= 0.025
            assert leg.duration == pytest.approx(leg.steps * 0.02, abs=1e-12)

    @pytest.mark.parametrize("delta1, T1, match", [(0.0, 20.0, "delta1 must be positive"),
                                                   (0.05, 0.0, "T1 must be positive"),
                                                   (0.05, -5.0, "T1 must be positive")])
    def test_nonpositive_delta1_or_T1_is_rejected(self, nl033, homog, interval_1, delta1, T1,
                                                  match):
        p0 = GridProfile(interval_1, np.zeros(101))
        with pytest.raises(InvalidInput, match=f"invalid-scalar: {match}"):
            staircase_to_theta(p0, nl033, homog, delta1=delta1, T1=T1, T_max=10.0)

    def test_tiny_T1_runs_one_step_per_leg(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.zeros(101))
        res = staircase_to_theta(p0, nl033, homog, T1=1e-9, T_max=10.0)
        assert [leg.steps for leg in res.legs] == [1] * len(res.legs) and res.legs
        assert res.reason == "leg-stall"

    @pytest.mark.parametrize("geometry, n", [(DomainGeometry.interval(1.0), 101),
                                             (DomainGeometry.interval(2.0), 201)])
    def test_path_off_the_grid_of_p0_is_rejected(self, nl033, homog, geometry, n):
        # a path on another node count or another domain than p0 is no target for p0
        path = build_steady_path(nl033, homog, geometry, delta=0.025, n_grid=n)
        p0 = GridProfile(DomainGeometry.interval(1.0), np.zeros(201))
        with pytest.raises(InvalidInput, match="invalid-path"):
            staircase_to_theta(p0, nl033, homog, T_max=10.0, path=path)

    def test_last_leg_past_the_horizon_fails(self, nl033, homog, interval_1):
        # the last leg's budget rounds up to the step that reaches its target,
        # which ends 0.4 dt past T_max: the staircase fails like the replay
        p0 = GridProfile(interval_1, np.zeros(101))
        long = staircase_to_theta(p0, nl033, homog, T1=20.0, T_max=400.0, dt=0.02)
        assert long.success
        T = long.total_time - 0.4 * 0.02
        res = staircase_to_theta(p0, nl033, homog, T1=20.0, T_max=T, dt=0.02)
        assert not res.success
        assert res.reason == "budget-exhausted"
        assert res.stage == f"leg{len(long.legs)}"
        assert res.total_time == long.total_time
        assert not _fits(long.legs, T, 1, 0.02)


class TestReport:
    def test_unblocking_regime_all_targets(self, nl033):
        drift = DriftField.radial("gauss_in", 0.25)
        g = DomainGeometry.interval(4.0)
        rep = controllability_report(nl033, drift, g, n=161, dt=0.02, T_max=80.0)
        assert rep["to_zero"].status == "converged"
        assert rep["to_one"].status == "converged"
        assert rep["to_theta"].status == "converged"

    @pytest.mark.parametrize("delta1, T1", [(0.05, 0.0), (0.0, 20.0)])
    def test_delta1_and_T1_are_checked_before_any_time_step(self, nl033, homog, interval_1,
                                                             monkeypatch, delta1, T1):
        from rdcontrol import control

        def no_verdict(*args, **kwargs):
            pytest.fail("a static verdict ran before the staircase scalars were checked")

        monkeypatch.setattr(control, "asymptotic_verdict", no_verdict)
        with pytest.raises(InvalidInput, match="invalid-scalar"):
            controllability_report(nl033, homog, interval_1, n=101, dt=0.02, T_max=10.0,
                                   delta1=delta1, T1=T1)

    def test_unblocking_preset_theta_time(self):
        # every leg ends at its first in-tolerance step
        sc = load_scenario({"preset": "unblocking"})
        rep = controllability_report(sc.nl, sc.drift, sc.geometry, n=sc.n, dt=sc.dt,
                                     T_max=sc.T)
        tv = rep["to_theta"]
        assert tv.status == "converged"
        assert tv.time == pytest.approx(4.54, abs=1e-9)
        assert tv.detail.legs
        assert all(leg.sup_error <= 0.05 / 2.0 for leg in tv.detail.legs)

    def test_d1_ball_witnesses_live_on_the_ball(self, nl033):
        # a d = 1 ball is [0, R]: its witnesses are searched on that grid
        g = DomainGeometry.ball(2.5, 1)
        rep = controllability_report(nl033, DriftField.radial("gauss_out", 1.0), g, n=61,
                                     dt=0.05, T_max=60.0)
        for tv in rep.values():
            assert tv.status == "blocked"
            assert (tv.witness.profile.geometry, tv.witness.profile.n) == (g, 61)

    def test_double_blocking_regime(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        g = DomainGeometry.interval(2.5)
        rep = controllability_report(nl033, drift, g, n=201, dt=0.02, T_max=80.0)
        assert rep["to_zero"].status == "blocked"
        assert rep["to_one"].status == "blocked"
        assert rep["to_zero"].witness is not None
        assert rep["to_zero"].witness.residual < 1e-6
        assert rep["to_one"].witness is not None
        assert rep["to_theta"].status in ("blocked", "failure")

    def test_infection_drift_matches_transformed_small_domain(self, nl033):
        # N = N(p): verdicts equal those of the homogeneous problem on a
        # certificate-region domain (Allee target via the transform)
        from rdcontrol.transform import build_map, tilde_nonlinearity

        g = DomainGeometry.interval(1.0)
        homog = DriftField.homogeneous()
        gf = build_map(lambda p: 1.0 + np.asarray(p, dtype=float))
        tnl = tilde_nonlinearity(gf, nl033)
        rep_t = controllability_report(tnl, homog, g, n=101, dt=0.02, T_max=80.0)
        rep_h = controllability_report(nl033, homog, g, n=101, dt=0.02, T_max=80.0)
        for key in ("to_zero", "to_one", "to_theta"):
            assert rep_t[key].status == rep_h[key].status == "converged"


class TestMinTime:
    def test_homogeneous_feasible_and_bracketed(self, nl033, homog, interval_1):
        grid = list(np.geomspace(1.0, 120.0, 18))
        res = minimal_time_to_theta(nl033, homog, interval_1, grid, n=101, dt=0.02)
        assert math.isfinite(res.T_min)
        # stability to grid refinement: one step down must be infeasible,
        # re-running with a finer grid moves T_min by at most one cell
        idx = grid.index(res.T_min)
        assert idx > 0
        fine = list(np.geomspace(grid[idx - 1], grid[min(idx + 1, len(grid) - 1)], 8))
        res2 = minimal_time_to_theta(nl033, homog, interval_1, fine, n=101, dt=0.02)
        assert res2.T_min <= res.T_min + 1e-9

    def test_gauss_in_trend(self, nl033):
        g = DomainGeometry.interval(2.5)
        grid = list(np.geomspace(1.0, 150.0, 20))
        rows = mintime_scan("gauss_in", [40.0, 10.0, 2.5, 0.625], nl033, g, grid,
                            n=101, dt=0.02)
        times = [r.T_min for r in rows]
        assert all(math.isfinite(t) for t in times)
        assert all(t2 <= t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] < times[0]
        assert times == pytest.approx([67.998, 52.236, 23.680, 8.246], abs=1e-3)

    def test_gauss_out_blowup_tail(self, nl033):
        g = DomainGeometry.interval(2.5)
        grid = list(np.geomspace(2.0, 500.0, 24))
        rows = mintime_scan("gauss_out", [40.0, 16.0, 8.0, 4.0], nl033, g, grid,
                            n=101, dt=0.02)
        times = [r.T_min for r in rows]
        finite = [t for t in times if math.isfinite(t)]
        assert len(finite) >= 1
        assert all(t2 >= t1 for t1, t2 in zip(finite, finite[1:]))  # blow-up
        assert times[-1] == math.inf  # +inf tail
        assert times == pytest.approx([93.146, 118.419, 191.398, math.inf], abs=1e-3)

    @pytest.mark.parametrize("family, sigma", [("gauss_in", 0.625), ("sin", 0.25),
                                               ("gauss_out", 8.0), ("abs_exp", 1.0)])
    def test_equals_direct_staircase_at_every_horizon(self, nl033, family, sigma):
        # the replay from one recorded staircase picks the same horizon as a
        # direct staircase run at each horizon of the grid
        g = DomainGeometry.interval(2.5)
        drift = DriftField.radial(family, sigma)
        grid = np.geomspace(2.0, 300.0, 36)
        path = build_steady_path(nl033, drift, g, delta=0.025, n_grid=101)
        n_legs = len(path) - 1
        zeros = GridProfile(g, np.zeros(101))
        direct = []
        for T in grid:
            res = staircase_to_theta(zeros, nl033, drift, delta1=0.05, T1=T / n_legs, T_max=T,
                                     dt=0.02, path=path)
            direct.append(res.success)
        assert direct == sorted(direct)  # direct feasibility is monotone in T
        assert 0 < direct.index(True)    # the grid brackets the minimal time
        res = minimal_time_to_theta(nl033, drift, g, list(grid), n=101, dt=0.02)
        assert res.T_min == grid[direct.index(True)]

    @pytest.mark.parametrize("grid, match", [([10.0, math.inf], "finite and positive"),
                                             ([10.0, math.nan], "finite and positive"),
                                             ([10.0, 0.0], "finite and positive"),
                                             ([], "non-empty")])
    def test_bad_horizons(self, nl033, interval_1, grid, match):
        with pytest.raises(InvalidInput, match=match):
            minimal_time_to_theta(nl033, DriftField.homogeneous(), interval_1, grid)

    def test_invalid_family(self, nl033, interval_1):
        with pytest.raises(InvalidInput, match="invalid-family"):
            mintime_scan("nope", [1.0], nl033, interval_1, [10.0])

    def test_constant_family_column(self, nl033, interval_1):
        # parameter-independent scenario: homogeneous == gauss family at
        # enormous sigma; the column is constant
        grid = list(np.geomspace(1.0, 120.0, 18))
        rows = mintime_scan("gauss_out", [1e8, 1e9], nl033, interval_1, grid,
                            n=101, dt=0.02)
        assert rows[0].T_min == rows[1].T_min
