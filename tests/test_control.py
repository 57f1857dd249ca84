import math

import numpy as np
import pytest

from rdcontrol.control import (
    controllability_report,
    minimal_time_to_theta,
    mintime_scan,
    staircase_to_theta,
)
from rdcontrol.errors import InvalidInput
from rdcontrol.model import DomainGeometry, DriftField, GridProfile


class TestStaircase:
    def test_homogeneous_small_interval_from_one(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.ones(101))
        res = staircase_to_theta(p0, nl033, homog, interval_1, delta1=0.05,
                                 T1=20.0, T_max=200.0, dt=0.02)
        assert res.success
        assert res.terminal_error <= 0.05
        assert 0.0 <= res.control_min and res.control_max <= 1.0
        assert all(leg.sup_error <= 0.05 for leg in res.legs)

    def test_already_at_target(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.full(101, 0.33))
        res = staircase_to_theta(p0, nl033, homog, interval_1, delta1=0.05,
                                 T1=10.0, T_max=100.0, dt=0.02)
        assert res.success
        # step 1 must still run (state is far from 0), so only assert success
        assert res.terminal_error <= 0.05

    def test_blocked_by_barrier_reports_step1(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        g = DomainGeometry.interval(2.5)
        p0 = GridProfile(g, np.ones(201))
        res = staircase_to_theta(p0, nl033, drift, g, delta1=0.05, T1=10.0,
                                 T_max=120.0, dt=0.02)
        assert not res.success
        assert res.stage == "step1"
        assert res.reason == "barrier-to-0"

    def test_controls_always_admissible(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.ones(101))
        res = staircase_to_theta(p0, nl033, homog, interval_1, delta1=0.05,
                                 T1=20.0, T_max=200.0, dt=0.02, gain=3.0)
        # even with an aggressive gain the clamp keeps controls in range
        assert res.control_min >= 0.0 and res.control_max <= 1.0


class TestReport:
    def test_unblocking_regime_all_targets(self, nl033):
        drift = DriftField.radial("gauss_in", 0.25)
        g = DomainGeometry.interval(4.0)
        rep = controllability_report(nl033, drift, g, n=161, dt=0.02, T_max=80.0)
        assert rep["to_zero"].status == "converged"
        assert rep["to_one"].status == "converged"
        assert rep["to_theta"].status == "converged"

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
