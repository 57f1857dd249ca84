import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_simulate
from rdcontrol.dynamics import (
    ControlSchedule,
    _Stepper,
    asymptotic_verdict,
    simulate,
    verdict,
)
from rdcontrol.errors import InvalidInput, SolverFailure
from rdcontrol.model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from rdcontrol.scenario import load_scenario
from rdcontrol.steady import find_barrier_one, find_barrier_zero


def hold(st, vals, u, steps):
    """``steps`` advances of one stepper under the static control u."""
    for _ in range(steps):
        vals = st.advance(vals, u, u)
    return vals


class TestStep:
    def test_theta_equilibrium(self, nl033, homog, interval_25):
        st = _Stepper(interval_25, 201, homog, nl033, 0.02)
        vals = hold(st, np.full(201, 0.33), 0.33, 20)
        assert np.max(np.abs(vals - 0.33)) < 1e-13

    def test_zero_stays_zero(self, nl033, homog, interval_25):
        st = _Stepper(interval_25, 201, homog, nl033, 0.02)
        assert np.max(np.abs(st.advance(np.zeros(201), 0.0, 0.0))) == 0.0

    def test_barrier_is_fixed_point(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        b = find_barrier_zero(nl033, drift, DomainGeometry.interval(2.5), n_grid=201)
        st = _Stepper(b.profile.geometry, b.profile.n, drift, nl033, 0.02)
        vals = hold(st, b.profile.values, 0.0, 50)
        # sup-change per unit time far below 1e-6
        assert np.max(np.abs(vals - b.profile.values)) < 1e-9

    def test_dt_too_large(self, nl033, homog, interval_25):
        with pytest.raises(InvalidInput, match="dt-too-large"):
            _Stepper(interval_25, 201, homog, nl033, 1.6)  # dt * 0.67 > 1


class TestFiniteness:
    """The stepper evaluates f unchecked; the solve's check is the one
    finiteness guard of a step, and the public entry points keep theirs."""

    def test_overflowing_step_raises(self, nl033, homog, interval_25):
        # a finite state whose cubic overflows to -inf inside the step
        st = _Stepper(interval_25, 201, homog, nl033, 0.02)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverFailure, match="solver-failure: non-finite tridiagonal solution"):
            st.advance(np.full(201, 1e200), 0.0, 0.0)

    def test_public_entry_points_reject_non_finite_input(self, nl033, interval_25):
        from rdcontrol.elliptic import factor_tridiagonal, solve_tridiagonal

        for bad in (np.nan, np.inf, np.array([0.5, -np.inf])):
            with pytest.raises(InvalidInput, match="invalid-scalar: non-finite evaluation point"):
                nl033.f(bad)
        with pytest.raises(InvalidInput, match="invalid-profile: non-finite values"):
            GridProfile(interval_25, np.array([0.0, np.nan, 0.0]))
        factor = factor_tridiagonal(np.zeros(3), np.ones(3), np.zeros(3))
        with pytest.raises(SolverFailure, match="solver-failure: non-finite tridiagonal solution"):
            solve_tridiagonal(factor, np.array([0.0, np.nan, 0.0]))


class TestInvariants:
    def test_invariant_region(self, nl033, interval_25):
        rng = np.random.default_rng(5)
        drift = DriftField.radial("gauss_out", 2.0)
        vals = rng.uniform(0.0, 1.0, 201)
        vals[0] = vals[-1] = 0.5
        st = _Stepper(interval_25, 201, drift, nl033, 0.02)
        for k in range(200):
            u = float(rng.uniform(0.0, 1.0))
            vals = st.advance(vals, u, u)
            assert np.min(vals) >= -1e-9
            assert np.max(vals) <= 1.0 + 1e-9

    def test_comparison_principle(self, nl033, interval_25):
        # 50 random ordered pairs under identical random controls
        rng = np.random.default_rng(12)
        drift = DriftField.radial("gauss_out", 2.0)
        st = _Stepper(DomainGeometry.interval(2.5), 101, drift, nl033, 0.05)
        for _ in range(50):
            lo = rng.uniform(0.0, 0.8, 101)
            hi = np.clip(lo + rng.uniform(0.0, 0.2, 101), 0.0, 1.0)
            for _ in range(25):
                u = float(rng.uniform(0.0, 1.0))
                lo, hi = st.advance(lo, u, u), st.advance(hi, u, u)
            assert np.min(hi - lo) >= -1e-9

    def test_even_symmetry_preserved(self, nl033, interval_25):
        x = interval_25.grid(201)
        vals = 0.5 * (1.0 + np.cos(np.pi * x / 2.5)) * 0.8
        drift = DriftField.radial("gauss_out", 2.0)  # even coefficient profile
        v = hold(_Stepper(interval_25, 201, drift, nl033, 0.02), vals, 0.3, 200)
        assert np.max(np.abs(v - v[::-1])) < 1e-10

    def test_steady_path_members_are_fixed_points(self, nl033, homog, interval_1):
        from rdcontrol.steady import build_steady_path

        path = build_steady_path(nl033, homog, interval_1, delta=0.1, n_grid=101)
        member = path.profiles[len(path) // 2]
        trace = float(member.values[0])
        vals = hold(_Stepper(interval_1, 101, homog, nl033, 0.02), member.values, trace, 100)
        assert np.max(np.abs(vals - member.values)) < 1e-10


class TestStepProperties:
    @given(theta=st.floats(0.30, 0.36), sigma=st.floats(0.8, 1.25),
           n=st.integers(17, 201), L=st.floats(1.0, 4.0),
           family=st.sampled_from(["gauss_out", "gauss_in", "abs_exp", "sin"]),
           seed=st.integers(0, 2**32 - 1))
    def test_comparison_and_invariant_region(self, theta, sigma, n, L, family, seed):
        nl = BistableNonlinearity.cubic(theta)
        drift = DriftField.radial(family, sigma)
        stepper = _Stepper(DomainGeometry.interval(L), n, drift, nl, 0.05)
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 1.0, n)
        hi = np.clip(lo + rng.uniform(0.0, 0.3, n), 0.0, 1.0)
        for _ in range(30):
            u = float(rng.uniform(0.0, 1.0))
            lo, hi = stepper.advance(lo, u, u), stepper.advance(hi, u, u)
            assert np.min(hi - lo) >= -1e-9
            for vals in (lo, hi):
                assert np.min(vals) >= -1e-9
                assert np.max(vals) <= 1.0 + 1e-9

    @given(theta=st.floats(0.30, 0.36), sigma=st.floats(0.8, 1.25),
           n=st.sampled_from([101, 201]), L=st.floats(2.2, 3.5), boundary=st.sampled_from([0, 1]))
    def test_returned_barrier_is_fixed_point(self, theta, sigma, n, L, boundary):
        nl = BistableNonlinearity.cubic(theta)
        drift = DriftField.radial("gauss_out", sigma)
        finder = find_barrier_one if boundary else find_barrier_zero
        b = finder(nl, drift, DomainGeometry.interval(L), n_grid=n)
        if b is None:
            return
        stepper = _Stepper(b.profile.geometry, n, drift, nl, 0.02)
        vals = hold(stepper, b.profile.values, float(boundary), 20)
        assert np.max(np.abs(vals - b.profile.values)) <= 1e-9


class TestSimulate:
    def test_snapshots_and_distances(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.ones(101))
        sim = simulate(p0, nl033, homog, ControlSchedule.static(0.0), T=2.0, dt=0.02,
                       snapshot_every=20)
        assert sim.times[0] == 0.0 and sim.times[-1] == pytest.approx(2.0)
        assert len(sim.snapshots) == len(sim.times)
        dist = np.array([np.max(np.abs(snap.values)) for snap in sim.snapshots])
        assert dist[0] == pytest.approx(1.0)
        assert np.all(np.diff(dist) <= 1e-12)  # monotone decay run

    def test_drifts_with_equal_sigma_do_not_share_an_operator(self, nl033):
        # two radial drifts that differ only in their family
        g = DomainGeometry.interval(2.0)
        p0 = GridProfile(g, np.ones(101))
        for drift in (DriftField.radial("gauss_out", 1.0), DriftField.radial("gauss_in", 1.0)):
            sim = simulate(p0, nl033, drift, ControlSchedule.static(0.0), T=5.0, dt=0.01)
            vals = hold(_Stepper(g, 101, drift, nl033, 0.01), p0.values, 0.0, 500)
            assert np.array_equal(sim.snapshots[-1].values, vals)

    @pytest.mark.parametrize("every", [0, -3])
    def test_snapshot_cadence_must_be_positive(self, nl033, homog, interval_1, every):
        p0 = GridProfile(interval_1, np.ones(101))
        with pytest.raises(InvalidInput, match="snapshot_every"):
            simulate(p0, nl033, homog, ControlSchedule.static(0.0), T=1.0, dt=0.02,
                     snapshot_every=every)

    def test_schedule_clamps(self):
        assert ControlSchedule.static(1.7).value == 1.0
        assert ControlSchedule.static(-0.1).value == 0.0


def _preset_runs(preset, theta=None):
    """(u, p0, scenario) of each target of a simulate preset, started as
    ``cli._run_simulate`` starts it; theta replaces the cubic's root."""
    raw = {"preset": preset}
    if theta is not None:
        raw["f"] = {"kind": "cubic", "theta": theta}
    sc = load_scenario(raw)
    return [(a, GridProfile(sc.geometry, np.full(sc.n, 1.0 - a if start is None else start)), sc)
            for a, start in sc.targets]


class TestRepeatedSnapshots:
    """simulate reuses the cycle after a repeated snapshot instead of
    stepping through it; the results are the full march's bit for bit."""

    @pytest.mark.parametrize("preset, theta", [("fig6_strong", None), ("fig7", None),
                                               ("fig6", 0.30), ("fig6", 0.33), ("fig6", 0.36)])
    def test_same_bits_as_the_reference(self, preset, theta):
        for a, p0, sc in _preset_runs(preset, theta):
            schedule = ControlSchedule.static(a)
            # every state of the full march; a cadence keeps some of them
            ref = reference_simulate(p0, sc.nl, sc.drift, schedule, sc.T, sc.dt, snapshot_every=1)
            n_steps = len(ref.snapshots) - 1
            for every in (1, 7, 75, 100, 333):  # 333 leaves a remainder on every preset
                sim = simulate(p0, sc.nl, sc.drift, schedule, sc.T, sc.dt, snapshot_every=every)
                kept = sorted(set(range(0, n_steps, every)) | {n_steps})
                assert sim.times.tobytes() == ref.times[kept].tobytes(), (a, every)
                assert ([s.values.tobytes() for s in sim.snapshots]
                        == [ref.snapshots[k].values.tobytes() for k in kept]), (a, every)

    def test_step_counts_at_the_preset_cadence(self, monkeypatch):
        # fig7's p0 = 1 lane enters a period-2 cycle that its odd cadence of
        # 75 steps sees only against the snapshot before the previous one
        counts = {"advance": 0, "profiles": 0}
        advance, post_init = _Stepper.advance, GridProfile.__post_init__

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        runs = [(preset, run) for preset in ("fig6_strong", "fig7") for run in _preset_runs(preset)]
        monkeypatch.setattr(_Stepper, "advance", counting("advance", advance))
        monkeypatch.setattr(GridProfile, "__post_init__", counting("profiles", post_init))
        taken = {}
        for preset, (a, p0, sc) in runs:
            counts.update(advance=0, profiles=0)
            simulate(p0, sc.nl, sc.drift, ControlSchedule.static(a), sc.T, sc.dt,
                     snapshot_every=max(1, int(round(sc.T / sc.dt / 40))))
            taken[preset, a, p0.values[0]] = counts["advance"]
            assert counts["profiles"] == counts["advance"] + 1  # one per step and the start
        assert taken == {("fig6_strong", 0.0, 1.0): 2300, ("fig6_strong", 1.0, 0.0): 4000,
                         ("fig7", 0.33, 1.0): 1575, ("fig7", 0.33, 0.0): 2850}


class TestVerdicts:
    def test_rule(self, interval_1):
        def checks(gaps, seen):
            for t, gap in gaps:
                seen.append(t)
                yield t, np.full(5, gap)

        seen = []
        v = verdict(checks([(1.0, 0.5), (2.0, 5e-4), (3.0, 0.0)], seen), 0.0, 3.0, interval_1)
        assert (v.status, v.time, v.residual_sup, v.stall, v.horizon) == \
            ("converged", 2.0, 5e-4, None, 3.0)
        assert seen == [1.0, 2.0]  # consumed no further than the first converged check
        # the stall counts from the first check at t >= 0.9 * horizon (9.5, not 8.0)
        tail = [(1.0, 0.5), (8.0, 0.3), (9.5, 0.2), (10.0, 0.2 + 9e-5)]
        v = verdict(checks(tail, []), 0.0, 10.0, interval_1)
        assert v.status == "blocked" and v.time is None and v.horizon == 10.0
        assert v.residual_sup == pytest.approx(0.2 + 9e-5)
        assert v.stall == pytest.approx(9e-5) and v.stall < 1e-3 / 10
        assert np.all(v.residual_profile.values == 0.2 + 9e-5)
        tail[-1] = (10.0, 0.2 + 2e-4)
        with pytest.raises(SolverFailure, match=r"horizon-too-short.*gap 0\.2.*stall 0\.0002.*T=10"):
            verdict(checks(tail, []), 0.0, 10.0, interval_1)
        # a stall needs a mark before the last check: the horizon alone measures none
        with pytest.raises(SolverFailure, match=r"horizon-too-short.*stall inf"):
            verdict(checks([(1.0, 0.5), (10.0, 0.2)], []), 0.0, 10.0, interval_1)
        with pytest.raises(InvalidInput, match="tol must be positive"):
            verdict(checks(tail, []), 0.0, 10.0, interval_1, tol=0.0)

    def test_trivial_convergence(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.full(101, 0.33))
        v = asymptotic_verdict(p0, nl033, homog, 0.33, T_max=5.0, dt=0.02)
        assert v.status == "converged" and v.time is not None

    def test_certificate_region_converges(self, nl033, homog, interval_1):
        p0 = GridProfile(interval_1, np.ones(101))
        v = asymptotic_verdict(p0, nl033, homog, 0.0, T_max=60.0, dt=0.02)
        assert v.status == "converged"

    def test_blocked_with_barrier(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        g = DomainGeometry.interval(2.5)
        b = find_barrier_zero(nl033, drift, g, n_grid=201)
        v = asymptotic_verdict(GridProfile(g, np.ones(201)), nl033, drift, 0.0,
                               T_max=80.0, dt=0.02)
        assert v.status == "blocked"
        assert v.residual_sup > 0.1
        # trajectory dominates the witness nodewise
        assert np.min(v.residual_profile.values - b.profile.values) >= -1e-6

    def test_blocked_to_one(self, nl033):
        drift = DriftField.radial("gauss_out", 1.0)
        g = DomainGeometry.interval(2.5)
        b = find_barrier_one(nl033, drift, g, n_grid=201)
        v = asymptotic_verdict(GridProfile(g, np.zeros(201)), nl033, drift, 1.0,
                               T_max=80.0, dt=0.02)
        assert v.status == "blocked"
        assert np.max(v.residual_profile.values - b.profile.values) <= 1e-6

    def test_unblocking_strong_inward_drift(self, nl033):
        # N = e^{x^2/2}, sigma small: converges to every target
        drift = DriftField.radial("gauss_in", 0.25)
        g = DomainGeometry.interval(4.0)
        for a in (0.0, 1.0):
            for p0val in (0.0, 1.0):
                v = asymptotic_verdict(GridProfile(g, np.full(161, p0val)), nl033,
                                       drift, a, T_max=60.0, dt=0.02)
                assert v.status == "converged", (a, p0val)

    def test_horizon_too_short(self, nl033, homog):
        g = DomainGeometry.interval(2.5)
        p0 = GridProfile(g, np.ones(201))
        with pytest.raises(SolverFailure, match="horizon-too-short"):
            asymptotic_verdict(p0, nl033, homog, 0.0, T_max=1.0, dt=0.02)
        # only the horizon check is at t >= 0.9 T: no stall, so not blocked (L < L_c)
        with pytest.raises(SolverFailure, match="horizon-too-short"):
            asymptotic_verdict(p0, nl033, homog, 0.0, T_max=0.04, dt=0.02)
