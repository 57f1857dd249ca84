import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import F_quad, homogeneous_critical_length, rk4_fixed
from rdcontrol.elliptic import steady_residual
from rdcontrol.model import BistableNonlinearity, DomainGeometry, DriftField
from rdcontrol.steady import (
    build_steady_path,
    find_barrier_one,
    find_barrier_zero,
    shoot_radial,
)

SIGMA_STRONG = 1.0  # drift strong enough for barriers on L = 2.5 (see below)


class TestShooting:
    def test_equilibrium_alpha_theta(self, nl033, gauss_out):
        t = shoot_radial(nl033, gauss_out, 40.0, 0.33, 1, 5.0, 1e-3)
        assert np.max(np.abs(t.p - 0.33)) < 1e-12
        assert np.max(np.abs(t.v)) < 1e-12
        assert t.events == {}

    def test_initial_conditions(self, nl033, gauss_out):
        t = shoot_radial(nl033, gauss_out, 40.0, 0.05, 1, 8.0, 1e-3)
        assert t.p[0] == 0.05 and t.v[0] == 0.0
        assert np.all(np.diff(t.r) > 0)

    def test_against_fixed_step_rk4_oracle(self, nl033, gauss_out):
        # independent fixed-step RK4 at h = 1e-4, matching start from the
        # same second-order Taylor point
        sigma, alpha = 40.0, 0.05
        t = shoot_radial(nl033, gauss_out, sigma, alpha, 1, 4.0, 1e-3)

        def rhs(r, y):
            p, v = y
            c = (2.0 / sigma) * (-r)
            return np.array([v, -nl033.f(p) - c * v])

        r0 = 1e-4
        y0 = [alpha - 0.5 * nl033.f(alpha) * r0**2, -nl033.f(alpha) * r0]
        ts, ys = rk4_fixed(rhs, y0, r0, 4.0, 40000)
        p_pkg = np.interp(ts, t.r, t.p)
        assert np.max(np.abs(p_pkg - ys[:, 0])) < 1e-6

    def test_crossing_monotone_before_theta(self, nl033, gauss_out):
        # Claim NCL1: p increasing and within (alpha, theta) up to r_theta
        t = shoot_radial(nl033, gauss_out, 40.0, 0.05, 1, 10.0, 1e-3)
        r_theta = t.events["r_theta"]
        assert r_theta is not None and np.isfinite(r_theta)
        mask = t.r <= r_theta
        assert np.min(t.v[mask]) >= -1e-10
        assert abs(np.interp(r_theta, t.r, t.p) - 0.33) < 1e-8

    def test_r_theta_increasing_as_alpha_shrinks(self, nl033, gauss_out):
        # Claim NCL2 along the probed alpha sequence
        radii = []
        for a in (0.2, 0.1, 0.05, 0.025):
            t = shoot_radial(nl033, gauss_out, 40.0, a, 1, 30.0, 1e-2)
            radii.append(t.events["r_theta"])
        assert all(r2 - r1 > 1e-6 for r1, r2 in zip(radii, radii[1:]))

    def test_step_halving_agreement(self, nl033, gauss_out):
        r1 = shoot_radial(nl033, gauss_out, 40.0, 0.05, 1, 10.0, 2e-3).events["r_theta"]
        r2 = shoot_radial(nl033, gauss_out, 40.0, 0.05, 1, 10.0, 1e-3).events["r_theta"]
        assert abs(r1 - r2) < 1e-4

    def test_phase_energy_discrete_derivative_law(self, nl033, gauss_out):
        # dE/dr = (2r/sigma - (d-1)/r) v^2 along the trajectory, order 2
        sigma = 40.0
        defects = []
        for h in (4e-3, 2e-3):  # the precondition caps h at 1e-3 * r_max
            t = shoot_radial(nl033, gauss_out, sigma, 0.05, 1, 4.0, h)
            energy = 0.5 * t.v**2 + np.asarray(nl033.F(t.p))
            g = (2.0 * t.r / sigma) * t.v**2
            rhs = np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t.r))
            defect = np.max(np.abs(energy[1:] - energy[0] - rhs))
            defects.append(defect)
        assert defects[1] < 1e-8
        assert defects[0] / defects[1] > 2.5  # ~4 for an order-2 law

    def test_velocity_lower_bound_at_theta(self, nl033, gauss_out):
        # E(r_theta) >= F(theta/2) gives v(r_theta) >= sqrt(2(F(th/2)-F(th)))
        m_lower = math.sqrt(2.0 * (F_quad(0.33, 0.165) - F_quad(0.33, 0.33)))
        assert m_lower == pytest.approx(0.0681, abs=2e-4)  # quadrature oracle
        for alpha in (0.05, 0.02):
            t = shoot_radial(nl033, gauss_out, 40.0, alpha, 1, 12.0, 1e-3)
            assert t.events.get("r_theta_half") is not None
            v_at = np.interp(t.events["r_theta"], t.r, t.v)
            assert v_at > m_lower

    def test_comparison_in_alpha(self, nl033, gauss_out):
        # ordered starts stay ordered through the sub-threshold band,
        # i.e. up to the first crossing of theta.  (Past theta the (r, p)
        # graphs can genuinely cross -- counterexamples at sigma = 40 --
        # so the blanket up-to-1 ordering is tested only where it holds.)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a1, a2 = np.sort(rng.uniform(0.01, 0.32, 2))
            if a2 - a1 < 1e-3:
                a2 = a1 + 1e-3
            t1 = shoot_radial(nl033, gauss_out, 2.0, float(a1), 1, 6.0, 1e-3)
            t2 = shoot_radial(nl033, gauss_out, 2.0, float(a2), 1, 6.0, 1e-3)
            r_stop = min(t1.events.get("r_theta", np.inf), t2.events.get("r_theta", np.inf),
                         t1.r[-1], t2.r[-1])
            grid = np.linspace(0.0, r_stop * 0.999, 200)
            p1 = np.interp(grid, t1.r, t1.p)
            p2 = np.interp(grid, t2.r, t2.p)
            assert np.min(p2 - p1) > -1e-6


class TestBarriers:
    def test_strong_drift_barrier_one(self, nl033, gauss_out):
        b = find_barrier_one(nl033, gauss_out, 2.5, 1)
        assert b is not None
        assert b.residual < 1e-6
        assert b.deviation() > 0.1
        vals = b.profile.values
        assert vals[0] == pytest.approx(1.0, abs=1e-8)
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.min(vals) >= 0.0 and np.max(vals) <= 1.0
        assert b.p_min < nl033.theta  # the dip crosses the Allee threshold

    def test_strong_drift_barrier_zero(self, nl033, gauss_out):
        b = find_barrier_zero(nl033, gauss_out, 2.5, 1)
        assert b is not None
        assert b.residual < 1e-6
        assert b.deviation() > 0.1
        assert abs(b.profile.values[0]) < 1e-8 and abs(b.profile.values[-1]) < 1e-8
        assert b.p_max > nl033.theta

    def test_fine_grid_cross_check(self, nl033, gauss_out):
        # independent verification on a twice finer grid stays a solution
        from rdcontrol.elliptic import newton_steady

        b = find_barrier_zero(nl033, gauss_out, 2.5, 1, n_grid=401)
        geom = b.profile.geometry
        drift_eff = DriftField.radial("gauss_out", SIGMA_STRONG)
        x_fine = geom.grid(801)
        seed = np.interp(x_fine, b.profile.x, b.profile.values)
        vals, residual = newton_steady(geom, drift_eff, nl033, seed, 0.0, 0.0)
        assert residual < 1e-5
        assert np.max(np.abs(np.interp(b.profile.x, x_fine, vals) - b.profile.values)) < 1e-3

    def test_weak_drift_no_barriers_on_small_domain(self, nl033, gauss_out):
        # at sigma = 40 the written coefficient 2x/sigma is far too weak
        # for barriers on (-2.5, 2.5); the Rayleigh bound
        # lambda_w >= (min w / max w) * lambda_1^D = 0.855 * 0.3948 = 0.338
        # exceeds sup f(p)/p = ((1-theta)/2)^2 = 0.1122, so no admissible
        # nontrivial 0-boundary state can exist (and reaching 1 needs
        # sup -f(1-q)/q = 0.0272 which is even smaller).
        w_ratio = math.exp(-2.5**2 / 40.0)
        assert w_ratio * 0.3948 > ((1 - 0.33) / 2) ** 2
        weak = DriftField.radial("gauss_out", 40.0)
        assert find_barrier_one(nl033, weak, 2.5, 1) is None
        assert find_barrier_zero(nl033, weak, 2.5, 1) is None

    def test_homogeneous_no_barrier_one_ever(self, nl033, homog):
        # conserved phase energy makes reaching 1 from below impossible
        for L in (1.0, 2.5, 6.0):
            assert find_barrier_one(nl033, homog, L, 1) is None

    def test_homogeneous_zero_threshold_matches_time_map(self, nl033, homog):
        # the exact nonexistence threshold is the minimal phase-plane
        # half-length L_c = min_alpha T(alpha): 5.18 for theta = 0.33
        L_c = homogeneous_critical_length(0.33)
        assert 4.69 < L_c < 5.8  # necessary eigenvalue bound pi/(2 sqrt(0.1122))
        assert find_barrier_zero(nl033, homog, 0.9 * L_c, 1) is None
        b = find_barrier_zero(nl033, homog, 1.1 * L_c, 1)
        assert b is not None and b.residual < 1e-6

    def test_homogeneous_small_interval_certificate_region(self, nl033, homog):
        assert find_barrier_zero(nl033, homog, 1.0, 1) is None


class TestDiscreteSearch:
    """Edge cases of the discrete march behind the barrier search.  The
    reference values are those of the continuous RK4 shooting search it
    replaced, measured on the same grids."""

    def test_even_grid_mirrors_the_two_middle_nodes(self, nl033, gauss_out):
        b = find_barrier_one(nl033, gauss_out, 2.5, 1, n_grid=800)
        assert b is not None and b.residual < 1e-9
        assert b.p_min == pytest.approx(0.0298003725, abs=1e-6)
        vals = b.profile.values
        assert vals[399] == pytest.approx(vals[400], abs=1e-12)
        assert vals[400] == pytest.approx(b.p_min, abs=1e-12)

    def test_ball_origin_row(self, nl033, gauss_out):
        b = find_barrier_zero(nl033, gauss_out, 2.5, 3, n_grid=401)
        assert b is not None and b.residual < 1e-9
        assert b.p_max == pytest.approx(0.5988602857, abs=1e-6)
        assert b.profile.values[0] == b.p_max
        assert find_barrier_one(nl033, gauss_out, 2.5, 2) is None

    def test_edge_far_below_the_scan_floor(self, nl033):
        # at sigma = 0.1 the boundary-1 edge sits near alpha = 1e-25, so
        # the profile's centre clips to ~0 (the barriers experiment shoots
        # its trajectory from alpha, see tests/test_cli.py)
        b = find_barrier_one(nl033, DriftField.radial("gauss_out", 0.1), 2.5, 1, n_grid=401)
        assert b is not None and b.residual < 1e-9
        assert 0.0 < b.alpha < 1e-20
        assert b.p_min == pytest.approx(0.0, abs=1e-6)

    def test_lower_edge_is_returned(self, nl033, gauss_out):
        # the feasible band has a second edge near alpha = 0.2925 that
        # also polishes into a barrier; the search keeps the lower edge
        from rdcontrol import steady

        geometry, ops = steady._setup(gauss_out, 2.5, 1, 801)
        alphas = np.geomspace(1e-7, 0.33 * (1.0 - 1e-9), 48)
        reach = steady._march(nl033, geometry, ops, alphas, 1.0)[0]
        lower, upper = steady._edges(nl033, geometry, ops, alphas, reach < 801, 1.0)
        assert upper == pytest.approx(0.2925, abs=1e-4)
        assert steady._marched_barrier(nl033, gauss_out, geometry, ops, upper, 1.0) is not None
        b = find_barrier_one(nl033, gauss_out, 2.5, 1)
        assert b.alpha == lower
        assert b.p_min == pytest.approx(0.0298003422, abs=1e-6)

    @pytest.mark.parametrize("n", [201, 801])
    def test_energy_minimizer_oracle_zero(self, nl033, gauss_out, n):
        # independent route to a boundary-0 barrier: projected-gradient
        # descent of the weighted energy from the plateau test function,
        # then Newton.  It lands on the upper edge of the band (alpha near
        # 0.98861); the search returns the lower edge, whose residual is
        # smaller
        from rdcontrol import steady
        from rdcontrol.elliptic import newton_steady
        from rdcontrol.energy import minimize_energy_sigma, plateau_ramp_eta

        geometry, ops = steady._setup(gauss_out, 2.5, 1, n)
        alphas = np.linspace(0.33 + 0.01, 1.0 - 1e-6, 64)
        reach = steady._march(nl033, geometry, ops, alphas, 0.0)[0]
        lower, upper = steady._edges(nl033, geometry, ops, alphas, reach < n, 0.0)
        assert upper == pytest.approx(0.98861, abs=1e-4)
        marched = steady._marched_barrier(nl033, gauss_out, geometry, ops, upper, 0.0)

        eta = plateau_ramp_eta(geometry.inradius() / 4.0, geometry, n)
        prof, _ = minimize_energy_sigma(nl033, gauss_out, SIGMA_STRONG, geometry, n,
                                        p_init=eta, max_iter=4000)
        vals, _ = newton_steady(geometry, gauss_out, nl033, prof.values, 0.0, 0.0)
        assert np.max(np.abs(vals - marched.profile.values)) <= 1e-9

        b = find_barrier_zero(nl033, gauss_out, 2.5, 1, n_grid=n)
        assert b.alpha == lower
        if n == 801:
            assert b.p_max == pytest.approx(0.3469595158, abs=1e-9)

    def test_marched_seed_is_exact_before_newton(self, nl033, gauss_out, monkeypatch):
        from rdcontrol import steady

        seed_residuals = []
        newton = steady.newton_steady

        def spy(geometry, drift, nl, seed, *args, **kwargs):
            seed_residuals.append(steady_residual(geometry, drift, nl, seed))
            return newton(geometry, drift, nl, seed, *args, **kwargs)

        monkeypatch.setattr(steady, "newton_steady", spy)
        b = find_barrier_one(nl033, gauss_out, 2.5, 1)
        assert b is not None
        assert seed_residuals[0] <= 1e-9

    def test_infection_drift_is_rejected(self, nl033):
        from rdcontrol.errors import InvalidInput

        drift = DriftField.infection(lambda p: 1.0 + np.asarray(p, dtype=float))
        for finder in (find_barrier_one, find_barrier_zero):
            with pytest.raises(InvalidInput, match="transform-check"):
                finder(nl033, drift, 1.0, 1)
        with pytest.raises(InvalidInput, match="transform-check"):
            shoot_radial(nl033, drift, 1.0, 0.5, 1, 1.0, 1e-3)


class TestBarrierProperties:
    @given(theta=st.floats(0.30, 0.36), sigma=st.floats(0.8, 1.25),
           n=st.sampled_from([201, 401]))
    def test_returned_barriers_are_admissible_fixed_points(self, theta, sigma, n):
        nl = BistableNonlinearity.cubic(theta)
        drift = DriftField.radial("gauss_out", sigma)
        for finder in (find_barrier_zero, find_barrier_one):
            b = finder(nl, drift, 2.5, 1, n_grid=n)
            if b is None:
                continue
            assert steady_residual(b.profile.geometry, drift, nl, b.profile.values) <= 1e-9
            assert np.min(b.profile.values) >= 0.0 and np.max(b.profile.values) <= 1.0
            assert isinstance(b.alpha, float)


class TestSteadyPath:
    def test_homogeneous_path(self, nl033, homog, interval_1):
        path = build_steady_path(nl033, homog, interval_1, K=9, delta=0.05, n_grid=101)
        assert 2 <= len(path) <= 64
        assert path.admissible
        assert path.max_residual < 1e-6
        assert path.max_gap() <= 0.05
        assert np.max(np.abs(path.profiles[0].values)) < 1e-12
        assert np.max(np.abs(path.profiles[-1].values - 0.33)) < 1e-10

    def test_eps_zero_matches_homogeneous(self, nl033, interval_1):
        base = build_steady_path(nl033, DriftField.homogeneous(), interval_1,
                                 K=5, delta=0.1, n_grid=81)
        slow = build_steady_path(nl033, DriftField.slow(lambda x: np.sin(x),
                                                        lambda x: np.cos(x), eps=0.0),
                                 interval_1, K=5, delta=0.1, n_grid=81)
        assert len(base) == len(slow)
        for a, b in zip(base.profiles, slow.profiles):
            assert a.sup_distance(b) < 1e-12

    def test_a1_drift_ball_admissible(self, nl033):
        # N = e^{r^2/2} satisfies A1, so the path stays within [0, 1]
        geom = DomainGeometry.ball(1.0, 2)
        path = build_steady_path(nl033, DriftField.radial("gauss_in", 1.0), geom,
                                 K=9, delta=0.05, n_grid=101)
        assert path.admissible
        assert path.max_residual < 1e-6

    def test_slow_drift_continuation(self, nl033, interval_1):
        drift = DriftField.slow(lambda x: np.cos(np.pi * x),
                                lambda x: -np.pi * np.sin(np.pi * x), eps=0.05)
        path = build_steady_path(nl033, drift, interval_1, K=9, delta=0.05, n_grid=101)
        assert path.admissible and path.max_residual < 1e-6
        # perturbed members stay near the homogeneous ones
        base = build_steady_path(nl033, DriftField.homogeneous(), interval_1,
                                 K=9, delta=0.05, n_grid=101)
        assert path.profiles[-1].sup_distance(base.profiles[-1]) < 0.05

    def test_members_are_exact_before_newton(self, nl033, homog, interval_25, monkeypatch):
        from rdcontrol import steady

        seed_residuals = []
        newton = steady.newton_steady

        def spy(geometry, drift, nl, seed, *args, **kwargs):
            seed_residuals.append(steady_residual(geometry, drift, nl, seed))
            return newton(geometry, drift, nl, seed, *args, **kwargs)

        monkeypatch.setattr(steady, "newton_steady", spy)
        for drift in (homog, DriftField.radial("gauss_in", 2.5), DriftField.radial("gauss_out", 4.0)):
            path = build_steady_path(nl033, drift, interval_25, K=9, delta=0.025, n_grid=101)
            assert len(seed_residuals) == len(path)
            assert max(seed_residuals) <= 1e-9
            seed_residuals.clear()

    def test_member_agrees_with_shooting_homogeneous(self, nl033, homog):
        # the marched member against the continuous shot from its centre value
        path = build_steady_path(nl033, homog, DomainGeometry.interval(2.0), K=3, delta=1.0,
                                 n_grid=401)
        member = path.profiles[list(path.s_values).index(0.5)]
        half = member.values[200:]
        assert half[0] == 0.5 * 0.33
        traj = shoot_radial(nl033, homog, 1e9, half[0], 1, 2.0, 1e-3)
        assert np.max(np.abs(half - np.interp(member.x[200:], traj.r, traj.p))) < 1e-6

    def test_fine_grid_path_polishes_at_the_roundoff_floor(self, nl033, homog):
        # n = 4001: the exact members sit above Newton's tolerance of 1e-11
        # but at the roundoff floor of A p (1/h^2 = 1e6), where the line
        # search can make no progress
        path = build_steady_path(nl033, homog, DomainGeometry.interval(2.0), n_grid=4001)
        assert path.admissible
        assert path.max_residual <= 1e-9
        assert path.max_gap() <= 0.05


def test_barrier_residual_cited_in_steady_residual(nl033, gauss_out):
    b = find_barrier_one(nl033, gauss_out, 2.5, 1)
    geom = b.profile.geometry
    assert steady_residual(geom, DriftField.radial("gauss_out", SIGMA_STRONG),
                           nl033, b.profile.values) < 1e-6


def test_certificate_soundness_sweep(nl033, homog):
    # whenever the zero-bc certificate holds, no boundary-0 barrier exists
    # (the converse is false: the certificate is sufficient, not sharp)
    from rdcontrol.spectral import uniqueness_certificate

    for L in np.linspace(0.5, 4.0, 20):
        g = DomainGeometry.interval(float(L))
        if uniqueness_certificate(nl033, homog, g).holds:
            assert find_barrier_zero(nl033, homog, float(L), 1, n_grid=201) is None


class TestErrorContracts:
    def test_path_march_stiff_failure(self, nl033, interval_25):
        # outward Gaussian drift at strong intensity blows the members past 1
        from rdcontrol.errors import SolverFailure

        with pytest.raises(SolverFailure, match="stiff-failure"):
            build_steady_path(nl033, DriftField.radial("gauss_out", 0.08), interval_25,
                              K=9, delta=0.025, n_grid=101)

    def test_invalid_alpha(self, nl033, gauss_out):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match="invalid-alpha"):
            shoot_radial(nl033, gauss_out, 1.0, 1.5, 1, 2.0, 1e-3)

    def test_bad_path_parameters(self, nl033, homog, interval_1):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match="invalid-scalar"):
            build_steady_path(nl033, homog, interval_1, K=1)
        with pytest.raises(InvalidInput, match="invalid-scalar"):
            build_steady_path(nl033, homog, interval_1, delta=0.0)
        infection = DriftField.infection(lambda p: 1.0 + np.asarray(p, dtype=float))
        with pytest.raises(InvalidInput, match="invalid-drift-kind"):
            build_steady_path(nl033, infection, interval_1)
