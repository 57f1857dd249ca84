import math
from dataclasses import replace

import numpy as np
import pytest

from rdcontrol.errors import InvalidInput
from rdcontrol.energy import (
    energy_sigma,
    laplace_ratio_check,
    minimize_energy_sigma,
    negative_energy_sigma_threshold,
    plateau_ramp_eta,
)
from rdcontrol.model import DomainGeometry, DriftField, GridProfile


class TestTestFunctions:
    def test_eta_plateau(self, interval_25):
        eta = plateau_ramp_eta(0.5, interval_25, 401)
        x = eta.x
        assert np.all(eta.values[np.abs(x) <= 0.5] == 1.0)
        assert np.all(eta.values[np.abs(x) >= 1.0] == 0.0)
        assert float(np.interp(0.0, x, eta.values)) == 1.0

    def test_eta_c1_join(self, interval_25):
        # one-sided slopes at the joins stay O(h) (C^1 smoothstep)
        eta = plateau_ramp_eta(0.5, interval_25, 4001)
        g = np.gradient(eta.values, eta.h)
        x = eta.x
        assert abs(g[np.argmin(np.abs(x - 0.5))]) < 0.02
        assert abs(g[np.argmin(np.abs(x - 1.0))]) < 0.02

    def test_eta_bad_delta(self, interval_25):
        with pytest.raises(InvalidInput, match="bad-delta"):
            plateau_ramp_eta(2.0, interval_25, 101)


class TestEnergySigma:
    def test_zero_profile(self, nl033, interval_25):
        z = GridProfile(interval_25, np.zeros(401))
        rep = energy_sigma(nl033, DriftField.radial("gauss_out", 1.0), z)
        assert rep.value == 0.0

    def test_report_identity(self, nl033, interval_25):
        eta = plateau_ramp_eta(0.5, interval_25, 801)
        rep = energy_sigma(nl033, DriftField.radial("gauss_out", 0.05), eta)
        assert rep.value == pytest.approx(rep.gradient_part - rep.potential_part, abs=1e-12)

    def test_small_sigma_negative(self, nl033, interval_25):
        # Laplace regime: potential term sigma^{1/2} beats the
        # exponentially small gradient term
        eta = plateau_ramp_eta(0.5, interval_25, 2049)
        drift = DriftField.radial("gauss_out", 0.05)  # N = e^{-x^2/2}
        r1 = energy_sigma(nl033, drift, eta)
        assert r1.value < 0.0
        # two grid resolutions agree
        eta2 = plateau_ramp_eta(0.5, interval_25, 4097)
        r2 = energy_sigma(nl033, drift, eta2)
        assert r1.value == pytest.approx(r2.value, rel=1e-4)

    def test_large_sigma_matches_homogeneous_sign(self, nl033, interval_25):
        eta = plateau_ramp_eta(0.5, interval_25, 2049)
        rep = energy_sigma(nl033, DriftField.radial("gauss_out", 1e4), eta)
        homog = energy_sigma(nl033, DriftField.homogeneous(), eta)
        assert rep.value > 0.0 and homog.value > 0.0
        assert rep.value == pytest.approx(homog.value, rel=2e-3)

    def test_gradient_part_quadratic_scaling(self, nl033, interval_25):
        eta = plateau_ramp_eta(0.5, interval_25, 801)
        drift = DriftField.radial("gauss_out", 0.2)
        base = energy_sigma(nl033, drift, eta)
        for lam in (0.5, 2.0):
            scaled = GridProfile(interval_25, lam * eta.values)
            rep = energy_sigma(nl033, drift, scaled)
            assert rep.gradient_part == pytest.approx(lam**2 * base.gradient_part, rel=1e-12)

    def test_bc_violation(self, nl033, interval_25):
        bad = GridProfile(interval_25, np.full(101, 0.5))
        with pytest.raises(InvalidInput, match="bc-violation"):
            energy_sigma(nl033, DriftField.homogeneous(), bad)

    def test_ball_centre_is_free(self, nl033):
        # only r = R is a boundary node of a ball; its centre r = 0 is not
        g = DomainGeometry.ball(2.5, 3)
        eta = plateau_ramp_eta(0.5, g, 401)
        assert eta.values[0] == 1.0
        assert np.isfinite(energy_sigma(nl033, DriftField.homogeneous(), eta).value)
        with pytest.raises(InvalidInput, match="bc-violation"):
            energy_sigma(nl033, DriftField.homogeneous(), GridProfile(g, np.full(401, 0.5)))


class TestThreshold:
    def test_finite_threshold_gauss(self, nl033, interval_25):
        drift = DriftField.radial("gauss_out", 1.0)  # N = e^{-x^2/2}
        eta = plateau_ramp_eta(0.5, interval_25, 2049)
        sigma_star, status = negative_energy_sigma_threshold(nl033, drift, eta)
        assert status == "bracketed"
        assert 0.0 < sigma_star < 1.0
        below = energy_sigma(nl033, replace(drift, sigma=sigma_star / 2), eta)
        above = energy_sigma(nl033, replace(drift, sigma=2 * sigma_star), eta)
        assert below.value < 0.0 < above.value

    def test_theta_dependence(self, interval_25):
        # F(1) shrinks as theta -> 1/2, so sigma* decreases
        from rdcontrol.model import BistableNonlinearity

        drift = DriftField.radial("gauss_out", 1.0)
        eta = plateau_ramp_eta(0.5, interval_25, 2049)
        s33, _ = negative_energy_sigma_threshold(BistableNonlinearity.cubic(0.33), drift, eta)
        s45, _ = negative_energy_sigma_threshold(BistableNonlinearity.cubic(0.45), drift, eta)
        assert s45 < s33

    def test_sigma_free_negative_sentinel(self, nl033):
        # homogeneous weight on a huge domain: energy of eta is negative
        # independently of sigma -> sentinel 0
        g = DomainGeometry.interval(40.0)
        drift = DriftField.homogeneous()
        sigma_star, status = negative_energy_sigma_threshold(nl033, drift,
                                                             plateau_ramp_eta(15.0, g, 4097))
        assert status == "always-negative" and sigma_star == 0.0


class TestLaplace:
    def test_gaussian_half_integral(self):
        ratios = laplace_ratio_check(1.0, 1, lambda t: np.ones_like(np.asarray(t, float)),
                                     [1e-1, 1e-2, 1e-3])
        target = math.sqrt(math.pi) / 2.0
        errs = [abs(r - target) for r in ratios]
        assert errs[-1] < 1e-3
        assert errs[0] >= errs[-1]

    def test_d2_closed_form(self):
        ratios = laplace_ratio_check(2.0, 2, lambda t: np.ones_like(np.asarray(t, float)),
                                     [1e-1, 1e-2, 1e-3])
        assert ratios[-1] == pytest.approx(0.25, rel=1e-3)

    def test_linearity_in_phi(self):
        r1 = laplace_ratio_check(1.0, 1, lambda t: np.ones_like(np.asarray(t, float)), [1e-3])
        r3 = laplace_ratio_check(1.0, 1, lambda t: 3.0 * np.ones_like(np.asarray(t, float)), [1e-3])
        # ratio normalizes by phi(0), so values match; the integral itself tripled
        assert r1[0] == pytest.approx(r3[0], rel=1e-12)

    def test_degenerate_phi(self):
        with pytest.raises(InvalidInput, match="degenerate-phi"):
            laplace_ratio_check(1.0, 1, lambda t: np.asarray(t, dtype=float), [1e-2])

    def test_eps_must_decrease(self):
        with pytest.raises(InvalidInput):
            laplace_ratio_check(1.0, 1, lambda t: np.ones_like(np.asarray(t, float)),
                                [1e-3, 1e-2])


class TestMinimizer:
    def test_descends_and_solves(self, nl033, interval_25):
        drift = DriftField.radial("gauss_out", 1.0)
        sigma_star, _ = negative_energy_sigma_threshold(nl033, drift,
                                                        plateau_ramp_eta(0.5, interval_25, 2049))
        drift = replace(drift, sigma=sigma_star / 2)
        eta = plateau_ramp_eta(0.5, interval_25, 513)
        e_eta = energy_sigma(nl033, drift, eta).value
        prof, rep = minimize_energy_sigma(nl033, drift, p_init=eta)
        assert rep.value <= e_eta
        assert rep.value < 0.0
        assert np.min(prof.values) >= 0.0 and np.max(prof.values) <= 1.0

    def test_monotone_energy_descent(self, nl033, interval_25):
        # coarse re-run tracking energy by hand: descent never increases
        drift = DriftField.radial("gauss_out", 0.05)
        n = 257
        eta = plateau_ramp_eta(0.5, interval_25, n)
        from rdcontrol.energy import _measure

        x = interval_25.grid(n)
        h = x[1] - x[0]
        mw = drift.weight(x) * _measure(interval_25, x)
        mw_mid = 0.5 * (mw[:-1] + mw[1:])

        def energy(q):
            return (0.5 * np.sum(mw_mid * (np.diff(q) / h) ** 2) * h
                    - np.sum(mw * np.asarray(nl033.F_zero(q))) * h)

        prof, _ = minimize_energy_sigma(nl033, drift, p_init=eta, max_iter=600)
        assert energy(prof.values) <= energy(np.clip(eta.values, 0.0, 1.0)) + 1e-15
