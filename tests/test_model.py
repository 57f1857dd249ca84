import numpy as np
import pytest

from oracles import F_quad, simpson_quad
from rdcontrol.errors import InvalidInput
from rdcontrol.model import (
    BistableNonlinearity,
    DomainGeometry,
    DriftField,
    GridProfile,
    lipschitz_and_sup_fprime,
)


class TestNonlinearity:
    def test_roots(self, nl033):
        assert nl033.f(0.0) == 0.0
        assert nl033.f(0.33) == pytest.approx(0.0, abs=1e-15)
        assert nl033.f(1.0) == 0.0

    def test_midpoint_value(self, nl033):
        # 0.5 * 0.17 * 0.5
        assert nl033.f(0.5) == pytest.approx(0.0425, abs=1e-12)

    def test_F_at_one_closed_form(self, nl033):
        assert nl033.F(1.0) == pytest.approx((1 - 2 * 0.33) / 12, abs=1e-12)
        assert nl033.F(1.0) == pytest.approx(F_quad(0.33, 1.0), abs=1e-12)

    def test_F_at_theta_quadrature_oracle(self, nl033):
        # frozen from the 10^4-panel Simpson oracle
        assert F_quad(0.33, 0.33) == pytest.approx(-0.0050012325, abs=1e-10)
        assert nl033.F(0.33) == pytest.approx(-0.0050012325, abs=1e-10)

    def test_F_zero_at_origin(self, nl033):
        assert nl033.F(0.0) == 0.0

    def test_F_at_one_random_thetas(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0.01, 0.499, 100):
            nl = BistableNonlinearity.cubic(float(theta))
            assert nl.F(1.0) == pytest.approx((1 - 2 * theta) / 12, abs=1e-12)

    def test_sign_pattern_dense(self, nl033):
        p = np.linspace(1e-6, 0.33 - 1e-6, 5000)
        assert np.all(nl033.f(p) < 0)
        p = np.linspace(0.33 + 1e-6, 1 - 1e-6, 5000)
        assert np.all(nl033.f(p) > 0)

    def test_F_prime_matches_f(self, nl033):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, 1000)
        h = 1e-6
        fd = (nl033.F(pts + h) - nl033.F(pts - h)) / (2 * h)
        assert np.max(np.abs(fd - nl033.f(pts))) < 1e-6

    def test_lipschitz_values(self, nl033):
        M, sup_fp = lipschitz_and_sup_fprime(nl033)
        assert M == pytest.approx(0.67, abs=1e-9)  # |f'(1)| = 1 - theta
        # max of f' at (1+theta)/3, value (theta^2 - theta + 1)/3
        assert sup_fp == pytest.approx((0.33**2 - 0.33 + 1) / 3, abs=1e-9)

    def test_lipschitz_symmetric_theta(self):
        M, _ = lipschitz_and_sup_fprime(BistableNonlinearity.cubic(0.5 - 1e-12))
        assert M == pytest.approx(0.5, abs=1e-6)

    def test_rejects_theta_above_half(self):
        # integral of f over (0,1) becomes negative
        with pytest.raises(InvalidInput):
            BistableNonlinearity.cubic(0.6)

    def test_non_finite_input(self, nl033):
        with pytest.raises(InvalidInput, match="invalid-scalar"):
            nl033.f(float("nan"))

    def test_tabulated_roundtrip(self, nl033):
        # sample grid must contain the Allee root for the interpolant to
        # vanish there within the 1e-12 construction tolerance
        p = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), [0.33]]))
        tab = BistableNonlinearity.tabulated(p, nl033.f(p), 0.33)
        q = np.linspace(0.0, 1.0, 1000)
        # monotone-cubic interpolation is O(h^3); 257 nodes -> ~1e-6
        assert np.max(np.abs(tab.f(q) - nl033.f(q))) < 5e-6
        assert tab.f(-0.5) == 0.0 and tab.f(1.5) == 0.0  # extension by zero

    @pytest.mark.parametrize("column", [0, 1])
    def test_tabulated_rejects_non_finite_samples(self, nl033, column):
        p = np.linspace(0.0, 1.0, 9)
        samples = [p, nl033.f(p)]
        samples[column][4] = np.nan
        with pytest.raises(InvalidInput, match="invalid-samples: non-finite"):
            BistableNonlinearity.tabulated(samples[0], samples[1], 0.33)

    def test_cubic_extension_outside(self, nl033):
        # dynamics extension keeps the cubic formula
        assert nl033.f(-0.05) == pytest.approx(-0.05 * (-0.38) * 1.05, abs=1e-12)


class TestDrift:
    def test_families(self):
        d = DriftField.radial("gauss_out", 40.0)
        x = np.linspace(0.0, 2.0, 9)
        assert np.allclose(d.b(x), -x)
        assert np.allclose(d.coeff(x), -2 * x / 40.0)
        assert np.allclose(np.exp(d.ln_N(x)), np.exp(-0.5 * x**2))
        d_in = DriftField.radial("gauss_in", 2.0)
        assert np.allclose(d_in.b(x), x)
        d_abs = DriftField.radial("abs_exp", 1.0)
        assert np.allclose(d_abs.b(np.array([-1.0, 0.0, 2.0])), [-1.0, 0.0, 1.0])

    def test_weight_sigma(self):
        # N^{2/sigma} divided by its max, with the drift's own sigma
        d = DriftField.radial("gauss_out", 4.0)
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(d.weight(x), np.exp(-x**2 / 4.0))
        assert np.allclose(d.weight(x + 1.0), np.exp(-((x + 1.0)**2 - 1.0) / 4.0))

    def test_weight_stays_in_range_for_strong_drifts(self):
        # N^{2/sigma} = e^{x^2/sigma} overflows at sigma = 1e-3 on x = 2
        w = DriftField.radial("gauss_in", 1e-3).weight(np.linspace(-2.0, 2.0, 41))
        assert np.all(np.isfinite(w)) and w.max() == 1.0 and w[0] == w[-1] == 1.0

    def test_sigma_positive(self):
        with pytest.raises(InvalidInput, match="invalid-sigma"):
            DriftField.radial("gauss_out", 0.0)

    def test_homogeneous_trivial(self):
        d = DriftField.homogeneous()
        x = np.linspace(-1, 1, 5)
        assert np.all(d.b(x) == 0) and np.all(np.exp(d.ln_N(x)) == 1.0)

    def test_infection_validation(self):
        DriftField.infection(lambda p: 1.0 + np.asarray(p, dtype=float))
        with pytest.raises(InvalidInput, match="invalid-N"):
            DriftField.infection(lambda p: np.asarray(p, dtype=float) - 0.5)

    def test_infection_drift_has_no_spatial_profile(self):
        # N depends on p: there is no b(x) or ln N(x) to fall back to N = 1 with
        d = DriftField.infection(lambda p: 1.0 + np.asarray(p, dtype=float))
        x = np.linspace(-1.0, 1.0, 5)
        for method in (d.b, d.ln_N, d.coeff, d.weight):
            with pytest.raises(InvalidInput, match="invalid-drift-kind.*transform-check"):
                method(x)


class TestGeometryProfiles:
    def test_first_free_row(self):
        # node 0 of an interval is a boundary node; a ball's centre r = 0 is not
        assert DomainGeometry.interval(1.0).first_free == 1
        assert DomainGeometry.ball(1.0, 1).first_free == 0
        assert DomainGeometry.ball(1.0, 3).first_free == 0

    def test_inradius(self):
        assert DomainGeometry.interval(2.5).inradius() == 2.5
        assert DomainGeometry.ball(3.0, 2).inradius() == 3.0

    def test_dimension_of_every_geometry(self):
        assert DomainGeometry.interval(2.5).d == 1
        with pytest.raises(InvalidInput, match="invalid-geometry: an interval has dimension 1"):
            DomainGeometry("interval", 2.5, 3)
        with pytest.raises(InvalidInput, match="invalid-geometry: dimension"):
            DomainGeometry.ball(2.5, 0)

    def test_grid_spacing(self):
        g = DomainGeometry.interval(1.0)
        x = g.grid(101)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert g.spacing(101) == pytest.approx(0.02)

    def test_profile_validation(self):
        g = DomainGeometry.interval(1.0)
        with pytest.raises(InvalidInput):
            GridProfile(g, np.array([0.0, np.nan, 0.0]))
        prof = GridProfile(g, np.linspace(0, 1, 11))
        prof.check_proportion()
        with pytest.raises(InvalidInput):
            GridProfile(g, np.linspace(-0.5, 1, 11)).check_proportion()

    def test_simpson_oracle_self_check(self):
        # the oracle itself must integrate polynomials exactly
        assert simpson_quad(lambda t: t**3, 0.0, 1.0, 100) == pytest.approx(0.25, abs=1e-14)
