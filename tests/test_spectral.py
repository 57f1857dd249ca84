import numpy as np
import pytest

from oracles import ball_lambda1_d3, interval_lambda1
from rdcontrol.errors import InvalidInput
from rdcontrol.model import DomainGeometry, DriftField
from rdcontrol.spectral import (
    dirichlet_lambda1,
    lambda_sigma,
    uniqueness_certificate,
    weighted_lambda1,
)


class TestDirichlet:
    @pytest.mark.parametrize("L", [1.0, 2.5])
    def test_interval_closed_form(self, L):
        res = dirichlet_lambda1(DomainGeometry.interval(L), 512)
        assert res.lambda_ == pytest.approx(interval_lambda1(L), rel=1e-4)

    def test_ball_d3(self):
        res = dirichlet_lambda1(DomainGeometry.ball(np.pi, 3), 512)
        assert res.lambda_ == pytest.approx(ball_lambda1_d3(np.pi), rel=5e-4)

    @pytest.mark.parametrize("n", [65, 513])
    def test_ball_d1_is_the_interval_at_equal_spacing(self, n):
        # the centre of a d = 1 ball carries the half cell [0, h/2], so its
        # even eigenproblem is the interval's, and the error is O(h^2), not O(h)
        ball = dirichlet_lambda1(DomainGeometry.ball(1.0, 1), n).lambda_
        interval = dirichlet_lambda1(DomainGeometry.interval(1.0), 2 * n - 1).lambda_
        assert ball == pytest.approx(interval, rel=1e-12)

    def test_eigenprofile_shape(self):
        res = dirichlet_lambda1(DomainGeometry.interval(1.0), 128)
        prof = res.eigenprofile.values
        assert prof[0] == 0.0 and prof[-1] == 0.0
        assert np.all(prof[1:-1] > 0.0)
        assert np.max(prof) == pytest.approx(1.0)

    def test_rayleigh_consistency(self):
        # Rayleigh quotient of the returned profile reproduces lambda
        g = DomainGeometry.interval(2.0)
        n = 256
        res = dirichlet_lambda1(g, n)
        u = res.eigenprofile.values
        h = g.spacing(n)
        num = np.sum(np.diff(u) ** 2) / h
        den = np.sum(u**2) * h
        assert num / den == pytest.approx(res.lambda_, rel=1e-9)

    def test_refinement_order_two(self):
        # Richardson slope of the error on n in {64,...,512}
        L = 1.5
        exact = interval_lambda1(L)
        errs = []
        for n in (64, 128, 256, 512):
            errs.append(abs(dirichlet_lambda1(DomainGeometry.interval(L), n).lambda_ - exact))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([1 / 63, 1 / 127, 1 / 255, 1 / 511]))
        assert np.all((slopes > 1.8) & (slopes < 2.2))

    def test_domain_monotonicity(self):
        lams = [dirichlet_lambda1(DomainGeometry.interval(L), 256).lambda_
                for L in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_hayman_bracket_stable(self):
        # lambda * rho^2 constant for intervals (convex): in [2.4, 2.5]
        for rho in (0.5, 1.0, 2.0, 4.0, 8.0):
            lam = dirichlet_lambda1(DomainGeometry.interval(rho), 256).lambda_
            assert 2.4 < lam * rho**2 < 2.5


class TestWeighted:
    def test_unit_weight_reduces(self):
        g = DomainGeometry.interval(2.5)
        lam_w = weighted_lambda1(g, np.ones(256)).lambda_
        lam_d = dirichlet_lambda1(g, 256).lambda_
        assert lam_w == pytest.approx(lam_d, rel=1e-9)

    def test_scale_invariance(self):
        g = DomainGeometry.interval(2.0)
        w0 = np.exp(-(g.grid(256)**2))
        lam0 = weighted_lambda1(g, w0).lambda_
        for c in (0.1, 10.0):
            lam = weighted_lambda1(g, c * w0).lambda_
            assert lam == pytest.approx(lam0, rel=1e-12)

    def test_positive_weight_required(self):
        g = DomainGeometry.interval(1.0)
        with pytest.raises(InvalidInput, match="invalid-weight"):
            weighted_lambda1(g, g.grid(64))

    def test_sigma_scaling_on_large_interval(self):
        # lambda_{sigma/2} / lambda_sigma ~ 2 for N = e^{x^2/2} on L = 6
        g = DomainGeometry.interval(6.0)
        lams = {}
        for s in (1.0, 0.5, 0.25):
            lams[s] = lambda_sigma(g, DriftField.radial("gauss_in", s), 1024).lambda_
        assert 1.8 < lams[0.5] / lams[1.0] < 2.2
        assert 1.8 < lams[0.25] / lams[0.5] < 2.2

    def test_sigma_scaling_truncation_insensitive(self):
        # same ratio on L = 12 (domain-truncation insensitivity)
        g = DomainGeometry.interval(12.0)
        lam1 = lambda_sigma(g, DriftField.radial("gauss_in", 1.0), 2048).lambda_
        lam05 = lambda_sigma(g, DriftField.radial("gauss_in", 0.5), 2048).lambda_
        assert 1.8 < lam05 / lam1 < 2.2


class TestCertificates:
    def test_zero_bc_holds_small_interval(self, nl033, homog):
        cert = uniqueness_certificate(nl033, homog, DomainGeometry.interval(1.0))
        assert cert.holds
        assert cert.lhs == pytest.approx(2.4674, rel=1e-3)
        assert cert.rhs == pytest.approx(0.67, abs=1e-9)

    def test_zero_bc_fails_large_interval(self, nl033, homog):
        cert = uniqueness_certificate(nl033, homog, DomainGeometry.interval(2.5))
        assert not cert.holds
        assert cert.lhs == pytest.approx(0.39478, rel=1e-3)

    def test_reports_both_constants(self, nl033, homog):
        cert = uniqueness_certificate(nl033, homog, DomainGeometry.interval(1.0))
        assert cert.rhs == pytest.approx(0.67, abs=1e-9)
        assert cert.sup_fprime == pytest.approx((0.33**2 - 0.33 + 1) / 3, abs=1e-9)

    def test_general_unblocking_smallsigma(self, nl033):
        # lambda_sigma ~ 2/sigma -> certificate holds once 2/sigma > M
        g = DomainGeometry.interval(3.0)
        cert = uniqueness_certificate(nl033, DriftField.radial("gauss_in", 0.25), g)
        assert cert.holds and cert.lhs > 7.0

    def test_general_fails_weak_drift(self, nl033):
        g = DomainGeometry.interval(2.5)
        cert = uniqueness_certificate(nl033, DriftField.radial("gauss_in", 40.0), g)
        assert not cert.holds

    def test_label_follows_the_drift(self, nl033, homog):
        # with no drift the weight N^{2/sigma} is 1, so lambda_sigma is lambda_1^D
        g = DomainGeometry.interval(1.0)
        cert = uniqueness_certificate(nl033, homog, g, n=128)
        assert cert.which == "zero-bc"
        assert cert.lhs == dirichlet_lambda1(g, 128).lambda_
        radial = DriftField.radial("gauss_out", 1.0)
        cert = uniqueness_certificate(nl033, radial, g, n=128)
        assert cert.which == "general"
        assert cert.lhs == lambda_sigma(g, radial, 128).lambda_
