from dataclasses import replace

import numpy as np
import pytest

from oracles import reference_equivalence_check
from rdcontrol import transform
from rdcontrol.errors import InvalidInput, SolverFailure
from rdcontrol.model import BistableNonlinearity, DomainGeometry, GridProfile
from rdcontrol.transform import build_map, equivalence_check, tilde_f, tilde_nonlinearity


def N_affine(p):
    return 1.0 + np.asarray(p, dtype=float)


class TestMap:
    def test_identity_for_constant_N(self):
        gf = build_map(lambda p: np.full_like(np.asarray(p, dtype=float), 3.0))
        x = np.linspace(0.0, 1.0, 200)
        assert np.max(np.abs(gf.script_N(x) - x)) < 1e-12

    def test_affine_closed_form(self):
        # int (1+p)^2 = 7/3, script_N(x) = ((1+x)^3 - 1)/7
        gf = build_map(N_affine)
        x = np.linspace(0.0, 1.0, 50)
        exact = ((1.0 + x) ** 3 - 1.0) / 7.0
        assert np.max(np.abs(gf.script_N(x) - exact)) < 1e-12
        assert float(gf.script_N(1.0)) == pytest.approx(1.0, abs=1e-14)
        assert float(gf.script_N(0.33)) == pytest.approx(((1.33) ** 3 - 1) / 7, abs=1e-10)

    def test_normalization(self):
        from scipy.integrate import simpson

        gf = build_map(N_affine)
        assert simpson(gf.N_table**2, x=gf.x_table) == pytest.approx(1.0, abs=1e-10)

    def test_inverse_roundtrip(self):
        gf = build_map(N_affine)
        x = np.linspace(0.0, 1.0, 777)
        assert np.max(np.abs(gf.inverse(gf.script_N(x)) - x)) < 1e-8

    def test_scale_invariance(self):
        base = build_map(N_affine)
        for lam in (0.1, 10.0):
            scaled = build_map(lambda p, l=lam: l * N_affine(p))
            assert np.max(np.abs(scaled.script_table - base.script_table)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput, match="invalid-N"):
            build_map(lambda p: np.asarray(p, dtype=float) - 0.5)


class TestTildeF:
    def test_roots_map_to_roots(self, nl033):
        gf = build_map(N_affine)
        assert tilde_f(gf, nl033, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert tilde_f(gf, nl033, 1.0) == pytest.approx(0.0, abs=1e-12)
        q_theta = float(gf.script_N(0.33))
        assert tilde_f(gf, nl033, q_theta) == pytest.approx(0.0, abs=1e-10)

    def test_identity_N(self, nl033):
        gf = build_map(lambda p: np.ones_like(np.asarray(p, dtype=float)))
        q = np.linspace(0.0, 1.0, 1000)
        assert np.max(np.abs(tilde_f(gf, nl033, q) - nl033.f(q))) < 1e-12

    def test_sign_pattern(self, nl033):
        gf = build_map(N_affine)
        q_theta = float(gf.script_N(0.33))
        lo = np.linspace(1e-4, q_theta - 1e-4, 500)
        hi = np.linspace(q_theta + 1e-4, 1 - 1e-4, 500)
        assert np.all(tilde_f(gf, nl033, lo) < 0)
        assert np.all(tilde_f(gf, nl033, hi) > 0)

    def test_clamps_with_warning(self, nl033):
        gf = build_map(N_affine)
        with pytest.warns(UserWarning):
            tilde_f(gf, nl033, 1.2)

    def test_tilde_nonlinearity_validates(self, nl033):
        gf = build_map(N_affine)
        tnl = tilde_nonlinearity(gf, nl033)
        assert tnl.kind == "tabulated"
        assert tnl.theta == pytest.approx(float(gf.script_N(0.33)))

    def test_bistable_for_random_smooth_N(self, nl033):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a, b, c = rng.uniform(-0.5, 0.5, 3)

            def N(p, a=a, b=b, c=c):
                p = np.asarray(p, dtype=float)
                return np.exp(a * p + b * np.sin(np.pi * p) + c * p**2)

            gf = build_map(N)
            tnl = tilde_nonlinearity(gf, nl033)  # construction validates
            assert 0.0 < tnl.theta < 1.0


class TestEquivalence:
    def test_identity_N_tiny_discrepancy(self, nl033):
        g = DomainGeometry.interval(1.0)
        x = g.grid(101)
        p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * x)) * 0.33)
        gf = build_map(lambda p: np.ones_like(np.asarray(p, dtype=float)))
        d = equivalence_check(nl033, gf, p0, 0.0, T=1.0, dt=0.002)
        assert d < 1e-9

    def test_constant_state_conjugation(self, nl033):
        # equilibria are exact fixed points on both sides; a generic
        # constant reduces to the scalar ODE dp/dt = f(p), matched across
        # the map up to the O(dt^2) splitting error
        g = DomainGeometry.interval(1.0)
        for c in (0.0, 0.33, 1.0):
            p0 = GridProfile(g, np.full(101, c))
            d = equivalence_check(nl033, build_map(N_affine), p0, c, T=0.5, dt=0.002)
            assert d < 1e-12
        p0 = GridProfile(g, np.full(101, 0.6))
        d = equivalence_check(nl033, build_map(N_affine), p0, 0.6, T=0.5, dt=0.002)
        assert d < 1e-6

    @pytest.mark.parametrize("d", [1, 3])
    def test_ball_centre_is_not_pinned(self, nl033, d):
        # the centre r = 0 of a ball is a symmetry node, not a boundary node:
        # pinning it to u would split the two sides by ~2e-3 within a step
        g = DomainGeometry.ball(1.0, d)
        x = g.grid(101)
        p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * x)) * 0.33)
        assert equivalence_check(nl033, build_map(N_affine), p0, 0.0, T=2.0, dt=0.002) < 1e-4

    def test_refinement_factor_near_four(self, nl033):
        g = DomainGeometry.interval(1.0)
        discs = []
        for lev in range(3):
            n = 51 * 2**lev - (2**lev - 1)
            dt = 0.004 / 2**lev
            x = g.grid(n)
            p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * x)) * 0.33)
            discs.append(equivalence_check(nl033, build_map(N_affine), p0, 0.0, T=2.0, dt=dt,
                                           snapshot_every=25))
        assert 3.5 < discs[0] / discs[1] < 4.5
        assert 3.5 < discs[1] / discs[2] < 4.5

    def test_quasilinear_blow_up_is_gf_stiff(self, nl033):
        # N = exp(5p) makes the explicit 2 N'/N |p'|^2 term explode at dt = 0.05
        g = DomainGeometry.interval(1.0)
        x = g.grid(41)
        p0 = GridProfile(g, np.where(x < 0.5, 1.0, 0.0))
        with pytest.raises(SolverFailure, match="gf-stiff"):
            equivalence_check(nl033, build_map(lambda p: np.exp(5.0 * np.asarray(p, dtype=float))),
                              p0, 0.0, T=2.0, dt=0.05)

    def test_non_finite_quasilinear_state_is_gf_stiff(self, nl033, monkeypatch):
        def non_finite(factor, rhs):
            raise SolverFailure("solver-failure: non-finite tridiagonal solution")

        monkeypatch.setattr(transform, "solve_tridiagonal", non_finite)
        g = DomainGeometry.interval(1.0)
        p0 = GridProfile(g, np.full(41, 0.5))
        with pytest.raises(SolverFailure, match="gf-stiff"):
            equivalence_check(nl033, build_map(N_affine), p0, 0.0, T=0.1, dt=0.01)


# densities N(p) of the oracle comparison: affine, two exponentials and a wave
_DENSITIES = {
    "affine": lambda p: 0.5 + 2.0 * np.asarray(p, dtype=float),
    "exp": lambda p: np.exp(1.3 * np.asarray(p, dtype=float)),
    "gauss": lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
    "sin": lambda p: 1.0 + 0.5 * np.sin(3.0 * np.asarray(p, dtype=float)),
}


class TestAgainstTheReference:
    @pytest.mark.parametrize("u", [0.0, 0.6])
    @pytest.mark.parametrize("geometry, n", [(DomainGeometry.interval(1.0), 101),
                                             (DomainGeometry.interval(1.0), 200),
                                             (DomainGeometry.ball(1.0, 3), 101)],
                             ids=["interval-101", "interval-200", "ball-3"])
    @pytest.mark.parametrize("name", _DENSITIES)
    def test_same_bits_as_the_reference(self, nl033, name, geometry, n, u):
        x = geometry.grid(n)
        p0 = GridProfile(geometry, 0.5 * (1 + np.cos(np.pi * x / geometry.inradius())) * 0.33)
        N = _DENSITIES[name]
        ours = equivalence_check(nl033, build_map(N), p0, u, T=0.4, dt=0.002)
        assert ours.hex() == reference_equivalence_check(nl033, N, p0, u, T=0.4, dt=0.002).hex()

    @pytest.mark.parametrize("name", _DENSITIES)
    def test_inverse_keeps_the_unit_interval(self, name):
        # the step loop evaluates N^2 at _inv(q) for a clipped q without a
        # second clip: monotone PCHIP stays between its node values
        gf = build_map(_DENSITIES[name])
        rng = np.random.default_rng(25)
        for q in [np.array([0.0, 1.0]), gf.script_table] + [rng.random(250_000) for _ in range(8)]:
            x = gf._inv(q)
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_the_heat_side_maps_back_a_clipped_q(self, nl033):
        # here CN leaves q about 1e-18 below 0 beside the pinned boundary, too
        # little to move the discrepancy's bits: read what _inv is given
        seen = []
        gf = build_map(_DENSITIES["affine"])
        inv = gf._inv
        gf = replace(gf, _inv=lambda q: seen.append((q.min(), q.max())) or inv(q))
        g = DomainGeometry.interval(1.0)
        p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * g.grid(101))) * 0.33)
        equivalence_check(nl033, gf, p0, 0.0, T=0.4, dt=0.002)
        assert len(seen) == 200 and min(seen)[0] == 0.0 and max(seen)[1] <= 1.0

    def test_the_step_loop_evaluates_each_value_once(self, nl033, monkeypatch):
        calls = []
        gf = build_map(lambda p: calls.append(np.shape(p)) or 1.0 + np.asarray(p, dtype=float))
        calls.clear()

        def checked(*args):
            raise AssertionError("the step loop calls a checked evaluation")

        monkeypatch.setattr(transform, "tilde_f", checked)
        monkeypatch.setattr(BistableNonlinearity, "f", checked)
        g = DomainGeometry.interval(1.0)
        p0 = GridProfile(g, 0.5 * (1 + np.cos(np.pi * g.grid(41))) * 0.33)
        equivalence_check(nl033, gf, p0, 0.0, T=0.1, dt=0.01)
        assert calls == [(3, 41)] * 10  # one call per step
