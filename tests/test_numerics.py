"""The numpy Simpson rules and PCHIP against scipy, their reference: each
must give bit-identical results on the data its call sites pass (the same
64 bits per value, so a -0.0 where scipy has 0.0 fails too)."""

import numpy as np
import pytest
from scipy import integrate, interpolate

from rdcontrol import energy, model, transform
from rdcontrol.model import BistableNonlinearity, DriftField
from rdcontrol.numerics import Pchip, cumulative_simpson, simpson
from rdcontrol.transform import build_map


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls, real = [], getattr(module, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _same_pchip(ours: Pchip, xs, ys, q):
    ref = interpolate.PchipInterpolator(xs, ys)
    assert _same_bits(ours.c, ref.c)
    assert _same_bits(ours(q), ref(q))
    assert _same_bits(ours.derivative()(q), ref.derivative()(q))


def _tabulated(nl033):
    p = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), [0.33]]))
    return p, nl033.f(p)


class TestSimpson:
    def test_build_map_quadrature_on_the_8193_node_grid(self, monkeypatch):
        once = _spy(monkeypatch, transform, "simpson")
        cumulative = _spy(monkeypatch, transform, "cumulative_simpson")
        build_map(lambda p: 1.0 + np.asarray(p, dtype=float))
        ((y,), kw), = once
        assert y.size == 8193 and kw["x"].size == 8193
        assert _same_bits(simpson(y, **kw), integrate.simpson(y, **kw))
        ((y, x), _), = cumulative
        assert _same_bits(cumulative_simpson(y, x),
                              integrate.cumulative_simpson(y, x=x, initial=0.0))

    def test_tabulated_antiderivative(self, monkeypatch, nl033):
        cumulative = _spy(monkeypatch, model, "cumulative_simpson")
        BistableNonlinearity.tabulated(*_tabulated(nl033), 0.33)
        ((y, x), _), = cumulative
        assert _same_bits(cumulative_simpson(y, x),
                              integrate.cumulative_simpson(y, x=x, initial=0.0))

    @pytest.mark.parametrize("n", [2049, 2048])
    def test_energy_sigma_at_odd_and_even_n(self, monkeypatch, nl033, interval_25, n):
        # an even count takes scipy's last-interval correction
        calls = _spy(monkeypatch, energy, "simpson")
        eta = energy.plateau_ramp_eta(0.5, interval_25, n)
        energy.energy_sigma(nl033, DriftField.radial("gauss_out", 1.0), 0.3, eta, interval_25)
        assert len(calls) == 2
        for (y,), kw in calls:
            assert y.size == n
            assert _same_bits(simpson(y, **kw), integrate.simpson(y, **kw))

    def test_laplace_ratio_grid(self, monkeypatch):
        calls = _spy(monkeypatch, energy, "simpson")
        energy.laplace_ratio_check(1.0, 2, np.cos, [1e-2])
        ((y,), kw), = calls
        assert _same_bits(simpson(y, **kw), integrate.simpson(y, **kw))


class TestPchip:
    def test_tabulated_f_and_its_derivative(self, nl033):
        p, fs = _tabulated(nl033)
        tab = BistableNonlinearity.tabulated(p, fs, 0.33)
        q = np.random.default_rng(0).random(10000)
        _same_pchip(tab._f_interp, p, fs, q)
        ref = interpolate.PchipInterpolator(p, fs)
        assert _same_bits(tab._fp_interp(q), ref.derivative()(q))

    def test_gene_flow_map_and_inverse(self):
        gf = build_map(lambda p: 1.0 + np.asarray(p, dtype=float))
        q = np.random.default_rng(1).random(10000)
        _same_pchip(gf._fwd, gf.x_table, gf.script_table, q)
        _same_pchip(gf._inv, gf.script_table, gf.x_table, q)
        ref = interpolate.PchipInterpolator(gf.script_table, gf.x_table)
        assert _same_bits(gf.inverse(q), ref(q))

    def test_flat_segments_and_sign_changes(self):
        # flat interior segments, and both _edge_case masks at x = 0: the
        # one-sided slope changes sign (set to 0), or it overshoots 3x the
        # first secant where the secants change sign (clamped to 3x)
        x = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.8, 1.0])
        q = np.linspace(-0.2, 1.2, 2001)
        for y, end_slope in (([0.0, 0.1, 1.1, 1.1, 0.4, 0.4, 0.0], 0.0),
                             ([0.0, 0.1, -1.9, -1.9, 0.5, 0.5, 1.0], 3.0)):
            assert interpolate.PchipInterpolator(x, y).derivative()(0.0) == end_slope
            _same_pchip(Pchip(x, y), x, y, q)
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = np.cumsum(rng.random(40) + 1e-3)
            ys = np.where(rng.random(40) < 0.3, 0.0, rng.standard_normal(40))
            _same_pchip(Pchip(xs, ys), xs, ys, rng.uniform(xs[0] - 1, xs[-1] + 1, 500))

    def test_clipped_ends_are_finite(self):
        gf = build_map(lambda p: 1.0 + np.asarray(p, dtype=float))
        ends = np.array([-1.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 2.0])
        for ours in (gf.script_N(ends), gf.inverse(ends), gf.N_squared(ends)):
            assert np.all(np.isfinite(ours))
        assert gf.script_N(0.0) == 0.0 and gf.script_N(2.0) == 1.0
        assert np.shape(gf.script_N(0.5)) == ()
        ref = interpolate.PchipInterpolator(gf.x_table, gf.script_table)
        assert _same_bits(gf.script_N(ends), ref(np.clip(ends, 0.0, 1.0)))
