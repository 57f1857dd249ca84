"""The factored tridiagonal solve against scipy's one-shot banded solve.

``factor_tridiagonal`` runs LAPACK dgttrf once and ``solve_tridiagonal``
runs dgttrs with that factor for each right-hand side; ``solve_banded((1, 1), ...)`` runs dgtsv, which does the same
partial-pivoting elimination in one call.  The answers must agree bit for
bit on every matrix the program factors.  The scipy fallback, which runs
where numpy bundles no OpenBLAS, must give the bundled library's bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from rdcontrol.dynamics import _Stepper
from rdcontrol.elliptic import assemble_operator, factor_tridiagonal, solve_tridiagonal
from rdcontrol.errors import SolverFailure
from rdcontrol.model import BistableNonlinearity, DomainGeometry, DriftField
from rdcontrol.scenario import load_scenario
from rdcontrol.steady import find_barrier_zero


def banded(lower, diag, upper, rhs):
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def stepper_matrix(geometry, n, drift, dt):
    """The implicit IMEX matrix I - dt A with pinned boundary rows."""
    lower, diag, upper = assemble_operator(geometry, n, drift)
    lo, di, up = -dt * lower, 1.0 - dt * diag, -dt * upper
    lo[-1], di[-1], up[-1] = 0.0, 1.0, 0.0
    if geometry.kind != "ball":
        lo[0], di[0], up[0] = 0.0, 1.0, 0.0
    return lo, di, up


def singular_case():
    """dgttrf's info and the solve's SolverFailure message for a singular
    matrix (its rows 0 and 1 are equal)."""
    factor = factor_tridiagonal(np.array([0.0, 1.0, 1.0, 1.0]), np.ones(4),
                                np.array([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(SolverFailure) as failure:
        solve_tridiagonal(factor, np.ones(4))
    return int(factor.info), str(failure.value)


def factor_cases() -> list:
    """The stepper factors of an interval and a d = 2 ball at n = 101 and
    513 (pivots as int64), each followed by its solutions for three
    right-hand sides."""
    nl, drift = BistableNonlinearity.cubic(0.33), DriftField.radial("gauss_out", 1.0)
    arrays = []
    for geometry in (DomainGeometry.interval(2.5), DomainGeometry.ball(2.5, 2)):
        for n in (101, 513):
            factor = _Stepper(geometry, n, drift, nl, 0.02).factor
            arrays += [factor.dl, factor.d, factor.du, factor.du2,
                       factor.ipiv.astype(np.int64), np.array([factor.info])]
            rng = np.random.default_rng(n)
            arrays += [solve_tridiagonal(factor, rng.uniform(-1.0, 1.0, n)) for _ in range(3)]
    return arrays


def assert_steps_match_banded(geometry, n, drift, nl, dt, u_left, u_right, steps=50):
    st = _Stepper(geometry, n, drift, nl, dt)
    lo, di, up = stepper_matrix(geometry, n, drift, dt)
    vals = np.random.default_rng(n).uniform(0.0, 1.0, n)
    for _ in range(steps):
        rhs = vals + dt * nl.f(vals)
        rhs[-1] = u_right
        if geometry.kind != "ball":
            rhs[0] = u_left
        expected = banded(lo, di, up, rhs)
        vals = st.advance(vals, u_left, u_right)
        assert np.array_equal(vals, expected)


class TestBitIdentity:
    @pytest.mark.parametrize("preset, n", [("fig6_strong", 201), ("unblocking", 161)])
    def test_stepper_of_preset(self, preset, n):
        sc = load_scenario({"preset": preset})
        assert sc.n == n
        for u in (0.0, 1.0):
            assert_steps_match_banded(sc.geometry, sc.n, sc.drift, sc.nl, sc.dt, u, u)

    def test_ball_origin_row(self, nl033, gauss_out):
        ball = DomainGeometry.ball(2.5, 3)
        lo, di, up = stepper_matrix(ball, 121, gauss_out, 0.02)
        assert up[0] != 0.0 and di[0] != 1.0  # the origin row is a PDE row
        assert_steps_match_banded(ball, 121, gauss_out, nl033, 0.02, 0.0, 0.4)

    def test_newton_jacobian(self, nl033, gauss_out, interval_25):
        p = find_barrier_zero(nl033, gauss_out, interval_25, n_grid=201).profile.values
        lower, diag, upper = assemble_operator(interval_25, p.size, gauss_out)
        jd = diag + nl033.fprime(p)
        jd[0] = jd[-1] = 1.0
        lower[-1] = upper[0] = 0.0
        rhs = -(nl033.f(p) + 1e-3 * np.sin(np.arange(p.size)))
        rhs[0] = rhs[-1] = 0.0
        assert np.array_equal(solve_tridiagonal(factor_tridiagonal(lower, jd, upper), rhs),
                              banded(lower, jd, upper, rhs))


class TestReuse:
    def test_one_factor_for_many_right_hand_sides(self, homog, interval_25):
        lo, di, up = stepper_matrix(interval_25, 101, homog, 0.02)
        factor = factor_tridiagonal(lo, di, up)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            rhs = rng.uniform(-1.0, 1.0, 101)
            assert np.array_equal(solve_tridiagonal(factor, rhs), banded(lo, di, up, rhs))

    def test_inputs_are_not_modified(self, homog, interval_25):
        lo, di, up = stepper_matrix(interval_25, 101, homog, 0.02)
        copies = [a.copy() for a in (lo, di, up)]
        rhs = np.linspace(0.0, 1.0, 101)
        solve_tridiagonal(factor_tridiagonal(lo, di, up), rhs)
        for a, b in zip((lo, di, up), copies):
            assert np.array_equal(a, b)
        assert np.array_equal(rhs, np.linspace(0.0, 1.0, 101))


class TestFailures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs(self, homog, interval_25, bad):
        factor = factor_tridiagonal(*stepper_matrix(interval_25, 101, homog, 0.02))
        rhs = np.full(101, 0.5)
        rhs[40] = bad
        with pytest.raises(SolverFailure, match="non-finite"):
            solve_tridiagonal(factor, rhs)

    def test_mismatched_bands(self):
        # checked before LAPACK reads n - 1 values from each off-diagonal
        with pytest.raises(ValueError):
            factor_tridiagonal(np.zeros(3), np.ones(4), np.zeros(4))

    def test_singular_matrix(self):
        info, message = singular_case()
        assert info != 0
        assert "singular" in message


# A fresh interpreter in which the lookup of numpy's OpenBLAS finds nothing,
# so rdcontrol.elliptic falls back to scipy.linalg.lapack.
_FALLBACK = """
import glob, json, sys
find = glob.glob
glob.glob = lambda pattern, **kw: [] if "openblas" in pattern else find(pattern, **kw)
sys.path.insert(0, sys.argv[1])
import numpy as np
import test_elliptic
from rdcontrol import elliptic
np.savez(sys.argv[2], *test_elliptic.factor_cases())
print(json.dumps({"bundled": elliptic._DGTTRF is not None,
                  "singular": test_elliptic.singular_case(),
                  "lapack": "scipy.linalg.lapack" in sys.modules}))
"""


def test_scipy_fallback_gives_the_bundled_bits(tmp_path):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    saved = tmp_path / "fallback.npz"
    run = subprocess.run([sys.executable, "-c", _FALLBACK, str(here), str(saved)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result == {"bundled": False, "singular": list(singular_case()), "lapack": True}
    assert result["singular"][0] != 0
    with np.load(saved) as fallback:
        expected = factor_cases()
        assert len(fallback.files) == len(expected)
        for i, array in enumerate(expected):
            got = fallback[f"arr_{i}"]
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), f"array {i}"
