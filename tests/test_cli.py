import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdcontrol import cli
from rdcontrol.cli import main
from rdcontrol.model import GridProfile
from rdcontrol.scenario import EXPERIMENTS, PRESETS, load_scenario, scenario_hash, write_csv

# a valid value of each key that some experiment reads besides the common ones
_VALID = {"boundary": 1, "dt": 0.02, "T": 1.0, "p0": {"kind": "const", "value": 0.5},
          "targets": [0], "delta1": 0.05, "T1": 5.0, "family": "gauss_in", "sigmas": [1.0],
          "horizons": [1.0], "delta": 0.5, "seed": 1}


class TestScenarioValidation:
    def test_missing_experiment(self):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match="experiment"):
            load_scenario({"domain": {"kind": "interval", "L": 1.0}})

    def test_unknown_preset(self):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match="unknown preset"):
            load_scenario({"preset": "nope"})

    def test_preset_expansion_with_override(self):
        sc = load_scenario({"preset": "fig4", "n": 321})
        assert sc.experiment == "barriers"
        assert sc.n == 321
        assert sc.drift.family == "gauss_out" and sc.drift.sigma == 40.0
        assert sc.geometry.inradius() == 2.5

    def test_bad_numeric_field(self):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match="dt and T must be positive"):
            load_scenario({"experiment": "transform-check",
                           "domain": {"kind": "interval", "L": 1.0}, "dt": -0.1})

    def test_the_table_lists_every_key_some_experiment_reads(self):
        assert set().union(*EXPERIMENTS.values()) == set(_VALID)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_keys_only_other_experiments_read_exit_2(self, tmp_path, capsys, experiment):
        base = {"experiment": experiment, "domain": {"kind": "interval", "L": 1.0}}
        if experiment == "transform-check":  # it needs an infection drift to load
            base["drift"] = {"kind": "infection"}
        own = {key: _VALID[key] for key in EXPERIMENTS[experiment]}
        load_scenario({**base, **own})  # every key the experiment reads loads
        foreign = sorted(set(_VALID) - set(own))
        assert foreign
        for key in foreign:
            sc = _write_scenario(tmp_path, {**base, **own, key: _VALID[key]})
            assert main(["preset", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.strip().endswith(f"unknown key {key}")

    def test_model_fragment_shape(self):
        # the documented JSON fragment parses as-is
        frag = {"f": {"kind": "cubic", "theta": 0.33},
                "drift": {"kind": "radial", "family": "gauss_out", "sigma": 40.0},
                "domain": {"kind": "interval", "L": 2.5},
                "experiment": "eigen"}
        sc = load_scenario(frag)
        assert sc.nl.theta == 0.33

    def test_unknown_keys_are_named(self):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match=r"unknown key Tmax$"):
            load_scenario({"preset": "fig6_strong", "Tmax": 5})
        with pytest.raises(InvalidInput, match=r"unknown key jobs, domain\.foo$"):
            load_scenario({"preset": "fig4_strong", "jobs": 4,
                           "domain": {"kind": "interval", "L": 2.5, "foo": 1}})
        for block in ({"f": {"kind": "cubic", "theta": 0.33, "values": [0.0]}},
                      {"drift": {"kind": "homogeneous", "sigma": 1.0}},
                      {"p0": {"kind": "const", "value": 0.5, "path": "p.csv"}}):
            name = next(iter(block))
            with pytest.raises(InvalidInput, match=rf"unknown key {name}\."):
                load_scenario({"preset": "fig6_strong", **block})
        with pytest.raises(InvalidInput, match="drift must be an object"):
            load_scenario({"preset": "fig6_strong", "drift": "gauss_out"})
        with pytest.raises(InvalidInput, match="p0.kind 'ramp'"):
            load_scenario({"preset": "fig6_strong", "p0": {"kind": "ramp"}})

    def test_malformed_values_are_named(self, tmp_path):
        from rdcontrol.errors import InvalidInput

        for block, match in (({"f": {"kind": "tabulated", "theta": 0.33}}, "missing field f.p"),
                             ({"n": "abc"}, "n must be a finite number"),
                             ({"dt": "x"}, "dt must be a finite number"),
                             ({"n": math.inf}, "n must be a finite number"),
                             ({"drift": {"kind": "radial", "family": "sin", "sigma": "x"}},
                              r"drift\.sigma must be a finite number"),
                             ({"horizons": "abc"}, "horizons must be a list of numbers"),
                             ({"sigmas": [1, "x"]}, "sigmas must be a list of numbers")):
            with pytest.raises(InvalidInput, match=match):
                load_scenario({"preset": "mintime_gauss_in", **block})
        with pytest.raises(InvalidInput, match="T must be a finite number"):
            load_scenario({"preset": "fig6_strong", "T": math.nan})
        sc = load_scenario({"preset": "fig6_strong", "p0": {"kind": "profile"}})
        with pytest.raises(InvalidInput, match="missing field p0.path"):
            sc.initial_profile()

    @pytest.mark.parametrize("targets, message", [
        (["x"], r"targets\[0\] must be a number in \[0, 1\]"),
        ([[0.33]], r"targets\[0\] must be"),
        ([1.7], r"targets\[0\] must be"),
        ([math.nan], r"targets\[0\] must be"),
        ([0, [0.33, -0.1]], r"targets\[1\] must be"),
        ([0, [0.3, 0.5, 0.1]], r"targets\[1\] must be"),
        ([1, True], r"targets\[1\] must be"),
        (0.5, "targets must be a list"),
        ([], "targets must be a non-empty list")])
    def test_bad_targets_are_named(self, targets, message):
        from rdcontrol.errors import InvalidInput

        with pytest.raises(InvalidInput, match=message):
            load_scenario({"preset": "fig6_strong", "targets": targets})

    def test_tabulated_f_loads(self):
        p = np.union1d(np.linspace(0.0, 1.0, 33), [0.33])
        sc = load_scenario({"preset": "fig6_strong",
                            "f": {"kind": "tabulated", "theta": 0.33, "p": p.tolist(),
                                  "values": (p * (1 - p) * (p - 0.33)).tolist()}})
        assert sc.nl.kind == "tabulated"


class TestCsv:
    def test_meta_row_and_digits(self, tmp_path):
        raw = {"experiment": "eigen"}
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [(1.0 / 3.0, 2)], raw)
        lines = path.read_text().splitlines()
        assert lines[0].startswith('"# scenario=')
        assert scenario_hash(raw)[:8] in lines[0]
        assert lines[1] == "a,b"
        assert lines[2].startswith("0.3333333333")

    def test_reproducible_bytes(self, tmp_path):
        rc = main(["eigen", "--scenario", _write_scenario(tmp_path, {
            "experiment": "eigen", "domain": {"kind": "interval", "L": 1.0}, "n": 64}),
            "--out", str(tmp_path / "o1")])
        assert rc == 0
        rc = main(["eigen", "--scenario", _write_scenario(tmp_path, {
            "experiment": "eigen", "domain": {"kind": "interval", "L": 1.0}, "n": 64}),
            "--out", str(tmp_path / "o2")])
        assert rc == 0
        b1 = (tmp_path / "o1" / "eigenprofile.csv").read_bytes()
        b2 = (tmp_path / "o2" / "eigenprofile.csv").read_bytes()
        assert b1 == b2

    def test_negative_infinity_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [(-math.inf, math.inf)], {})
        assert path.read_text().splitlines()[2] == "-inf,inf"
        assert np.loadtxt(path, delimiter=",", skiprows=2).tolist() == [-math.inf, math.inf]

    @pytest.mark.parametrize("rows", [
        [(math.inf, -math.inf, math.nan, -0.0)],
        [(1e-300, 1e300, -1e-300, 5e-324), (np.float64(1.0 / 3.0), np.float64(-2.5e-17),
                                             np.float64(1e300), np.float64(-0.0))],
        [(1, -7, np.int64(12345678901), True), ("x", "p", "", "a,b")],
        [("to_zero", "blocked", math.inf), ("to_one", "converged", 50.4),
         ("to_theta", "blocked", math.inf)],
        [(0.5, 2), (2, 0.5), ("inf", math.inf)],
        [],
    ], ids=["non-finite", "extremes-and-float64", "ints-and-strings", "report", "mixed", "empty"])
    def test_rows_match_the_per_cell_rule(self, tmp_path, rows):
        # the rule the CSV format is defined by: format(v, ".10g") for a
        # float, str(v) for anything else, one cell at a time
        path = tmp_path / "t.csv"
        header = [f"c{k}" for k in range(len(rows[0]) if rows else 2)]
        write_csv(str(path), header, iter(rows), {})
        expected = [",".join(format(v, ".10g") if isinstance(v, float) else str(v) for v in row)
                    for row in rows]
        assert path.read_bytes().decode().split("\r\n")[2:-1] == expected


class TestSvg:
    @staticmethod
    def _per_point(series, x, y) -> str:
        """Polyline points as one f-string per point, with the axis maps
        of ``line_plot`` written out."""
        from rdcontrol.svgplot import H, MARGIN, W

        xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
        ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
        x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
        y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
        if y_hi - y_lo < 1e-12:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(v):
            return MARGIN + (v - x_lo) / (x_hi - x_lo) * (W - 2 * MARGIN)

        def sy(v):
            return H - MARGIN - (v - y_lo) / (y_hi - y_lo) * (H - 2 * MARGIN)

        return " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                        for a, b in zip(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))

    @pytest.mark.parametrize("series", [
        # one constant series: the y range is widened by +-0.5
        [(np.linspace(-3.0, -1.0, 41), np.full(41, -0.25), "black", "")],
        [(np.linspace(-3.0, -1.0, 41), np.full(41, -0.25), "black", "flat"),
         (np.linspace(-2.5, 0.5, 77), -np.sin(np.linspace(0.0, 7.0, 77)) ** 3, "red", "")],
    ], ids=["constant", "negative-and-mixed"])
    def test_polyline_matches_per_point_format(self, tmp_path, series):
        from rdcontrol.svgplot import line_plot

        path = tmp_path / "p.svg"
        line_plot(str(path), series, title="t", xlabel="x", ylabel="y")
        points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert points == [self._per_point(series, x, y) for x, y, _, _ in series]


def _write_scenario(tmp_path, obj, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestCommands:
    def test_exit_code_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["eigen", "--scenario", str(bad)]) == 2

    def test_exit_code_unknown_key(self, tmp_path, capsys):
        assert main(["preset", "--scenario", _write_scenario(
            tmp_path, {"preset": "fig6_strong", "Tmax": 5})]) == 2
        assert "unknown key Tmax" in capsys.readouterr().err

    def test_exit_code_bad_target(self, tmp_path, capsys):
        assert main(["preset", "--scenario", _write_scenario(
            tmp_path, {"preset": "fig6_strong", "targets": [0, 1.7]}),
            "--out", str(tmp_path / "o")]) == 2
        assert "targets[1] must be a number in [0, 1]" in capsys.readouterr().err

    def test_every_experiment_has_one_runner(self):
        assert set(cli._RUNNERS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("T1", [0, -5])
    def test_report_nonpositive_T1_exit_2(self, tmp_path, capsys, T1):
        sc = _write_scenario(tmp_path, {"experiment": "report", "T1": T1,
                                        "domain": {"kind": "interval", "L": 1.0},
                                        "n": 41, "dt": 0.05, "T": 20.0})
        assert main(["report", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
        assert "invalid-scalar: T1 must be positive" in capsys.readouterr().err

    def test_exit_code_empty_experiment(self, tmp_path):
        assert main(["preset", "--scenario", _write_scenario(
            tmp_path, {"domain": {"kind": "interval", "L": 1.0}})]) == 2

    def test_eigen_command(self, tmp_path):
        rc = main(["eigen", "--scenario", _write_scenario(tmp_path, {
            "experiment": "eigen", "domain": {"kind": "interval", "L": 1.0},
            "n": 128}), "--out", str(tmp_path / "out")])
        assert rc == 0
        info = json.loads((tmp_path / "out" / "eigen.json").read_text())
        assert info["lambda1_dirichlet"] == pytest.approx((np.pi / 2) ** 2, rel=1e-3)

    def test_eigen_on_a_radial_drift_reports_the_certificate_eigenvalue(self, tmp_path):
        rc = main(["eigen", "--scenario", _write_scenario(tmp_path, {
            "experiment": "eigen", "domain": {"kind": "interval", "L": 1.0}, "n": 128,
            "drift": {"kind": "radial", "family": "gauss_in", "sigma": 1.0}}),
            "--out", str(tmp_path / "out")])
        assert rc == 0
        info = json.loads((tmp_path / "out" / "eigen.json").read_text())
        assert info["certificate"]["which"] == "general"
        assert info["lambda_sigma"] == info["certificate"]["lhs"]
        assert info["lambda_sigma"] > info["lambda1_dirichlet"]

    def test_barriers_strong_preset(self, tmp_path):
        rc = main(["preset", "fig5_strong", "--out", str(tmp_path / "o")])
        assert rc == 0
        ev = json.loads((tmp_path / "o" / "events.json").read_text())
        assert ev["barrier_0"]["exists"] is True
        assert ev["barrier_0"]["residual"] < 1e-6
        assert (tmp_path / "o" / "barrier_0.csv").exists()
        assert (tmp_path / "o" / "barrier_0_phase.svg").exists()
        svg = (tmp_path / "o" / "barrier_0_phase.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("boundary", [2, 0.6, -1, "1.5", True])
    def test_barriers_boundary_other_than_0_or_1_exit_2(self, tmp_path, capsys, boundary):
        sc = _write_scenario(tmp_path, {"preset": "fig5_strong", "boundary": boundary})
        assert main(["barriers", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
        assert "boundary must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_barriers_with_infection_drift_exit_2(self, tmp_path, capsys):
        rc = main(["barriers", "--scenario", _write_scenario(tmp_path, {
            "experiment": "barriers", "domain": {"kind": "interval", "L": 1.0}, "n": 101,
            "drift": {"kind": "infection", "family": "affine", "a": 1, "b": 1}}),
            "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "transform-check" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eigen", "energy"])
    def test_weighted_problem_on_an_infection_drift_exit_2(self, tmp_path, capsys, command):
        # the weight N^{2/sigma} and lambda_sigma need N(x), not N(p)
        rc = main([command, "--scenario", _write_scenario(tmp_path, {
            "experiment": command, "domain": {"kind": "interval", "L": 1.0}, "n": 101,
            "drift": {"kind": "infection", "family": "affine", "a": 1, "b": 1}}),
            "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "transform-check" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_time_stepping_on_an_infection_drift_exit_2(self, tmp_path, capsys, command):
        # the N = 1 stepper would drop the 2 (N'/N) |grad p|^2 term
        rc = main([command, "--scenario", _write_scenario(tmp_path, {
            "experiment": command, "domain": {"kind": "interval", "L": 1.0}, "n": 101,
            "T": 3.0, "drift": {"kind": "infection", "family": "affine", "a": 1, "b": 1}}),
            "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "transform-check" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_barrier_trajectory_starts_from_the_search_alpha(self, tmp_path):
        # at sigma = 0.1 the boundary-1 edge sits near alpha = 1e-25 and the
        # profile's centre clips to ~0: the shot starts from alpha instead
        assert main(["barriers", "--scenario", _write_scenario(tmp_path, {
            "experiment": "barriers", "boundary": 1, "n": 401,
            "drift": {"kind": "radial", "family": "gauss_out", "sigma": 0.1},
            "domain": {"kind": "interval", "L": 2.5}}), "--out", str(tmp_path / "o")]) == 0
        alpha = json.loads((tmp_path / "o" / "events.json").read_text())["barrier_1"]["alpha"]
        assert 0.0 < alpha < 1e-20
        first = (tmp_path / "o" / "barrier_1_trajectory.csv").read_text().splitlines()[2]
        assert first.split(",")[1] == f"{alpha:.10g}"

    def test_transform_check_preset(self, tmp_path):
        rc = main(["preset", "transform_check", "--out", str(tmp_path / "o")])
        assert rc == 0
        info = json.loads((tmp_path / "o" / "transform.json").read_text())
        assert info["script_N_theta"] == pytest.approx(((1.33) ** 3 - 1) / 7, abs=1e-10)
        assert info["sup_discrepancy"] < 5e-3

    def test_one_map_per_transform_check_run(self, tmp_path, monkeypatch):
        from rdcontrol import transform

        maps = []
        build = transform.build_map
        monkeypatch.setattr(transform, "build_map", lambda N: maps.append(N) or build(N))
        assert main(["preset", "transform_check", "--out", str(tmp_path / "o")]) == 0
        assert len(maps) == 1

    def test_transform_check_with_decreasing_N(self, tmp_path):
        # N = 1 - 0.9 p makes int_0^1 f~ negative at theta = 0.33; the
        # equivalence check does not need its sign, so the run succeeds
        assert main(["transform-check", "--scenario", _write_scenario(tmp_path, {
            "experiment": "transform-check", "domain": {"kind": "interval", "L": 1.0},
            "n": 51, "T": 0.5, "dt": 0.004,
            "drift": {"kind": "infection", "family": "affine", "a": 1, "b": -0.9}}),
            "--out", str(tmp_path / "o")]) == 0
        info = json.loads((tmp_path / "o" / "transform.json").read_text())
        assert info["script_N_theta"] == pytest.approx((1 - 0.703**3) / 0.999, abs=1e-10)
        assert info["sup_discrepancy"] < 5e-3

    def test_simulate_agrees_with_asymptotic_verdict(self, tmp_path):
        from rdcontrol.dynamics import asymptotic_verdict

        assert main(["preset", "fig6_strong", "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "verdict.json").read_text())
        sc = load_scenario({"preset": "fig6_strong"})
        for a in (0.0, 1.0):
            v = asymptotic_verdict(GridProfile(sc.geometry, np.full(sc.n, 1.0 - a)), sc.nl,
                                   sc.drift, a, sc.T, sc.dt)
            assert v.status == out[f"{a:g}"]["status"] == "blocked"
            assert v.stall < 1e-3 / 10 and v.horizon == sc.T
            # both rules mark the stall at t = 72 and stop at t = 80
            assert out[f"{a:g}"]["tail_move"] == pytest.approx(v.stall, rel=1e-9)
            assert out[f"{a:g}"]["residual_sup"] == pytest.approx(v.residual_sup, rel=1e-9)

    def test_simulate_and_asymptotic_verdict_check_the_start_state(self, tmp_path):
        from rdcontrol.dynamics import asymptotic_verdict

        scenario = {"experiment": "simulate", "domain": {"kind": "interval", "L": 1.0},
                    "n": 101, "dt": 0.02, "T": 5.0, "targets": [[0.33, 0.33]]}
        assert main(["preset", "--scenario", _write_scenario(tmp_path, scenario),
                     "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "verdict.json").read_text())["0.33_from_0.33"]
        sc = load_scenario(scenario)
        v = asymptotic_verdict(GridProfile(sc.geometry, np.full(101, 0.33)), sc.nl, sc.drift,
                               0.33, T_max=5.0, dt=0.02)
        assert (v.status, v.time) == (out["status"], out["time"]) == ("converged", 0.0)

    def test_simulate_short_horizon_exit_3(self, tmp_path, capsys):
        # at T = 0.1 the only snapshot at t >= 0.9 T is the horizon: no stall measured
        for T in (2, 0.1):
            assert main(["preset", "--scenario", _write_scenario(
                tmp_path, {"preset": "fig6_strong", "T": T}), "--out", str(tmp_path / "o")]) == 3
            assert "horizon-too-short" in capsys.readouterr().err

    def test_simulate_converged_time_is_first_close_snapshot(self, tmp_path):
        assert main(["preset", "fig6", "--out", str(tmp_path / "o")]) == 0
        out = json.loads((tmp_path / "o" / "verdict.json").read_text())
        for a in (0.0, 1.0):
            rows = np.loadtxt(tmp_path / "o" / f"simulate_to_{a:g}.csv", delimiter=",",
                              skiprows=2)
            times = np.unique(rows[:, 0])
            gaps = np.array([np.max(np.abs(rows[rows[:, 0] == t, 2] - a)) for t in times])
            first = times[np.argmax(gaps < 1e-3)]
            assert gaps.min() < 1e-3
            assert out[f"{a:g}"]["status"] == "converged"
            assert out[f"{a:g}"]["time"] == pytest.approx(first, abs=1e-9)
            assert out[f"{a:g}"]["time"] < PRESETS["fig6"]["T"]

    def test_simulate_csv_rows_are_the_snapshots_node_by_node(self, tmp_path):
        # the reference is the nested loop over snapshots, then grid nodes
        from rdcontrol.dynamics import ControlSchedule, simulate

        raw = {"preset": "fig6_strong", "n": 21, "T": 2.0, "targets": [[0.33, 0.9]]}
        assert main(["preset", "--scenario", _write_scenario(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) in (0, 3)
        sc = load_scenario(raw)
        sim = simulate(GridProfile(sc.geometry, np.full(sc.n, 0.9)), sc.nl, sc.drift,
                       ControlSchedule.static(0.33), sc.T, sc.dt,
                       snapshot_every=max(1, int(round(sc.T / sc.dt / 40))))
        expected = [f"{t:.10g},{x:.10g},{p:.10g}" for t, snap in zip(sim.times, sim.snapshots)
                    for x, p in zip(snap.x, snap.values)]
        text = (tmp_path / "o" / "simulate_to_0.33_from_0.9.csv").read_bytes().decode()
        assert text.split("\r\n")[2:-1] == expected

    @given(theta=st.floats(0.30, 0.36), sigma=st.floats(0.8, 1.25), n=st.integers(17, 65),
           L=st.floats(1.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_simulate_csv_is_byte_reproducible(self, tmp_path_factory, theta, sigma, n, L,
                                               seed):
        tmp = tmp_path_factory.mktemp("simulate")
        sc = _write_scenario(tmp, {
            "experiment": "simulate", "f": {"kind": "cubic", "theta": theta},
            "drift": {"kind": "radial", "family": "gauss_out", "sigma": sigma},
            "domain": {"kind": "interval", "L": L}, "n": n, "dt": 0.05, "T": 5.0,
            "targets": [0], "p0": {"kind": "random"}, "seed": seed})
        # the CSV is written before the verdict, so it exists on exit 3 too
        codes = [main(["simulate", "--scenario", sc, "--out", str(tmp / o)]) for o in "ab"]
        assert codes[0] == codes[1] and codes[0] in (0, 3)
        csv = [(tmp / o / "simulate_to_0.csv").read_bytes() for o in "ab"]
        assert csv[0] == csv[1]

    def test_report_unblocking_preset(self, tmp_path):
        assert main(["preset", "unblocking", "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        targets = ("to_zero", "to_one", "to_theta")
        assert sorted(rep) == sorted(targets)
        assert all(rep[k]["status"] == "converged" for k in targets)
        assert rep["to_theta"]["time"] == pytest.approx(4.54, abs=1e-9)
        rows = (tmp_path / "o" / "report.csv").read_text().splitlines()[2:]
        assert rows == [f"{k},{rep[k]['status']},{rep[k]['time']:.10g}" for k in targets]

    def test_report_looks_each_witness_up_once_and_shoots_none(self, tmp_path, monkeypatch):
        # fig7_report: to_zero and the staircase's barrier-to-0 cite one barrier
        from rdcontrol import control, steady

        finds, shots = [], []
        find, shoot = control.find_barrier_zero, steady.shoot_radial
        monkeypatch.setattr(control, "find_barrier_zero",
                            lambda *a, **k: finds.append(a) or find(*a, **k))
        monkeypatch.setattr(steady, "shoot_radial",
                            lambda *a, **k: shots.append(a) or shoot(*a, **k))
        assert main(["preset", "fig7_report", "--out", str(tmp_path / "o")]) == 0
        assert len(finds) == 1 and not shots
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        for key in ("to_zero", "to_theta"):
            assert rep[key]["status"] == "blocked"
            assert rep[key]["witness"]["p_max"] == pytest.approx(0.5726740231032897, abs=1e-9)
            assert rep[key]["witness"]["residual"] <= 1e-9

    def test_energy_demo_preset(self, tmp_path):
        assert main(["preset", "energy_demo", "--out", str(tmp_path / "o")]) == 0
        info = json.loads((tmp_path / "o" / "energy.json").read_text())
        assert info["status"] == "bracketed"
        assert info["sigma_star"] == pytest.approx(0.09624949011575207, abs=1e-6)
        scan = np.loadtxt(tmp_path / "o" / "energy_scan.csv", delimiter=",", skiprows=2)
        assert scan.shape == (9, 4) and np.all(np.isfinite(scan))

    def test_energy_without_finite_threshold_scans_a_fixed_window(self, tmp_path):
        # a homogeneous drift never turns the energy negative: sigma* = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["energy", "--scenario", _write_scenario(tmp_path, {
                "experiment": "energy", "domain": {"kind": "interval", "L": 1.0}, "n": 101}),
                "--out", str(tmp_path / "o")]) == 0
        info = json.loads((tmp_path / "o" / "energy.json").read_text())
        assert info["status"] == "never-negative" and info["sigma_star"] == math.inf
        scan = np.loadtxt(tmp_path / "o" / "energy_scan.csv", delimiter=",", skiprows=2)
        assert scan.shape == (9, 4) and np.all(np.isfinite(scan))
        assert scan[0, 0] == pytest.approx(1e-3) and scan[-1, 0] == pytest.approx(8.0)

    def test_mintime_command(self, tmp_path):
        rc = main(["mintime", "--scenario", _write_scenario(tmp_path, {
            "experiment": "mintime-scan", "family": "gauss_in",
            "sigmas": [2.5, 0.625], "horizons": list(np.geomspace(1.0, 80.0, 14)),
            "domain": {"kind": "interval", "L": 2.5}, "n": 81, "dt": 0.02}),
            "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "mintime_gauss_in.csv").read_text().splitlines()
        assert lines[1] == "sigma,T_min"
        vals = [float(x.split(",")[1]) for x in lines[2:]]
        assert vals[1] <= vals[0]

    @pytest.mark.parametrize("block, message", [
        ({"horizons": [10.0, math.inf]}, "horizons must be finite and positive"),
        ({"horizons": [10.0, math.nan]}, "horizons must be finite and positive"),
        ({"horizons": []}, "horizons must be non-empty"),
        ({"horizons": "abc"}, "horizons must be a list of numbers"),
        ({"sigmas": [1, "x"]}, "sigmas must be a list of numbers"),
        ({"f": {"kind": "tabulated", "theta": 0.33}}, "missing field f.p"),
        ({"n": "abc"}, "n must be a finite number"),
        ({"dt": "x"}, "dt must be a finite number"),
        ({"drift": {"kind": "infection", "family": "affine", "a": 1, "b": 1}},
         "reads no drift, got drift.kind 'infection'"),
        # only JSON numbers, and an integer key takes no fraction
        ({"n": "64"}, "n must be a finite number"),
        ({"n": 100.9}, "n must be a finite number with an integral value, got 100.9"),
        ({"family": "nope"}, "invalid-family: nope"),
        ({"domain": {"kind": "ball", "R": 2, "d": 2.5}},
         "domain.d must be a finite number with an integral value")])
    def test_exit_code_bad_mintime_values(self, tmp_path, capsys, block, message):
        sc = _write_scenario(tmp_path, {"preset": "mintime_gauss_in", "sigmas": [2.5], **block})
        assert main(["preset", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ({"preset": "fig6_strong", "targets": []}, "targets must be a non-empty list"),
        ({"preset": "fig6_strong", "seed": 1.5},
         "seed must be a finite number with an integral value"),
        ({"preset": "eigen_demo", "seed": 5}, "unknown key seed"),
        ({"preset": "mintime_gauss_in", "sigmas": []}, "mintime-scan needs family and sigmas"),
        ({"experiment": "mintime-scan", "family": "gauss_in",
          "domain": {"kind": "interval", "L": 2.5}}, "mintime-scan needs family and sigmas"),
        ({"experiment": "mintime-scan", "sigmas": [2.5],
          "domain": {"kind": "interval", "L": 2.5}}, "mintime-scan needs family and sigmas"),
        ({"preset": "mintime_gauss_in", "drift": {"kind": "radial", "family": "sin", "sigma": 1}},
         "reads no drift, got drift.kind 'radial'"),
        ({"preset": "transform_check", "drift": {"kind": "homogeneous"}},
         "transform-check needs an infection drift"),
    ], ids=["empty-targets", "fractional-seed", "seed-off-simulate", "empty-sigmas",
            "no-sigmas", "no-family", "mintime-drift", "transform-without-infection"])
    def test_configuration_errors_exit_2_before_any_output(self, tmp_path, capsys, raw,
                                                             message):
        out = tmp_path / "o"
        sc = _write_scenario(tmp_path, raw)
        assert main(["preset", "--scenario", sc, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_only_on_simulate_and_preset(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--seed", "5", "--scenario", "eigen.json", "--out", out])
        assert exc.value.code == 2
        assert main(["preset", "eigen_demo", "--seed", "5", "--out", out]) == 2
        assert "unknown key seed" in capsys.readouterr().err
        assert cli.build_parser().parse_args(["simulate", "--seed", "5"]).seed == 5

    def test_exit_code_bad_sigmas_flag(self, tmp_path, capsys):
        sc = _write_scenario(tmp_path, {"preset": "mintime_gauss_in", "sigmas": [2.5]})
        for sigmas in ("1,x", ""):  # an empty flag is checked, not dropped
            assert main(["mintime", "--scenario", sc, "--sigmas", sigmas,
                         "--out", str(tmp_path / "o")]) == 2
            assert "--sigmas must be comma-separated numbers" in capsys.readouterr().err

    def test_exit_code_zero_grid_flag(self, tmp_path, capsys):
        # a falsy --grid is range-checked, not dropped for the scenario's n
        sc = _write_scenario(tmp_path, {"preset": "eigen_demo"})
        assert main(["preset", "--scenario", sc, "--grid", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "n=0 outside [16, 100001]" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["mintime", "--jobs", "2", "--family", "gauss_in", "--sigmas", "2.5",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_all_presets_parse(self):
        for name in PRESETS:
            sc = load_scenario({"preset": name})
            assert sc.experiment in ("barriers", "simulate", "report", "mintime-scan",
                                     "eigen", "energy", "transform-check")


class TestInitialProfile:
    """p0 blocks run through ``simulate`` on fig6_strong with T = 5."""

    @staticmethod
    def _simulate(tmp_path, p0):
        sc = _write_scenario(tmp_path, {"preset": "fig6_strong", "targets": [0], "T": 5.0,
                                        "p0": p0})
        return main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")])

    def test_profile_reads_a_barrier_csv_of_this_package(self, tmp_path):
        assert main(["preset", "fig5_strong", "--out", str(tmp_path / "b")]) == 0
        path = str(tmp_path / "b" / "barrier_0.csv")
        assert self._simulate(tmp_path, {"kind": "profile", "path": path}) == 0
        assert json.loads((tmp_path / "o" / "verdict.json").read_text())["0"]["status"] == "blocked"

    def test_barrier_seeded(self, tmp_path):
        assert self._simulate(tmp_path, {"kind": "barrier-seeded", "boundary": 0}) == 0
        assert json.loads((tmp_path / "o" / "verdict.json").read_text())["0"]["status"] == "blocked"

    @pytest.mark.parametrize("boundary", [0.5, 2, "x"])
    def test_barrier_seeded_boundary_other_than_0_or_1_exit_2(self, tmp_path, capsys,
                                                               boundary):
        assert self._simulate(tmp_path, {"kind": "barrier-seeded", "boundary": boundary}) == 2
        assert "p0.boundary must be" in capsys.readouterr().err

    def test_barrier_seeded_on_a_d1_ball_keeps_the_scenario_grid(self, tmp_path):
        # a d = 1 ball is [0, R]: the seed is searched on that grid, not on (-R, R)
        raw = {"preset": "fig6_strong", "targets": [0], "T": 5.0, "n": 101,
               "domain": {"kind": "ball", "R": 2.5, "d": 1},
               "p0": {"kind": "barrier-seeded", "boundary": 0}}
        sc = load_scenario(raw)
        p0 = sc.initial_profile()
        assert (p0.geometry, p0.n) == (sc.geometry, sc.n)
        assert main(["simulate", "--scenario", _write_scenario(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 0
        x = np.loadtxt(tmp_path / "o" / "simulate_to_0.csv", delimiter=",", skiprows=2)[:, 1]
        assert (x.min(), x.max()) == (0.0, 2.5)
        assert json.loads((tmp_path / "o" / "verdict.json").read_text())["0"]["status"] == "blocked"

    def test_const_outside_unit_interval_exit_2(self, tmp_path, capsys):
        assert self._simulate(tmp_path, {"kind": "const", "value": 1.5}) == 2
        assert "proportion outside [0,1]" in capsys.readouterr().err

    def test_profile_outside_unit_interval_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "p.csv")
        write_csv(path, ["x", "p"], [(-2.5, 2.0), (2.5, 2.0)], {})
        assert self._simulate(tmp_path, {"kind": "profile", "path": path}) == 2
        assert "proportion outside [0,1]" in capsys.readouterr().err

    def test_unparsable_profile_names_the_path_exit_2(self, tmp_path, capsys):
        # a cell that is no number, and no data row after the two header rows
        for k, text in enumerate(['"# meta"\nx,p\n0.0,half\n', '"# meta"\nx,p\n']):
            path = tmp_path / f"p{k}.csv"
            path.write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert self._simulate(tmp_path, {"kind": "profile", "path": str(path)}) == 2
            # stderr as a terminal shows it: the captured text plus any warning
            err = capsys.readouterr().err + "".join(
                warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                for w in caught)
            assert f"p0.path {path} is not an x,p CSV" in err
            assert "Warning" not in err


_IMPORT_SET = """
import importlib, json, pkgutil, sys
import rdcontrol
from rdcontrol import elliptic
from rdcontrol.cli import main
for info in pkgutil.iter_modules(rdcontrol.__path__):
    importlib.import_module("rdcontrol." + info.name)
out, tabulated = sys.argv[1], sys.argv[2]
codes = [main(["preset", "energy_demo", "--out", out + "/energy"]),
         main(["preset", "transform_check", "--out", out + "/transform"]),
         main(["eigen", "--scenario", tabulated, "--out", out + "/eigen"])]
print(json.dumps({"codes": codes, "loaded": sorted(
    m for m in ("scipy.integrate", "scipy.interpolate", "scipy.special") if m in sys.modules),
    "bundled": elliptic._DGTTRF is not None,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_no_run_loads_scipy_quadrature_interpolation_or_special(tmp_path):
    # one fresh process: every module, energy_demo, transform_check and an
    # eigen run on a tabulated f (PCHIP, its derivative and F)
    p = np.union1d(np.linspace(0.0, 1.0, 33), [0.33])
    tabulated = _write_scenario(tmp_path, {
        "experiment": "eigen", "domain": {"kind": "interval", "L": 1.0}, "n": 101,
        "f": {"kind": "tabulated", "theta": 0.33, "p": p.tolist(),
              "values": (p * (1 - p) * (p - 0.33)).tolist()}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-c", _IMPORT_SET, str(tmp_path), tabulated],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0] and result["loaded"] == []
    if result["bundled"]:  # LAPACK from numpy's own OpenBLAS: no scipy at all
        assert result["scipy"] == []
