"""Tests of the benchmark's own logic: output checks, failure counting and
the tracer.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import rdcontrol  # noqa: E402

META = '"# scenario=000000000000 rdcontrol=test"'


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [META, header] + [",".join(f"{v:.10g}" for v in r) for r in rows]
    path.write_text("\r\n".join(lines) + "\r\n")


def _fig4_output(out: Path, centre: float) -> dict:
    """Artifacts of a fig4_strong run whose barrier has the given centre."""
    out.mkdir()
    x = np.linspace(-2.5, 2.5, 9)
    p = centre + (1.0 - centre) * (x / 2.5) ** 2
    _write_csv(out / "barrier_1.csv", "x,p", zip(x, p))
    events = {"barrier_1": {"exists": True, "residual": 1e-11, "p_min": centre,
                            "p_max": 1.0, "alpha": centre}}
    (out / "events.json").write_text(json.dumps(events))
    return events


def _iteration(preset: str, printed: dict) -> dict:
    return {"presets": [{"name": preset, "code": 0, "s": 1.0, "output": json.dumps(printed)}]}


def test_reference_barrier_centre_passes(tmp_path):
    events = _fig4_output(tmp_path / "fig4_strong", 0.0298003422)
    problems = run.evaluate(_iteration("fig4_strong", events), ["fig4_strong"], tmp_path, True)
    assert problems == {"fig4_strong": []}


def test_perturbed_barrier_centre_counts_as_failed(tmp_path):
    events = _fig4_output(tmp_path / "fig4_strong", 0.0298003422 + 5e-6)
    problems = run.evaluate(_iteration("fig4_strong", events), ["fig4_strong"], tmp_path, True)
    assert problems["fig4_strong"] and "p_min" in problems["fig4_strong"][0]
    # nonzero seeds hold the invariants only, which the perturbed centre keeps
    assert run.evaluate(_iteration("fig4_strong", events), ["fig4_strong"], tmp_path,
                        False) == {"fig4_strong": []}


def test_large_residual_counts_as_failed(tmp_path):
    events = _fig4_output(tmp_path / "fig4_strong", 0.0298003422)
    events["barrier_1"]["residual"] = 1e-8
    (tmp_path / "fig4_strong" / "events.json").write_text(json.dumps(events))
    problems = run.evaluate(_iteration("fig4_strong", events), ["fig4_strong"], tmp_path, False)
    assert any("residual" in p for p in problems["fig4_strong"])


def _fig6_output(out: Path, statuses: dict) -> dict:
    out.mkdir(parents=True)
    verdicts = {}
    for tag, status in statuses.items():
        _write_csv(out / f"simulate_to_{tag}.csv", "t,x,p", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.5)])
        verdicts[tag] = {"status": status, "time": None, "residual_sup": 0.9, "tail_move": 0.0}
    (out / "verdict.json").write_text(json.dumps(verdicts))
    return verdicts


@pytest.mark.parametrize("seed0", [True, False])
def test_flipped_verdict_counts_as_failed(tmp_path, seed0):
    good = _fig6_output(tmp_path / "good" / "fig6_strong", {"0": "blocked", "1": "blocked"})
    assert run.evaluate(_iteration("fig6_strong", good), ["fig6_strong"],
                        tmp_path / "good", seed0) == {"fig6_strong": []}
    bad = _fig6_output(tmp_path / "bad" / "fig6_strong", {"0": "blocked", "1": "converged"})
    problems = run.evaluate(_iteration("fig6_strong", bad), ["fig6_strong"],
                            tmp_path / "bad", seed0)
    assert problems["fig6_strong"] and "blocked" in problems["fig6_strong"][0]


def test_nonzero_exit_and_missing_output_count_as_failed(tmp_path):
    res = {"presets": [{"name": "fig7", "code": 3, "s": 1.0, "output": "error: x"},
                       {"name": "unblocking", "code": 0, "s": 1.0, "output": "{}"}]}
    problems = run.evaluate(res, ["fig7", "unblocking"], tmp_path, True)
    assert problems["fig7"] and problems["unblocking"]
    assert run.evaluate({"error": "killed"}, ["fig7"], tmp_path, True) == {"fig7": ["killed"]}


def test_jitter_is_seeded_and_inside_the_box():
    assert workloads.jitter(0) == (workloads.THETA, 1.0)
    assert workloads.jitter(7) == workloads.jitter(7) != workloads.jitter(8)
    for seed in range(1, 50):
        theta, scale = workloads.jitter(seed)
        assert abs(theta - workloads.THETA) <= workloads.JITTER["theta"]
        assert abs(scale - 1.0) <= workloads.JITTER["sigma_rel"]
    assert workloads.scenarios("mintime", workloads.THETA, 1.0) == {
        "mintime_gauss_in": {"preset": "mintime_gauss_in"}}


def _modules():
    return [importlib.import_module(f"rdcontrol.{m.name}")
            for m in pkgutil.iter_modules(rdcontrol.__path__)]


def test_wrappers_restore_the_original_functions():
    modules = _modules()
    from rdcontrol import dynamics, elliptic, model

    before = {m.__name__: dict(vars(m)) for m in modules}
    post_init = model.GridProfile.__post_init__
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        assert dynamics.solve_tridiagonal is not before["rdcontrol.dynamics"]["solve_tridiagonal"]
        assert model.GridProfile.__post_init__ is not post_init
        geom = model.DomainGeometry.interval(1.0)
        nl = model.BistableNonlinearity.cubic(0.33)
        p0 = model.GridProfile(geom, np.ones(33))
        dynamics.simulate(p0, nl, model.DriftField.homogeneous(),
                          dynamics.ControlSchedule.static(0.0), T=0.1, dt=0.01)
    finally:
        tr.restore()
    for m in modules:
        now = vars(m)
        for name, obj in before[m.__name__].items():
            assert now[name] is obj, f"{m.__name__}.{name} not restored"
    assert model.GridProfile.__post_init__ is post_init
    assert elliptic.solve_tridiagonal is before["rdcontrol.elliptic"]["solve_tridiagonal"]

    metrics = tracer.layer_metrics(tr.spans, tr.counters, 1.0, 1.0, 1.0)
    assert metrics["dynamics.time_steps"] == 10
    assert metrics["elliptic.solve_tridiagonal.calls"] == 10
    assert metrics["model.GridProfile.constructed"] >= 11
    names = {s[0] for s in tr.spans}
    assert "dynamics.simulate" in names and not any(n.startswith("cli.") for n in names)
    roots = [s for s in tr.spans if s[2] < 0]
    assert [s[0] for s in roots] == ["dynamics.simulate"]


def test_self_time_subtracts_direct_children():
    spans = [["a", "x", -1, 0.0, 10.0, None, False],
             ["b", "x", 0, 1.0, 4.0, None, False],
             ["c", "x", 1, 2.0, 3.0, None, False],
             ["d", "x", 0, 5.0, 6.0, None, True]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_cover_every_listed_name():
    metrics = tracer.layer_metrics([["a", "x", -1, 0.0, 1.5, None, False]], {}, 3.0, 2.0, 1.0)
    assert list(metrics) == [name for name, _ in tracer.LAYER_METRICS]
    assert metrics["trace.overhead_s"] == 1.0
    assert metrics["trace.root_coverage"] == 0.5
    listed = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in listed["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in listed["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in listed["workloads"]] == list(workloads.WORKLOADS)
