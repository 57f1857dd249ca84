"""Workloads of the rdcontrol benchmark: which presets run, how a seed
jitters them, and how their artifacts are checked.

Seed 0 runs every preset verbatim and compares the outputs against
reference values.  Any other seed draws one (theta, sigma scale) pair
inside JITTER and applies it to every preset of the workload; those runs
are held to the invariants only (existence and verdict classes,
residuals, the [0, 1] range), which stay unchanged over the whole JITTER
box (``verify_jitter.py`` checks its corners).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = {
    # barrier search: steady.shoot_radial dominates; no time stepping
    "barriers": ("eigen_demo", "energy_demo", "fig4_strong", "fig5_strong"),
    # long static-control runs, the converged report and the quasilinear
    # check: the IMEX tridiagonal solve dominates; no shooting
    "stepping": ("fig6_strong", "fig7", "unblocking", "transform_check"),
    # steady paths (weighted radial IVPs) plus short feedback legs
    "mintime": ("mintime_gauss_in",),
}

THETA = 0.33
# half-widths of the jitter box: |theta - 0.33| <= 0.004 and a relative
# sigma change of at most 3%.  theta = 0.31 with sigma * 0.9 already
# removes the boundary-0 barrier of fig5_strong.
JITTER = {"theta": 0.004, "sigma_rel": 0.03}

# Drift of every preset whose sigma is jittered (copied from the presets,
# because a jittered scenario overrides the whole drift object).
_RADIAL = {
    "energy_demo": ("gauss_out", 1.0),
    "fig4_strong": ("gauss_out", 1.0),
    "fig5_strong": ("gauss_out", 1.0),
    "fig6_strong": ("gauss_out", 1.0),
    "fig7": ("abs_exp", 40.0),
    "unblocking": ("gauss_in", 0.25),
}
_SIGMA_LISTS = {"mintime_gauss_in": (40.0, 10.0, 2.5, 0.625)}

# Reference outputs at seed 0 (value, absolute tolerance).
REFERENCE = {
    "fig4_strong_p_min": (0.0298003422, 1e-6),
    "fig5_strong_p_max": (0.3469595158, 1e-6),
    "mintime_rows": ((67.998, 52.236, 23.680, 8.246), 1e-3),
    "energy_sigma_star": (0.09624949011575207, 1e-6),
}
RESIDUAL_MAX = 1e-9
# the invariant region [0, 1] holds to roundoff: the IMEX step leaves
# values like -5e-15 on the way to the zero state
ROUNDOFF = 1e-12
TRANSFORM_MAX = 1e-4
EIGEN_REL = 1e-4


def jitter(seed: int) -> tuple[float, float]:
    """(theta, sigma scale) for a seed; seed 0 is the verbatim preset."""
    if seed == 0:
        return THETA, 1.0
    rng = random.Random(seed)
    return (THETA + rng.uniform(-JITTER["theta"], JITTER["theta"]),
            1.0 + rng.uniform(-JITTER["sigma_rel"], JITTER["sigma_rel"]))


def scenarios(workload: str, theta: float, scale: float) -> dict:
    """Scenario objects, one per preset, handed to the CLI as files."""
    out = {}
    for preset in WORKLOADS[workload]:
        sc: dict = {"preset": preset}
        if (theta, scale) != (THETA, 1.0):
            sc["f"] = {"kind": "cubic", "theta": theta}
            if preset in _RADIAL:
                family, sigma = _RADIAL[preset]
                sc["drift"] = {"kind": "radial", "family": family, "sigma": sigma * scale}
            if preset in _SIGMA_LISTS:
                sc["sigmas"] = [s * scale for s in _SIGMA_LISTS[preset]]
        out[preset] = sc
    return out


# -- output checks ------------------------------------------------------------

def _read_csv(path: str) -> tuple[list, list]:
    """(header, float rows) of an artifact CSV, skipping its meta row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3 or not rows[0][0].startswith("# scenario="):
        raise ValueError(f"{os.path.basename(path)}: missing meta row or data")
    return rows[1], [[float(c) for c in r] for r in rows[2:]]


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _in_unit(path: str, column: str, errors: list) -> list:
    header, rows = _read_csv(path)
    col = [r[header.index(column)] for r in rows]
    if not all(-ROUNDOFF <= v <= 1.0 + ROUNDOFF for v in col):
        errors.append(f"{os.path.basename(path)}: {column} outside [0, 1]")
    return col


def _check_barrier(out: str, key: str, info: dict, errors: list) -> None:
    if not info.get("exists"):
        errors.append(f"{key}: no barrier")
        return
    if not info["residual"] <= RESIDUAL_MAX:
        errors.append(f"{key}: residual {info['residual']:.3g} > {RESIDUAL_MAX}")
    p = _in_unit(os.path.join(out, f"{key}.csv"), "p", errors)
    centre = p[len(p) // 2]
    reported = info["p_min"] if key == "barrier_1" else info["p_max"]
    if not abs(centre - reported) <= 1e-9:
        errors.append(f"{key}: csv centre {centre!r} != reported {reported!r}")


def _expect(errors: list, label: str, value: float, ref: tuple) -> None:
    want, tol = ref
    if not abs(value - want) <= tol:
        errors.append(f"{label}: {value!r} differs from {want!r} by more than {tol}")


def check(preset: str, out: str, printed: dict, seed0: bool) -> list[str]:
    """Problems found in one preset's artifacts; empty when correct.

    ``printed`` is the JSON object the CLI printed; ``seed0`` adds the
    comparisons against REFERENCE to the invariant checks."""
    errors: list = []
    try:
        _check(preset, out, printed, seed0, errors)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors


def _check(preset, out, printed, seed0, errors) -> None:
    if preset in ("fig4_strong", "fig5_strong"):
        key = "barrier_1" if preset == "fig4_strong" else "barrier_0"
        events = _json(os.path.join(out, "events.json"))
        if events != printed:
            errors.append("events.json differs from the printed result")
        _check_barrier(out, key, events[key], errors)
        if seed0 and events[key].get("exists"):
            field = "p_min" if key == "barrier_1" else "p_max"
            _expect(errors, f"{key}.{field}", events[key][field], REFERENCE[f"{preset}_{field}"])
    elif preset in ("fig6_strong", "fig7"):
        verdicts = _json(os.path.join(out, "verdict.json"))
        if not verdicts or any(v["status"] != "blocked" for v in verdicts.values()):
            errors.append(f"expected only blocked verdicts, got "
                          f"{ {k: v['status'] for k, v in verdicts.items()} }")
        for tag in verdicts:
            _in_unit(os.path.join(out, f"simulate_to_{tag}.csv"), "p", errors)
    elif preset == "unblocking":
        report = _json(os.path.join(out, "report.json"))
        statuses = sorted(v["status"] for v in report.values())
        if statuses != ["converged"] * 3:
            errors.append(f"expected three converged verdicts, got {statuses}")
        with open(os.path.join(out, "report.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        if sorted(r[1] for r in rows) != statuses:
            errors.append("report.csv differs from report.json")
    elif preset == "transform_check":
        disc = _json(os.path.join(out, "transform.json"))["sup_discrepancy"]
        if not disc <= TRANSFORM_MAX:
            errors.append(f"transform discrepancy {disc:.3g} > {TRANSFORM_MAX}")
        _in_unit(os.path.join(out, "transform.csv"), "script_N", errors)
    elif preset == "mintime_gauss_in":
        times = [row[1] for row in printed["rows"]]
        _, rows = _read_csv(os.path.join(out, "mintime_gauss_in.csv"))
        if [r[1] for r in rows] != [float(f"{t:.10g}") for t in times]:
            errors.append("mintime csv differs from the printed rows")
        if not all(math.isfinite(t) and t > 0.0 for t in times) or \
                any(a <= b for a, b in zip(times, times[1:])):
            errors.append(f"minimal times not finite and decreasing: {times}")
        if seed0:
            want, tol = REFERENCE["mintime_rows"]
            if len(times) != len(want) or any(abs(a - b) > tol for a, b in zip(times, want)):
                errors.append(f"mintime rows {times} differ from {list(want)} by more than {tol}")
    elif preset == "eigen_demo":
        info = _json(os.path.join(out, "eigen.json"))
        exact = (math.pi / 5.0) ** 2  # first Dirichlet eigenvalue of [-2.5, 2.5]
        if not abs(info["lambda1_dirichlet"] - exact) <= EIGEN_REL * exact:
            errors.append(f"lambda1 {info['lambda1_dirichlet']!r} is not (pi/5)^2")
        if not info["residual"] <= RESIDUAL_MAX:
            errors.append(f"eigen residual {info['residual']:.3g} > {RESIDUAL_MAX}")
        if info["certificate"]["holds"]:
            errors.append("uniqueness certificate unexpectedly holds")
        _in_unit(os.path.join(out, "eigenprofile.csv"), "u", errors)
    elif preset == "energy_demo":
        info = _json(os.path.join(out, "energy.json"))
        if info["status"] != "bracketed" or not 0.0 < info["sigma_star"] < math.inf:
            errors.append(f"energy threshold not bracketed: {info['status']}")
        elif seed0:
            _expect(errors, "sigma_star", info["sigma_star"], REFERENCE["energy_sigma_star"])
        _, rows = _read_csv(os.path.join(out, "energy_scan.csv"))
        if len(rows) != 9 or not all(math.isfinite(v) for r in rows for v in r):
            errors.append("energy scan is not nine finite rows")
    else:
        errors.append(f"no check for preset {preset!r}")
