"""Command-line experiment runner.

Subcommands mirror the experiments (barriers, simulate, report, eigen,
energy, mintime, transform-check) plus ``preset <name>``; every run is
scenario-driven and deterministic.  Static-control verdicts come from
:func:`rdcontrol.dynamics.verdict`.  Exit codes: 0 ok, 2 configuration
problem, 3 numerical failure (horizon-too-short included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import InvalidInput, SolverFailure
from .model import GridProfile
from .scenario import EXPERIMENTS, PRESETS, Scenario, load_scenario, write_csv


def _load_raw(args) -> dict:
    if getattr(args, "scenario", None):
        if not os.path.exists(args.scenario):
            raise InvalidInput(f"invalid-scenario: file not found: {args.scenario}")
        try:
            with open(args.scenario) as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"invalid-scenario: JSON parse error at line "
                               f"{exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if getattr(args, "preset", None):
        return {"preset": args.preset}
    raise InvalidInput("invalid-scenario: provide --scenario FILE or a preset name")


def _overrides(args) -> dict:
    """The flags a subcommand has; load_scenario drops those left unset (None)."""
    out = {"n": args.grid, "experiment": args.experiment, "seed": getattr(args, "seed", None),
           "family": getattr(args, "family", None)}
    if getattr(args, "sigmas", None) is not None:
        try:
            out["sigmas"] = [float(s) for s in args.sigmas.split(",")]
        except ValueError:
            raise InvalidInput(f"invalid-scenario: --sigmas must be comma-separated "
                               f"numbers, got {args.sigmas!r}") from None
    return out


def _emit(sc: Scenario, name: str, info: dict) -> int:
    """Write ``info`` to ``<name>.json`` in the output directory, print it
    as one line and return exit code 0."""
    with open(os.path.join(sc.out_dir, f"{name}.json"), "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    return 0


def _run_barriers(sc: Scenario) -> int:
    from .steady import find_barrier_one, find_barrier_zero, shoot_radial
    from .svgplot import phase_portrait

    events = {}
    for bv in sc.boundaries:
        finder = find_barrier_one if bv == 1 else find_barrier_zero
        barrier = finder(sc.nl, sc.drift, sc.geometry, n_grid=sc.n)
        tag = f"barrier_{bv}"
        if barrier is None:
            events[tag] = {"exists": False}
            continue
        write_csv(os.path.join(sc.out_dir, f"{tag}.csv"), ["x", "p"],
                  zip(barrier.profile.x.tolist(), barrier.profile.values.tolist()), sc.raw)
        events[tag] = {"exists": True, "residual": barrier.residual,
                       "p_min": barrier.p_min, "p_max": barrier.p_max,
                       "alpha": barrier.alpha}
        # the continuous shot from the search's alpha, not from the
        # profile's clipped centre: the phase portrait and crossing radii
        tr = shoot_radial(sc.nl, sc.drift, barrier.alpha, sc.geometry.d,
                          1.02 * sc.geometry.inradius(), 1e-3)
        write_csv(os.path.join(sc.out_dir, f"{tag}_trajectory.csv"), ["r", "p", "v"],
                  zip(tr.r.tolist(), tr.p.tolist(), tr.v.tolist()), sc.raw)
        events[tag]["events"] = {k: v for k, v in tr.events.items()}
        phase_portrait(os.path.join(sc.out_dir, f"{tag}_phase.svg"), sc.nl, tr,
                       title=f"boundary value {bv}")
    return _emit(sc, "events", events)


def _run_simulate(sc: Scenario) -> int:
    from .dynamics import ControlSchedule, simulate, verdict
    from .svgplot import line_plot

    verdicts = {}
    for a, start in sc.targets:
        # a constant start of an [a, p0] pair, else the p0 block, else 1 - a
        tag = f"{a:g}" if start is None else f"{a:g}_from_{start:g}"
        if start is None and sc.p0_spec is not None:
            p0 = sc.initial_profile()
        else:
            p0 = GridProfile(sc.geometry, np.full(sc.n, 1.0 - a if start is None else start))
        sim = simulate(p0, sc.nl, sc.drift, ControlSchedule.static(a),
                       sc.T, sc.dt, snapshot_every=max(1, int(round(sc.T / sc.dt / 40))))
        columns = (np.repeat(sim.times, sc.n), np.tile(p0.x, len(sim.snapshots)),
                   np.concatenate([snap.values for snap in sim.snapshots]))
        write_csv(os.path.join(sc.out_dir, f"simulate_to_{tag}.csv"), ["t", "x", "p"],
                  zip(*(c.tolist() for c in columns)), sc.raw)
        series = [(snap.x, snap.values, f"rgb({int(200*k/max(1,len(sim.snapshots)-1))},0,0)", "")
                  for k, snap in enumerate(sim.snapshots)]
        line_plot(os.path.join(sc.out_dir, f"simulate_to_{tag}.svg"), series,
                  title=f"static control u = {a}", xlabel="x", ylabel="p")
        v = verdict(((t, snap.values) for t, snap in zip(sim.times, sim.snapshots)),
                    a, sc.T, sc.geometry)
        verdicts[tag] = {"status": v.status, "time": v.time,
                         "residual_sup": v.residual_sup, "tail_move": v.stall}
    return _emit(sc, "verdict", verdicts)


def _run_report(sc: Scenario) -> int:
    from .control import controllability_report

    rep = controllability_report(sc.nl, sc.drift, sc.geometry, n=sc.n, dt=sc.dt,
                                 T_max=sc.T, delta1=sc.delta1, T1=sc.T1)
    out = {}
    rows = []
    for key, tv in rep.items():
        out[key] = {"status": tv.status, "time": tv.time,
                    "witness": None if tv.witness is None else
                    {"residual": tv.witness.residual, "p_min": tv.witness.p_min,
                     "p_max": tv.witness.p_max}}
        rows.append((key, tv.status, tv.time if tv.time is not None else math.inf))
    write_csv(os.path.join(sc.out_dir, "report.csv"), ["target", "status", "time"], rows, sc.raw)
    return _emit(sc, "report", out)


def _run_mintime(sc: Scenario) -> int:
    from .control import mintime_scan

    results = mintime_scan(sc.family, sc.sigmas, sc.nl, sc.geometry, sc.horizons, n=sc.n, dt=sc.dt)
    rows = [(r.parameter, r.T_min) for r in results]
    write_csv(os.path.join(sc.out_dir, f"mintime_{sc.family}.csv"),
              ["sigma", "T_min"], rows, sc.raw)
    print(json.dumps({"family": sc.family, "rows": rows}))
    return 0


def _run_eigen(sc: Scenario) -> int:
    from .spectral import dirichlet_lambda1, uniqueness_certificate

    plain = dirichlet_lambda1(sc.geometry, sc.n)
    cert = uniqueness_certificate(sc.nl, sc.drift, sc.geometry, n=sc.n)
    write_csv(os.path.join(sc.out_dir, "eigenprofile.csv"), ["x", "u"],
              zip(plain.eigenprofile.x.tolist(), plain.eigenprofile.values.tolist()), sc.raw)
    info = {"lambda1_dirichlet": plain.lambda_, "lambda_sigma": cert.lhs,
            "n": sc.n, "residual": plain.residual,
            "certificate": {"which": cert.which, "holds": cert.holds,
                            "lhs": cert.lhs, "rhs": cert.rhs}}
    return _emit(sc, "eigen", info)


def _run_energy(sc: Scenario) -> int:
    from .energy import energy_sigma, negative_energy_sigma_threshold, plateau_ramp_eta

    eta = plateau_ramp_eta(sc.delta, sc.geometry, sc.n)
    sigma_star, status = negative_energy_sigma_threshold(sc.nl, sc.drift, eta)
    # a window around sigma*, or a fixed one when there is no finite sigma*
    lo, hi = (sigma_star / 8.0, sigma_star * 8.0) if 0.0 < sigma_star < math.inf else (1e-3, 8.0)
    rows = []
    for sig in np.geomspace(lo, hi, 9):
        rep = energy_sigma(sc.nl, replace(sc.drift, sigma=float(sig)), eta)
        rows.append((float(sig), rep.value, rep.gradient_part, rep.potential_part))
    write_csv(os.path.join(sc.out_dir, "energy_scan.csv"),
              ["sigma", "value_scaled", "gradient_scaled", "potential_scaled"], rows, sc.raw)
    at_star = None
    if 0.0 < sigma_star < math.inf:
        rep = energy_sigma(sc.nl, replace(sc.drift, sigma=sigma_star), eta)
        at_star = {"sigma": sigma_star, "value": rep.value,
                   "gradient_part": rep.gradient_part, "potential_part": rep.potential_part}
    info = {"sigma_star": sigma_star, "status": status, "delta": sc.delta,
            "report_at_sigma_star": at_star}
    return _emit(sc, "energy", info)


def _run_transform(sc: Scenario) -> int:
    from .transform import build_map, equivalence_check, tilde_f

    gf = build_map(sc.drift.N_of_p)
    x = sc.geometry.grid(sc.n)
    L = sc.geometry.inradius()
    p0 = GridProfile(sc.geometry, 0.5 * (1.0 + np.cos(np.pi * x / L)) * sc.nl.theta)
    disc = equivalence_check(sc.nl, gf, p0, 0.0, sc.T, sc.dt)
    ps = np.linspace(0.0, 1.0, 101)
    qs = gf.script_N(ps)
    rows = zip(ps.tolist(), qs.tolist(), tilde_f(gf, sc.nl, qs).tolist())
    write_csv(os.path.join(sc.out_dir, "transform.csv"),
              ["p", "script_N", "tilde_f"], rows, sc.raw)
    info = {"sup_discrepancy": disc, "script_N_theta": float(gf.script_N(sc.nl.theta))}
    return _emit(sc, "transform", info)


# one runner per experiment of scenario.EXPERIMENTS, which load_scenario checks
_RUNNERS = {"barriers": _run_barriers, "simulate": _run_simulate, "report": _run_report,
            "mintime-scan": _run_mintime, "eigen": _run_eigen, "energy": _run_energy,
            "transform-check": _run_transform}


def run(sc: Scenario) -> int:
    """Dispatch one scenario; writes artifacts into sc.out_dir."""
    os.makedirs(sc.out_dir, exist_ok=True)
    return _RUNNERS[sc.experiment](sc)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rdcontrol",
                                 description="Barriers and constrained boundary control "
                                             "for bistable reaction-diffusion equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed: bool):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="override node count")
        if seed:  # only a random p0 of a simulate scenario reads it
            p.add_argument("--seed", type=int, default=None, help="random seed of a random p0")

    for exp in EXPERIMENTS:
        if exp != "mintime-scan":
            p = sub.add_parser(exp, help=f"run a {exp} experiment")
            common(p, "seed" in EXPERIMENTS[exp])
            p.set_defaults(experiment=exp)

    p = sub.add_parser("mintime", help="minimal-time scan over a drift family")
    common(p, False)
    p.add_argument("--family", choices=("gauss_out", "gauss_in", "abs_exp", "sin"))
    p.add_argument("--sigmas", help="comma-separated drift intensities")
    p.set_defaults(experiment="mintime-scan")

    p = sub.add_parser("preset", help="run a named preset scenario")
    p.add_argument("preset", nargs="?", choices=sorted(PRESETS),
                   help="preset scenario name (or use --scenario)")
    common(p, True)
    p.set_defaults(experiment=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_raw(args)
        sc = load_scenario(raw, out_dir=args.out, overrides=_overrides(args))
        return run(sc)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
