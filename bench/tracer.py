"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the
rdcontrol modules in every module namespace that binds it, so a call made
through ``from .elliptic import solve_tridiagonal`` inside ``dynamics`` is
recorded with ``via="dynamics"``.  Each call becomes one span
``[name, via, parent, start, end, count, raised]`` kept in memory; counts
are taken from the returned objects.  ``cli`` is not wrapped: it is the
entry the benchmark drives, so the root spans are the layer calls it makes
and their coverage of the wall time is a real measurement.

``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

PACKAGE = "rdcontrol"
SKIP = ("cli",)
CONSTRUCTED = "model.GridProfile.constructed"


def _path_size(args, kwargs, result) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# per-span counts read from each call's arguments or result
COUNTS = {
    "steady.shoot_radial": lambda a, k, r: len(r.r),
    "steady.build_steady_path": lambda a, k, r: len(r),
    "control.staircase_to_theta": lambda a, k, r: len(r.legs),
    "spectral.weighted_lambda1": lambda a, k, r: r.iterations,
    "scenario.write_csv": _path_size,
    "svgplot.line_plot": _path_size,
    "svgplot.phase_portrait": _path_size,
}


class Tracer:
    """Installs span-recording wrappers and takes them out again."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {CONSTRUCTED: 0}
        self._stack: list = []
        self._undo: list = []

    def install(self, modules) -> None:
        for mod in modules:
            via = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if not obj.__module__.startswith(PACKAGE + ".") or home in SKIP:
                    continue
                self._patch(mod, attr, self._wrap(obj, f"{home}.{obj.__name__}", via))
            grid_profile = vars(mod).get("GridProfile")
            if mod.__name__ == f"{PACKAGE}.model" and grid_profile is not None:
                self._patch(grid_profile, "__post_init__",
                            self._counting(grid_profile.__post_init__, CONSTRUCTED))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _counting(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, via):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, via, stack[-1] if stack else -1, clock(), 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper


# -- per-layer metrics ----------------------------------------------------------

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("steady.shoot_radial.calls", "count"),
    ("steady.shoot_radial.self_s", "s"),
    ("steady.shoot_radial.steps", "count"),
    ("steady.shots_per_barrier", "count"),
    ("steady.find_barrier_one.s", "s"),
    ("steady.find_barrier_zero.s", "s"),
    ("steady.solve_radial_weighted.calls", "count"),
    ("steady.solve_radial_weighted.self_s", "s"),
    ("steady.build_steady_path.s", "s"),
    ("steady.path_members", "count"),
    ("elliptic.solve_tridiagonal.calls", "count"),
    ("elliptic.solve_tridiagonal.self_s", "s"),
    ("elliptic.solve_tridiagonal.us_per_call", "us"),
    ("elliptic.newton_steady.calls", "count"),
    ("elliptic.newton_steady.iterations", "count"),
    ("elliptic.newton_steady.raised", "count"),
    ("elliptic.assemble_operator.calls", "count"),
    ("dynamics.time_steps", "count"),
    ("dynamics.simulate.s", "s"),
    ("dynamics.asymptotic_verdict.s", "s"),
    ("model.GridProfile.constructed", "count"),
    ("control.staircase_to_theta.calls", "count"),
    ("control.probes_per_sigma", "count"),
    ("control.legs", "count"),
    ("control.minimal_time_to_theta.s", "s"),
    ("control.controllability_report.s", "s"),
    ("energy.minimize_energy_sigma.s", "s"),
    ("spectral.weighted_lambda1.calls", "count"),
    ("spectral.weighted_lambda1.iterations", "count"),
    ("transform.equivalence_check.s", "s"),
    ("scenario.load_scenario.s", "s"),
    ("scenario.write_csv.s", "s"),
    ("scenario.write_csv.bytes", "bytes"),
    ("svgplot.s", "s"),
    ("svgplot.bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.root_coverage", "frac"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class _Layer:
    __slots__ = ("calls", "total", "self_s", "count", "raised")

    def __init__(self):
        self.calls, self.total, self.self_s, self.count, self.raised = 0, 0.0, 0.0, 0, 0


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def layer_metrics(spans, counters, raw_wall: float, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics of one traced iteration, by name from LAYER_METRICS.

    ``raw_wall`` is the iteration's elapsed time, ``traced_wall`` the same
    net of steal, and ``untraced_wall`` the median net time of untraced
    iterations.  Root coverage is measured against the iteration's own
    elapsed time; with a non-negative overhead that is a lower bound of
    the coverage of the untraced wall time.
    """
    own = self_times(spans)
    layers: dict = {}
    parent_name = [spans[s[2]][0] if s[2] >= 0 else None for s in spans]
    newton_solves = dyn_steps = probes = root = 0
    for i, s in enumerate(spans):
        lay = layers.setdefault(s[0], _Layer())
        lay.calls += 1
        lay.total += s[4] - s[3]
        lay.self_s += own[i]
        lay.count += s[5] or 0
        lay.raised += s[6]
        if s[2] < 0:
            root += s[4] - s[3]
        if s[0] == "elliptic.solve_tridiagonal":
            newton_solves += parent_name[i] == "elliptic.newton_steady"
            dyn_steps += s[1] == "dynamics"
        probes += s[0] == "control.staircase_to_theta" and \
            parent_name[i] == "control.minimal_time_to_theta"

    def get(name) -> _Layer:
        return layers.get(name, _Layer())

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    shoot, tri = get("steady.shoot_radial"), get("elliptic.solve_tridiagonal")
    finders = get("steady.find_barrier_one").calls + get("steady.find_barrier_zero").calls
    svg = [lay for name, lay in layers.items() if name.startswith("svgplot.")]
    values = {
        "steady.shoot_radial.calls": shoot.calls,
        "steady.shoot_radial.self_s": shoot.self_s,
        "steady.shoot_radial.steps": shoot.count,
        "steady.shots_per_barrier": ratio(shoot.calls, finders),
        "steady.find_barrier_one.s": get("steady.find_barrier_one").total,
        "steady.find_barrier_zero.s": get("steady.find_barrier_zero").total,
        "steady.solve_radial_weighted.calls": get("steady.solve_radial_weighted").calls,
        "steady.solve_radial_weighted.self_s": get("steady.solve_radial_weighted").self_s,
        "steady.build_steady_path.s": get("steady.build_steady_path").total,
        "steady.path_members": get("steady.build_steady_path").count,
        "elliptic.solve_tridiagonal.calls": tri.calls,
        "elliptic.solve_tridiagonal.self_s": tri.self_s,
        "elliptic.solve_tridiagonal.us_per_call": 1e6 * ratio(tri.self_s, tri.calls),
        "elliptic.newton_steady.calls": get("elliptic.newton_steady").calls,
        "elliptic.newton_steady.iterations": newton_solves,
        "elliptic.newton_steady.raised": get("elliptic.newton_steady").raised,
        "elliptic.assemble_operator.calls": get("elliptic.assemble_operator").calls,
        "dynamics.time_steps": dyn_steps,
        "dynamics.simulate.s": get("dynamics.simulate").total,
        "dynamics.asymptotic_verdict.s": get("dynamics.asymptotic_verdict").total,
        "model.GridProfile.constructed": counters.get(CONSTRUCTED, 0),
        "control.staircase_to_theta.calls": get("control.staircase_to_theta").calls,
        "control.probes_per_sigma": ratio(probes, get("control.minimal_time_to_theta").calls),
        "control.legs": get("control.staircase_to_theta").count,
        "control.minimal_time_to_theta.s": get("control.minimal_time_to_theta").total,
        "control.controllability_report.s": get("control.controllability_report").total,
        "energy.minimize_energy_sigma.s": get("energy.minimize_energy_sigma").total,
        "spectral.weighted_lambda1.calls": get("spectral.weighted_lambda1").calls,
        "spectral.weighted_lambda1.iterations": get("spectral.weighted_lambda1").count,
        "transform.equivalence_check.s": get("transform.equivalence_check").total,
        "scenario.load_scenario.s": get("scenario.load_scenario").total,
        "scenario.write_csv.s": get("scenario.write_csv").total,
        "scenario.write_csv.bytes": get("scenario.write_csv").count,
        "svgplot.s": sum(lay.total for lay in svg),
        "svgplot.bytes": sum(lay.count for lay in svg),
        "trace.spans": len(spans),
        "trace.root_coverage": ratio(root, raw_wall),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    return {name: values[name] for name, _ in LAYER_METRICS}
