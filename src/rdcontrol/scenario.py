"""Scenario files: schema validation, presets and experiment dispatch.

A scenario is a JSON object with the building blocks

    {"f": {"kind": "cubic", "theta": 0.33},
     "drift": {"kind": "radial", "family": "gauss_out", "sigma": 40.0},
     "domain": {"kind": "interval", "L": 2.5},
     "n": 201, "dt": 0.02, "T": 150.0,
     "p0": {"kind": "const", "value": 1.0},
     "experiment": "simulate", ...}

or {"preset": "<name>", ...overrides}.  An unknown kind, or a key that
the experiment does not read (_COMMON_KEYS and its EXPERIMENTS entry),
raises InvalidInput naming its path.  load_scenario parses each key once
into a typed Scenario field with its one default and makes each
experiment's own checks, so their errors raise before any output
exists.  Every emitted CSV starts with a single-field meta row
naming the hash of Scenario.raw and the package version, so identical
scenarios produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from . import __version__
from .control import _DELTA1, _T1
from .errors import InvalidInput
from .model import BistableNonlinearity, DomainGeometry, DriftField, GridProfile
from .steady import find_barrier_one, find_barrier_zero

__all__ = ["Scenario", "load_scenario", "PRESETS", "write_csv", "scenario_hash"]

_COMMON_KEYS = ("experiment", "f", "drift", "domain", "n", "out")
# the top-level keys each experiment reads besides _COMMON_KEYS
EXPERIMENTS = {
    "barriers": ("boundary",),
    "simulate": ("dt", "T", "p0", "targets", "seed"),
    "report": ("dt", "T", "delta1", "T1"),
    "mintime-scan": ("dt", "family", "sigmas", "horizons"),
    "eigen": (),
    "energy": ("delta",),
    "transform-check": ("dt", "T"),
}
_HORIZONS = tuple(np.geomspace(1.0, 300.0, 24))  # a mintime-scan's default horizon grid


@dataclass(frozen=True)
class Scenario:
    raw: dict = field(repr=False)   # the merged scenario, hashed into each CSV's meta row
    nl: BistableNonlinearity
    drift: DriftField
    geometry: DomainGeometry
    n: int
    dt: float
    T: float
    experiment: str
    p0_spec: Optional[dict]         # None when no p0 is given
    out_dir: str
    seed: int
    boundaries: tuple               # barrier boundary values: (boundary,), else (0, 1)
    targets: tuple                  # (a, constant start or None) per simulate target
    delta1: float
    T1: float
    family: Optional[str]
    sigmas: np.ndarray              # empty when absent
    horizons: np.ndarray
    delta: float

    def initial_profile(self) -> GridProfile:
        """The p0 block of a scenario that gives one, on the scenario grid;
        InvalidInput when it is not a proportion profile (a value leaves [0, 1])."""
        prof = self._p0_profile()
        prof.check_proportion()
        return prof

    def _p0_profile(self) -> GridProfile:
        kind = self.p0_spec.get("kind", "const")
        if kind == "const":
            return GridProfile(self.geometry,
                               np.full(self.n, _num(self.p0_spec, "value", "p0", 0.0)))
        if kind == "random":
            rng = np.random.default_rng(self.seed)
            return GridProfile(self.geometry, rng.uniform(0.0, 1.0, self.n))
        if kind == "profile":
            path = str(_need(self.p0_spec, "path", "p0"))
            if not os.path.exists(path):
                raise InvalidInput(f"invalid-scenario: p0.path not found: {path}")
            try:  # the meta row and the x,p header of a CSV this package wrote
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # an empty table only warns
                    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
                vals = np.interp(self.geometry.grid(self.n), data[:, 0], data[:, 1])
            except (ValueError, IndexError, UserWarning):
                raise InvalidInput(f"invalid-scenario: p0.path {path} is not an x,p CSV "
                                   "after two header rows") from None
            return GridProfile(self.geometry, vals)
        # kind "barrier-seeded"
        finder = find_barrier_one if _boundary_value(self.p0_spec, "p0") else find_barrier_zero
        b = finder(self.nl, self.drift, self.geometry, n_grid=self.n)
        if b is None:
            raise InvalidInput("invalid-scenario: barrier-seeded p0 but no barrier exists")
        return b.profile


def _need(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise InvalidInput(f"invalid-scenario: missing field {ctx}.{key}")
    return obj[key]


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, but no bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(spec: dict, key: str, ctx: str, default=None, cast=float):
    """spec[key] (default when absent and given) as a finite number of type
    cast, integral when cast is int; InvalidInput names the key's path
    otherwise."""
    name = f"{ctx}.{key}" if ctx else key
    value = _need(spec, key, ctx or "scenario") if default is None else spec.get(key, default)
    try:
        if _is_number(value) and math.isfinite(value) and (cast is float or value == int(value)):
            return cast(value)
    except OverflowError:  # an int too large for a float
        pass
    integral = " with an integral value" if cast is int else ""
    raise InvalidInput(f"invalid-scenario: {name} must be a finite number{integral}, "
                       f"got {value!r}")


def _boundary_value(spec: dict, ctx: str) -> int:
    """spec["boundary"] (default 0), a barrier's constant boundary value:
    the number 0 or 1; InvalidInput names the key's path otherwise."""
    bv = spec.get("boundary", 0)
    if not _is_number(bv) or bv not in (0, 1):
        name = f"{ctx}.boundary" if ctx else "boundary"
        raise InvalidInput(f"invalid-scenario: {name} must be 0 or 1, got {bv!r}")
    return int(bv)


def _numbers(spec: dict, key: str, ctx: str, default=None) -> np.ndarray:
    """spec[key] (default when absent and given) as a 1-d float array, or
    InvalidInput naming the key's path."""
    name = f"{ctx}.{key}" if ctx else key
    value = _need(spec, key, ctx or "scenario") if default is None else spec.get(key, default)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1:
        raise InvalidInput(f"invalid-scenario: {name} must be a list of numbers, "
                           f"got {value!r}")
    return arr


def _build_nl(spec: dict) -> BistableNonlinearity:
    theta = _num(spec, "theta", "f")
    if spec.get("kind", "cubic") == "cubic":
        return BistableNonlinearity.cubic(theta)
    return BistableNonlinearity.tabulated(_numbers(spec, "p", "f"),
                                          _numbers(spec, "values", "f"), theta)


def _build_drift(spec: dict) -> DriftField:
    kind = spec.get("kind", "homogeneous")
    if kind == "homogeneous":
        return DriftField.homogeneous()
    if kind == "radial":
        return DriftField.radial(str(_need(spec, "family", "drift")),
                                 _num(spec, "sigma", "drift"))
    family = spec.get("family", "affine")  # kind "infection"
    if family != "affine":
        raise InvalidInput(f"invalid-scenario: drift.family {family!r} for infection")
    a = _num(spec, "a", "drift", 1.0)
    b = _num(spec, "b", "drift", 1.0)
    return DriftField.infection(lambda p: a + b * np.asarray(p, dtype=float))


def _build_geometry(spec: dict) -> DomainGeometry:
    if spec.get("kind", "interval") == "interval":
        return DomainGeometry.interval(_num(spec, "L", "domain"))
    return DomainGeometry.ball(_num(spec, "R", "domain"), _num(spec, "d", "domain", 1, int))


# The kinds of each model block and the keys each kind may carry besides
# "kind"; the first kind is the default.  _check_keys checks each block the
# experiment reads against this before the builders dispatch on the kind.
_BLOCK_KEYS = {
    "f": {"cubic": ("theta",), "tabulated": ("theta", "p", "values")},
    "drift": {"homogeneous": (), "radial": ("family", "sigma"), "infection": ("family", "a", "b")},
    "domain": {"interval": ("L",), "ball": ("R", "d")},
    "p0": {"const": ("value",), "random": (), "profile": ("path",), "barrier-seeded": ("boundary",)},
}


def _check_keys(merged: dict, experiment: str) -> None:
    """Reject an unknown kind and each key the experiment does not read, by its path."""
    reads = {*_COMMON_KEYS, *EXPERIMENTS[experiment]}
    unknown = [k for k in merged if k not in reads]
    for block, kinds in _BLOCK_KEYS.items():
        if block not in reads:
            continue  # named among the unknown keys when present
        spec = merged.get(block, {})
        if not isinstance(spec, dict):
            raise InvalidInput(f"invalid-scenario: {block} must be an object")
        kind = spec.get("kind", next(iter(kinds)))
        if kind not in kinds:
            raise InvalidInput(f"invalid-scenario: {block}.kind {kind!r}")
        unknown += [f"{block}.{k}" for k in spec if k != "kind" and k not in kinds[kind]]
    if unknown:
        raise InvalidInput(f"invalid-scenario: unknown key {', '.join(unknown)}")


def _targets(targets) -> tuple:
    """(a, constant start or None) per target: a number a or an [a, p0] pair, in [0, 1]."""
    if not isinstance(targets, (list, tuple)):
        raise InvalidInput(f"invalid-scenario: targets must be a list, got {targets!r}")
    if not targets:
        raise InvalidInput("invalid-scenario: targets must be a non-empty list")
    pairs = []
    for i, entry in enumerate(targets):
        pair = isinstance(entry, (list, tuple))
        values = entry if pair else [entry]
        if (pair and len(entry) != 2) or not all(_is_number(v) and 0.0 <= v <= 1.0 for v in values):
            raise InvalidInput(f"invalid-scenario: targets[{i}] must be a number in [0, 1] "
                               f"or an [a, p0] pair of such numbers, got {entry!r}")
        pairs.append((float(values[0]), float(values[1]) if pair else None))
    return tuple(pairs)


def scenario_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_scenario(raw: dict, out_dir: Optional[str] = None,
                  overrides: Optional[dict] = None) -> Scenario:
    if not isinstance(raw, dict):
        raise InvalidInput("invalid-scenario: top level must be an object")
    merged = dict(raw)
    preset = merged.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise InvalidInput(f"invalid-scenario: unknown preset {preset!r}; "
                               f"known: {', '.join(sorted(PRESETS))}")
        merged = {**PRESETS[preset], **merged}
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    experiment = merged.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise InvalidInput(f"invalid-scenario: experiment must be one of "
                           f"{', '.join(EXPERIMENTS)}, got {experiment!r}")
    _check_keys(merged, experiment)
    geometry = _build_geometry(_need(merged, "domain", "scenario"))
    sc = Scenario(
        raw=merged, nl=_build_nl(merged.get("f", {"kind": "cubic", "theta": 0.33})),
        drift=_build_drift(merged.get("drift", {"kind": "homogeneous"})), geometry=geometry,
        n=_num(merged, "n", "", 201, int), dt=_num(merged, "dt", "", 0.02),
        T=_num(merged, "T", "", 100.0), experiment=experiment, p0_spec=merged.get("p0"),
        out_dir=out_dir or merged.get("out", "out"), seed=_num(merged, "seed", "", 0, int),
        boundaries=(_boundary_value(merged, ""),) if "boundary" in merged else (0, 1),
        targets=_targets(merged.get("targets", [0])),
        delta1=_num(merged, "delta1", "", _DELTA1), T1=_num(merged, "T1", "", _T1),
        family=str(merged["family"]) if merged.get("family") else None,
        sigmas=_numbers(merged, "sigmas", "", ()),
        horizons=_numbers(merged, "horizons", "", _HORIZONS),
        delta=_num(merged, "delta", "", geometry.inradius() / 5.0))
    # the checks on the values, made before any output exists
    if not 16 <= sc.n <= 100001:
        raise InvalidInput(f"invalid-scenario: n={sc.n} outside [16, 100001]")
    if sc.dt <= 0.0 or sc.T <= 0.0:
        raise InvalidInput("invalid-scenario: dt and T must be positive")
    if experiment == "mintime-scan":
        if sc.family is None or not sc.sigmas.size:
            raise InvalidInput("invalid-scenario: mintime-scan needs family and sigmas")
        if sc.drift.kind != "homogeneous":
            raise InvalidInput(f"invalid-scenario: mintime-scan builds its drifts from family "
                               f"and sigmas and reads no drift, got drift.kind {sc.drift.kind!r}")
    if experiment == "transform-check" and sc.drift.kind != "infection":
        raise InvalidInput("invalid-scenario: transform-check needs an infection drift")
    return sc


def _row_template(row) -> str:
    """The ``%`` template of one CSV row: ``'%.10g'`` for a float cell
    (``inf``, ``-inf`` and ``nan`` included), ``'%s'`` for any other."""
    return ",".join(["%.10g" if isinstance(v, float) else "%s" for v in row])


def write_csv(path: str, header: list, rows, raw_scenario: dict) -> None:
    """RFC-4180 CSV with a single-field meta row first; 10 significant
    digits keep reruns byte-identical and past the 6-digit contract.

    Each row is formatted by one ``%`` template (:func:`_row_template`);
    when every cell is a float, one template serves the whole file."""
    meta = f"# scenario={scenario_hash(raw_scenario)} rdcontrol={__version__}"
    lines = [f'"{meta}"', ",".join(header)]
    rows = [tuple(row) for row in rows]
    if all(issubclass(k, float) for k in set(map(type, chain.from_iterable(rows)))):
        lines += map(_row_template([0.0] * len(header)).__mod__, rows)
    else:
        lines += [_row_template(row) % row for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# -- presets ----------------------------------------------------------------
# fig4..fig7 carry the published caption parameters; at sigma = 40 the
# written coefficient 2x/sigma is too weak for barriers on L = 2.5 (see
# test_steady.py), so *_strong variants at sigma = 1 exhibit the same
# phenomena with the drift actually in the blocking regime.  Acceptance
# criteria 1 and 2 (tests/test_acceptance.py) read their sigma from
# fig4_strong, fig5_strong and fig6_strong.

_CUBIC33 = {"kind": "cubic", "theta": 0.33}

PRESETS: dict = {
    "fig4": {"experiment": "barriers", "boundary": 1,
             "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 40.0},
             "domain": {"kind": "interval", "L": 2.5}, "n": 801},
    "fig5": {"experiment": "barriers", "boundary": 0,
             "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 40.0},
             "domain": {"kind": "interval", "L": 2.5}, "n": 801},
    "fig6": {"experiment": "simulate", "targets": [0, 1],
             "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 40.0},
             "domain": {"kind": "interval", "L": 2.5}, "n": 201, "dt": 0.02, "T": 150.0},
    "fig7": {"experiment": "simulate", "targets": [[0.33, 1.0], [0.33, 0.0]],
             "f": _CUBIC33, "drift": {"kind": "radial", "family": "abs_exp", "sigma": 40.0},
             "domain": {"kind": "interval", "L": 15.0}, "n": 301, "dt": 0.05, "T": 150.0},
    "fig7_report": {"experiment": "report",
                    "f": _CUBIC33, "drift": {"kind": "radial", "family": "abs_exp", "sigma": 40.0},
                    "domain": {"kind": "interval", "L": 15.0}, "n": 301, "dt": 0.05, "T": 150.0},
    "fig4_strong": {"experiment": "barriers", "boundary": 1,
                    "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 1.0},
                    "domain": {"kind": "interval", "L": 2.5}, "n": 801},
    "fig5_strong": {"experiment": "barriers", "boundary": 0,
                    "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 1.0},
                    "domain": {"kind": "interval", "L": 2.5}, "n": 801},
    "fig6_strong": {"experiment": "simulate", "targets": [0, 1],
                    "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_out", "sigma": 1.0},
                    "domain": {"kind": "interval", "L": 2.5}, "n": 201, "dt": 0.02, "T": 80.0},
    "mintime_gauss_in": {"experiment": "mintime-scan", "family": "gauss_in",
                         "sigmas": [40.0, 10.0, 2.5, 0.625],
                         "horizons": list(np.geomspace(1.0, 150.0, 20)),
                         "f": _CUBIC33, "domain": {"kind": "interval", "L": 2.5},
                         "drift": {"kind": "homogeneous"}, "n": 101, "dt": 0.02},
    "mintime_gauss_out": {"experiment": "mintime-scan", "family": "gauss_out",
                          "sigmas": [40.0, 16.0, 8.0, 4.0],
                          "horizons": list(np.geomspace(2.0, 500.0, 24)),
                          "f": _CUBIC33, "domain": {"kind": "interval", "L": 2.5},
                          "drift": {"kind": "homogeneous"}, "n": 101, "dt": 0.02},
    "unblocking": {"experiment": "report",
                   "f": _CUBIC33, "drift": {"kind": "radial", "family": "gauss_in", "sigma": 0.25},
                   "domain": {"kind": "interval", "L": 4.0}, "n": 161, "dt": 0.02, "T": 60.0},
    "eigen_demo": {"experiment": "eigen", "f": _CUBIC33,
                   "drift": {"kind": "homogeneous"},
                   "domain": {"kind": "interval", "L": 2.5}, "n": 513},
    "energy_demo": {"experiment": "energy", "f": _CUBIC33,
                    "drift": {"kind": "radial", "family": "gauss_out", "sigma": 1.0},
                    "domain": {"kind": "interval", "L": 2.5}, "n": 2049, "delta": 0.5},
    "transform_check": {"experiment": "transform-check", "f": _CUBIC33,
                        "drift": {"kind": "infection", "family": "affine", "a": 1.0, "b": 1.0},
                        "domain": {"kind": "interval", "L": 1.0}, "n": 101, "dt": 0.002,
                        "T": 2.0},
}
