"""The fourteen presets reproduce their recorded exit codes, stdout and
artifacts byte for byte.

``tests/preset_manifest.json`` holds, for each preset, the exit code, the
SHA-256 of stdout and of every file the run writes, and each JSON
artifact whole, together with the numpy and scipy versions it was
recorded with.  Each test runs one preset in-process into ``tmp_path``.

With the recorded versions every byte must match, and a failure names
the preset and each file that changed.  Bytes may change with the numpy
or LAPACK build, so with other versions the test compares the exit code,
the file names and the JSON artifacts numerically (relative tolerance
RTOL, absolute ATOL for values near 0, such as a barrier residual of
1e-13), and it names the version difference.

A change that means to alter an output re-records the manifest:

    PYTHONPATH=src python tests/test_preset_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from rdcontrol.cli import main
from rdcontrol.scenario import EXPERIMENTS, PRESETS

MANIFEST = Path(__file__).with_name("preset_manifest.json")
RTOL = 1e-6
ATOL = 1e-9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_preset(name: str, out: Path) -> dict:
    """Run one preset through the CLI into ``out``: its exit code, the
    SHA-256 of stdout and of each file written, and each JSON file parsed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["preset", name, "--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return {"exit": code,
            "stdout": _sha256(stdout.getvalue().encode()),
            "files": {fname: _sha256(data) for fname, data in files.items()},
            "json": {fname: json.loads(data) for fname, data in files.items()
                     if fname.endswith(".json")}}


def _mismatches(recorded, got, where: str = "") -> list:
    """Paths at which two JSON values differ beyond RTOL/ATOL; numbers are
    compared numerically, everything else exactly."""
    number = (int, float)
    if isinstance(recorded, dict) and isinstance(got, dict):
        if recorded.keys() != got.keys():
            return [f"{where} keys {sorted(recorded)} != {sorted(got)}"]
        return [m for k in recorded for m in _mismatches(recorded[k], got[k], f"{where}.{k}")]
    if isinstance(recorded, list) and isinstance(got, list):
        if len(recorded) != len(got):
            return [f"{where} length {len(recorded)} != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(recorded, got))
                for m in _mismatches(a, b, f"{where}[{i}]")]
    if (isinstance(recorded, number) and isinstance(got, number)
            and not isinstance(recorded, bool) and not isinstance(got, bool)):
        if math.isclose(recorded, got, rel_tol=RTOL, abs_tol=ATOL) or (
                math.isnan(recorded) and math.isnan(got)):
            return []
    elif type(recorded) is type(got) and recorded == got:
        return []
    return [f"{where}: {recorded!r} != {got!r}"]


def _load() -> dict:
    return json.loads(MANIFEST.read_text())


def test_the_json_comparison_reads_tolerances():
    rec = {"a": [1.0, 2e-13, "x", None, True], "b": {"c": math.inf}}
    assert _mismatches(rec, {"a": [1.0 + 1e-7, 5e-10, "x", None, True],
                             "b": {"c": math.inf}}) == []
    assert _mismatches(rec, {"a": [1.1, 2e-13, "y", None, 1], "b": {"d": 0}}) == [
        ".a[0]: 1.0 != 1.1", ".a[2]: 'x' != 'y'", ".a[4]: True != 1",
        ".b keys ['c'] != ['d']"]


def test_the_manifest_covers_every_preset_and_experiment():
    assert sorted(_load()["presets"]) == sorted(PRESETS)
    assert sorted({spec["experiment"] for spec in PRESETS.values()}) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_the_manifest(name, tmp_path):
    manifest = _load()
    rec = manifest["presets"][name]
    got = run_preset(name, tmp_path / name)
    if manifest["versions"] == _versions():
        changed = sorted(f for f in rec["files"].keys() | got["files"].keys()
                         if rec["files"].get(f) != got["files"].get(f))
        if rec["stdout"] != got["stdout"]:
            changed.insert(0, "<stdout>")
        assert (got["exit"], changed) == (rec["exit"], []), (
            f"{name}: exit {got['exit']} (recorded {rec['exit']}), changed: {changed}")
        return
    versions = f"recorded with {manifest['versions']}, running {_versions()}"
    warnings.warn(f"{name}: {versions}; bytes not compared, JSON to rtol {RTOL:g}")
    assert got["exit"] == rec["exit"], f"{name}: exit {got['exit']} != {rec['exit']} ({versions})"
    assert sorted(got["files"]) == sorted(rec["files"]), f"{name}: file names differ ({versions})"
    bad = _mismatches(rec["json"], got["json"])
    assert not bad, f"{name}: JSON artifacts differ ({versions}): {bad}"


def record() -> None:
    """Run every preset and write the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        presets = {name: run_preset(name, Path(tmp) / name) for name in sorted(PRESETS)}
    MANIFEST.write_text(json.dumps({"versions": _versions(), "presets": presets},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
