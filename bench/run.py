"""rdcontrol benchmark: runs one workload for a fixed time and reports metrics.

    python3 bench/run.py --workload barriers --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload iteration is a fresh process (``worker.py``)
that runs the workload's presets through ``rdcontrol.cli.main``, as a
user of the CLI pays cold caches on every run.  Iterations repeat while
the next one is expected to end inside --seconds.  Every artifact is
checked (``workloads.check``); a preset that raises, exits non-zero or
fails its check counts as failed.

--trace 0 reports the end-to-end metrics (wall time, set-up time, peak
RSS, share of presets that succeeded).  Wall times are net of hypervisor
steal: on a virtual machine the host can hold the CPU back, and that
time (``/proc/stat``) is subtracted, so a run reads what it takes when
the host does not interfere; the raw times are in the run record.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of ``tracer.py``, including the share of the traced
wall time that root spans cover and the tracing overhead.  The last
line of standard output is the result object; the line before it holds
the environment record and the samples.  Everything written goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # set-up-only processes per run, besides the iterations
CHILD_TIMEOUT_S = 150.0
# one thread per process: the benchmark machine may have only two cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"))


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workdir: Path, tag: str, presets, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker process; returns its result with ``setup_s`` added,
    or ``{"error": ...}`` when the process died or timed out."""
    out, result = workdir / tag, workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--scenarios", str(workdir / "scenarios"),
           "--presets", ",".join(presets), "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"worker exited {proc.returncode}: {err[-2000:]}"}
    with open(result) as fh:
        res = json.load(fh)
    if Path(res["rdcontrol_file"]).resolve().parent != ROOT / "src" / "rdcontrol":
        raise HarnessError(f"imported {res['rdcontrol_file']}, not the checkout's src/")
    res["setup_s"] = res["setup_end"] - start
    return res


def evaluate(res: dict, presets, out: Path, seed0: bool) -> dict:
    """Problems per preset of one iteration; an empty list means correct."""
    if "error" in res:
        return {p: [res["error"]] for p in presets}
    problems = {}
    ran = {entry["name"]: entry for entry in res["presets"]}
    for preset in presets:
        entry = ran.get(preset)
        if entry is None or entry["code"] != 0:
            tail = entry["output"][-500:] if entry else "not run"
            problems[preset] = [f"exit code {entry and entry['code']}: {tail}"]
            continue
        try:
            printed = json.loads(entry["output"].strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems[preset] = ["no JSON result printed"]
            continue
        problems[preset] = workloads.check(preset, str(out / preset), printed, seed0)
    return problems


def measure(workload: str, theta: float, scale: float, seconds: float, trace: bool,
            label: str) -> tuple[dict, dict]:
    """Run a workload at (theta, sigma scale) for ``seconds`` in
    ``.bench_out/<label>``; returns the record of samples and environment,
    and the result object."""
    presets = workloads.WORKLOADS[workload]
    verbatim = (theta, scale) == (workloads.THETA, 1.0)
    workdir = ROOT / ".bench_out" / label
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "scenarios").mkdir(parents=True)
    for preset, sc in workloads.scenarios(workload, theta, scale).items():
        with open(workdir / "scenarios" / f"{preset}.json", "w") as fh:
            json.dump(sc, fh, sort_keys=True)

    load_start = _loadavg()
    deadline = time.monotonic() + seconds
    setups, iterations, failures, durations = [], [], [], []
    versions = {}
    for k in range(SETUP_PROBES):
        res = spawn(workdir, f"setup{k}", presets, setup_only=True)
        if "error" in res:
            raise HarnessError(res["error"])
        setups.append(res["setup_s"])
        versions = {"numpy": res["numpy"], "scipy": res["scipy"]}
    while True:
        traced = trace and len(durations) % 2 == 1
        tag = f"iter{len(durations)}"
        started = time.monotonic()
        res = spawn(workdir, tag, presets, trace=traced)
        problems = evaluate(res, presets, workdir / tag, verbatim)
        shutil.rmtree(workdir / tag, ignore_errors=True)
        durations.append(time.monotonic() - started)
        failures += [{"iteration": tag, "preset": p, "problems": e}
                     for p, e in problems.items() if e]
        if "error" not in res:
            iterations.append({"traced": traced, **res})
            if not traced:
                setups.append(res["setup_s"])
        both = not trace or len(durations) >= 2
        if both and time.monotonic() + statistics.median(durations) > deadline:
            break

    plain = [it for it in iterations if not it["traced"]]
    if not plain or (trace and len(plain) == len(iterations)):
        raise HarnessError(f"no worker finished: {failures[-1]['problems']}")
    attempted = len(durations) * len(presets)
    for it in iterations:
        it["net_s"] = it["wall_s"] - it["steal_s"]
    wall = statistics.median(it["net_s"] for it in plain)
    failed = len({(f["iteration"], f["preset"]) for f in failures})
    if trace:
        per_iter = []
        for it in iterations:
            if it["traced"]:
                with open(it["spans"]) as fh:
                    data = json.load(fh)
                per_iter.append(tracer.layer_metrics(data["spans"], data["counters"],
                                                     it["wall_s"], it["net_s"], wall))
        units = dict(tracer.LAYER_METRICS)
        metrics = {name: {"value": statistics.median(m[name] for m in per_iter), "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(it["maxrss_mb"] for it in plain),
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), **versions,
           "loadavg_start": load_start, "loadavg_end": _loadavg(),
           "threads": {var: "1" for var in THREAD_VARS}}
    record = {"workload": workload, "theta": theta, "sigma_scale": scale,
              "seconds": seconds, "trace": trace, "env": env,
              "samples": {"setup_s": setups,
                          "wall_s": [it["net_s"] for it in plain],
                          "raw_wall_s": [it["wall_s"] for it in plain],
                          "steal_s": [it["steal_s"] for it in plain],
                          "cpu_s": [it["cpu_s"] for it in plain],
                          "traced_wall_s": [it["net_s"] for it in iterations if it["traced"]],
                          "preset_s": [{p["name"]: p["s"] for p in it["presets"]}
                                       for it in iterations]},
              "failures": failures}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(workdir / "result.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rdcontrol" / "cli.py").is_file():
        print(f"error: no rdcontrol source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record, result = measure(args.workload, *workloads.jitter(args.seed), args.seconds,
                                 bool(args.trace), label)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": args.seed, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
