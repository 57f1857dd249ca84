"""One workload iteration in a fresh process, as a CLI user runs it.

    python3 bench/worker.py --scenarios DIR --presets A,B --out DIR --result FILE
                            [--trace] [--setup-only]

Set-up ends once rdcontrol, numpy and scipy are imported and every
scenario file DIR/<preset>.json is validated; its end is reported on the system-wide
monotonic clock so the parent can measure from the moment it started this
process.  The presets then run through ``rdcontrol.cli.main`` one after
another, each writing into its own directory under --out, and the wall
time covers the first scenario load to the last artifact written.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenarios", required=True)
    ap.add_argument("--presets", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy
    import rdcontrol
    from rdcontrol import cli
    from rdcontrol.scenario import load_scenario

    modules = [importlib.import_module(f"rdcontrol.{m.name}")
               for m in pkgutil.iter_modules(rdcontrol.__path__)]
    names = args.presets.split(",")
    files = [os.path.join(args.scenarios, f"{name}.json") for name in names]
    for path in files:
        with open(path) as fh:
            load_scenario(json.load(fh), out_dir=args.out)
    result = {"setup_end": time.monotonic(), "rdcontrol_file": rdcontrol.__file__,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if not args.setup_only:
        result.update(_run(cli, modules, names, files, args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _steal_s() -> float:
    """Hypervisor steal time of all CPUs so far (0 where not reported)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _run(cli, modules, names, files, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)
    presets = []
    steal0, cpu0 = _steal_s(), time.process_time()
    start = time.perf_counter()
    for name, path in zip(names, files):
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["preset", "--scenario", path,
                                 "--out", os.path.join(args.out, name)])
        except Exception:  # a crash counts as a failed operation, not a dead run
            code, out = -1, io.StringIO(traceback.format_exc())
        presets.append({"name": name, "code": code, "s": time.perf_counter() - t0,
                        "output": out.getvalue()})
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
              "steal_s": _steal_s() - steal0, "presets": presets,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.restore()
        spans_path = os.path.splitext(args.result)[0] + "-spans.json"
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh,
                      separators=(",", ":"))
        result["spans"] = spans_path
    return result


if __name__ == "__main__":
    sys.exit(main())
