"""Benchmark entry point: one workload, one run, one result line.

    python3 perfbench/run.py --workload request --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The untraced run (``--trace 0``)
prints the end-to-end metrics of ``BENCHMARK.json``; the traced run
(``--trace 1``) puts spans around each layer call and prints the
per-layer metrics.  The second-to-last stdout line is the full report
(provenance, per-metric ``n``/median/min/IQR, failure causes); the last
line is the result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("request", "execute", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true",
                        help="compile the request draw for --seed and "
                             "print its digest fingerprint (internal)")
    args = parser.parse_args(argv)
    if not args.fingerprint and args.workload is None:
        parser.error("--workload is required")
    return args


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": [(m["name"], m["unit"])
                           for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"])
                          for m in spec["per_layer"]]}


def _workload(name: str, seed: int, traced: bool):
    if name == "request":
        from perfbench.request import RequestWorkload
        return RequestWorkload(ROOT, seed, traced)
    if name == "execute":
        from perfbench.execute import ExecuteWorkload
        return ExecuteWorkload(seed)
    from perfbench.serve import ServeWorkload
    return ServeWorkload(seed, traced)


def _pin_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU, the one its
    host-speed readings time.  The workloads hold the GIL nearly all
    the time (``serve.gil_bound_ratio`` is about 1), so a second CPU
    buys them little, while a neighbour slowing the CPU the readings
    did not run on would go uncorrected."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _usable_cpus() -> set:
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    # the process-wide caches stay off: every cold path is measured cold
    os.environ.pop("REPRO_CACHE_DIR", None)
    nproc = len(_usable_cpus())
    _pin_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.fingerprint:
        from perfbench.request import draw_fingerprint
        print(json.dumps(draw_fingerprint(args.seed)))
        return 0

    from perfbench.common import provenance
    declared = _declared()
    workload = _workload(args.workload, args.seed, bool(args.trace))
    measured = workload.run(args.seconds)
    kind = "per_layer" if args.trace else "end_to_end"
    values = measured[kind]
    metrics = {}
    for name, unit in declared[kind]:
        value = values.get(name, 0.0 if args.trace else None)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    outcomes = workload.outcomes
    report = {
        "provenance": provenance(ROOT, workload=args.workload,
                                 seed=args.seed, seconds=args.seconds,
                                 traced=bool(args.trace), nproc=nproc,
                                 pinned_to=sorted(_usable_cpus())),
        "outcomes": outcomes.report(),
        "samples": measured["samples"],
        "detail": measured["detail"],
        "end_to_end": measured["end_to_end"],
        "per_layer": measured["per_layer"],
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": outcomes.failed == 0,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
