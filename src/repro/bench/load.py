"""E10: consumer-side load cost -- two-pass vs the fused loader.

The question the fused loader exists to answer: how much of the
consumer's "decode, then verify" bill disappears when verification is
folded into the decode, and what do the warm paths on top of it buy?
Per corpus artifact (every program, unoptimised and optimised) this
benchmark times:

* **two-pass**    the legacy oracle, ``decode_module`` + ``verify_module``
* **fused cold**  one ``load_module`` with no cache: decode-with-checks
  plus the residual rule sweep
* **fused warm**  the wire digest hits the verified-module cache: no
  sweeps, boundary-indexed body decode
* **lazy first**  a warm lazy load touching a single function body --
  the "start one entry point out of a big distribution unit" cost

Every timed load also re-encodes once (outside the timer) and must be
bit-identical to the input -- a benchmark that loads the wrong module
measures nothing.  The report lands in ``BENCH_load.json``; the perf
guard in CI fails if the fused cold path stops beating two-pass.
"""

from __future__ import annotations

import os
import time

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.cache import VerifiedModuleCache
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.loader import ModuleLoader, load_module
from repro.pipeline import compile_to_module
from repro.tsa.verifier import verify_module


def _best_of(fn, repeats: int, warmup: int = 1) -> float:
    """Minimum wall-clock seconds over ``repeats`` timed runs (same
    estimator as :func:`repro.bench.runner.best_of`, kept local so the
    module imports standalone)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _artifacts(programs) -> list[tuple[str, bool, bytes]]:
    artifacts = []
    for name in programs:
        source = corpus_source(name)
        for optimize in (False, True):
            module = compile_to_module(source, optimize=optimize,
                                       cache=False)
            artifacts.append((name, optimize, encode_module(module)))
    return artifacts


def _check_identical(wire: bytes, module, label: str) -> None:
    if encode_module(module) != wire:
        raise AssertionError(f"{label}: loaded module re-encodes "
                             "differently -- benchmark invalid")


def load_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_load.json``."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)
    cache = VerifiedModuleCache()  # memory-only: no disk I/O in timings

    rows = []
    totals = {"two_pass": 0.0, "fused_cold": 0.0, "fused_warm": 0.0,
              "lazy_first_touch": 0.0}
    for name, optimize, wire in artifacts:
        label = f"{name}{'+opt' if optimize else ''}"

        def two_pass():
            verify_module(decode_module(wire))

        def fused_cold():
            load_module(wire, cache=False)

        # publish the boundary index once, then time the warm paths
        warm_loader = ModuleLoader(wire, cache=cache)
        _check_identical(wire, warm_loader.load(), label)
        _check_identical(wire, load_module(wire, cache=False), label)

        def fused_warm():
            loader = ModuleLoader(wire, cache=cache)
            loader.load()
            # the point of the warm path: digest hit, sweeps skipped
            assert loader.cache_hit and not loader.verified

        def lazy_first_touch():
            module = load_module(wire, lazy=True, cache=cache)
            for method in module.functions:
                module.functions[method]
                break

        row = {
            "program": name,
            "optimized": optimize,
            "wire_bytes": len(wire),
            "functions": len(warm_loader.boundaries),
            "two_pass_ms": _best_of(two_pass, repeats) * 1000,
            "fused_cold_ms": _best_of(fused_cold, repeats) * 1000,
            "fused_warm_ms": _best_of(fused_warm, repeats) * 1000,
            "lazy_first_touch_ms":
                _best_of(lazy_first_touch, repeats) * 1000,
        }
        for key in totals:
            totals[key] += row[f"{key}_ms"]
        rows.append({key: round(value, 4) if isinstance(value, float)
                     else value for key, value in row.items()})

    def ratio(numerator: float, denominator: float):
        return round(numerator / denominator, 3) if denominator else None

    report = {
        "programs": programs,
        "artifacts": len(artifacts),
        "repeats": repeats,
        "rows": rows,
        "totals_ms": {key: round(value, 3)
                      for key, value in totals.items()},
        "speedups": {
            "fused_cold_vs_two_pass":
                ratio(totals["two_pass"], totals["fused_cold"]),
            "fused_warm_vs_cold":
                ratio(totals["fused_cold"], totals["fused_warm"]),
            "lazy_first_touch_vs_cold":
                ratio(totals["fused_cold"],
                      totals["lazy_first_touch"]),
        },
        "guard": {
            # the contract CI enforces: fusing the verifier into the
            # decoder must not cost more than running it separately
            "fused_cold_le_two_pass":
                totals["fused_cold"] <= totals["two_pass"],
            # asserted inside every timed warm load: digest hit, no
            # residual sweeps re-run
            "warm_skips_verification": True,
        },
    }
    return report


def load_table(report: dict) -> str:
    """Fixed-width rendering of a :func:`load_report` (RESULTS.txt)."""
    lines = [
        f"{'Artifact':20} {'bytes':>7} {'2pass':>8} {'cold':>8} "
        f"{'warm':>8} {'lazy1':>8}",
        "-" * 64,
    ]
    for row in report["rows"]:
        label = row["program"] + ("+opt" if row["optimized"] else "")
        lines.append(
            f"{label:20} {row['wire_bytes']:>7} "
            f"{row['two_pass_ms']:>8.2f} {row['fused_cold_ms']:>8.2f} "
            f"{row['fused_warm_ms']:>8.2f} "
            f"{row['lazy_first_touch_ms']:>8.2f}")
    totals = report["totals_ms"]
    lines.append("-" * 64)
    lines.append(
        f"{'TOTAL (ms)':20} {'':>7} {totals['two_pass']:>8.2f} "
        f"{totals['fused_cold']:>8.2f} {totals['fused_warm']:>8.2f} "
        f"{totals['lazy_first_touch']:>8.2f}")
    speedups = report["speedups"]
    lines.append("")
    lines.append(
        f"fused cold vs two-pass: "
        f"{speedups['fused_cold_vs_two_pass']}x; warm vs cold: "
        f"{speedups['fused_warm_vs_cold']}x; lazy first touch vs cold: "
        f"{speedups['lazy_first_touch_vs_cold']}x")
    return "\n".join(lines)
