"""Trace-tier benchmark (E14): what speculative traces buy on loops.

For each loop-heavy corpus program the report times one ``main`` run
under the plain block-plan interpreter against the same run under
:class:`~repro.interp.trace.TracingInterpreter` with a warm
:class:`~repro.cache.TraceCache` -- the serve scenario the cache
exists for (record once, reuse across requests).  Short programs are
repeated enough times to amortise per-process fixed costs; every
traced run must match the untraced run on stdout, exception identity,
``steps``, *and* dynamic check counts (bit-identical fallback is an
assertion here, not a statistic).

Two further measurements keep the headline honest:

* **abort path**: an adversarial program whose hot loop branches on a
  linear-congruential bit -- no short block cycle exists, so recorded
  traces guard-abort until the header blacklists.  The report measures
  the all-overhead-no-benefit ratio and asserts the blacklist bound
  keeps it small.
* **per-program stats**: compiled/preloaded/blacklisted trace counts,
  entries and committed trips, so a speedup (or its absence -- MiniVM's
  opcode cycle exceeds the trace length budget and correctly
  blacklists) is attributable.

Perf guards: geomean speedup >= 1.25 (full) / > 1.0 (smoke), the abort
program's overhead bounded, and blacklisting actually engaged on the
abort program.  Any parity mismatch raises immediately.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.bench.loops import LOOP_PROGRAMS
from repro.cache import TraceCache
from repro.interp.interpreter import Interpreter
from repro.interp.trace import TracingInterpreter
from repro.loader import load_module

_MAX_STEPS = 80_000_000

#: repetitions per program: short runs are repeated so fixed costs
#: (module walk, plan building, trace preload) amortise the way they
#: do in a warm serving process
_REPS = {"Linpack": 1, "BitSieve": 1, "MiniVM": 20}

#: hot loop with a branch driven by a linear congruential generator:
#: there is no short repeating block cycle, so every recorded trace
#: guard-aborts until the header blacklists -- the pure-overhead case
ABORT_SOURCE = """\
class AbortStorm {
    static int storm(int rounds) {
        int x = 12345;
        int acc = 0;
        for (int i = 0; i < rounds; i++) {
            x = x * 1103515245 + 12345;
            if (((x >> 16) & 1) != 0) {
                acc = acc + i;
            } else {
                acc = acc - 1;
            }
        }
        return acc;
    }

    public static void main(String[] args) {
        System.out.println(storm(60000));
    }
}
"""


def _observe(interp, name: Optional[str]):
    result = interp.run_main(name)
    return (result.stdout, result.exception_name(), interp.steps,
            dict(interp.check_counts))


def _digest_module(source: str):
    """Compile and round-trip through the wire so the module carries a
    ``wire_digest`` -- the trace cache key (matching the serve path)."""
    from repro.encode.serializer import encode_module
    wire = encode_module(compile_source(source))
    return load_module(wire)


def _measure_pair(module, name: Optional[str], reps: int,
                  threshold: Optional[int] = None):
    """(untraced seconds, traced seconds, stats) over ``reps`` runs of
    one module, asserting bit-identical observables each run.  The
    trace cache is shared across the traced runs: the first records,
    the rest preload -- the warm serving scenario."""
    kwargs = {} if threshold is None else {"threshold": threshold}
    started = time.perf_counter()
    for _ in range(reps):
        untraced = Interpreter(module, max_steps=_MAX_STEPS)
        expected = _observe(untraced, name)
    untraced_s = time.perf_counter() - started
    cache = TraceCache()
    cold_stats = None
    started = time.perf_counter()
    for _ in range(reps):
        traced = TracingInterpreter(module, max_steps=_MAX_STEPS,
                                    trace_cache=cache, **kwargs)
        observed = _observe(traced, name)
        assert observed == expected, (
            f"trace parity violation on {name}: "
            f"{observed[:2]} != {expected[:2]} or accounting differs")
        if cold_stats is None:
            # the first run records/compiles/blacklists; later runs
            # preload its verdicts from the shared cache
            cold_stats = traced.trace_stats()
    traced_s = time.perf_counter() - started
    return untraced_s, traced_s, cold_stats, traced.trace_stats()


def trace_report(programs=None, *, reps=None, abort_reps: int = 3) -> dict:
    programs = tuple(programs) if programs is not None else LOOP_PROGRAMS
    per_program: dict[str, dict] = {}
    speedups = []
    for name in programs:
        module = _digest_module(corpus_source(name))
        count = (reps or _REPS).get(name, 1)
        untraced_s, traced_s, cold, warm = _measure_pair(
            module, name, count)
        speedup = untraced_s / traced_s if traced_s else 0.0
        speedups.append(speedup)
        per_program[name] = {
            "reps": count,
            "untraced_s": round(untraced_s, 4),
            "traced_s": round(traced_s, 4),
            "speedup": round(speedup, 4),
            "cold_stats": cold,
            "warm_stats": warm,
        }
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0

    # the abort path: pure overhead, bounded by blacklisting
    abort_module = _digest_module(ABORT_SOURCE)
    abort_untraced, abort_traced, abort_stats, abort_warm = \
        _measure_pair(abort_module, "AbortStorm", abort_reps,
                      threshold=8)
    abort_overhead = (abort_traced / abort_untraced
                      if abort_untraced else 0.0)

    return {
        "max_steps": _MAX_STEPS,
        "programs": per_program,
        "geomean_speedup": round(geomean, 4),
        "abort": {
            "program": "AbortStorm",
            "reps": abort_reps,
            "untraced_s": round(abort_untraced, 4),
            "traced_s": round(abort_traced, 4),
            "overhead": round(abort_overhead, 4),
            "cold_stats": abort_stats,
            "warm_stats": abort_warm,
        },
        "guard": {
            # the acceptance bar for the full corpus; smoke asks only
            # for strictly-better-than-even (fewer reps, noisier box)
            "geomean_speedup": round(geomean, 4),
            "abort_overhead": round(abort_overhead, 4),
            "abort_blacklisted": abort_stats["blacklisted"] >= 1,
            "abort_entries": abort_stats["entries"],
            "parity": True,  # asserted per run; reaching here means OK
        },
    }


def trace_table(report: dict) -> str:
    lines = [
        f"{'program':<12} {'reps':>4} {'untraced':>10} {'traced':>10} "
        f"{'speedup':>8}  traces (live/bl)  entries  trips",
    ]
    for name, row in report["programs"].items():
        cold, warm = row["cold_stats"], row["warm_stats"]
        lines.append(
            f"{name:<12} {row['reps']:>4} {row['untraced_s']:>9.3f}s "
            f"{row['traced_s']:>9.3f}s {row['speedup']:>7.2f}x  "
            f"{cold['compiled']:>6}/{cold['blacklisted']:<9} "
            f"{warm['entries']:>7}  {warm['trips']}")
    lines.append(f"{'geomean':<12} {'':>4} {'':>10} {'':>10} "
                 f"{report['geomean_speedup']:>7.2f}x")
    abort = report["abort"]
    lines.append("")
    lines.append(
        f"abort path   {abort['reps']:>4} {abort['untraced_s']:>9.3f}s "
        f"{abort['traced_s']:>9.3f}s {abort['overhead']:>7.2f}x  "
        f"overhead (blacklisted={abort['cold_stats']['blacklisted']}, "
        f"entries={abort['cold_stats']['entries']})")
    return "\n".join(lines)
