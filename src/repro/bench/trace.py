"""Trace-tier benchmark (E14): what speculative traces buy on loops.

For each loop-heavy corpus program the report times ``main`` under the
plain block-plan interpreter against the same runs under
:class:`~repro.interp.trace.TracingInterpreter` with a warm
:class:`~repro.cache.TraceCache` -- the serve scenario the cache
exists for (record once, reuse across requests).  The recording run
that warms the cache runs first, on its own clock: its time is the
row's ``record_s``.  Then five pairs each time ``reps`` untraced runs
and ``reps`` warm traced runs, alternating which half goes first;
``untraced_s`` and ``traced_s`` are medians over the pairs and the
speedup is the median per-pair ratio (``speedups`` lists them all).
Short programs are repeated enough times to amortise per-process fixed
costs; every traced run must match the untraced run on stdout,
exception identity, ``steps``, *and* dynamic check counts
(bit-identical fallback is an assertion here, not a statistic).

Two further measurements keep the headline honest:

* **abort path**: an adversarial program whose hot loop branches on a
  linear-congruential bit -- no short block cycle exists, so recorded
  traces guard-abort until the header blacklists.  Its timed runs
  include the cold one, since recording and blacklisting are the cost
  its bound is about; the report measures the all-overhead-no-benefit
  ratio and asserts the blacklist bound keeps it small.
* **per-program stats**: compiled/preloaded/blacklisted trace counts,
  entries and committed trips, so a speedup (or its absence -- MiniVM's
  opcode cycle exceeds the trace length budget and correctly
  blacklists) is attributable.

The runner's guards: geomean warm speedup above 1.25 (full) / 1.0
(smoke), the abort program's overhead bounded, and blacklisting
actually engaged on the abort program.  Any parity mismatch raises
immediately.
"""

from __future__ import annotations

import gc
import math
import statistics
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

#: untraced/warm pairs per program row: a single sample of each side
#: let one burst of host slowness decide the guard
_PAIRS = 5

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


class _Runs:
    """Untraced and traced runs of one module, the traced ones sharing
    one trace cache.  A warmup untraced run, off the clock, gives the
    observables every timed run must reproduce.  Each timed batch
    starts from a collected heap, so garbage the other side left is not
    collected on this side's clock."""

    def __init__(self, module, name: Optional[str],
                 threshold: Optional[int] = None):
        self.module = module
        self.name = name
        self.kwargs = {} if threshold is None else {"threshold": threshold}
        self.cache = TraceCache()
        self.expected = _observe(
            Interpreter(module, max_steps=_MAX_STEPS), name)

    def _check(self, observed) -> None:
        assert observed == self.expected, (
            f"trace parity violation on {self.name}: "
            f"{observed[:2]} != {self.expected[:2]} or accounting differs")

    def untraced(self, reps: int) -> float:
        gc.collect()
        started = time.perf_counter()
        for _ in range(reps):
            self._check(_observe(
                Interpreter(self.module, max_steps=_MAX_STEPS), self.name))
        return time.perf_counter() - started

    def traced(self, reps: int) -> tuple[float, list]:
        """Seconds of ``reps`` traced runs, and each run's trace stats."""
        stats = []
        gc.collect()
        started = time.perf_counter()
        for _ in range(reps):
            traced = TracingInterpreter(self.module, max_steps=_MAX_STEPS,
                                        trace_cache=self.cache,
                                        **self.kwargs)
            self._check(_observe(traced, self.name))
            stats.append(traced.trace_stats())
        return time.perf_counter() - started, stats


def _measure_warm(module, name: str, reps: int) -> dict:
    """One program row.  The recording run that warms the trace cache
    runs first, on its own clock (``record_s``); then ``_PAIRS`` pairs
    of ``reps`` untraced and ``reps`` warm traced runs, in alternating
    order so a change of host speed within a pair favours each side
    equally often.  Times are medians over the pairs, and the speedup is
    the median of the per-pair ratios."""
    runs = _Runs(module, name)
    record_s, (cold,) = runs.traced(1)
    untraced, traced, ratios = [], [], []
    for pair in range(_PAIRS):
        if pair % 2:
            traced_s, stats = runs.traced(reps)
            untraced_s = runs.untraced(reps)
        else:
            untraced_s = runs.untraced(reps)
            traced_s, stats = runs.traced(reps)
        untraced.append(untraced_s)
        traced.append(traced_s)
        ratios.append(untraced_s / traced_s)
    return {
        "reps": reps,
        "pairs": _PAIRS,
        "untraced_s": round(statistics.median(untraced), 4),
        "record_s": round(record_s, 4),
        "traced_s": round(statistics.median(traced), 4),
        "speedup": round(statistics.median(ratios), 4),
        "speedups": [round(ratio, 4) for ratio in ratios],
        "cold_stats": cold,
        "warm_stats": stats[-1],
    }


def trace_report(programs=None, *, reps=None, abort_reps: int = 3) -> dict:
    programs = tuple(programs) if programs is not None else LOOP_PROGRAMS
    per_program: dict[str, dict] = {}
    for name in programs:
        module = _digest_module(corpus_source(name))
        count = (reps or _REPS).get(name, 1)
        per_program[name] = _measure_warm(module, name, count)
    speedups = [row["speedup"] for row in per_program.values()]
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0

    # the abort path: pure overhead, bounded by blacklisting; its timed
    # traced runs include the cold one, whose recording and blacklisting
    # are the cost the bound is about
    runs = _Runs(_digest_module(ABORT_SOURCE), "AbortStorm", threshold=8)
    abort_untraced = runs.untraced(abort_reps)
    abort_traced, abort_stats = runs.traced(abort_reps)
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
            "cold_stats": abort_stats[0],
            "warm_stats": abort_stats[-1],
        },
        "guard": {
            # the acceptance bar for the full corpus; smoke asks only
            # for strictly-better-than-even (fewer reps, noisier box)
            "geomean_speedup": round(geomean, 4),
            "abort_overhead": round(abort_overhead, 4),
            "abort_blacklisted": abort_stats[0]["blacklisted"] >= 1,
            "abort_entries": abort_stats[0]["entries"],
            "parity": True,  # asserted per run; reaching here means OK
        },
    }


def trace_table(report: dict) -> str:
    lines = [
        f"{'program':<12} {'reps':>4} {'pairs':>5} {'untraced':>10} "
        f"{'record':>10} {'warm':>10} {'speedup':>8} {'range':>11}  "
        "traces (live/bl)  entries  trips",
    ]
    for name, row in report["programs"].items():
        cold, warm = row["cold_stats"], row["warm_stats"]
        spread = f"{min(row['speedups']):.2f}-{max(row['speedups']):.2f}"
        lines.append(
            f"{name:<12} {row['reps']:>4} {row['pairs']:>5} "
            f"{row['untraced_s']:>9.3f}s {row['record_s']:>9.3f}s "
            f"{row['traced_s']:>9.3f}s {row['speedup']:>7.2f}x "
            f"{spread:>11}  "
            f"{cold['compiled']:>6}/{cold['blacklisted']:<9} "
            f"{warm['entries']:>7}  {warm['trips']}")
    lines.append(f"{'geomean':<12} {'':>4} {'':>5} {'':>10} {'':>10} "
                 f"{'':>10} {report['geomean_speedup']:>7.2f}x")
    abort = report["abort"]
    lines.append("")
    lines.append(
        f"abort path   {abort['reps']:>4} {1:>5} "
        f"{abort['untraced_s']:>9.3f}s {'(cold)':>10} "
        f"{abort['traced_s']:>9.3f}s {abort['overhead']:>7.2f}x "
        f"{'':>11}  "
        f"overhead (blacklisted={abort['cold_stats']['blacklisted']}, "
        f"entries={abort['cold_stats']['entries']})")
    return "\n".join(lines)
