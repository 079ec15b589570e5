"""Trace-tier benchmark (E14): what speculative traces buy on loops.

For each loop-heavy corpus program the report times ``main`` under the
plain block-plan interpreter against the same runs under
:class:`~repro.interp.trace.TracingInterpreter` with a warm
:class:`~repro.cache.TraceCache` -- the serve scenario the cache
exists for (record once, reuse across requests).  The two sides are
``reps`` untraced runs and ``reps`` traced runs, timed in alternating
pairs by :func:`repro.bench.metrics.paired`, whose untimed first call
of the traced side is the recording run that warms the cache (perfbench
``execute`` times recording apart, as ``trace.record_ms``).  The row
keeps the ``{n, median, min, iqr}`` record of both times in ms and of
the per-pair untraced/traced ``speedup``.  Short programs are repeated
enough times to amortise per-process fixed costs; every traced run must
match the untraced run on stdout, exception identity, ``steps``, *and*
dynamic check counts (bit-identical fallback is an assertion here, not
a statistic).

Two further measurements keep the headline honest:

* **abort path**: an adversarial program whose hot loop branches on a
  linear-congruential bit -- no short block cycle exists, so recorded
  traces guard-abort until the header blacklists.  It is timed in the
  same alternating pairs, but each traced half starts from an empty
  trace cache, so every sample includes the recording and blacklisting
  its bound is about; the report gives the per-pair traced/untraced
  all-overhead-no-benefit ratio and asserts the blacklist bound keeps
  its median small.
* **per-program stats**: compiled/preloaded/blacklisted trace counts,
  entries and committed trips, so a speedup (or its absence -- MiniVM's
  opcode cycle exceeds the trace length budget and correctly
  blacklists) is attributable.

The runner's guards, over medians: geomean warm speedup above 1.25
(full) / 1.0 (smoke), the abort program's overhead bounded, and
blacklisting actually engaged on the abort program.  Any parity
mismatch raises immediately.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.bench.loops import LOOP_PROGRAMS
from repro.bench.metrics import clocked, paired
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


def _sides(module, name: Optional[str], reps: int,
           threshold: Optional[int] = None, fresh_cache: bool = False):
    """The untraced and the traced side of one program, for
    :func:`paired`, and the list each traced run appends its trace
    stats to.  Each side runs ``reps`` times; every run must reproduce
    the observables of one untraced run made here.  The traced runs
    share one trace cache, or with ``fresh_cache`` each traced half
    starts from an empty one (made off the clock), so its first run
    records (and blacklists) again."""
    kwargs = {} if threshold is None else {"threshold": threshold}
    expected = _observe(Interpreter(module, max_steps=_MAX_STEPS), name)
    stats: list = []

    def check(observed) -> None:
        assert observed == expected, (
            f"trace parity violation on {name}: "
            f"{observed[:2]} != {expected[:2]} or accounting differs")

    def untraced() -> None:
        for _ in range(reps):
            check(_observe(Interpreter(module, max_steps=_MAX_STEPS), name))

    def traced(cache: TraceCache) -> None:
        for _ in range(reps):
            runner = TracingInterpreter(module, max_steps=_MAX_STEPS,
                                        trace_cache=cache, **kwargs)
            check(_observe(runner, name))
            stats.append(runner.trace_stats())

    shared = TraceCache()
    cache = TraceCache if fresh_cache else (lambda: shared)
    return clocked(untraced), clocked(traced, cache), stats


def trace_report(programs=None, *, reps=None, abort_reps: int = 3,
                 pairs: int) -> dict:
    programs = tuple(programs) if programs is not None else LOOP_PROGRAMS
    per_program: dict[str, dict] = {}
    for name in programs:
        count = (reps or _REPS).get(name, 1)
        untraced, traced, stats = _sides(
            _digest_module(corpus_source(name)), name, count)
        timed = paired(untraced, traced, pairs)
        per_program[name] = {
            "reps": count,
            "untraced_ms": timed["first"],
            "traced_ms": timed["second"],
            "speedup": timed["ratio"],
            # the traced side's untimed first run records
            "cold_stats": stats[0],
            "warm_stats": stats[-1],
        }
    speedups = [row["speedup"]["median"] for row in per_program.values()]
    geomean = math.exp(sum(math.log(s) for s in speedups)
                       / len(speedups)) if speedups else 0.0

    # the abort path: pure overhead, bounded by blacklisting; every
    # traced half records and blacklists from an empty cache, since
    # that is the cost the bound is about
    untraced, traced, abort_stats = _sides(
        _digest_module(ABORT_SOURCE), "AbortStorm", abort_reps,
        threshold=8, fresh_cache=True)
    timed = paired(traced, untraced, pairs)
    abort_overhead = timed["ratio"]["median"]

    return {
        "max_steps": _MAX_STEPS,
        "pairs": pairs,
        "programs": per_program,
        "geomean_speedup": round(geomean, 4),
        "abort": {
            "program": "AbortStorm",
            "reps": abort_reps,
            "untraced_ms": timed["second"],
            "traced_ms": timed["first"],
            "overhead": timed["ratio"],
            "cold_stats": abort_stats[0],
            "warm_stats": abort_stats[-1],
        },
        "guard": {
            # the acceptance bar for the full corpus; smoke asks only
            # for strictly-better-than-even (fewer reps, noisier box)
            "geomean_speedup": round(geomean, 4),
            "abort_overhead": abort_overhead,
            "abort_blacklisted": abort_stats[0]["blacklisted"] >= 1,
            "abort_entries": abort_stats[0]["entries"],
            "parity": True,  # asserted per run; reaching here means OK
        },
    }


def trace_table(report: dict) -> str:
    def cells(untraced: dict, traced: dict, ratio: dict) -> str:
        return (f"{untraced['median']:>10.1f} {traced['median']:>10.1f} "
                f"{ratio['median']:>7.2f}x {ratio['iqr']:>6.2f}")

    lines = [
        f"{'program':<12} {'reps':>4} {'untraced':>10} {'traced':>10} "
        f"{'ratio':>8} {'iqr':>6}  traces (live/bl)  entries  trips",
    ]
    for name, row in report["programs"].items():
        cold, warm = row["cold_stats"], row["warm_stats"]
        lines.append(
            f"{name:<12} {row['reps']:>4} "
            f"{cells(row['untraced_ms'], row['traced_ms'], row['speedup'])}"
            f"  {cold['compiled']:>6}/{cold['blacklisted']:<9} "
            f"{warm['entries']:>7}  {warm['trips']}")
    lines.append(f"{'geomean':<12} {'':>4} {'':>10} {'':>10} "
                 f"{report['geomean_speedup']:>7.2f}x")
    abort = report["abort"]
    lines.append("")
    lines.append(
        f"abort path   {abort['reps']:>4} "
        f"{cells(abort['untraced_ms'], abort['traced_ms'], abort['overhead'])}"
        f"  overhead (blacklisted={abort['cold_stats']['blacklisted']}, "
        f"entries={abort['cold_stats']['entries']})")
    lines.append(f"ms, medians of {report['pairs']} alternating pairs; "
                 "ratio is the per-pair untraced/traced speedup, on the "
                 "abort path traced/untraced overhead")
    return "\n".join(lines)
