"""Pass-pipeline benchmark: analysis-cache reuse and per-pass timing
(``BENCH_pipeline.json``).

Over the full corpus workload (every transmitted artifact is built,
verified, optimised, re-verified, and encoded; the optimised form also
produces the bytecode baseline the Figure 5 comparison needs) it asks
what the shared front end and shared analyses buy.  The ``serial``
baseline shares nothing: a fresh session builds the module, then
``verify_module``, a bare ``PassManager`` and ``encode_module`` each
re-run their own solvers (CSE its own dominator tree, DCE its own
observability closure, the verifier and the encoder theirs again), and
a second fresh session re-parses the source for the bytecode baseline.
The ``session`` path runs the same workload through one
:class:`~repro.driver.session.CompilationSession` per artifact: every
consumer hits the shared :class:`~repro.analysis.manager.
AnalysisManager`, and the baseline reuses the memoized front end.

The report adds the analysis-cache accounting and the seconds each pass
took, summed over the corpus.  Rebuild determinism -- fresh sessions
and fresh interpreters under other hash seeds produce the same bytes --
is a tier-1 test (``tests/test_driver.py``), not a bench row.
"""

from __future__ import annotations

import time

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import TRANSMITTED_FLAGS, bench_repeats
from repro.driver import DEFAULT_PASSES, CompilationSession, PassManager
from repro.encode.serializer import encode_module
from repro.tsa.verifier import verify_module


def _artifacts(programs) -> list[tuple[str, dict]]:
    """(source, session flags) per transmitted corpus artifact."""
    return [(corpus_source(name), dict(flags))
            for name in programs for flags in TRANSMITTED_FLAGS]


def _run_session_workload(source: str, flags: dict) -> dict:
    """One artifact's full producer workload through a session: build,
    verify, optimise, re-verify, encode -- plus, for the optimised form,
    the bytecode baseline Figure 5 compares against (sharing the
    session's memoized front end, where the unshared path parses a
    second time).  Returns the session's pass report."""
    session = CompilationSession(cache=False, **flags)
    module = session.build_module(source)
    session.verify(module)  # admission check on the built module
    session.optimize(module)
    session.verify(module)  # the passes must preserve well-formedness
    session.encode(module)
    if flags.get("optimize"):
        session.compile_to_classfiles(source)
    return session.pass_report()


def _run_unshared_workload(source: str, flags: dict) -> None:
    """The same workload with nothing shared: every consumer computes
    its own analyses, and the bytecode baseline parses again."""
    module = CompilationSession(
        cache=False,
        prune_phis=flags.get("prune_phis", True)).build_module(source)
    verify_module(module)
    if flags.get("optimize"):
        PassManager(DEFAULT_PASSES).run_module(module)
    verify_module(module)
    encode_module(module)
    if flags.get("optimize"):
        # a second fresh session: no shared front end
        CompilationSession(cache=False).compile_to_classfiles(source)


def pipeline_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_pipeline.json``."""
    repeats = bench_repeats(repeats)
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)

    report: dict = {"programs": programs,
                    "artifacts": len(artifacts),
                    "repeats": repeats}

    # serial baseline (nothing shared, per-consumer analyses) vs the
    # session path (shared AnalysisManager).  The rounds interleave so
    # slow clock drift (thermal, noisy neighbours) hits both sides
    # equally; each side keeps its best round.
    def serial_round() -> None:
        for source, flags in artifacts:
            _run_unshared_workload(source, flags)

    def session_round() -> list:
        return [_run_session_workload(source, flags)
                for source, flags in artifacts]

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    serial_round()  # warmup
    session_round()
    serial_s = session_s = float("inf")
    for _ in range(repeats):
        _, seconds = timed(serial_round)
        serial_s = min(serial_s, seconds)
        pass_reports, seconds = timed(session_round)
        session_s = min(session_s, seconds)

    # analysis-cache accounting + per-pass seconds, aggregated over the
    # corpus (one timed run's worth of sessions)
    cache_totals = {"computed": 0, "hits": 0, "invalidations": 0}
    per_analysis: dict = {}
    pass_seconds: dict = {}
    for pass_report in pass_reports:
        stats = pass_report["analysis_cache"]
        for key in cache_totals:
            cache_totals[key] += stats[key]
        for name, counts in stats["per_analysis"].items():
            slot = per_analysis.setdefault(name,
                                           {"computed": 0, "hits": 0})
            slot["computed"] += counts["computed"]
            slot["hits"] += counts["hits"]
        for name, seconds in pass_report["pass_seconds"].items():
            pass_seconds[name] = pass_seconds.get(name, 0.0) + seconds
    computed = cache_totals["computed"]
    hits = cache_totals["hits"]

    report["serial"] = {
        "seconds": round(serial_s, 4),
        "mode": "fresh sessions, no shared analyses; every consumer "
                "re-runs its solvers, bytecode baseline re-parses",
    }
    report["session"] = {
        "seconds": round(session_s, 4),
        "mode": "CompilationSession: shared AnalysisManager and "
                "front end",
    }
    report["session_speedup_vs_serial"] = round(serial_s / session_s, 3)
    report["analysis_cache"] = {
        **cache_totals,
        "hit_rate": round(hits / (hits + computed), 4)
        if hits + computed else 0.0,
        "consumers_per_computed": round((hits + computed) / computed, 3)
        if computed else 0.0,
        "per_analysis": {name: counts for name, counts
                         in sorted(per_analysis.items())},
    }
    report["pass_seconds"] = {name: round(seconds, 6)
                              for name, seconds
                              in sorted(pass_seconds.items())}
    return report


def pipeline_table(report: dict) -> str:
    cache = report["analysis_cache"]
    return "\n".join([
        f"  serial (per-consumer analyses) "
        f"{report['serial']['seconds']:8.3f} s",
        f"  session (shared analyses)      "
        f"{report['session']['seconds']:8.3f} s  "
        f"({report['session_speedup_vs_serial']}x vs serial)",
        f"  analysis cache: {cache['consumers_per_computed']} consumers "
        f"per computed result (hit rate {cache['hit_rate']:.0%})",
    ])
