"""Pass-pipeline benchmark: analysis-cache reuse, per-pass timing, and
the parallel fan-out (``BENCH_pipeline.json``).

Three questions, answered over the full corpus workload (every
transmitted artifact is built, verified, optimised, re-verified, and
encoded; the optimised form also produces the bytecode baseline the
Figure 5 comparison needs):

1. **What do the shared front end and shared analyses buy?**  The
   ``serial`` baseline shares nothing: a fresh session builds the
   module, then ``verify_module``, a bare ``PassManager`` and
   ``encode_module`` each re-run their own solvers (CSE its own
   dominator tree, DCE its own observability closure, the verifier and
   the encoder theirs again), and a second fresh session re-parses the
   source for the bytecode baseline.  The ``session`` path runs the
   same workload through one :class:`~repro.driver.session.
   CompilationSession` per artifact: every consumer hits the shared
   :class:`~repro.analysis.manager.AnalysisManager`, and the baseline
   reuses the memoized front end.

2. **What does the fan-out buy?**  ``parallel`` distributes the
   session workload across :func:`~repro.bench.metrics.pool_map`'s
   process pool at artifact granularity.  ``workers`` records the pool
   size that actually ran; on a single-CPU host it is 1 (the serial
   loop), and the speedup there is all analysis sharing.

3. **Is it deterministic?**  For every corpus artifact the pooled
   sessions -- fresh sessions in spawned workers, on other heaps and
   under other hash seeds -- must produce bit-identical encoded bytes
   and equal per-pass statistics to the timed sessions (also enforced
   as tier-1 tests in ``tests/test_driver.py``).
"""

from __future__ import annotations

import os
import time

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import TRANSMITTED_FLAGS, pool_map
from repro.driver import CompilationSession


def _artifacts(programs) -> list[tuple[str, str, dict]]:
    """(label, source, session flags) per transmitted corpus artifact."""
    out = []
    for name in programs:
        source = corpus_source(name)
        for flags in TRANSMITTED_FLAGS:
            form = "opt" if flags.get("optimize") else "plain"
            out.append((f"{name}.{form}", source, dict(flags)))
    return out


def _run_session_workload(label_source_flags):
    """Worker: one artifact's full producer workload through a session:
    build, verify, optimise, re-verify, encode -- plus, for the
    optimised form, the bytecode baseline Figure 5 compares against
    (sharing the session's memoized front end, where the unshared path
    parses a second time).

    Returns (label, wire bytes, deterministic report dicts, session
    pass-report) -- everything picklable, so this runs under a process
    pool too.
    """
    label, source, flags = label_source_flags
    session = CompilationSession(cache=False, **flags)
    module = session.build_module(source)
    session.verify(module)  # admission check on the built module
    session.optimize(module)
    session.verify(module)  # the passes must preserve well-formedness
    wire = session.encode(module)
    if flags.get("optimize"):
        session.compile_to_classfiles(source)
    reports = [report.as_dict(seconds=False)
               for report in session.reports]
    return label, wire, reports, session.pass_report()


def _run_unshared_workload(label_source_flags):
    """The same workload with nothing shared: every consumer computes
    its own analyses, and the bytecode baseline parses again."""
    from repro.driver import DEFAULT_PASSES, PassManager
    from repro.encode.serializer import encode_module
    from repro.tsa.verifier import verify_module
    label, source, flags = label_source_flags
    module = CompilationSession(
        cache=False,
        prune_phis=flags.get("prune_phis", True)).build_module(source)
    verify_module(module)
    if flags.get("optimize"):
        PassManager(DEFAULT_PASSES).run_module(module)
    verify_module(module)
    wire = encode_module(module)
    if flags.get("optimize"):
        # a second fresh session: no shared front end
        CompilationSession(cache=False).compile_to_classfiles(source)
    return label, wire


def pipeline_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_pipeline.json``."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)

    report: dict = {"programs": programs,
                    "artifacts": len(artifacts),
                    "repeats": repeats,
                    "cpus": os.cpu_count() or 1}

    # 1-3. serial baseline (nothing shared, per-consumer analyses) vs
    # the session path (shared AnalysisManager) vs the session workload
    # fanned across a process pool at artifact granularity (the serial
    # loop where no pool can run).  The rounds interleave so slow clock
    # drift (thermal, noisy neighbours) hits every side equally; each
    # side keeps its best round.
    def serial_round() -> None:
        for item in artifacts:
            _run_unshared_workload(item)

    def session_round() -> list:
        return [_run_session_workload(item) for item in artifacts]

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    serial_round()  # warmup
    session_round()
    serial_s = session_s = parallel_s = float("inf")
    for _ in range(max(repeats, 1)):
        _, seconds = timed(serial_round)
        serial_s = min(serial_s, seconds)
        session_runs, seconds = timed(session_round)
        session_s = min(session_s, seconds)
        (parallel_runs, workers), seconds = timed(
            lambda: pool_map(_run_session_workload, artifacts))
        parallel_s = min(parallel_s, seconds)

    # 4. determinism: the pooled sessions rebuilt every artifact from
    # scratch; bytes and reports must match the timed sessions'
    mismatched = [label for (label, wire, reports, _),
                  (_, pool_wire, pool_reports, _)
                  in zip(session_runs, parallel_runs)
                  if pool_wire != wire or pool_reports != reports]

    # 5. analysis-cache accounting + per-pass seconds, aggregated over
    # the corpus (one timed run's worth of sessions)
    cache_totals = {"computed": 0, "hits": 0, "invalidations": 0}
    per_analysis: dict = {}
    pass_seconds: dict = {}
    for _, _, _, pass_report in session_runs:
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
    report["parallel"] = {
        "seconds": round(parallel_s, 4),
        "workers": workers,
        "mode": "session workload across a process pool per artifact",
    }
    report["parallel_speedup_vs_serial"] = \
        round(serial_s / parallel_s, 3) if parallel_s else None
    report["session_speedup_vs_serial"] = \
        round(serial_s / session_s, 3) if session_s else None
    report["parallel_speedup_vs_session"] = \
        round(session_s / parallel_s, 3) if parallel_s else None
    report["determinism"] = {
        "artifacts": len(artifacts),
        "identical_bytes": not mismatched,
        "identical_reports": not mismatched,
        "mismatched": mismatched,
    }
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
