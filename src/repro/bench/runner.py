"""Command-line entry point regenerating every table and figure.

Usage::

    python -m repro.bench.runner figure5      # paper Figure 5
    python -m repro.bench.runner figure6      # paper Figure 6
    python -m repro.bench.runner pruning      # E3: dead-phi pruning
    python -m repro.bench.runner ablation     # E4: per-pass contribution
    python -m repro.bench.runner verifycost   # E5: verification cost
    python -m repro.bench.runner jitspeed    # E9: consumer codegen speed
    python -m repro.bench.runner codec [--smoke] [--output PATH]
    python -m repro.bench.runner analysis [--smoke] [--output PATH]
    python -m repro.bench.runner pipeline [--smoke] [--output PATH]
    python -m repro.bench.runner fuzz [--smoke] [--output PATH]
    python -m repro.bench.runner load [--smoke] [--output PATH]
    python -m repro.bench.runner loops [--smoke] [--output PATH]
    python -m repro.bench.runner wire [--smoke] [--output PATH]
    python -m repro.bench.runner serve [--smoke] [--output PATH]
    python -m repro.bench.runner trace [--smoke] [--output PATH]
    python -m repro.bench.runner all

``codec`` times the wire codec and the compilation cache and writes the
numbers to ``BENCH_codec.json``; ``analysis`` times verification and
the lint driver per corpus artifact and writes ``BENCH_analysis.json``;
``pipeline`` measures the pass pipeline (analysis-cache reuse, per-pass
seconds, process-pool fan-out and rebuild determinism) and writes
``BENCH_pipeline.json``; ``fuzz`` runs a deterministic differential +
wire-mutation campaign and writes throughput plus the rejection
taxonomy to ``BENCH_fuzz.json`` (and exits nonzero on any finding);
``load`` (E10) times the legacy two-pass consumer against the fused
verifying loader per corpus artifact, writes ``BENCH_load.json``, and
exits nonzero if the fused load stops beating two-pass; ``loops`` compares the loop tier (preheaders,
LICM, check hoisting) against no optimisation and the default pipeline
on the loop-heavy corpus, writes ``BENCH_loops.json``, and exits
nonzero unless the tier alone strictly reduces dynamic checks and the
full pipeline with the tier never regresses the default; ``wire``
(E12) sizes the v2 distribution layer (shared dictionaries, deltas)
and measures streaming vs eager time-to-first-execute on a simulated
link, writes ``BENCH_wire.json``, and exits nonzero if v2 stops
shrinking the corpus, deltas stop beating whole artifacts, or
streaming TTFE exceeds eager; ``serve`` (E13) publishes the corpus
through a live ``repro.serve`` server, measures sustained req/s and
p50/p99 latency under a many-client mixed fetch/verify/audit workload,
checks that N barrier-released identical compiles coalesce into ~one
performed compilation with bit-identical digests, and writes
``BENCH_serve.json``; ``trace`` (E14) times the speculative trace tier
against the untraced interpreter on the loop-heavy corpus with a warm
trace cache (the recording run that warms it is timed apart), measures
the guard-abort/blacklist path on an adversarial program, writes
``BENCH_trace.json``, and exits nonzero if the geomean speedup drops
below the floor (1.25x full, 1.0x smoke) or the abort path stops being
contained; ``--smoke`` runs a reduced configuration (the CI setting).

Without ``--output`` a full run writes ``BENCH_<name>.json`` in the
working directory and a smoke run writes
``bench-smoke/BENCH_<name>.json``, so a smoke run never replaces a
committed full run.

Timed sections run best-of-N with a warmup pass (``REPRO_BENCH_REPEATS``
overrides N, default 3): the minimum over repeats is the standard
estimator for "time the code would take undisturbed", where a single
sample is at the mercy of whatever else the machine was doing.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import (
    compile_wire_job,
    corpus_compile_jobs,
    measure_corpus,
    pool_map,
)
from repro.bench.tables import (
    ablation_table,
    figure5_table,
    figure6_table,
    phi_pruning_table,
)
from repro.cache import CompilationCache, default_cache
from repro.driver import CompilationSession, PassManager

#: Shared across the commands of one runner invocation, so ``all`` does
#: not recompile the corpus for every table that needs it.  When the
#: process-wide cache is enabled (``REPRO_CACHE_DIR``), use it, so
#: table regeneration persists compiles across invocations too.
_RUN_CACHE = default_cache() or CompilationCache()


def best_of(fn, repeats=None, warmup: int = 1) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs,
    after ``warmup`` untimed runs.  ``fn``'s return value is discarded;
    capture side effects via a closure if the result is needed too."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
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


def run_figure5() -> str:
    rows = measure_corpus(cache=_RUN_CACHE)
    return "Figure 5: SafeTSA class files compared to Java class files\n\n" \
        + figure5_table(rows)


def run_figure6() -> str:
    rows = measure_corpus(cache=_RUN_CACHE)
    return ("Figure 6: Phi-, Null-Check and Array-Check instructions "
            "before and after optimisation\n\n" + figure6_table(rows))


def run_pruning() -> str:
    results = []
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        unpruned = CompilationSession(prune_phis=False,
                                      cache=_RUN_CACHE).compile(source)
        pruned = CompilationSession(prune_phis=True,
                                    cache=_RUN_CACHE).compile(source)
        results.append((name,
                        unpruned.count_opcodes("phi"),
                        pruned.count_opcodes("phi")))
    return ("E3: eager (Brandis/Moessenboeck) phi insertion vs Briggs "
            "pruning\n\n" + phi_pruning_table(results))


def run_ablation() -> str:
    configs = {
        "none": [],
        "constprop": ["constprop"],
        "cse": ["cse"],
        "dce": ["dce"],
        "all": ["constprop", "cse", "dce"],
    }
    results = []
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        counts = {}
        for label, passes in configs.items():
            # each configuration mutates its module, so every one needs
            # a fresh decode -- which is exactly what a cache hit is
            module = CompilationSession(cache=_RUN_CACHE).compile(source)
            if passes:
                PassManager(passes).run_module(module)
            counts[label] = module.instruction_count()
        results.append((name, counts))
    return ("E4: instruction count per optimisation configuration\n\n"
            + ablation_table(results))


def run_verifycost() -> str:
    from repro.frontend.parser import parse_compilation_unit
    from repro.frontend.semantics import analyze
    from repro.jvm.codegen import compile_unit
    from repro.jvm.verifier import verify_class
    from repro.tsa.verifier import verify_module
    from repro.uast.builder import UastBuilder

    lines = [
        "E5: consumer-side verification cost "
        "(SafeTSA counter check vs JVM dataflow)",
        "",
        f"{'Program':16} {'tsa (ms)':>9} {'jvm (ms)':>9} "
        f"{'jvm steps':>10} {'ratio':>7}",
        "-" * 56,
    ]
    total_tsa = 0.0
    total_jvm = 0.0
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        module = CompilationSession(cache=_RUN_CACHE).compile(source)
        unit = parse_compilation_unit(source)
        world = analyze(unit)
        builder = UastBuilder(world)
        classes = compile_unit(world, {decl.info: builder.build_class(decl)
                                       for decl in unit.classes})
        tsa_ms = best_of(lambda: verify_module(module)) * 1000
        steps_holder = []
        jvm_ms = best_of(lambda: steps_holder.append(
            sum(verify_class(world, cls) for cls in classes))) * 1000
        steps = steps_holder[-1]
        total_tsa += tsa_ms
        total_jvm += jvm_ms
        ratio = jvm_ms / tsa_ms if tsa_ms else float("inf")
        lines.append(f"{name:16} {tsa_ms:9.2f} {jvm_ms:9.2f} "
                     f"{steps:10} {ratio:7.2f}")
    lines.append("-" * 56)
    ratio = total_jvm / total_tsa if total_tsa else float("inf")
    lines.append(f"{'TOTAL':16} {total_tsa:9.2f} {total_jvm:9.2f} "
                 f"{'':10} {ratio:7.2f}")
    return "\n".join(lines)


def _first_jit_run(wire: bytes, name: str) -> float:
    """Seconds of the first JIT run on a freshly decoded module:
    translation included, decoding not."""
    from repro.interp.jit import JitCompiler
    from repro.loader import load_module
    module = load_module(wire)
    start = time.perf_counter()
    JitCompiler(module).run_main(name)
    return time.perf_counter() - start


def run_jitspeed() -> str:
    from repro.encode.serializer import encode_module
    from repro.interp.interpreter import Interpreter
    from repro.interp.jit import JitCompiler
    from repro.loader import load_module
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    lines = [
        "E9: consumer-side code generation (interpreter vs JIT)",
        "",
        "cold: the first run on a freshly decoded module, translation",
        "included; warm: a fresh JitCompiler on a module whose functions",
        "already carry their generated code (it only links)",
        "",
        f"{'Program':12} {'interp':>10} {'jit cold':>10} {'jit warm':>10} "
        f"{'cold':>7} {'warm':>7}",
        "-" * 61,
    ]
    totals = [0.0, 0.0, 0.0]
    for name in ("BitSieve", "Linpack", "BigInt", "MiniVM"):
        wire = encode_module(CompilationSession(
            optimize=True, cache=_RUN_CACHE).compile(corpus_source(name)))
        module = load_module(wire)
        interp_s = best_of(lambda: Interpreter(
            module, max_steps=200_000_000).run_main(name))
        cold_s = min(_first_jit_run(wire, name)
                     for _ in range(max(repeats, 1)))
        warm_s = best_of(lambda: JitCompiler(module).run_main(name))
        row = (interp_s, cold_s, warm_s)
        totals = [total + seconds for total, seconds in zip(totals, row)]
        lines.append(_jitspeed_row(name, *row))
    lines.append("-" * 61)
    lines.append(_jitspeed_row("TOTAL", *totals))
    return "\n".join(lines)


def _jitspeed_row(name: str, interp_s: float, cold_s: float,
                  warm_s: float) -> str:
    return (f"{name:12} {interp_s * 1000:8.1f}ms {cold_s * 1000:8.1f}ms "
            f"{warm_s * 1000:8.1f}ms {interp_s / cold_s:6.1f}x "
            f"{interp_s / warm_s:6.1f}x")


def codec_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_codec.json``."""
    from repro.bench.codec import measure_codec_throughput
    from repro.encode.deserializer import decode_module
    from repro.encode.serializer import encode_module

    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    programs = list(programs or CORPUS_PROGRAMS)
    report: dict = {"programs": programs, "repeats": repeats}

    # 1. the codec itself: trace replay, new vs reference.  Replaying
    # the trace is cheap, so take at least five repeats: on a busy
    # single-CPU machine three minima still carry visible noise.
    report["codec"] = measure_codec_throughput(programs,
                                               repeats=max(repeats, 5))
    report["codec"]["speedup_vs_reference"] = \
        report["codec"]["combined_speedup"]

    # 2. the module path: full encode/decode plus per-stage compile time
    unpruned = CompilationSession(prune_phis=False, cache=False)
    optimizing = CompilationSession(optimize=True, cache=False)
    modules = []
    for name in programs:
        source = corpus_source(name)
        modules.append(unpruned.compile(source))
        modules.append(optimizing.compile(source))
    stage_seconds: dict = {}
    for session in (unpruned, optimizing):
        for stage, seconds in session.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    wires = [encode_module(module) for module in modules]
    stage_seconds["encode"] = best_of(
        lambda: [encode_module(module) for module in modules],
        repeats=repeats)
    stage_seconds["decode"] = best_of(
        lambda: [decode_module(wire) for wire in wires], repeats=repeats)
    from repro.tsa.verifier import verify_module
    stage_seconds["verify"] = best_of(
        lambda: [verify_module(module) for module in modules],
        repeats=repeats)
    wire_bytes = sum(len(wire) for wire in wires)
    report["module_path"] = {
        "modules": len(modules),
        "wire_bytes": wire_bytes,
        "encode_mbps": round(
            wire_bytes / stage_seconds["encode"] / 1e6, 3),
        "decode_mbps": round(
            wire_bytes / stage_seconds["decode"] / 1e6, 3),
        "stage_seconds": {stage: round(seconds, 4)
                          for stage, seconds in stage_seconds.items()},
    }

    # 3. the compilation cache.  Cold: the corpus's compile+encode work,
    # serially and across pool_map's process pool -- the same work both
    # ways, best of ``repeats`` each.  Warm: the same compiles through
    # a cache that best_of's warmup round fills.
    jobs = corpus_compile_jobs(programs)
    serial: list = []
    pooled: list = []
    cold_serial_s = best_of(
        lambda: serial.append([compile_wire_job(job) for job in jobs]),
        repeats=repeats, warmup=0)
    cold_pool_s = best_of(
        lambda: pooled.append(pool_map(compile_wire_job, jobs)),
        repeats=repeats, warmup=0)
    pool_wires, workers = pooled[-1]
    if pool_wires != serial[-1]:
        raise AssertionError("pooled compiles differ from serial ones "
                             "-- benchmark invalid")
    cache = CompilationCache()

    def rerun() -> None:
        for name in programs:
            source = corpus_source(name)
            CompilationSession(prune_phis=False, cache=cache).compile(source)
            CompilationSession(optimize=True, cache=cache).compile(source)

    warm_s = best_of(rerun, repeats=repeats)
    report["cache"] = {
        "corpus_compiles": len(jobs),
        "cold_serial_seconds": round(cold_serial_s, 4),
        "cold_concurrent_seconds": round(cold_pool_s, 4),
        "workers": workers,
        "concurrent_speedup": round(cold_serial_s / cold_pool_s, 2)
        if cold_pool_s else None,
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_serial_s / warm_s, 2)
        if warm_s else None,
        "hit_rate": round(cache.hit_rate, 4),
        **{key: value for key, value in cache.stats().items()
           if key != "hit_rate"},
    }
    return report


#: where a smoke run writes its bench file unless ``--output`` says
#: otherwise: never over the committed full-run ``BENCH_<name>.json``
SMOKE_DIR = "bench-smoke"


def _bench_args(name: str, argv) -> tuple[bool, str]:
    """``(smoke, output path)`` of one bench command's arguments.

    ``--output PATH`` wins.  Otherwise a full run writes
    ``BENCH_<name>.json`` in the working directory and a smoke run
    writes ``bench-smoke/BENCH_<name>.json``, creating the directory."""
    argv = list(argv)
    smoke = "--smoke" in argv
    if "--output" in argv:
        return smoke, argv[argv.index("--output") + 1]
    filename = f"BENCH_{name}.json"
    if not smoke:
        return smoke, filename
    os.makedirs(SMOKE_DIR, exist_ok=True)
    return smoke, os.path.join(SMOKE_DIR, filename)


def run_codec(argv=()) -> str:
    smoke, output = _bench_args("codec", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    repeats = 2 if smoke else None
    report = codec_report(programs, repeats=repeats)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    codec = report["codec"]
    cache = report["cache"]
    return "\n".join([
        f"codec benchmark ({'smoke, ' if smoke else ''}"
        f"{len(report['programs'])} programs) -> {output}",
        "",
        f"  trace encode   {codec['encode_mbps']:7.3f} MB/s "
        f"({codec['encode_speedup']}x vs seed codec)",
        f"  trace decode   {codec['decode_mbps']:7.3f} MB/s "
        f"({codec['decode_speedup']}x vs seed codec)",
        f"  combined speedup vs reference: "
        f"{codec['speedup_vs_reference']}x",
        f"  corpus compile {cache['cold_serial_seconds']:.2f}s cold, "
        f"{cache['cold_concurrent_seconds']:.2f}s concurrent "
        f"({cache['workers']} worker(s), "
        f"{cache['concurrent_speedup']}x), "
        f"{cache['warm_seconds']:.2f}s from cache "
        f"(hit rate {cache['hit_rate']:.0%})",
    ])


def run_pipeline(argv=()) -> str:
    from repro.bench.pipeline import pipeline_report
    smoke, output = _bench_args("pipeline", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    repeats = 2 if smoke else None
    report = pipeline_report(programs, repeats=repeats)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    cache = report["analysis_cache"]
    determinism = report["determinism"]
    return "\n".join([
        f"pipeline benchmark ({'smoke, ' if smoke else ''}"
        f"{report['artifacts']} artifacts) -> {output}",
        "",
        f"  serial (per-consumer analyses) "
        f"{report['serial']['seconds']:8.3f} s",
        f"  session (shared analyses)      "
        f"{report['session']['seconds']:8.3f} s",
        f"  parallel ({report['parallel']['workers']} worker(s))        "
        f"{report['parallel']['seconds']:8.3f} s  "
        f"({report['parallel_speedup_vs_session']}x vs session)",
        f"  analysis cache: {cache['consumers_per_computed']} consumers "
        f"per computed result (hit rate {cache['hit_rate']:.0%})",
        f"  determinism: identical bytes for "
        f"{determinism['artifacts']} artifact(s): "
        f"{determinism['identical_bytes']}",
    ])


def run_analysis(argv=()) -> str:
    from repro.bench.analysis import analysis_report
    smoke, output = _bench_args("analysis", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    repeats = 2 if smoke else None
    report = analysis_report(programs, repeats=repeats, cache=_RUN_CACHE)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    totals = report["totals"]
    return "\n".join([
        f"analysis benchmark ({'smoke, ' if smoke else ''}"
        f"{totals['artifacts']} artifacts) -> {output}",
        "",
        f"  verify (fail-fast)  {totals['verify_ms']:8.2f} ms total",
        f"  lint (all analyses) {totals['lint_ms']:8.2f} ms total",
        f"  diagnostics: {totals['errors']} error(s), "
        f"{totals['warnings']} warning(s), {totals['infos']} info",
    ])


def run_fuzz(argv=()) -> str:
    from repro.bench.fuzz import fuzz_report
    smoke, output = _bench_args("fuzz", argv)
    # smoke: ~150 oracle programs + 2250 stream mutants + 150 source
    # splices (~30 s); full: ~1000 programs + 15000 mutants + 1000 splices
    budget = 1500 if smoke else 10_000
    report, result = fuzz_report(seed=0, budget=budget, mode="all")
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"fuzz benchmark ({'smoke, ' if smoke else ''}"
              f"seed=0 budget={budget}) -> {output}")
    text = header + "\n\n" + result.summary()
    if not result.ok:
        raise SystemExit(text + "\nFUZZ FINDINGS -- see report")
    return text


def run_load(argv=()) -> str:
    from repro.bench.load import load_report, load_table
    smoke, output = _bench_args("load", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    repeats = 2 if smoke else None
    report = load_report(programs, repeats=repeats)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"load benchmark ({'smoke, ' if smoke else ''}"
              f"{report['artifacts']} artifacts) -> {output}")
    text = header + "\n\nE10: consumer-side load cost " \
        "(two-pass vs fused loader)\n\n" + load_table(report)
    if not report["guard"]["fused_cold_le_two_pass"]:
        raise SystemExit(
            text + "\nPERF GUARD: fused cold load is slower than the "
            "two-pass decode+verify baseline")
    return text


def run_loops(argv=()) -> str:
    from repro.bench.loops import loops_report, loops_table
    smoke, output = _bench_args("loops", argv)
    # smoke drops Linpack (the slow interpretation) but keeps one array
    # kernel and the dispatch loop
    programs = ("BitSieve", "MiniVM") if smoke else None
    report = loops_report(programs)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"loops benchmark ({'smoke, ' if smoke else ''}"
              f"{len(report['programs'])} programs) -> {output}")
    text = header + "\n\nE11: dynamic checks executed per pipeline " \
        "(loop tier = hoist_checks,licm)\n\n" + loops_table(report)
    guard = report["guard"]
    if not guard["tier_reduces_dynamic_checks"]:
        raise SystemExit(
            text + "\nPERF GUARD: the loop tier alone no longer reduces "
            "dynamic checks versus the unoptimised baseline")
    if not guard["full_pipeline_not_worse"]:
        raise SystemExit(
            text + "\nPERF GUARD: the full pipeline with the loop tier "
            "executes more checks than the default pipeline")
    return text


def run_wire(argv=()) -> str:
    from repro.bench.wire import wire_report, wire_table
    smoke, output = _bench_args("wire", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    repeats = 2 if smoke else None
    report = wire_report(programs, repeats=repeats)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"wire benchmark ({'smoke, ' if smoke else ''}"
              f"{len(report['programs'])} programs) -> {output}")
    text = header + "\n\nE12: wire-format v2 distribution cost " \
        "(shared dictionaries, deltas, streaming TTFE)\n\n" \
        + wire_table(report)
    guard = report["guard"]
    if not guard["v2_smaller_than_v1"]:
        raise SystemExit(
            text + "\nPERF GUARD: shared-dictionary v2 no longer ships "
            "fewer corpus bytes than raw v1")
    if not guard["delta_smaller_than_full"]:
        raise SystemExit(
            text + "\nPERF GUARD: delta modules no longer beat shipping "
            "the optimised artifact whole")
    if not guard["streaming_ttfe_le_eager"]:
        raise SystemExit(
            text + "\nPERF GUARD: streaming time-to-first-execute "
            "exceeds the eager transfer-then-decode baseline")
    return text


def run_trace(argv=()) -> str:
    from repro.bench.trace import trace_report, trace_table
    smoke, output = _bench_args("trace", argv)
    # smoke drops Linpack and trims repetitions; the acceptance-bar
    # geomean (>= 1.25x) is asserted only on the full corpus
    programs = ("BitSieve", "MiniVM") if smoke else None
    reps = {"BitSieve": 1, "MiniVM": 8} if smoke else None
    report = trace_report(programs, reps=reps,
                          abort_reps=1 if smoke else 3)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"trace benchmark ({'smoke, ' if smoke else ''}"
              f"{len(report['programs'])} programs) -> {output}")
    text = header + "\n\nE14: speculative trace tier vs untraced " \
        "interpreter (warm trace cache)\n\n" + trace_table(report)
    guard = report["guard"]
    floor = 1.0 if smoke else 1.25
    if guard["geomean_speedup"] <= floor:
        raise SystemExit(
            text + f"\nPERF GUARD: traced geomean speedup "
            f"{guard['geomean_speedup']}x is not above the "
            f"{floor}x floor")
    if guard["abort_overhead"] > 1.5:
        raise SystemExit(
            text + f"\nPERF GUARD: abort-path overhead "
            f"{guard['abort_overhead']}x exceeds 1.5x -- blacklisting "
            "is not containing guard-failure costs")
    if not guard["abort_blacklisted"] or not guard["abort_entries"]:
        raise SystemExit(
            text + "\nPERF GUARD: the abort program did not exercise "
            "the guard-failure/blacklist path")
    return text


def run_serve(argv=()) -> str:
    from repro.bench.serve import serve_report, serve_table
    smoke, output = _bench_args("serve", argv)
    programs = ("BitSieve", "BinaryCode", "Scanner") if smoke else None
    report = serve_report(programs,
                          clients=4 if smoke else 8,
                          requests_per_client=25 if smoke else 50,
                          coalesce_clients=6 if smoke else 8)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    header = (f"serve benchmark ({'smoke, ' if smoke else ''}"
              f"{report['artifacts']} artifacts) -> {output}")
    text = header + "\n\nE13: distribution-service throughput " \
        "(concurrent clients over HTTP)\n\n" + serve_table(report)
    guard = report["guard"]
    if not guard["no_request_errors"]:
        raise SystemExit(
            text + "\nPERF GUARD: serving workload saw request "
            f"errors: {report['serving']['errors'][:3]}")
    if not guard["coalescing_single_compile"]:
        raise SystemExit(
            text + "\nPERF GUARD: identical concurrent compiles no "
            "longer coalesce "
            f"({report['coalescing']['compiles_performed']} performed)")
    if not guard["coalesced_bit_identical"]:
        raise SystemExit(
            text + "\nPERF GUARD: coalesced compiles returned "
            "divergent digests")
    return text


COMMANDS = {
    "figure5": run_figure5,
    "figure6": run_figure6,
    "pruning": run_pruning,
    "ablation": run_ablation,
    "verifycost": run_verifycost,
    "jitspeed": run_jitspeed,
}


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] not in list(COMMANDS) + ["all", "codec",
                                                    "analysis",
                                                    "pipeline", "fuzz",
                                                    "load", "loops",
                                                    "wire", "serve",
                                                    "trace"]:
        print(__doc__)
        return 2
    if argv[0] == "codec":
        print(run_codec(argv[1:]))
    elif argv[0] == "analysis":
        print(run_analysis(argv[1:]))
    elif argv[0] == "pipeline":
        print(run_pipeline(argv[1:]))
    elif argv[0] == "fuzz":
        print(run_fuzz(argv[1:]))
    elif argv[0] == "load":
        print(run_load(argv[1:]))
    elif argv[0] == "loops":
        print(run_loops(argv[1:]))
    elif argv[0] == "wire":
        print(run_wire(argv[1:]))
    elif argv[0] == "serve":
        print(run_serve(argv[1:]))
    elif argv[0] == "trace":
        print(run_trace(argv[1:]))
    elif argv[0] == "all":
        for name, command in COMMANDS.items():
            print(command())
            print()
        print(run_codec(argv[1:]))
        print()
        print(run_analysis(argv[1:]))
        print()
        print(run_pipeline(argv[1:]))
        print()
        print(run_load(argv[1:]))
        print()
        print(run_loops(argv[1:]))
        print()
        print(run_wire(argv[1:]))
        print()
        print(run_serve(argv[1:]))
        print()
        print(run_trace(argv[1:]))
    else:
        print(COMMANDS[argv[0]]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
