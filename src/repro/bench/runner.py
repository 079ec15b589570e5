"""The bench runner: every paper table and bench file, from one table.

Usage::

    python -m repro.bench.runner NAME [--smoke] [--output PATH]
    python -m repro.bench.runner all [--smoke]

Each entry of :data:`BENCHES` is one experiment: its report function
with the arguments of a full and of a smoke run (``--smoke``, the CI
setting), its text renderer, and the guards its report must pass.
:func:`run_bench` runs an entry, writes its report through
:func:`write_report` -- the paper tables print only -- renders it, and
then checks every guard; a failed guard is named on stderr and makes
the run exit nonzero.  ``all`` runs every entry in table order, checks
every guard, and exits nonzero at the end if any failed.  Run without a
name for the list.

Without ``--output`` a full run writes ``BENCH_<name>.json`` in the
working directory and a smoke run writes
``bench-smoke/BENCH_<name>.json``, so a smoke run never replaces a
committed full run.  Timed sections run N times after a warmup
(:func:`repro.bench.metrics.samples`; ``REPRO_BENCH_REPEATS`` sets N,
default 3) and report the best of them; E5 and E10 also report
perfbench's ``{n, median, min, iqr}`` record of the N
(:func:`repro.bench.metrics.spread`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from repro.bench.analysis import analysis_report, analysis_table
from repro.bench.codec import codec_report, codec_table
from repro.bench.fuzz import fuzz_report
from repro.bench.load import load_report, load_table
from repro.bench.loops import loops_report, loops_table
from repro.bench.metrics import (
    ablation_counts,
    bit_breakdown,
    extension_ablation,
    jit_speeds,
    measure_corpus,
    phi_pruning_counts,
    verify_costs,
)
from repro.bench.pipeline import pipeline_report, pipeline_table
from repro.bench.tables import (
    ablation_table,
    bits_table,
    extensions_table,
    figure5_table,
    figure6_table,
    jitspeed_table,
    phi_pruning_table,
    verifycost_table,
)
from repro.bench.trace import trace_report, trace_table
from repro.bench.wire import wire_report, wire_table
from repro.cache import CompilationCache, default_cache
from repro.fuzz.campaign import render_report

#: Shared across the entries of one runner invocation, so ``all`` does
#: not recompile the corpus for every table that needs it.  When the
#: process-wide cache is enabled (``REPRO_CACHE_DIR``), use it, so
#: table regeneration persists compiles across invocations too.
_RUN_CACHE = default_cache() or CompilationCache()

#: where a smoke run writes its bench file unless ``--output`` says
#: otherwise: never over the committed full-run ``BENCH_<name>.json``
SMOKE_DIR = "bench-smoke"

#: the package's source tree, whose commit and digest a report records
_SRC = Path(__file__).resolve().parents[2]


class Guard(NamedTuple):
    """A condition a report must meet: ``check(report, smoke)``."""

    description: str
    check: Callable[[dict, bool], object]


class Bench(NamedTuple):
    """One runner entry."""

    name: str
    title: str
    report: Callable[..., object]
    full: dict
    smoke: dict
    render: Callable[[object], str]
    guards: tuple = ()
    #: the paper tables print only; every other entry writes its report
    writes_json: bool = True


_TABLE_ARGS = {"cache": _RUN_CACHE}


def _table(name: str, title: str, report, render) -> Bench:
    """A paper table: one configuration in both modes, printed only."""
    return Bench(name, title, report, _TABLE_ARGS, _TABLE_ARGS, render,
                 writes_json=False)


def _flag(description: str, key: str) -> Guard:
    """A guard on one boolean of the report's ``guard`` block."""
    return Guard(description, lambda report, smoke: report["guard"][key])


_SMOKE_ARGS = {"programs": ("BitSieve", "BinaryCode", "Scanner"),
               "repeats": 2}
#: smoke drops Linpack (the slow interpretation) but keeps one array
#: kernel and the dispatch loop
_LOOP_SMOKE = ("BitSieve", "MiniVM")

BENCHES = {bench.name: bench for bench in (
    _table("figure5", "Figure 5: SafeTSA class files compared to Java "
           "class files", measure_corpus, figure5_table),
    _table("figure6", "Figure 6: Phi-, Null-Check and Array-Check "
           "instructions before and after optimisation", measure_corpus,
           figure6_table),
    _table("pruning", "E3: eager (Brandis/Moessenboeck) phi insertion "
           "vs Briggs pruning", phi_pruning_counts, phi_pruning_table),
    _table("ablation", "E4: instruction count per optimisation "
           "configuration", ablation_counts, ablation_table),
    _table("verifycost", "E5: consumer-side verification cost (SafeTSA "
           "counter check vs JVM dataflow)", verify_costs,
           verifycost_table),
    _table("bits", "E7: where the optimised wire bits go, and both "
           "formats under zlib", bit_breakdown, bits_table),
    _table("extensions", "E8: extension ablation (safe-phi transport, "
           "field-partitioned memory)", extension_ablation,
           extensions_table),
    _table("jitspeed", "E9: consumer-side code generation (interpreter "
           "vs JIT)", jit_speeds, jitspeed_table),
    Bench("codec", "Codec: the word-at-a-time bit codec, the module "
          "path and the compilation cache", codec_report, {}, _SMOKE_ARGS,
          codec_table),
    Bench("analysis", "Analysis: verify and lint cost per corpus "
          "artifact", analysis_report, _TABLE_ARGS,
          {**_SMOKE_ARGS, **_TABLE_ARGS}, analysis_table),
    Bench("pipeline", "Pipeline: shared analyses vs per-consumer "
          "analyses, per-pass seconds", pipeline_report, {}, _SMOKE_ARGS,
          pipeline_table),
    Bench("load", "E10: consumer-side load cost (two-pass vs fused "
          "loader)", load_report, {}, _SMOKE_ARGS, load_table, (
              _flag("the fused cold load is no slower than the two-pass "
                    "decode+verify baseline", "fused_cold_le_two_pass"),
          )),
    Bench("loops", "E11: dynamic checks executed per pipeline (loop "
          "tier = hoist_checks,licm)", loops_report, {},
          {"programs": _LOOP_SMOKE}, loops_table, (
              _flag("the loop tier alone reduces dynamic checks versus "
                    "the unoptimised baseline",
                    "tier_reduces_dynamic_checks"),
              _flag("the full pipeline with the loop tier executes no "
                    "more checks than the default pipeline",
                    "full_pipeline_not_worse"),
          )),
    Bench("wire", "E12: wire-format v2 distribution cost (shared "
          "dictionaries, deltas, streaming TTFE)", wire_report, {},
          _SMOKE_ARGS, wire_table, (
              _flag("shared-dictionary v2 ships fewer corpus bytes than "
                    "raw v1", "v2_smaller_than_v1"),
              _flag("delta modules beat shipping the optimised artifact "
                    "whole", "delta_smaller_than_full"),
              _flag("streaming time-to-first-execute is at most the "
                    "eager transfer-then-decode baseline",
                    "streaming_ttfe_le_eager"),
          )),
    Bench("trace", "E14: speculative trace tier vs untraced interpreter "
          "(warm trace cache)", trace_report, {},
          {"programs": _LOOP_SMOKE, "reps": {"BitSieve": 1, "MiniVM": 8},
           "abort_reps": 1}, trace_table, (
              Guard("the traced geomean speedup is above 1.25x "
                    "(1.0x in a smoke run)", lambda report, smoke:
                    report["guard"]["geomean_speedup"]
                    > (1.0 if smoke else 1.25)),
              Guard("abort-path overhead is at most 1.5x: blacklisting "
                    "contains guard-failure costs", lambda report, smoke:
                    report["guard"]["abort_overhead"] <= 1.5),
              Guard("the abort program blacklists after entering its "
                    "trace", lambda report, smoke:
                    report["guard"]["abort_blacklisted"]
                    and report["guard"]["abort_entries"]),
          )),
    # smoke: ~150 oracle programs + 2250 stream mutants + 150 source
    # splices (~30 s); full: ~1000 programs + 15000 mutants + 1000
    # splices
    Bench("fuzz", "Fuzz: differential, wire-mutation and source-splice "
          "campaign", fuzz_report, {"budget": 10_000}, {"budget": 1500},
          render_report, (
              Guard("no reject-or-equivalent violation",
                    lambda report, smoke: report["ok"]),
          )),
)}


def _bench_args(name: str, argv) -> tuple[bool, str]:
    """``(smoke, output path)`` of one bench command's arguments.

    ``--output PATH`` wins.  Otherwise a full run writes
    ``BENCH_<name>.json`` in the working directory and a smoke run
    writes ``bench-smoke/BENCH_<name>.json``."""
    argv = list(argv)
    smoke = "--smoke" in argv
    if "--output" in argv:
        return smoke, argv[argv.index("--output") + 1]
    filename = f"BENCH_{name}.json"
    return smoke, os.path.join(SMOKE_DIR, filename) if smoke else filename


def _git_sha():
    """The commit of the measured source tree; None outside git."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_SRC, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_sha256() -> str:
    """sha256 over every Python file of the source tree (path and
    bytes): identifies the code measured even where git does not."""
    digest = hashlib.sha256()
    for path in sorted(_SRC.rglob("*.py")):
        digest.update(str(path.relative_to(_SRC.parent)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(smoke: bool) -> dict:
    """Who measured what: the run's mode, the host and interpreter, and
    the code, under perfbench's field names."""
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else range(os.cpu_count() or 1))
    return {
        "mode": "smoke" if smoke else "full",
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(cpus),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


def write_report(report: dict, path: str, smoke: bool) -> None:
    """Write ``report`` to ``path`` as JSON under a ``provenance``
    block: every bench file records its run context."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"provenance": provenance(smoke), **report}, handle,
                  indent=2)
        handle.write("\n")


def run_bench(name: str, argv=()) -> list[str]:
    """Run one entry: report, write, render, then check every guard.
    Prints the text and each failed guard; returns the failed guards'
    descriptions."""
    bench = BENCHES[name]
    smoke, output = _bench_args(name, argv)
    report = bench.report(**(bench.smoke if smoke else bench.full))
    header = bench.title
    if bench.writes_json:
        write_report(report, output, smoke)
        header += f"\n{'smoke' if smoke else 'full'} run -> {output}"
    print(f"{header}\n\n{bench.render(report)}\n", flush=True)
    failed = [guard.description for guard in bench.guards
              if not guard.check(report, smoke)]
    for description in failed:
        print(f"GUARD FAILED [{name}]: {description}", file=sys.stderr)
    return failed


def usage() -> str:
    return "\n".join(
        ["usage: python -m repro.bench.runner NAME|all [--smoke] "
         "[--output PATH]", ""]
        + [f"  {bench.name:11} {bench.title}"
           for bench in BENCHES.values()])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in (*BENCHES, "all"):
        print(usage())
        return 2
    names = list(BENCHES) if argv[0] == "all" else argv[:1]
    failed = [description for name in names
              for description in run_bench(name, argv[1:])]
    if failed and len(names) > 1:
        print(f"{len(failed)} guard(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
