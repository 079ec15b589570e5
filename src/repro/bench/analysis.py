"""Benchmark for the analysis layer: verify + lint cost per artifact.

Complements E5 (verifycost): E5 compares SafeTSA verification against
JVM bytecode dataflow verification, this report measures the *new*
diagnostics stack -- fail-fast verification, collect-all verification,
and the full lint driver (nullness + range dataflow, observability) -- over
every corpus artifact (each program in its plain and optimized variant,
the same 20 modules the codec benchmark times), together with the
diagnostic counts each artifact produces.  The numbers land in
``BENCH_analysis.json``.
"""

from __future__ import annotations

from repro.analysis.diagnostics import count_by_severity
from repro.analysis.lint import lint_module
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import bench_repeats, best_of
from repro.driver import CompilationSession
from repro.tsa.verifier import verify_module


def _artifact_report(name: str, variant: str, module,
                     repeats: int) -> dict:
    verify_s = best_of(lambda: verify_module(module), repeats)
    holder = []
    lint_s = best_of(lambda: (holder.clear(),
                              holder.extend(lint_module(module))),
                     repeats)
    diagnostics = holder
    codes: dict[str, int] = {}
    for diagnostic in diagnostics:
        codes[diagnostic.code] = codes.get(diagnostic.code, 0) + 1
    return {
        "program": name,
        "variant": variant,
        "functions": len(module.functions),
        "instructions": module.instruction_count(),
        "verify_ms": round(verify_s * 1000, 3),
        "lint_ms": round(lint_s * 1000, 3),
        "diagnostics": len(diagnostics),
        "counts": count_by_severity(diagnostics),
        "codes": dict(sorted(codes.items())),
    }


def analysis_report(programs=None, repeats=None, cache=None) -> dict:
    """All the numbers behind ``BENCH_analysis.json``."""
    repeats = bench_repeats(repeats)
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = []
    for name in programs:
        source = corpus_source(name)
        for variant, optimize in (("plain", False), ("optimized", True)):
            module = CompilationSession(optimize=optimize,
                                        cache=cache).compile(source)
            artifacts.append(_artifact_report(name, variant, module,
                                              repeats))
    totals = {
        "artifacts": len(artifacts),
        "verify_ms": round(sum(a["verify_ms"] for a in artifacts), 3),
        "lint_ms": round(sum(a["lint_ms"] for a in artifacts), 3),
        "diagnostics": sum(a["diagnostics"] for a in artifacts),
        "errors": sum(a["counts"]["error"] for a in artifacts),
        "warnings": sum(a["counts"]["warning"] for a in artifacts),
        "infos": sum(a["counts"]["info"] for a in artifacts),
    }
    return {
        "schema": "repro-analysis/1",
        "programs": programs,
        "repeats": repeats,
        "artifacts": artifacts,
        "totals": totals,
    }


def analysis_table(report: dict) -> str:
    totals = report["totals"]
    return "\n".join([
        f"  verify (fail-fast)  {totals['verify_ms']:8.2f} ms total "
        f"over {totals['artifacts']} artifacts",
        f"  lint (all analyses) {totals['lint_ms']:8.2f} ms total",
        f"  diagnostics: {totals['errors']} error(s), "
        f"{totals['warnings']} warning(s), {totals['infos']} info",
    ])
