"""Budgeted fuzzing campaigns (the engine behind ``repro-cc fuzz``).

Four campaign modes, all deterministic under a fixed seed:

* **programs** -- generate seeded programs and run each through the
  differential oracle (:mod:`repro.fuzz.oracle`); a divergence is
  shrunk with :func:`repro.fuzz.minimize.minimize_lines`;
* **streams** -- mutate known-good wire streams and classify each
  mutant against the reject-or-equivalent invariant
  (:mod:`repro.fuzz.mutate`); a finding is shrunk with
  :func:`repro.fuzz.minimize.minimize_bytes` and can be persisted as a
  regression fixture;
* **streams-v2** -- the same invariant over wire-format v2
  distribution units (shared-dictionary envelopes and deltas), with
  envelope-targeted mutators and the campaign's own dictionary store;
* **sources** -- compile seeded splices of corpus and generated
  sources (:mod:`repro.fuzz.sources`); each must compile or raise
  ``CompileError``, and any other exception is a finding, shrunk with
  :func:`repro.fuzz.minimize.minimize_lines`.

``mode="all"`` runs a program campaign at a tenth of the budget plus a
v1 stream campaign at the full budget plus a v2 stream campaign at
half budget plus a sources campaign at a tenth of the budget.

Determinism contract: iteration ``i`` of a program campaign uses
generator seed ``seed * 1_000_003 + i``; a stream or sources campaign
draws every decision from its own ``random.Random`` derived from the
seed, so adding a lane changes no other lane's draws.  Two runs
with the same seed and budget therefore see the same programs, the
same mutants, the same findings, and byte-identical fixtures.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fuzz.gen import RandomSource, generate_seeded
from repro.fuzz.minimize import minimize_bytes, minimize_lines, save_fixture
from repro.fuzz.mutate import check_stream, mutate_stream, mutate_stream_v2
from repro.fuzz.oracle import check_program
from repro.fuzz.sources import check_source, source_bases, splice_source

#: deterministic seed programs whose encodings are the mutation bases;
#: they deliberately span the encoding's feature set (type table,
#: hierarchy + dispatch, fields, arrays + safe planes, try/catch,
#: loops/phis, constants)
BASE_PROGRAMS: tuple[tuple[str, str], ...] = (
    ("arith", """
class T {
    static int f(int a, int b) {
        int r = 0;
        for (int i = 0; i < 4; i++) { r = r + a / b; }
        return r;
    }
    static void main() { System.out.println(f(12, 3)); }
}
"""),
    ("dispatch", """
class A { int v; int get() { return v; } }
class B extends A { int get() { return v * 2; } }
class T {
    static void main() {
        A x = new B();
        x.v = 21;
        System.out.println(x.get());
    }
}
"""),
    ("arrays", """
class T {
    static void main() {
        int[] xs = new int[5];
        int total = 0;
        for (int i = 0; i < 5; i++) { xs[i] = i * i; }
        try { total = xs[7]; }
        catch (ArrayIndexOutOfBoundsException e) { total = -1; }
        for (int i = 0; i < 5; i++) { total += xs[i]; }
        System.out.println(total);
    }
}
"""),
    ("strings", """
class T {
    static String tag(boolean hot) { return hot ? "hot" : "cold"; }
    static void main() {
        System.out.println(tag(true) + "/" + tag(false));
    }
}
"""),
)


@dataclass(frozen=True)
class ProgramFinding:
    """One oracle divergence, with its shrunken reproducer."""

    seed: int
    pipeline: str
    detail: str
    source: str
    minimized: str


@dataclass(frozen=True)
class StreamFinding:
    """One reject-or-equivalent violation, with its shrunken stream."""

    base: str
    mutator: str
    code: str
    detail: str
    data: bytes
    minimized: bytes


@dataclass(frozen=True)
class SourceFinding:
    """One source that raised something other than ``CompileError``."""

    base: str
    operators: str
    code: str
    detail: str
    source: str
    minimized: str


@dataclass
class CampaignResult:
    mode: str
    seed: int
    budget: int
    #: program campaign
    programs: int = 0
    pipelines_compared: int = 0
    program_findings: list = field(default_factory=list)
    #: stream campaign
    mutations: int = 0
    accepted: int = 0
    rejected: int = 0
    taxonomy: dict = field(default_factory=dict)
    mutator_counts: dict = field(default_factory=dict)
    stream_findings: list = field(default_factory=list)
    #: sources campaign
    sources: int = 0
    compiled: int = 0
    diagnosed: int = 0
    source_findings: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)

    @property
    def findings(self) -> list:
        return (list(self.program_findings) + list(self.stream_findings)
                + list(self.source_findings))

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [f"fuzz campaign: mode={self.mode} seed={self.seed} "
                 f"budget={self.budget}"]
        if self.programs:
            seconds = self.seconds.get("programs", 0.0)
            rate = self.programs / seconds if seconds else 0.0
            lines.append(
                f"  programs  {self.programs} generated, "
                f"{self.pipelines_compared} pipeline runs agreed, "
                f"{len(self.program_findings)} divergence(s)  "
                f"[{seconds:.1f}s, {rate:.1f}/s]")
        if self.mutations:
            seconds = self.seconds.get("streams", 0.0)
            rate = self.mutations / seconds if seconds else 0.0
            lines.append(
                f"  streams   {self.mutations} mutants: "
                f"{self.rejected} rejected, {self.accepted} accepted, "
                f"{len(self.stream_findings)} finding(s)  "
                f"[{seconds:.1f}s, {rate:.0f}/s]")
            top = sorted(self.taxonomy.items(),
                         key=lambda item: (-item[1], item[0]))[:8]
            for code, count in top:
                lines.append(f"    {code:<24} {count}")
        if self.sources:
            seconds = self.seconds.get("sources", 0.0)
            rate = self.sources / seconds if seconds else 0.0
            lines.append(
                f"  sources   {self.sources} splices: "
                f"{self.compiled} compiled, {self.diagnosed} diagnosed, "
                f"{len(self.source_findings)} violation(s)  "
                f"[{seconds:.1f}s, {rate:.0f}/s]")
        for finding in self.program_findings:
            lines.append(f"  DIVERGENCE [{finding.pipeline}] "
                         f"seed={finding.seed}: {finding.detail}")
        for finding in self.stream_findings:
            lines.append(f"  FINDING [{finding.code}] via {finding.mutator} "
                         f"on {finding.base} "
                         f"({len(finding.minimized)} bytes minimized): "
                         f"{finding.detail}")
        for finding in self.source_findings:
            lines.append(f"  VIOLATION [{finding.code}] via "
                         f"{finding.operators} on {finding.base}: "
                         f"{finding.detail}")
        return "\n".join(lines)

    def report(self) -> dict:
        """JSON-able campaign report (consumed by ``BENCH_fuzz.json``)."""
        program_seconds = self.seconds.get("programs", 0.0)
        stream_seconds = self.seconds.get("streams", 0.0)
        source_seconds = self.seconds.get("sources", 0.0)
        return {
            "mode": self.mode,
            "seed": self.seed,
            "budget": self.budget,
            "programs": {
                "count": self.programs,
                "pipelines_compared": self.pipelines_compared,
                "divergences": len(self.program_findings),
                "seconds": round(program_seconds, 3),
                "per_second": round(self.programs / program_seconds, 2)
                if program_seconds else None,
            },
            "streams": {
                "mutations": self.mutations,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "findings": len(self.stream_findings),
                "seconds": round(stream_seconds, 3),
                "per_second": round(self.mutations / stream_seconds, 1)
                if stream_seconds else None,
                "taxonomy": dict(sorted(self.taxonomy.items())),
                "mutators": dict(sorted(self.mutator_counts.items())),
            },
            "sources": {
                "count": self.sources,
                "compiled": self.compiled,
                "diagnosed": self.diagnosed,
                "violations": len(self.source_findings),
                "violation_types": dict(sorted(Counter(
                    f.code for f in self.source_findings).items())),
                "seconds": round(source_seconds, 3),
                "per_second": round(self.sources / source_seconds, 1)
                if source_seconds else None,
            },
            "findings": [
                {"kind": "program", "pipeline": f.pipeline, "seed": f.seed,
                 "detail": f.detail}
                for f in self.program_findings
            ] + [
                {"kind": "stream", "code": f.code, "mutator": f.mutator,
                 "base": f.base, "bytes": f.minimized.hex(),
                 "detail": f.detail}
                for f in self.stream_findings
            ] + [
                {"kind": "source", "code": f.code, "operators": f.operators,
                 "base": f.base, "source": f.minimized, "detail": f.detail}
                for f in self.source_findings
            ],
        }


def program_seed(campaign_seed: int, index: int) -> int:
    """Generator seed for iteration ``index`` (the determinism contract)."""
    return campaign_seed * 1_000_003 + index


def stream_bases() -> list[tuple[str, bytes]]:
    """The known-good wire streams a stream campaign mutates: every
    base program encoded both plain and optimised."""
    from repro.driver.session import CompilationSession
    from repro.encode.serializer import encode_module
    plain = CompilationSession(cache=False)
    optimizing = CompilationSession(optimize=True, cache=False)
    bases = []
    for name, source in BASE_PROGRAMS:
        bases.append((name, encode_module(plain.compile(source))))
        bases.append((f"{name}+opt",
                      encode_module(optimizing.compile(source))))
    return bases


def stream_bases_v2(store) -> list[tuple[str, bytes]]:
    """Known-good *v2* distribution units over the same base programs:
    per program, a shared-dictionary envelope pair (plain + optimised
    factored against their common prefix) and a plain->optimised delta,
    all resolvable through ``store``."""
    from repro.encode.format import encode_delta, encode_modules_v2
    bases = []
    v1 = stream_bases()
    for index in range(0, len(v1), 2):
        (name, plain), (opt_name, optimized) = v1[index], v1[index + 1]
        enveloped = encode_modules_v2([plain, optimized], store=store)
        bases.append((f"{name}+v2", enveloped[0]))
        bases.append((f"{opt_name}+v2", enveloped[1]))
        bases.append((f"{name}+delta",
                      encode_delta(plain, optimized, store=store)))
    return bases


# ======================================================================
# the campaign bodies

def _run_programs(result: CampaignResult, seed: int, budget: int,
                  minimize: bool,
                  on_progress: Optional[Callable]) -> None:
    start = time.perf_counter()
    for index in range(budget):
        generated = generate_seeded(program_seed(seed, index))
        oracle = check_program(generated.source, generated.main_class)
        result.programs += 1
        result.pipelines_compared += oracle.pipelines
        if oracle.divergence is not None:
            divergence = oracle.divergence
            minimized = generated.source
            if minimize:
                pipeline = divergence.pipeline

                def still_diverges(candidate: str) -> bool:
                    shrunk = check_program(candidate, None)
                    return (shrunk.divergence is not None
                            and shrunk.divergence.pipeline == pipeline)

                try:
                    minimized = minimize_lines(generated.source,
                                               still_diverges)
                except ValueError:
                    # divergence needs the named main class; keep as-is
                    minimized = generated.source
            result.program_findings.append(ProgramFinding(
                seed=generated.seed, pipeline=divergence.pipeline,
                detail=str(divergence), source=generated.source,
                minimized=minimized))
        if on_progress and (index + 1) % 100 == 0:
            on_progress(f"programs {index + 1}/{budget}, "
                        f"{len(result.program_findings)} divergence(s)")
    result.seconds["programs"] = time.perf_counter() - start


def _run_streams(result: CampaignResult, seed: int, budget: int,
                 minimize: bool, fixtures_dir,
                 on_progress: Optional[Callable]) -> None:
    bases = stream_bases()
    rng = RandomSource(seed * 2_147_483_659 + 17)
    start = time.perf_counter()
    for index in range(budget):
        base_name, base = bases[rng.integer(0, len(bases) - 1)]
        mutator, mutant = mutate_stream(base, rng)
        outcome = check_stream(mutant)
        result.mutations += 1
        result.mutator_counts[mutator] = \
            result.mutator_counts.get(mutator, 0) + 1
        result.taxonomy[outcome.code] = \
            result.taxonomy.get(outcome.code, 0) + 1
        if outcome.kind == "rejected":
            result.rejected += 1
        elif outcome.kind == "accepted":
            result.accepted += 1
        else:
            minimized = mutant
            if minimize:
                code = outcome.code

                def same_finding(candidate: bytes) -> bool:
                    shrunk = check_stream(candidate)
                    return shrunk.is_finding and shrunk.code == code

                minimized = minimize_bytes(mutant, same_finding)
            finding = StreamFinding(
                base=base_name, mutator=mutator, code=outcome.code,
                detail=outcome.detail, data=mutant, minimized=minimized)
            result.stream_findings.append(finding)
            if fixtures_dir is not None:
                save_fixture(fixtures_dir, minimized, {
                    "code": outcome.code,
                    "detail": outcome.detail,
                    "mutator": mutator,
                    "base": base_name,
                    "campaign_seed": seed,
                })
        if on_progress and (index + 1) % 1000 == 0:
            on_progress(f"streams {index + 1}/{budget}, "
                        f"{len(result.stream_findings)} finding(s)")
    result.seconds["streams"] = time.perf_counter() - start


def _run_streams_v2(result: CampaignResult, seed: int, budget: int,
                    minimize: bool, fixtures_dir,
                    on_progress: Optional[Callable]) -> None:
    """The v2 lane: mutate envelope/delta units and classify against
    the campaign's own dictionary store, so honest units decode and
    every mutation must reject-or-stay-equivalent.  Draws from its own
    stream (seed offset differs from the v1 lane) to keep both lanes
    individually reproducible."""
    from repro.cache import DictionaryStore
    store = DictionaryStore()
    bases = stream_bases_v2(store)
    rng = RandomSource(seed * 2_147_483_659 + 29)
    start = time.perf_counter()
    for index in range(budget):
        base_name, base = bases[rng.integer(0, len(bases) - 1)]
        mutator, mutant = mutate_stream_v2(base, rng)
        outcome = check_stream(mutant, store=store)
        result.mutations += 1
        result.mutator_counts[mutator] = \
            result.mutator_counts.get(mutator, 0) + 1
        result.taxonomy[outcome.code] = \
            result.taxonomy.get(outcome.code, 0) + 1
        if outcome.kind == "rejected":
            result.rejected += 1
        elif outcome.kind == "accepted":
            result.accepted += 1
        else:
            minimized = mutant
            if minimize:
                code = outcome.code

                def same_finding(candidate: bytes) -> bool:
                    shrunk = check_stream(candidate, store=store)
                    return shrunk.is_finding and shrunk.code == code

                minimized = minimize_bytes(mutant, same_finding)
            finding = StreamFinding(
                base=base_name, mutator=mutator, code=outcome.code,
                detail=outcome.detail, data=mutant, minimized=minimized)
            result.stream_findings.append(finding)
            if fixtures_dir is not None:
                save_fixture(fixtures_dir, minimized, {
                    "code": outcome.code,
                    "detail": outcome.detail,
                    "mutator": mutator,
                    "base": base_name,
                    "campaign_seed": seed,
                    "lane": "v2",
                })
        if on_progress and (index + 1) % 1000 == 0:
            on_progress(f"streams-v2 {index + 1}/{budget}, "
                        f"{len(result.stream_findings)} finding(s)")
    result.seconds["streams"] = \
        result.seconds.get("streams", 0.0) + time.perf_counter() - start


def _run_sources(result: CampaignResult, seed: int, budget: int,
                 minimize: bool, on_progress: Optional[Callable]) -> None:
    """The sources lane: every seeded splice must compile or raise
    ``CompileError``.  Its own draw stream leaves the other lanes'
    draws unchanged."""
    bases = source_bases(seed)
    rng = RandomSource(seed * 2_147_483_659 + 41)
    start = time.perf_counter()
    for index in range(budget):
        base_name, operators, source = splice_source(bases, rng)
        outcome = check_source(source)
        result.sources += 1
        if outcome.kind == "compiled":
            result.compiled += 1
        elif outcome.kind == "rejected":
            result.diagnosed += 1
        else:
            minimized = source
            if minimize:
                code = outcome.code

                def same_violation(candidate: str) -> bool:
                    return check_source(candidate).code == code

                minimized = minimize_lines(source, same_violation)
            result.source_findings.append(SourceFinding(
                base=base_name, operators=operators, code=outcome.code,
                detail=outcome.detail, source=source, minimized=minimized))
        if on_progress and (index + 1) % 100 == 0:
            on_progress(f"sources {index + 1}/{budget}, "
                        f"{len(result.source_findings)} violation(s)")
    result.seconds["sources"] = time.perf_counter() - start


def run_campaign(seed: int = 0, budget: int = 1000, mode: str = "all", *,
                 minimize: bool = True, fixtures_dir=None,
                 on_progress: Optional[Callable] = None) -> CampaignResult:
    """Run one deterministic campaign; see the module docstring for the
    budget/seed semantics.  ``mode="all"`` adds the v2 envelope lane at
    half budget and the sources lane at a tenth of the budget on top of
    the program and v1 stream lanes."""
    if mode not in ("programs", "streams", "streams-v2", "sources", "all"):
        raise ValueError(f"unknown fuzz mode {mode!r}")
    result = CampaignResult(mode=mode, seed=seed, budget=budget)
    if mode in ("programs", "all"):
        program_budget = budget if mode == "programs" \
            else max(1, budget // 10)
        _run_programs(result, seed, program_budget, minimize, on_progress)
    if mode in ("streams", "all"):
        _run_streams(result, seed, budget, minimize, fixtures_dir,
                     on_progress)
    if mode in ("streams-v2", "all"):
        v2_budget = budget if mode == "streams-v2" \
            else max(1, budget // 2)
        _run_streams_v2(result, seed, v2_budget, minimize, fixtures_dir,
                        on_progress)
    if mode in ("sources", "all"):
        sources_budget = budget if mode == "sources" \
            else max(1, budget // 10)
        _run_sources(result, seed, sources_budget, minimize, on_progress)
    return result
