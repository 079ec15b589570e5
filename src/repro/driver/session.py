"""The compilation session: one front end, one pass manager, one
analysis cache, one compilation cache -- every entry point goes here.

:func:`repro.compile_source` and :func:`repro.compile_to_bytecode` each
build a one-shot session; hold one yourself to pass a cache, read stage
times or pass reports, or compile the bytecode baseline of the same
source.  A :class:`CompilationSession` owns:

* the **front end** -- ``parse`` + semantic analysis are memoized per
  source text, so compiling the SafeTSA form and the bytecode baseline
  of the same program parses once;
* the **pass manager** -- the pipeline spec (``passes=``/``optimize=``)
  resolved once, run per function with structured
  :class:`~repro.driver.report.PassReport` timing;
* the **analysis manager** -- dominator/observability/nullness/range/
  loop results computed once per function and shared by the optimizer,
  the verifier, the lint driver, and the encoder's register layout;
* the **compilation cache** -- the key covers the *pass spec* and the
  phi-pruning flag, so differently optimised artifacts can never
  alias;
* **stage timing** (``parse`` / ``ssa`` / ``opt``, ``load`` on a
  cache hit -- the fused-loader consumer path) and collected
  diagnostics.

Per-function optimisation runs serially, in module order; two fresh
sessions produce identical bytes and identical reports, also in fresh
interpreters under other hash seeds (``tests/test_driver.py`` enforces
this over the whole corpus).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.analysis.manager import AnalysisManager
from repro.driver.manager import PassManager
from repro.driver.passes import PassSpec, effective_passes, spec_string
from repro.driver.report import PassReport, merge_stats


class CompilationSession:
    """Owns one compilation configuration end to end."""

    def __init__(self, *, optimize: bool = False, passes: PassSpec = None,
                 prune_phis: bool = True, filename: str = "<source>",
                 cache=None):
        #: resolved pass tuple; ``passes`` wins over ``optimize``
        self.passes: tuple[str, ...] = effective_passes(optimize, passes)
        self.prune_phis = prune_phis
        self.filename = filename
        self.pass_manager = PassManager(self.passes)
        self.analyses = AnalysisManager()
        #: wall-clock seconds per stage, accumulated across compiles
        self.stage_seconds: dict[str, float] = {}
        #: PassReports from every optimisation this session ran
        self.reports: list[PassReport] = []
        #: diagnostics collected by :meth:`lint`
        self.diagnostics: list = []
        if cache is None:
            from repro.cache import default_cache
            cache = default_cache()
        self._cache = cache or None
        self._frontend_memo: dict[str, tuple] = {}

    # -- timing ---------------------------------------------------------

    def _credit(self, stage: str, start: float) -> float:
        now = perf_counter()
        self.stage_seconds[stage] = \
            self.stage_seconds.get(stage, 0.0) + (now - start)
        return now

    # -- cache ----------------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical pipeline-spec string (cache-key component)."""
        return spec_string(self.passes)

    def cache_key(self, source: str) -> Optional[str]:
        """The compilation-cache key this session uses for ``source``,
        or None when caching is disabled.  The key covers the canonical
        pass spec plus the phi-pruning flag."""
        if self._cache is None:
            return None
        return self._cache.key(source, passes=self.spec,
                               prune_phis=self.prune_phis)

    # -- front end ------------------------------------------------------

    def frontend(self, source: str):
        """Parsed + semantically analysed source: ``(unit, world)``.

        Memoized per source text, so the SafeTSA path and the bytecode
        baseline of the same program share one parse.
        """
        memo = self._frontend_memo.get(source)
        if memo is not None:
            return memo
        from repro.frontend.parser import parse_compilation_unit
        from repro.frontend.semantics import analyze
        start = perf_counter()
        unit = parse_compilation_unit(source, self.filename)
        world = analyze(unit)
        self._credit("parse", start)
        memo = (unit, world)
        self._frontend_memo[source] = memo
        return memo

    # -- producer pipeline ---------------------------------------------

    def build_module(self, source: str):
        """Front end + UAST lowering + SSA construction (no passes)."""
        from repro.ssa.construction import build_function
        from repro.ssa.ir import Module
        from repro.typesys.table import TypeTable
        from repro.uast.builder import UastBuilder
        unit, world = self.frontend(source)
        start = perf_counter()
        table = TypeTable(world)
        module = Module(world, table)
        uast_builder = UastBuilder(world)
        for decl in unit.classes:
            module.classes.append(decl.info)
            table.declare_class(decl.info)
            for umethod in uast_builder.build_class(decl):
                module.add_function(
                    build_function(world, decl.info, umethod))
        module.intern_used_types()
        if self.prune_phis:
            from repro.ssa.phi_pruning import prune_dead_phis
            for function in module.functions.values():
                prune_dead_phis(function)
        self._credit("ssa", start)
        return module

    def optimize(self, module) -> list[PassReport]:
        """Run the session's pipeline on every function, in module
        order; returns one report per function."""
        if not self.passes:
            return []
        start = perf_counter()
        reports = [self.pass_manager.run_function(function, module=module,
                                                  analyses=self.analyses)
                   for function in module.functions.values()]
        self._credit("opt", start)
        self.reports.extend(reports)
        return reports

    def compile(self, source: str):
        """Full producer pipeline with compilation caching.

        On a hit the producer half is skipped entirely and the cached
        wire bytes are decoded -- the cheap, self-validating consumer
        path.  Misses compile, optimise, and publish the encoded bytes
        under a key covering the pass spec.  A damaged entry (one the
        verifying load rejects) is a miss: the cold compile overwrites
        it.
        """
        key = self.cache_key(source)
        if key is not None:
            wire = self._cache.get(key)
            if wire is not None:
                from repro.encode.deserializer import DecodeError
                from repro.tsa.verifier import VerifyError
                try:
                    return self.load(wire)
                except (DecodeError, VerifyError):
                    pass
        module = self.build_module(source)
        self.optimize(module)
        if key is not None:
            self._cache.put(key, self.encode(module))
        return module

    # -- consumer pipeline ----------------------------------------------

    def load(self, wire: bytes):
        """Fused verifying load of encoded module bytes."""
        from repro.loader import load_module
        start = perf_counter()
        module = load_module(wire)
        self._credit("load", start)
        return module

    def compile_to_classfiles(self, source: str):
        """Bytecode-baseline pipeline, sharing this session's front end."""
        from repro.jvm.codegen import compile_unit
        from repro.uast.builder import UastBuilder
        unit, world = self.frontend(source)
        uast_builder = UastBuilder(world)
        per_class = {decl.info: uast_builder.build_class(decl)
                     for decl in unit.classes}
        return compile_unit(world, per_class)

    # -- consumers sharing the analysis cache ---------------------------

    def verify(self, module) -> None:
        """Fail-fast verification reusing cached dominator trees."""
        from repro.tsa.verifier import verify_module
        verify_module(module, analyses=self.analyses)

    def lint(self, module, rules=None) -> list:
        """Lint with the shared analysis cache; diagnostics accumulate
        on :attr:`diagnostics` and are returned."""
        from repro.analysis.lint import lint_module
        found = lint_module(module, rules=rules, analyses=self.analyses)
        self.diagnostics.extend(found)
        return found

    def encode(self, module) -> bytes:
        """Wire encoding reusing cached dominator trees for layout."""
        from repro.encode.serializer import encode_module
        return encode_module(module, analyses=self.analyses)

    # -- reporting ------------------------------------------------------

    def pass_report(self) -> dict:
        """Aggregated per-pass seconds and statistics across every
        function this session optimised (consumed by CLI and bench)."""
        seconds: dict[str, float] = {}
        stats: dict = {}
        for report in self.reports:
            for name, secs in report.seconds.items():
                seconds[name] = seconds.get(name, 0.0) + secs
            merge_stats(stats, {k: v for k, v in report.stats.items()})
        return {
            "spec": self.spec,
            "functions": len(self.reports),
            "pass_seconds": {name: round(secs, 6)
                             for name, secs in seconds.items()},
            "stats": stats,
            "analysis_cache": self.analyses.stats(),
            "stage_seconds": {stage: round(secs, 6) for stage, secs
                              in self.stage_seconds.items()},
        }

