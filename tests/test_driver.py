"""The unified compile path: CompilationSession, PassManager,
AnalysisManager, pipeline-spec grammar, cache-key coverage, and the
rebuild determinism guarantee."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.analysis.manager import AnalysisManager
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.cache import CompilationCache
from repro.driver import (
    ALL_PASSES,
    CANONICAL_SPEC,
    DEFAULT_PASSES,
    CompilationSession,
    PASSES,
    PassManager,
    PassReport,
    merge_stats,
    parse_pass_spec,
    spec_string,
)
from repro.driver.passes import effective_passes
from repro.fuzz.gen import program_strategy


def program():
    """Source-text strategy over the shared fuzz grammar."""
    return program_strategy().map(lambda generated: generated.source)

SOURCE = """
class Main {
  static int f(int n) {
    int total = 0;
    int i = 0;
    while (i < n) { total = total + i * 2 + 3 * 4; i = i + 1; }
    return total;
  }
  static void main() { System.out.println(f(10)); }
}
"""


class TestPassSpecGrammar:
    def test_none_selects_default_pipeline(self):
        assert parse_pass_spec(None) == DEFAULT_PASSES

    def test_string_spec_round_trips(self):
        assert parse_pass_spec(CANONICAL_SPEC) == DEFAULT_PASSES
        assert spec_string(parse_pass_spec(CANONICAL_SPEC)) \
            == CANONICAL_SPEC

    def test_empty_string_is_explicit_noop(self):
        assert parse_pass_spec("") == ()
        assert parse_pass_spec(()) == ()

    def test_whitespace_and_order_normalize(self):
        assert parse_pass_spec(" dce , constprop ") \
            == ("constprop", "dce")
        assert parse_pass_spec(["cleanup", "constprop"]) \
            == ("constprop", "cleanup")

    def test_cse_fields_wins_its_slot(self):
        assert parse_pass_spec("cse,cse_fields") == ("cse_fields",)
        assert parse_pass_spec("cse_fields,cse") == ("cse_fields",)
        assert parse_pass_spec("cse") == ("cse",)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown pass"):
            parse_pass_spec("constprop,typo")

    def test_effective_passes(self):
        assert effective_passes(False, None) == ()
        assert effective_passes(True, None) == DEFAULT_PASSES
        # an explicit spec always wins over the optimize flag
        assert effective_passes(True, "dce") == ("dce",)
        assert effective_passes(True, "") == ()

    def test_registry_metadata(self):
        assert set(PASSES) \
            == {"constprop", "safephi", "hoist_checks", "licm", "cse",
                "cse_fields", "dce", "cleanup"}
        assert all(pass_.slot in ALL_PASSES for pass_ in PASSES.values())
        assert "observable" in PASSES["dce"].preserves


class TestMergeStats:
    def test_int_counters_accumulate(self):
        stats = {"eliminated": 2}
        merge_stats(stats, {"eliminated": 3})
        assert stats["eliminated"] == 5

    def test_bools_overwrite_not_accumulate(self):
        # regression: isinstance(True, int) is true, so the old merge
        # summed two `flag: True` reports into the counter 2
        stats = {"flag": True}
        merge_stats(stats, {"flag": True})
        assert stats["flag"] is True
        merge_stats(stats, {"flag": False})
        assert stats["flag"] is False

    def test_bool_never_sums_into_int(self):
        stats = {"count": 2}
        merge_stats(stats, {"count": True})
        assert stats["count"] is True

    def test_pass_report_merge_preserves_bools(self):
        report = PassReport("f")
        report.record("a", {"flag": True, "n": 1}, 0.0)
        report.record("b", {"flag": True, "n": 2}, 0.0)
        assert report.stats == {"flag": True, "n": 3}

    def test_report_equality_ignores_seconds(self):
        fast, slow = PassReport("f"), PassReport("f")
        fast.record("dce", {"removed": 1}, 0.001)
        slow.record("dce", {"removed": 1}, 9.999)
        assert fast == slow
        other = PassReport("f")
        other.record("dce", {"removed": 2}, 0.001)
        assert fast != other


def cache_key(cache, source, **flags):
    return CompilationSession(cache=cache, **flags).cache_key(source)


class TestCacheKeyCoverage:
    def test_unknown_flag_raises_type_error(self):
        # regression: a misspelled flag used to mint a key that never
        # hits, silently disabling the cache for that caller
        cache = CompilationCache()
        with pytest.raises(TypeError, match="optimise"):
            cache_key(cache, SOURCE, optimise=True)

    def test_known_flags_accepted(self):
        cache = CompilationCache()
        defaults = {"optimize": False, "passes": None,
                    "prune_phis": True}
        for flag, default in defaults.items():
            assert cache_key(cache, SOURCE, **{flag: default}) \
                == cache_key(cache, SOURCE)

    def test_distinct_pass_specs_distinct_keys(self):
        cache = CompilationCache()
        keys = {
            cache_key(cache, SOURCE),
            cache_key(cache, SOURCE, optimize=True),
            cache_key(cache, SOURCE, passes="constprop"),
            cache_key(cache, SOURCE, passes="constprop,dce"),
            cache_key(cache, SOURCE, passes="cse_fields"),
        }
        assert len(keys) == 5

    def test_spec_aliases_share_a_key(self):
        cache = CompilationCache()
        # optimize=True IS the canonical spec; order does not matter
        assert cache_key(cache, SOURCE, optimize=True) \
            == cache_key(cache, SOURCE, passes=CANONICAL_SPEC)
        assert cache_key(cache, SOURCE, passes="dce,constprop") \
            == cache_key(cache, SOURCE, passes="constprop,dce")
        # explicit no-op pipeline == the unoptimized default
        assert cache_key(cache, SOURCE, passes="") \
            == cache_key(cache, SOURCE)

    def test_unoptimized_entry_never_served_for_optimized_compile(self):
        cache = CompilationCache()
        plain = CompilationSession(cache=cache).compile(SOURCE)
        optimized = CompilationSession(optimize=True,
                                       cache=cache).compile(SOURCE)
        assert optimized.instruction_count() \
            < plain.instruction_count()
        # both forms landed under their own keys; a rerun hits each
        assert cache.misses == 2
        rerun = CompilationSession(optimize=True,
                                   cache=cache).compile(SOURCE)
        assert cache.hits == 1
        assert rerun.instruction_count() == optimized.instruction_count()


class TestAnalysisManager:
    def _function(self, optimize=False):
        module = CompilationSession(optimize=optimize,
                                    cache=False).compile(SOURCE)
        return module, next(iter(module.functions.values()))

    def test_results_are_cached(self):
        _, function = self._function()
        analyses = AnalysisManager()
        first = analyses.get("domtree", function)
        second = analyses.get("domtree", function)
        assert first is second
        assert analyses.computed == 1 and analyses.hits == 1
        assert analyses.consumers_per_computed == 2.0

    def test_unknown_analysis_raises(self):
        _, function = self._function()
        with pytest.raises(KeyError, match="unknown analysis"):
            AnalysisManager().get("typo", function)

    def test_invalidate_respects_preserved(self):
        _, function = self._function()
        analyses = AnalysisManager()
        domtree = analyses.get("domtree", function)
        analyses.get("observable", function)
        analyses.invalidate(function, preserved=frozenset({"domtree"}))
        assert analyses.cached("domtree", function) is domtree
        assert analyses.cached("observable", function) is None
        assert analyses.invalidations == 1

    def test_zero_change_pass_preserves_everything(self):
        # a pass whose stats are all falsy reports "nothing happened"
        assert PASSES["cleanup"].preserved_after(
            {"stale_exc_edges": 0, "dead_handlers": 0}) is None

    def test_cfg_change_drops_domtree(self):
        preserved = PASSES["cse"].preserved_after(
            {"cse_eliminated": 1, "stale_exc_edges": 2})
        assert preserved is not None and "domtree" not in preserved

    def test_pass_manager_reuses_analyses_across_consumers(self):
        module, _ = self._function()
        analyses = AnalysisManager()
        PassManager().run_module(module, analyses=analyses)
        from repro.tsa.verifier import verify_module
        verify_module(module, analyses=analyses)
        from repro.encode.serializer import encode_module
        encode_module(module, analyses=analyses)
        assert analyses.hits > 0
        assert analyses.consumers_per_computed >= 2.0


class TestCompilationSession:
    def test_frontend_shared_between_module_and_classfiles(self):
        session = CompilationSession(optimize=True, cache=False)
        module = session.build_module(SOURCE)
        classfiles = session.compile_to_classfiles(SOURCE)
        assert len(session._frontend_memo) == 1
        assert module.functions and classfiles
        # the two pipelines agree on what was compiled
        assert {cls.info.name for cls in classfiles} \
            == {info.name for info in module.classes}

    def test_stage_seconds_and_reports(self):
        session = CompilationSession(optimize=True, cache=False)
        session.compile(SOURCE)
        assert set(session.stage_seconds) == {"parse", "ssa", "opt"}
        report = session.pass_report()
        assert report["spec"] == CANONICAL_SPEC
        assert set(report["pass_seconds"]) == set(DEFAULT_PASSES)
        assert report["functions"] == len(session.reports) > 0

    def test_compile_cache_covers_pass_spec(self):
        cache = CompilationCache()
        noop = CompilationSession(passes="", cache=cache)
        noop.compile(SOURCE)
        optimized = CompilationSession(optimize=True, cache=cache)
        module = optimized.compile(SOURCE)
        # the cached no-op module must not be served for -O
        assert cache.hits == 0 and cache.misses == 2
        full = CompilationSession(optimize=True,
                                  cache=False).compile(SOURCE)
        assert module.instruction_count() == full.instruction_count()


def _session_artifacts(source):
    """(encoded bytes, deterministic report dicts) for one compile in a
    fresh session."""
    session = CompilationSession(optimize=True, cache=False)
    module = session.build_module(source)
    session.optimize(module)
    wire = session.encode(module)
    return wire, [r.as_dict(seconds=False) for r in session.reports]


#: Builds every corpus program in both transmitted forms, a fresh
#: session per artifact, and leaves the SHA-256 over all the wire bytes
#: in ``digest``.  Runs in-process and as a subprocess script.
_CORPUS_DIGEST = """
import hashlib
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import CompilationSession
digest = hashlib.sha256()
for name in CORPUS_PROGRAMS:
    for flags in ({"prune_phis": False}, {"optimize": True}):
        session = CompilationSession(cache=False, **flags)
        digest.update(session.encode(session.compile(corpus_source(name))))
digest = digest.hexdigest()
"""


class TestRebuildDeterminism:
    def test_corpus_wire_digest_ignores_hash_seed(self):
        # set and dict-of-str iteration order follows PYTHONHASHSEED;
        # the wire bytes must not, so fresh interpreters under fixed
        # seeds reproduce this process's (randomly seeded) digest
        namespace: dict = {}
        exec(_CORPUS_DIGEST, namespace)
        src = str(Path(__file__).resolve().parent.parent / "src")
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            built = subprocess.run(
                [sys.executable, "-c", _CORPUS_DIGEST + "print(digest)"],
                env=env, capture_output=True, text=True, timeout=300)
            assert built.returncode == 0, built.stderr
            assert built.stdout.strip() == namespace["digest"], \
                f"PYTHONHASHSEED={seed}"

    @pytest.mark.parametrize("name", CORPUS_PROGRAMS)
    def test_corpus_rebuild_equals_first_build(self, name):
        source = corpus_source(name)
        first_wire, first_reports = _session_artifacts(source)
        rebuild_wire, rebuild_reports = _session_artifacts(source)
        assert rebuild_wire == first_wire
        assert rebuild_reports == first_reports

    @pytest.mark.parametrize("name", CORPUS_PROGRAMS)
    def test_corpus_plain_form_stable_too(self, name):
        # the transmitted unoptimized form runs no passes, but must
        # still be byte-stable across fresh sessions
        source = corpus_source(name)
        first = CompilationSession(prune_phis=False, cache=False)
        rebuild = CompilationSession(prune_phis=False, cache=False)
        assert first.encode(first.compile(source)) \
            == rebuild.encode(rebuild.compile(source))

    @settings(max_examples=15, deadline=None)
    @given(source=program())
    def test_random_programs_rebuild_equals_first_build(self, source):
        first_wire, first_reports = _session_artifacts(source)
        rebuild_wire, rebuild_reports = _session_artifacts(source)
        assert rebuild_wire == first_wire
        assert rebuild_reports == first_reports

    def test_rebuild_is_bit_identical_under_heap_churn(self):
        # Regression: SSA construction memoized assigned-variable sets
        # by id(node); do-while/for lowering builds throwaway synthetic
        # UAST nodes, so a recycled address could return the previous
        # node's variable set and insert (or skip) eager loop-header
        # phis depending on heap layout.  Compiling other loop-heavy
        # modules between rebuilds primes the allocator with reusable
        # UAST-sized blocks; before the fix the wire bytes diverged
        # within a handful of trials.  The source is the hypothesis
        # counterexample pinned in test_properties, kept byte-exact:
        # reformatting changes the allocation pattern enough to mask
        # the recycling.
        import gc
        import random

        source = 'class Shape {\n    int tag;\n    int weigh(int x) { return ((tag <= tag) ? x : x); }\n}\nclass Ring extends Shape {\n    int weigh(int x) { return (tag % (x | 1)); }\n}\nclass Main {\n    static int h(int x) {\n        int a = x; int b = x - 1; int c = 7;\n        return ((-20 - a) | a);\n    }\n    static void main() {\n        int a = -96;\n        int b = 82;\n        int c = 78;\n        int[] arr = new int[8];\n        for (int f0 = 0; f0 < 8; f0++) {\n            arr[f0] = f0 * 5 + 3;\n        }\n        Shape s = new Shape();\n        s.tag = -12;\n        switch (a & 3) { case 0: a = 1; case 1: a = 2; break; case 2: arr[(1 & 7)] = -57; break; default: a = 15; }\n        { int d1 = 2; do { d1 = d1 - 1; for (int lo2 = 0; lo2 < 4; lo2++) { for (int ln3 = 0; ln3 < arr.length; ln3++) { c = c + arr[lo2 & 7]; } arr[lo2 & 7] = c; } } while (d1 > 0); }\n        c = (-83 % ((a * ((c > 0) ? b : a)) | 1));\n        for (int lo4 = 0; lo4 < 3; lo4++) { for (int ln5 = 0; ln5 < arr.length; ln5++) { b = b + arr[lo4 & 7]; } arr[lo4 & 7] = b; }\n        int sum = 0;\n        for (int f1 = 0; f1 < 8; f1++) { sum += arr[f1]; }\n        System.out.println(a + " " + b + " " + c + " " + sum\n                           + " " + s.weigh(a) + " " + s.tag);\n    }\n}\n'

        def build():
            session = CompilationSession(optimize=True, cache=False)
            module = session.build_module(source)
            session.optimize(module)
            return session.encode(module)

        churn = ["class A%d { static int f(int x) { int y = x; "
                 "do { y = y - 1; } while (y > 0); return y; } }" % i
                 for i in range(6)]
        reference = build()
        rng = random.Random(3)
        junk = []
        for trial in range(40):
            filler = CompilationSession(optimize=(trial % 3 == 0),
                                        cache=False)
            filler.compile(churn[trial % len(churn)])
            junk.append(bytearray(rng.randrange(64, 4096)))
            if trial % 5 == 4:
                junk.clear()
                gc.collect()
            assert build() == reference, \
                f"rebuild diverged at trial {trial}"
