"""Loop tier tests: natural loops, preheaders, LICM, check hoisting.

Every transform test also checks *behavior*: the optimised module must
verify and print exactly what the unoptimised one printed.
"""

import pytest

from repro.analysis.loops import (
    ensure_preheader,
    existing_preheader,
    find_loops,
)
from repro.analysis.range import RangeFact, _RangeAnalysis
from repro.api import compile_source
from repro.driver import PassManager, parse_pass_spec
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.opt.hoist_checks import run_hoist_checks
from repro.opt.licm import run_licm
from repro.ssa.cst import derive_cfg
from repro.tsa.verifier import verify_module

LOOP_PIPELINE = "constprop,safephi,hoist_checks,cse,licm,dce,cleanup"


def compiled(source: str, cls: str, method: str):
    module = compile_source(source)
    return module, module.function_named(cls, method)


def count(function, opcode: str) -> int:
    return sum(1 for b in function.reachable_blocks()
               for i in b.all_instrs() if i.opcode == opcode)


def in_loop_count(function, loop, opcode: str) -> int:
    return sum(1 for b in function.blocks if b.id in loop.blocks
               for i in b.all_instrs() if i.opcode == opcode)


def run(module, cls="Main", max_steps=2_000_000):
    interp = Interpreter(module, max_steps=max_steps)
    result = interp.run_main(cls)
    assert result.completed, result.exception_name()
    return result.stdout, dict(interp.check_counts)


def edge_snapshot(function):
    return [
        ([(p.id, k) for p, k in b.preds], [(s.id, k) for s, k in b.succs])
        for b in function.blocks
    ]


WHILE_SUM = """
class T {
    static int f(int n) {
        int s = 0; int i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    }
}
"""

NESTED_FOR = """
class T {
    static int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < i; j++) { s = s + j; }
        }
        return s;
    }
}
"""


class TestLoopDetection:
    def test_while_is_one_natural_loop(self):
        _, fn = compiled(WHILE_SUM, "T", "f")
        forest = find_loops(fn)
        assert len(forest.loops) == 1
        loop = forest.loops[0]
        assert len(loop.latches) == 1
        assert loop.header.id in loop.blocks
        assert loop.latches[0].id in loop.blocks
        assert loop.depth == 1 and loop.parent is None

    def test_nested_loops_nest(self):
        _, fn = compiled(NESTED_FOR, "T", "f")
        forest = find_loops(fn)
        assert len(forest.loops) == 2
        outer, inner = forest.loops  # outermost-first by header RPO
        assert inner.parent is outer
        assert outer.children == [inner]
        assert (outer.depth, inner.depth) == (1, 2)
        assert inner.blocks < outer.blocks
        assert forest.innermost_first()[0] is inner

    def test_loop_of_returns_innermost(self):
        _, fn = compiled(NESTED_FOR, "T", "f")
        forest = find_loops(fn)
        outer, inner = forest.loops
        assert forest.loop_of(inner.header) is inner
        assert forest.loop_of(outer.header) is outer

    def test_do_while_detected(self):
        _, fn = compiled(
            "class T { static int f(int n) { int s = 0; int i = 0;"
            " do { s = s + i; i = i + 1; } while (i < n); return s; } }",
            "T", "f")
        forest = find_loops(fn)
        assert len(forest.loops) == 1

    def test_continue_keeps_single_loop(self):
        # continue adds a second back edge path, not a second loop
        _, fn = compiled(
            "class T { static int f(int n) { int s = 0;"
            " for (int i = 0; i < n; i++) {"
            " if (i == 2) { continue; } s = s + i; } return s; } }",
            "T", "f")
        forest = find_loops(fn)
        assert len(forest.loops) == 1


class TestInductionVariables:
    def test_for_index_recognised(self):
        _, fn = compiled(WHILE_SUM, "T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        ivs = forest.induction_variables(loop)
        assert any(iv.op == "add" and getattr(iv.step, "value", None) == 1
                   for iv in ivs)

    def test_stride_two(self):
        _, fn = compiled(
            "class T { static int f(int n) { int s = 0; int i = 0;"
            " while (i < n) { s = s + i; i = i + 2; } return s; } }",
            "T", "f")
        forest = find_loops(fn)
        ivs = forest.induction_variables(forest.loops[0])
        assert any(iv.op == "add" and getattr(iv.step, "value", None) == 2
                   for iv in ivs)


class TestPreheader:
    def test_reuses_structural_preheader(self):
        # the frontend's loop-init block is already a preheader: single
        # outside pred, fall-through, header its only successor
        module = compile_source(WHILE_SUM)
        fn = module.function_named("T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        blocks_before = len(fn.blocks)
        pre = ensure_preheader(fn, loop, forest)
        assert pre is not None
        assert len(fn.blocks) == blocks_before  # reused, not inserted
        assert pre.id not in loop.blocks

    def test_insert_preserves_everything(self):
        # two entry predecessors: no structural preheader exists, so one
        # must be inserted and the header phis split
        source = """
class Main {
    static int f(int n, boolean c) {
        int s;
        if (c) { s = 1; } else { s = 2; }
        while (s < n) { s = s + 3; }
        return s;
    }
    static void main() { System.out.println(f(20, true)); }
}
"""
        baseline, _ = run(compile_source(source))
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        blocks_before = len(fn.blocks)
        pre = ensure_preheader(fn, loop, forest)
        assert pre is not None
        assert len(fn.blocks) == blocks_before + 1
        assert loop.preheader is pre
        assert pre.succs == [(loop.header, "norm")]
        # edges were rewired by hand; the canonical CST walk must agree
        snapshot = edge_snapshot(fn)
        derive_cfg(fn)
        assert edge_snapshot(fn) == snapshot
        verify_module(module)
        assert run(module)[0] == baseline
        # idempotent: a second request returns the same block
        assert ensure_preheader(fn, loop, forest) is pre
        assert len(fn.blocks) == blocks_before + 1

    def test_multiple_entry_preds_split_phis(self):
        source = """
class Main {
    static int f(int n, boolean c) {
        int s;
        if (c) { s = 1; } else { s = 2; }
        int i = 0;
        while (i < n) { s = s + i; i = i + 1; }
        return s;
    }
    static void main() {
        System.out.println(f(5, true) + f(5, false));
    }
}
"""
        baseline, _ = run(compile_source(source))
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        forest = find_loops(fn)
        pre = ensure_preheader(fn, forest.loops[0], forest)
        assert pre is not None
        verify_module(module)
        assert run(module)[0] == baseline

    def test_wire_round_trip_after_insertion(self):
        module = compile_source(WHILE_SUM)
        fn = module.function_named("T", "f")
        forest = find_loops(fn)
        assert ensure_preheader(fn, forest.loops[0], forest) is not None
        wire = encode_module(module)
        decoded = decode_module(wire)
        verify_module(decoded)
        assert encode_module(decoded) == wire

    def test_structural_detection(self):
        module = compile_source(WHILE_SUM)
        fn = module.function_named("T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        assert existing_preheader(loop) is None or \
            existing_preheader(loop).id not in loop.blocks
        pre = ensure_preheader(fn, loop, forest)
        fresh = find_loops(fn)
        assert existing_preheader(fresh.loops[0]).id == pre.id


LICM_INVARIANT = """
class Main {
    static int f(int x, int y, int n) {
        int s = 0; int i = 0;
        while (i < n) { s = s + x * y; i = i + 1; }
        return s;
    }
    static void main() { System.out.println(f(3, 4, 5)); }
}
"""


class TestLicm:
    def test_hoists_invariant_arithmetic(self):
        baseline, _ = run(compile_source(LICM_INVARIANT))
        module = compile_source(LICM_INVARIANT)
        fn = module.function_named("Main", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        assert in_loop_count(fn, loop, "primitive") > 0
        stats = run_licm(fn, forest)
        assert stats["licm_hoisted"] >= 1
        # the frontend's init block was reused, none inserted
        assert stats["preheaders"] == 0
        # the multiply left the loop body
        mults = [i for b in fn.blocks if b.id in loop.blocks
                 for i in b.instrs
                 if i.opcode == "primitive" and i.operation.name == "mul"]
        assert mults == []
        verify_module(module)
        assert run(module)[0] == baseline

    def test_does_not_hoist_load_past_call(self):
        # g() may store T.a, so t.a must reload every iteration
        source = """
class T { int a;
    static void g(T t) { t.a = t.a + 1; }
    static int f(T t, int n) {
        int s = 0; int i = 0;
        while (i < n) { g(t); s = s + t.a; i = i + 1; }
        return s;
    }
}
"""
        _, fn = compiled(source, "T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        before = in_loop_count(fn, loop, "getfield")
        stats = run_licm(fn, forest)
        assert in_loop_count(fn, loop, "getfield") == before
        assert stats["licm_hoisted"] == 0

    def test_does_not_hoist_load_past_same_field_store(self):
        source = """
class T { int a;
    static int f(T t, int n) {
        int s = 0; int i = 0;
        while (i < n) { s = s + t.a; t.a = i; i = i + 1; }
        return s;
    }
}
"""
        _, fn = compiled(source, "T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        before = in_loop_count(fn, loop, "getfield")
        run_licm(fn, forest)
        assert in_loop_count(fn, loop, "getfield") == before

    def test_guarded_load_needs_the_check_hoist_cascade(self):
        # every getfield reads a nullcheck result; while that check sits
        # in the loop the load's operand is not invariant, so licm alone
        # must refuse -- only the hoist_checks -> cse -> licm cascade
        # (the ALL_PASSES slot order) can migrate the load out
        source = """
class Main { int a;
    static int f(int n) {
        Main t = new Main();
        t.a = 5;
        int s = 0; int i = 0;
        while (i < n) { s = s + t.a; i = i + 1; }
        return s;
    }
    static void main() { System.out.println(f(4)); }
}
"""
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        forest = find_loops(fn)
        assert run_licm(fn, forest)["licm_hoisted"] == 0

        baseline, _ = run(compile_source(source))
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        reports = PassManager("hoist_checks,cse,licm",
                              check_after_each_pass=True).run_module(module)
        stats = {}
        for report in reports:
            for key, value in report.stats.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    stats[key] = stats.get(key, 0) + value
        assert stats["checks_hoisted_null"] >= 1
        assert stats["licm_hoisted"] >= 1
        loop = find_loops(fn).loops[0]
        assert in_loop_count(fn, loop, "getfield") == 0
        assert in_loop_count(fn, loop, "nullcheck") == 0
        verify_module(module)
        assert run(module)[0] == baseline

    def test_never_hoists_trapping_division(self):
        # d could be zero: the division must stay under the loop guard
        source = """
class T {
    static int f(int d, int n) {
        int s = 0; int i = 0;
        while (i < n) { s = s + 100 / d; i = i + 1; }
        return s;
    }
}
"""
        _, fn = compiled(source, "T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]

        def in_loop_divs():
            return len([
                i for b in fn.blocks if b.id in loop.blocks
                for i in b.instrs
                if i.opcode == "xprimitive" and i.operation.name == "div"])

        assert in_loop_divs() == 1
        run_licm(fn, forest)
        assert in_loop_divs() == 1


class TestHoistChecks:
    def test_case_a_provable_nullcheck(self):
        # the array is freshly constructed before the loop: nonnull is a
        # must-fact at the header entry, so the in-loop nullcheck of a
        # constant-index access provably passes
        source = """
class Main {
    static int f(int n) {
        int[] a = new int[4];
        a[0] = 7;
        int s = 0; int i = 0;
        while (i < n) { s = s + a[0]; i = i + 1; }
        return s;
    }
    static void main() { System.out.println(f(3)); }
}
"""
        baseline, base_checks = run(compile_source(source))
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        stats = run_hoist_checks(fn)
        assert stats["checks_hoisted_null"] + stats["checks_hoisted_idx"] > 0
        verify_module(module)
        out, checks = run(module)
        assert out == baseline
        assert sum(checks.values()) < sum(base_checks.values())

    def test_case_b_guaranteed_first_trip(self):
        # a is a parameter (nullness unknown) but the loop provably runs
        # its first iteration (0 < 4) and reaches the checks before any
        # side effect: trapping in the preheader is observably identical
        source = """
class T {
    static int f(int[] a) {
        int s = 0; int i = 0;
        while (i < 4) { s = s + a[0]; i = i + 1; }
        return s;
    }
}
"""
        _, fn = compiled(source, "T", "f")
        forest = find_loops(fn)
        loop = forest.loops[0]
        assert in_loop_count(fn, loop, "nullcheck") == 1
        stats = run_hoist_checks(fn, forest)
        assert stats["checks_hoisted_null"] == 1
        assert in_loop_count(fn, loop, "nullcheck") == 0

    def test_zero_trip_hazard_not_hoisted(self):
        # with n = 0 the body never runs; hoisting the nullcheck would
        # make f(null, 0) throw where the original returns 0
        source = """
class Main {
    static int f(int[] a, int n) {
        int s = 0; int i = 0;
        while (i < n) { s = s + a[2]; i = i + 1; }
        return s;
    }
    static void main() { System.out.println(f(null, 0)); }
}
"""
        module = compile_source(source)
        fn = module.function_named("Main", "f")
        stats = run_hoist_checks(fn)
        assert stats["checks_hoisted_null"] == 0
        assert stats["checks_hoisted_idx"] == 0
        verify_module(module)
        assert run(module)[0] == "0\n"

    def test_loop_inside_try_skipped(self):
        # a hoisted trap would need an exception edge from the preheader
        source = """
class T {
    static int f(int[] a, int n) {
        int s = 0;
        try {
            int i = 0;
            while (i < 4) { s = s + a[0]; i = i + 1; }
        } catch (NullPointerException e) { s = -1; }
        return s;
    }
}
"""
        _, fn = compiled(source, "T", "f")
        stats = run_hoist_checks(fn)
        assert stats["checks_hoisted_null"] == 0
        assert stats["checks_hoisted_idx"] == 0

    def test_trap_still_raises_after_hoist(self):
        # Case B moves the trap to the preheader; the observable
        # exception must be unchanged
        source = """
class Main {
    static int f(int[] a) {
        int s = 0; int i = 0;
        while (i < 4) { s = s + a[0]; i = i + 1; }
        return s;
    }
    static void main() {
        try { System.out.println(f(null)); }
        catch (NullPointerException e) { System.out.println("npe"); }
    }
}
"""
        baseline, _ = run(compile_source(source))
        assert baseline == "npe\n"
        module = compile_source(source)
        stats = run_hoist_checks(module.function_named("Main", "f"))
        assert stats["checks_hoisted_null"] == 1
        verify_module(module)
        assert run(module)[0] == "npe\n"


LOOP_HEAVY = """
class Main {
    static void main() {
        int[] a = new int[8];
        int k = 3;
        for (int i = 0; i < 8; i++) { a[i] = i; }
        int s = 0;
        for (int r = 0; r < 50; r++) { s = s + a[k] + a.length; }
        System.out.println(s);
    }
}
"""


class TestPipelineIntegration:
    def test_spec_order_is_slot_order(self):
        assert parse_pass_spec("licm,hoist_checks") == \
            ("hoist_checks", "licm")
        assert parse_pass_spec("licm,cse,hoist_checks") == \
            ("hoist_checks", "cse", "licm")

    def test_full_pipeline_reduces_dynamic_checks(self):
        baseline, base_checks = run(compile_source(LOOP_HEAVY))
        module = compile_source(LOOP_HEAVY)
        PassManager(LOOP_PIPELINE,
                    check_after_each_pass=True).run_module(module)
        verify_module(module)
        out, checks = run(module)
        assert out == baseline
        assert sum(checks.values()) < sum(base_checks.values())

    def test_tier_alone_reduces_dynamic_checks(self):
        baseline, base_checks = run(compile_source(LOOP_HEAVY))
        module = compile_source(LOOP_HEAVY)
        PassManager("hoist_checks,licm",
                    check_after_each_pass=True).run_module(module)
        verify_module(module)
        out, checks = run(module)
        assert out == baseline
        assert sum(checks.values()) < sum(base_checks.values())

    @pytest.mark.slow
    def test_loop_pipeline_round_trips_on_corpus(self):
        from repro.bench.corpus import corpus_source
        source = corpus_source("BitSieve")
        baseline, _ = run(compile_source(source), "BitSieve",
                          max_steps=50_000_000)
        module = compile_source(source)
        PassManager(LOOP_PIPELINE,
                    check_after_each_pass=True).run_module(module)
        verify_module(module)
        wire = encode_module(module)
        decoded = decode_module(wire)
        verify_module(decoded)
        out, _ = run(decoded, "BitSieve", max_steps=50_000_000)
        assert out == baseline

    def test_loops_analysis_registered(self):
        from repro.analysis.manager import AnalysisManager
        module = compile_source(WHILE_SUM)
        fn = module.function_named("T", "f")
        manager = AnalysisManager()
        forest = manager.get("loops", fn)
        assert len(forest.loops) == 1
        assert manager.get("loops", fn) is forest  # cached


class TestWidenRegression:
    def _analysis(self):
        module = compile_source(WHILE_SUM)
        return _RangeAnalysis(module.function_named("T", "f"))

    def test_widen_intersects_below_sets(self):
        # taking new.below verbatim would keep a bound that only held on
        # the latest path; widening must intersect like join() does
        analysis = self._analysis()
        old = RangeFact({}, {7: frozenset({1, 2})})
        new = RangeFact({}, {7: frozenset({2, 3})})
        widened = analysis.widen(old, new)
        assert widened.below == {7: frozenset({2})}

    def test_widen_drops_disjoint_below_sets(self):
        analysis = self._analysis()
        old = RangeFact({}, {7: frozenset({1})})
        new = RangeFact({}, {7: frozenset({2})})
        assert analysis.widen(old, new).below == {}

    def test_widen_ranges_monotone(self):
        from repro.jmath import INT_MAX
        analysis = self._analysis()
        old = RangeFact({5: (0, 10)}, {})
        grown = analysis.widen(old, RangeFact({5: (0, 12)}, {}))
        assert grown.ranges[5] == (0, INT_MAX)
        stable = analysis.widen(old, RangeFact({5: (2, 10)}, {}))
        assert stable.ranges[5] == (0, 10)
