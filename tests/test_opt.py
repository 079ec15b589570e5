"""Optimizer unit tests: memdep, constprop, CSE, check elimination, DCE."""

import pytest

from repro.api import compile_source
from repro.driver import PassManager
from repro.interp.interpreter import Interpreter
from repro.opt.cse import run_cse
from repro.opt.constprop import run_constprop
from repro.opt.dce import run_dce
from repro.opt.memdep import MemDep
from repro.tsa.verifier import verify_module


def compiled(source: str, cls: str, method: str):
    module = compile_source(source)
    return module, module.function_named(cls, method)


def count(function, opcode: str) -> int:
    return sum(1 for b in function.reachable_blocks()
               for i in b.all_instrs() if i.opcode == opcode)


class TestMemDep:
    def test_loads_same_version_without_store(self):
        _, fn = compiled(
            "class T { int a; static int f(T t) {"
            "int x = t.a; int y = t.a; return x + y; } }", "T", "f")
        memdep = MemDep(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert len(loads) == 2
        assert memdep.version_before(loads[0]) == \
            memdep.version_before(loads[1])

    def test_store_invalidates(self):
        _, fn = compiled(
            "class T { int a; static int f(T t) {"
            "int x = t.a; t.a = 5; int y = t.a; return x + y; } }",
            "T", "f")
        memdep = MemDep(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert memdep.version_before(loads[0]) != \
            memdep.version_before(loads[1])

    def test_call_invalidates(self):
        _, fn = compiled(
            "class T { int a; static void g() { } static int f(T t) {"
            "int x = t.a; g(); int y = t.a; return x + y; } }", "T", "f")
        memdep = MemDep(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert memdep.version_before(loads[0]) != \
            memdep.version_before(loads[1])

    def test_join_without_stores_preserves_version(self):
        _, fn = compiled(
            "class T { int a; static int f(T t, boolean c) {"
            "int x = t.a; int y = 0; if (c) y = 1; else y = 2;"
            "int z = t.a; return x + y + z; } }", "T", "f")
        memdep = MemDep(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert memdep.version_before(loads[0]) == \
            memdep.version_before(loads[1])

    def test_store_in_one_branch_invalidates_join(self):
        _, fn = compiled(
            "class T { int a; static int f(T t, boolean c) {"
            "int x = t.a; if (c) t.a = 9;"
            "int z = t.a; return x + z; } }", "T", "f")
        memdep = MemDep(fn)
        loads = [i for b in fn.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert memdep.version_before(loads[0]) != \
            memdep.version_before(loads[1])


class TestCse:
    def test_pure_expression_merged(self):
        module, fn = compiled(
            "class T { static int f(int a, int b) {"
            "int x = a * b + 1; int y = a * b + 1; return x + y; } }",
            "T", "f")
        before = count(fn, "primitive")
        stats = run_cse(fn)
        assert stats.eliminated >= 2
        assert count(fn, "primitive") < before
        verify_module(module)

    def test_commutative_operands_normalised(self):
        module, fn = compiled(
            "class T { static int f(int a, int b) {"
            "return a * b + b * a; } }", "T", "f")
        run_cse(fn)
        muls = [i for b in fn.blocks for i in b.instrs
                if i.opcode == "primitive" and i.operation.name == "mul"]
        assert len(muls) == 1
        verify_module(module)

    def test_non_commutative_not_merged(self):
        module, fn = compiled(
            "class T { static int f(int a, int b) {"
            "return (a - b) + (b - a); } }", "T", "f")
        run_cse(fn)
        subs = [i for b in fn.blocks for i in b.instrs
                if i.opcode == "primitive" and i.operation.name == "sub"]
        assert len(subs) == 2

    def test_load_merged_when_no_store_between(self):
        module, fn = compiled(
            "class T { int a; static int f(T t) {"
            "return t.a + t.a; } }", "T", "f")
        run_cse(fn)
        assert count(fn, "getfield") == 1
        verify_module(module)

    def test_load_not_merged_across_store(self):
        module, fn = compiled(
            "class T { int a; static int f(T t) {"
            "int x = t.a; t.a = x + 1; return x + t.a; } }", "T", "f")
        run_cse(fn)
        assert count(fn, "getfield") == 2

    def test_load_not_merged_across_call(self):
        module, fn = compiled(
            "class T { int a; void bump() { a++; }"
            "static int f(T t) { int x = t.a; t.bump(); return x + t.a; } }",
            "T", "f")
        run_cse(fn)
        assert count(fn, "getfield") == 2

    def test_arraylen_merged_despite_stores(self):
        # array lengths are immutable (Appendix A)
        module, fn = compiled(
            "class T { static int f(int[] a) {"
            "a[0] = a.length; a[1] = a.length; return a.length; } }",
            "T", "f")
        run_cse(fn)
        assert count(fn, "arraylen") == 1
        verify_module(module)

    def test_nullcheck_subsumed_by_dominating_check(self):
        module, fn = compiled(
            "class T { int a; int b; static int f(T t) {"
            "return t.a + t.b; } }", "T", "f")
        assert count(fn, "nullcheck") == 2
        run_cse(fn)
        assert count(fn, "nullcheck") == 1
        verify_module(module)

    def test_nullcheck_through_new_removed(self):
        module, fn = compiled(
            "class T { int a; static int f() {"
            "T t = new T(); return t.a; } }", "T", "f")
        assert count(fn, "nullcheck") == 1
        from repro.opt.cleanup import remove_stale_exception_edges
        run_cse(fn)
        remove_stale_exception_edges(fn)
        assert count(fn, "nullcheck") == 0
        verify_module(module)

    def test_idxcheck_subsumed_same_array_and_index(self):
        module, fn = compiled(
            "class T { static int f(int[] a, int i) {"
            "a[i] = a[i] + 1; return a[i]; } }", "T", "f")
        before = count(fn, "idxcheck")
        assert before == 3
        run_cse(fn)
        assert count(fn, "idxcheck") == 1
        verify_module(module)

    def test_checks_not_merged_across_branches(self):
        module, fn = compiled(
            "class T { int a; static int f(T t, boolean c) {"
            "if (c) return t.a; else return t.a; } }", "T", "f")
        run_cse(fn)
        # neither branch dominates the other: both checks stay
        assert count(fn, "nullcheck") == 2

    def test_check_hoisting_is_never_performed(self):
        # CSE only reuses *dominating* checks; it must not move them
        module, fn = compiled(
            "class T { int a; static int f(T t, boolean c) {"
            "int r = 0; if (c) r = t.a; return r; } }", "T", "f")
        run_cse(fn)
        assert count(fn, "nullcheck") == 1
        result = Interpreter(module).run_function(
            fn, [None, False])
        assert result.exception is None and result.value == 0


class TestConstProp:
    def test_folds_constant_tree(self):
        module, fn = compiled(
            "class T { static int f() { return (3 + 4) * 2; } }", "T", "f")
        folded = run_constprop(fn)
        assert folded >= 2
        assert count(fn, "primitive") == 0
        verify_module(module)

    def test_division_by_zero_not_folded(self):
        module, fn = compiled(
            "class T { static int f() { int z = 0; return 1 / z; } }",
            "T", "f")
        run_constprop(fn)
        assert count(fn, "xprimitive") == 1
        result = Interpreter(module).run_function(fn, [])
        assert result.exception_name() == "java.lang.ArithmeticException"

    def test_division_by_nonzero_constant_folded(self):
        module, fn = compiled(
            "class T { static int f() { int d = 4; return 12 / d; } }",
            "T", "f")
        run_constprop(fn)
        assert count(fn, "xprimitive") == 0
        verify_module(module)

    def test_instanceof_null_folds_false(self):
        module, fn = compiled(
            "class T { static boolean f() {"
            "String s = null; return s instanceof String; } }", "T", "f")
        run_constprop(fn)
        assert count(fn, "instanceof") == 0
        result = Interpreter(module).run_function(fn, [])
        assert result.value is False


class TestDce:
    def test_dead_pure_code_removed(self):
        module, fn = compiled(
            "class T { static int f(int a) {"
            "int unused = a * a + 7; return a; } }", "T", "f")
        removed = run_dce(fn)
        assert removed.get("primitive", 0) >= 2
        verify_module(module)

    def test_stores_and_calls_kept(self):
        module, fn = compiled(
            "class T { static int calls; static int g() "
            "{ calls++; return 1; }"
            "static int f() { int unused = g(); return 2; } }", "T", "f")
        run_dce(fn)
        assert count(fn, "xcall") == 1

    def test_trapping_instructions_kept(self):
        module, fn = compiled(
            "class T { static int f(int a, int b) {"
            "int unused = a / b; return a; } }", "T", "f")
        run_dce(fn)
        assert count(fn, "xprimitive") == 1  # the division may throw

    def test_dead_load_removed(self):
        # safe operands mean a dead getfield provably cannot trap
        module, fn = compiled(
            "class T { int a; static int f(T t, int k) {"
            "int unused = t.a; return k; } }", "T", "f")
        run_dce(fn)
        assert count(fn, "getfield") == 0
        # the nullcheck stays: it can throw
        assert count(fn, "nullcheck") == 1


class TestPipeline:
    def test_full_pipeline_preserves_corpus_behaviour(self):
        from repro.bench.corpus import corpus_source
        source = corpus_source("Environment")
        plain = compile_source(source)
        expected = Interpreter(plain, max_steps=50_000_000) \
            .run_main("Environment")
        optimized = compile_source(source)
        PassManager().run_module(optimized)
        verify_module(optimized)
        actual = Interpreter(optimized, max_steps=50_000_000) \
            .run_main("Environment")
        assert actual.stdout == expected.stdout

    def test_pipeline_is_idempotent(self):
        module = compile_source(
            "class T { int a; static int f(T t) { return t.a + t.a; } }")
        PassManager().run_module(module)
        first = module.instruction_count()
        PassManager().run_module(module)
        assert module.instruction_count() == first
        verify_module(module)

    def test_pass_selection(self):
        module = compile_source(
            "class T { static int f() { return 1 + 2; } }")
        reports = PassManager(["constprop"]).run_module(module)
        assert any("constprop_folded" in r.stats for r in reports)
        assert not any("cse_eliminated" in r.stats for r in reports)


class TestDeadHandlerRemoval:
    def test_fully_eliminated_try_drops_handler(self):
        from repro.encode.deserializer import decode_module
        from repro.encode.serializer import encode_module
        source = """
        class T {
            int a;
            static int f(T t) {
                int before = t.a;
                int result = 0;
                try { result = t.a; }
                catch (NullPointerException e) { result = -1; }
                return before + result;
            }
            static void main() {
                T t = new T(); t.a = 21;
                System.out.println(f(t));
            }
        }
        """
        plain = compile_source(source)
        optimized = compile_source(source, optimize=True)
        verify_module(optimized)
        # handler is gone: no caughtexc survives
        assert optimized.count_opcodes("caughtexc") == 0
        assert optimized.count_opcodes("nullcheck") \
            < plain.count_opcodes("nullcheck")
        decoded = decode_module(encode_module(optimized))
        verify_module(decoded)
        result = Interpreter(decoded).run_main("T")
        assert result.stdout == "42\n"

    def test_partially_eliminated_try_keeps_handler(self):
        source = """
        class T {
            int a;
            static int f(T t, int d) {
                int before = t.a;
                int result = 0;
                try { result = t.a / d; }   // division still traps
                catch (ArithmeticException e) { result = -1; }
                return before + result;
            }
        }
        """
        optimized = compile_source(source, optimize=True)
        verify_module(optimized)
        assert optimized.count_opcodes("caughtexc") == 1
        fn = optimized.function_named("T", "f")
        from repro.interp.heap import ObjectRef
        obj = ObjectRef(optimized.world.require("T"))
        obj.fields[0] = 10
        result = Interpreter(optimized).run_function(fn, [obj, 0])
        assert result.value == 9  # 10 + (-1) via the handler

    def test_dead_handler_inside_loop(self):
        source = """
        class T {
            int a;
            static int f(T t, int n) {
                int total = t.a;
                for (int i = 0; i < n; i++) {
                    try { total += t.a; }
                    catch (NullPointerException e) { total = -1; }
                }
                return total;
            }
            static void main() {
                T t = new T(); t.a = 2;
                System.out.println(f(t, 5));
            }
        }
        """
        plain = Interpreter(compile_source(source)).run_main("T")
        optimized_module = compile_source(source, optimize=True)
        verify_module(optimized_module)
        optimized = Interpreter(optimized_module).run_main("T")
        assert plain.stdout == optimized.stdout == "12\n"

    def test_cascading_dead_handlers(self):
        # eliminating the inner try's checks can orphan the OUTER
        # dispatch too (its only exception points were in the inner
        # handler); removal must iterate to a fixpoint
        from repro.encode.deserializer import decode_module
        from repro.encode.serializer import encode_module
        source = """
        class T {
            int a;
            static int f(T t) {
                int r = t.a;                       // dominating check
                try {
                    try { r += t.a; }              // eliminated
                    catch (NullPointerException inner) { r = -1; }
                } catch (NullPointerException outer) { r = -2; }
                return r;
            }
            static void main() {
                T t = new T(); t.a = 3;
                System.out.println(f(t));
            }
        }
        """
        plain = Interpreter(compile_source(source)).run_main("T")
        optimized = compile_source(source, optimize=True)
        verify_module(optimized)
        assert optimized.count_opcodes("caughtexc") == 0
        decoded = decode_module(encode_module(optimized))
        verify_module(decoded)
        result = Interpreter(decoded).run_main("T")
        assert result.stdout == plain.stdout == "6\n"

    def test_nested_dead_handlers_with_trapping_handlers(self):
        # Found by the wire fuzz lane (seed 90): three nested tries
        # where every handler still contains a live exception point.
        # Excising the innermost try discards the mid dispatch's only
        # exc predecessors; the mid and outer dispatches are then
        # unreachable but still in the CST, so the fixpoint must keep
        # re-deriving their edges rather than dropping them from the
        # block list with stale preds — otherwise the outer try
        # survives and the join phis keep operands for dead handler
        # edges that the dominator-relative encoder cannot number.
        from repro.encode.deserializer import decode_module
        from repro.encode.serializer import encode_module
        source = """
        class T {
            static int f(int d) {
                int r = 9;
                try {
                    try {
                        try { r = 84 / 2; }            // folds away
                        catch (ArithmeticException e1) { r = 100 / d; }
                    } catch (ArithmeticException e2) { r = 200 / d; }
                } catch (ArithmeticException e3) { r = -1; }
                return r;
            }
            static void main() {
                System.out.println(f(0));
            }
        }
        """
        plain = Interpreter(compile_source(source)).run_main("T")
        optimized = compile_source(source, optimize=True)
        verify_module(optimized)
        assert optimized.count_opcodes("caughtexc") == 0
        wire = encode_module(optimized)
        decoded = decode_module(wire)
        verify_module(decoded)
        assert encode_module(decoded) == wire
        result = Interpreter(decoded).run_main("T")
        assert result.stdout == plain.stdout == "42\n"
