"""Tests for the paper's proposed-improvement extensions.

Section 4: transport of checked values across phi-joins (safe-phi
propagation).  Section 8: "a dramatic improvement would be the
integration of alias information into the memory handling ... a simple
form of field analysis ... partitioning Mem by field name."
"""

import pytest

from repro.api import compile_source
from repro.driver import PassManager
from repro.interp.interpreter import Interpreter
from repro.opt.cse import run_cse
from repro.opt.memdep import MemDep, partition_of
from repro.opt.safephi import run_safe_phi_propagation
from repro.tsa.verifier import verify_module


def count(function, opcode):
    return sum(1 for b in function.reachable_blocks()
               for i in b.all_instrs() if i.opcode == opcode)


class TestSafePhiPropagation:
    LOOP_SOURCE = """
    class Node {
        int value;
        static int run(int n) {
            Node cur = new Node();
            int total = 0;
            for (int i = 0; i < n; i++) {
                total += cur.value;
                if (i % 3 == 0) cur = new Node();
            }
            return total;
        }
        static void main() { System.out.println(run(10)); }
    }
    """

    def test_loop_carried_safety_promotes_phi(self):
        module = compile_source(self.LOOP_SOURCE)
        function = module.function_named("Node", "run")
        promoted = run_safe_phi_propagation(function)
        assert promoted >= 1
        verify_module(module)
        safe_phis = [p for b in function.blocks for p in b.phis
                     if p.plane.kind == "safe"]
        assert safe_phis

    def test_checks_eliminated_after_promotion(self):
        plain = compile_source(self.LOOP_SOURCE)
        optimized = compile_source(self.LOOP_SOURCE, optimize=True)
        run_fn = lambda m: m.function_named("Node", "run")
        assert count(run_fn(optimized), "nullcheck") \
            < count(run_fn(plain), "nullcheck")
        verify_module(optimized)

    def test_dynamic_check_reduction(self):
        plain = Interpreter(compile_source(self.LOOP_SOURCE))
        plain.run_main("Node")
        optimized = Interpreter(
            compile_source(self.LOOP_SOURCE, optimize=True))
        optimized.run_main("Node")
        assert optimized.check_counts["nullcheck"] \
            < plain.check_counts["nullcheck"]

    def test_not_promoted_when_null_reaches(self):
        source = """
        class Node {
            int value;
            static int run(boolean c) {
                Node cur = new Node();
                if (c) cur = null;
                Node other = cur;
                int total = 0;
                for (int i = 0; i < 2; i++) {
                    if (other != null) total += other.value;
                    other = null;
                    if (i == 0) other = new Node();
                }
                return total;
            }
        }
        """
        module = compile_source(source)
        function = module.function_named("Node", "run")
        run_safe_phi_propagation(function)
        verify_module(module)
        # behaviour check: null path still works
        optimized = compile_source(source, optimize=True)
        verify_module(optimized)
        fn = optimized.function_named("Node", "run")
        result = Interpreter(optimized).run_function(fn, [True])
        assert result.exception is None

    def test_mixed_origin_phi_not_promoted(self):
        source = """
        class Node {
            int value;
            static int run(Node given, boolean c) {
                Node cur = new Node();
                if (c) cur = given;   // unchecked parameter: unsafe
                return cur.value;
            }
        }
        """
        module = compile_source(source)
        function = module.function_named("Node", "run")
        assert run_safe_phi_propagation(function) == 0
        # the check must stay: given may be null
        optimized = compile_source(source, optimize=True)
        fn = optimized.function_named("Node", "run")
        result = Interpreter(optimized).run_function(fn, [None, True])
        assert result.exception_name() == "java.lang.NullPointerException"

    def test_pipeline_with_safephi_preserves_corpus(self):
        from repro.bench.corpus import corpus_source
        source = corpus_source("Parser")
        plain = Interpreter(compile_source(source),
                            max_steps=50_000_000).run_main("Parser")
        optimized_module = compile_source(source, optimize=True)
        verify_module(optimized_module)
        optimized = Interpreter(optimized_module,
                                max_steps=50_000_000).run_main("Parser")
        assert optimized.stdout == plain.stdout


class TestFieldPartitionedMemory:
    def test_partition_keys(self):
        module = compile_source(
            "class T { int a; static int f(T t, int[] xs, double[] ds) {"
            "t.a = 1; xs[0] = 2; ds[0] = 3.0; return t.a + xs[0]; } }")
        function = module.function_named("T", "f")
        kinds = set()
        for block in function.blocks:
            for instr in block.instrs:
                partition = partition_of(instr)
                if partition is not None:
                    kinds.add(partition)
        assert ("field", "T.a") in kinds
        assert ("array", "int") in kinds
        assert ("array", "double") in kinds

    def test_store_to_other_field_does_not_clobber(self):
        source = ("class T { int a; int b; static int f(T t) {"
                  "int x = t.a; t.b = 5; int y = t.a; return x + y; } }")
        module = compile_source(source)
        function = module.function_named("T", "f")
        run_cse(function, partition_memory=True)
        loads = [i for b in function.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert len([l for l in loads if l.field.name == "a"]) == 1
        verify_module(module)

    def test_store_to_same_field_still_clobbers(self):
        source = ("class T { int a; static int f(T t) {"
                  "int x = t.a; t.a = 5; int y = t.a; return x + y; } }")
        module = compile_source(source)
        function = module.function_named("T", "f")
        run_cse(function, partition_memory=True)
        loads = [i for b in function.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert len(loads) == 2

    def test_array_store_does_not_clobber_other_element_type(self):
        source = ("class T { static int f(int[] xs, double[] ds) {"
                  "int x = xs[0]; ds[0] = 1.5; int y = xs[0];"
                  "return x + y; } }")
        module = compile_source(source)
        function = module.function_named("T", "f")
        run_cse(function, partition_memory=True)
        gets = [i for b in function.blocks for i in b.instrs
                if i.opcode == "getelt"
                and str(i.array_type.element) == "int"]
        assert len(gets) == 1
        verify_module(module)

    def test_same_element_type_still_clobbers(self):
        # int[] stores may alias other int[] loads (same partition)
        source = ("class T { static int f(int[] xs, int[] ys) {"
                  "int x = xs[0]; ys[0] = 9; int y = xs[0];"
                  "return x + y; } }")
        module = compile_source(source)
        function = module.function_named("T", "f")
        run_cse(function, partition_memory=True)
        gets = [i for b in function.blocks for i in b.instrs
                if i.opcode == "getelt"]
        assert len(gets) == 2

    def test_calls_clobber_all_partitions(self):
        source = ("class T { int a; static void g() { }"
                  "static int f(T t) {"
                  "int x = t.a; g(); int y = t.a; return x + y; } }")
        module = compile_source(source)
        function = module.function_named("T", "f")
        run_cse(function, partition_memory=True)
        loads = [i for b in function.blocks for i in b.instrs
                 if i.opcode == "getfield"]
        assert len(loads) == 2

    def test_partitioned_mode_preserves_corpus_behaviour(self):
        from repro.bench.corpus import corpus_source
        for name in ("BigInt", "Environment"):
            source = corpus_source(name)
            plain = Interpreter(compile_source(source),
                                max_steps=50_000_000).run_main(name)
            module = compile_source(source)
            PassManager(["constprop", "safephi", "cse_fields",
                         "dce"]).run_module(module)
            verify_module(module)
            result = Interpreter(module, max_steps=50_000_000) \
                .run_main(name)
            assert result.stdout == plain.stdout, name

    def test_partitioned_never_worse_than_unified(self):
        from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
        for name in CORPUS_PROGRAMS:
            source = corpus_source(name)
            unified = compile_source(source)
            PassManager().run_module(unified)
            partitioned = compile_source(source)
            PassManager(["constprop", "safephi", "cse_fields",
                         "dce"]).run_module(partitioned)
            assert partitioned.instruction_count() \
                <= unified.instruction_count(), name
