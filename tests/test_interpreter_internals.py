"""Interpreter-level tests: frames, dispatch, dynamic check counting,
step limits, and direct function invocation."""

import pytest

from repro.api import compile_source
from repro.interp.heap import JStr
from repro.interp.interpreter import Interpreter, StepLimitExceeded
from tests.conftest import main_wrap


class TestDirectInvocation:
    def test_run_function_with_arguments(self):
        module = compile_source(
            "class T { static int add(int a, int b) { return a + b; } }")
        fn = module.function_named("T", "add")
        result = Interpreter(module).run_function(fn, [20, 22])
        assert result.value == 42

    def test_run_function_with_reference_argument(self):
        module = compile_source(
            "class T { static int len(String s) { return s.length(); } }")
        fn = module.function_named("T", "len")
        result = Interpreter(module).run_function(fn, [JStr("abcd")])
        assert result.value == 4

    def test_exception_propagates_to_result(self):
        module = compile_source(
            "class T { static int bad(String s) { return s.length(); } }")
        fn = module.function_named("T", "bad")
        result = Interpreter(module).run_function(fn, [None])
        assert result.exception_name() == "java.lang.NullPointerException"
        assert result.value is None

    def test_instance_method_with_this(self):
        module = compile_source(
            "class T { int v; T(int v) { this.v = v; }"
            "int doubled() { return v * 2; } }")
        interp = Interpreter(module)
        ctor = next(f for m, f in module.functions.items()
                    if m.is_constructor)
        from repro.interp.heap import ObjectRef
        obj = ObjectRef(module.world.require("T"))
        interp.run_function(ctor, [obj, 21])
        doubled = module.function_named("T", "doubled")
        result = Interpreter(module).run_function(doubled, [obj])
        assert result.value == 42


class TestLimitsAndCounters:
    def test_step_limit_enforced(self):
        module = compile_source(main_wrap("while (true) { }"))
        interp = Interpreter(module, max_steps=1000)
        with pytest.raises(StepLimitExceeded):
            interp.run_main()

    def test_check_counters_track_dynamic_checks(self):
        module = compile_source(main_wrap(
            "int[] a = new int[10];"
            "for (int i = 0; i < 10; i++) a[i] = i;"))
        interp = Interpreter(module)
        interp.run_main()
        assert interp.check_counts["idxcheck"] == 10
        assert interp.check_counts["nullcheck"] >= 10

    def test_clinit_runs_once_in_declaration_order(self):
        source = """
        class A { static int x = Trace.mark(1); }
        class B { static int y = Trace.mark(2) + A.x; }
        class Trace {
            static int log;
            static int mark(int v) { log = log * 10 + v; return v; }
        }
        class Main { static void main() {
            System.out.println(Trace.log + " " + B.y);
        } }
        """
        module = compile_source(source)
        result = Interpreter(module).run_main("Main")
        assert result.stdout == "12 3\n"

    def test_main_selection_by_class(self):
        source = ("class A { static void main() "
                  "{ System.out.println(\"A\"); } }"
                  "class B { static void main() "
                  "{ System.out.println(\"B\"); } }")
        module = compile_source(source)
        assert Interpreter(module).run_main("B").stdout == "B\n"
        assert Interpreter(module).run_main("A").stdout == "A\n"

    def test_missing_main_reported(self):
        module = compile_source("class T { }")
        from repro.interp.interpreter import InterpreterError
        with pytest.raises(InterpreterError, match="no static main"):
            Interpreter(module).run_main()


class TestDeepRecursion:
    def test_recursion_to_moderate_depth(self):
        module = compile_source(
            "class T { static int depth(int n) {"
            "if (n == 0) return 0; return 1 + depth(n - 1); } }")
        fn = module.function_named("T", "depth")
        import sys
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(10000)
        try:
            result = Interpreter(module).run_function(fn, [300])
        finally:
            sys.setrecursionlimit(old)
        assert result.value == 300
