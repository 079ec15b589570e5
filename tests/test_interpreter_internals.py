"""Interpreter-level tests: frames, dispatch, dynamic check counting,
step limits, direct function invocation, and the ops each interpreter
binds once per block plan."""

import pytest

from repro.api import compile_source
from repro.interp.heap import JStr
from repro.interp.interpreter import Interpreter, StepLimitExceeded
from repro.interp.jit import JitCompiler
from repro.interp.trace import TracingInterpreter
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


DISPATCH_SOURCE = """
class Shape {
    int area() { return 0; }
    public String toString() { return "shape"; }
}
class Square extends Shape {
    int s;
    Square(int s) { this.s = s; }
    int area() { return s * s; }
    public String toString() { return "square" + s; }
}
class Rect extends Shape {
    int w; int h;
    Rect(int w, int h) { this.w = w; this.h = h; }
    int area() { return w * h; }
}
class Tri extends Rect {
    Tri(int w, int h) { super(w, h); }
    int area() { return w * h / 2; }
    public String toString() { return "tri"; }
}
class Main {
    static int total(Shape[] shapes) {
        int sum = 0;
        for (int i = 0; i < shapes.length; i++) {
            sum = sum + shapes[i].area();
        }
        return sum;
    }
    static String show(Object o) { return o.toString(); }
    static void main() {
        Shape[] shapes = new Shape[8];
        for (int i = 0; i < shapes.length; i++) {
            if (i % 4 == 0) shapes[i] = new Square(i);
            else if (i % 4 == 1) shapes[i] = new Rect(i, 2);
            else if (i % 4 == 2) shapes[i] = new Tri(i, 3);
            else shapes[i] = new Shape();
        }
        System.out.println(total(shapes));
        String text = "";
        for (int i = 0; i < shapes.length; i++) {
            text = text + show(shapes[i]) + " " + show("s" + i) + ";";
        }
        System.out.println(text);
        System.out.println(show("done").length());
    }
}
"""


def _bytecode_stdout(source: str, main_class: str) -> str:
    from repro.driver import CompilationSession
    from repro.jvm import BytecodeInterpreter
    session = CompilationSession(cache=False)
    classes = session.compile_to_classfiles(source)
    _unit, world = session.frontend(source)
    result = BytecodeInterpreter(classes, world).run_main(main_class)
    assert result.exception is None
    return result.stdout


class TestBoundCallSites:
    def test_polymorphic_and_builtin_receivers_match_every_tier(
            self, monkeypatch):
        module = compile_source(DISPATCH_SOURCE)
        expected = _bytecode_stdout(DISPATCH_SOURCE, "Main")
        assert expected.splitlines()[0] == "40"
        resolved = []
        resolve = Interpreter._resolve_virtual

        def recording(self, receiver, method):
            cls = "java.lang.String" if isinstance(receiver, JStr) \
                else receiver.class_info.name
            resolved.append((id(self), method.name, cls))
            return resolve(self, receiver, method)

        monkeypatch.setattr(Interpreter, "_resolve_virtual", recording)
        for _ in range(2):  # fresh runners over one module
            for runner in (Interpreter(module),
                           TracingInterpreter(module, threshold=2),
                           JitCompiler(module)):
                result = runner.run_main("Main")
                assert result.exception is None
                assert result.stdout == expected
        interpreters = {key for key, _name, _cls in resolved}
        assert len(interpreters) == 4
        for key in interpreters:
            area = [cls for k, name, cls in resolved
                    if k == key and name == "area"]
            # one site, eight calls: one resolution per receiver class
            assert sorted(area) == ["Rect", "Shape", "Square", "Tri"]
            shown = {cls for k, name, cls in resolved
                     if k == key and name == "toString"}
            assert {"java.lang.String", "Square", "Tri"} <= shown


class TestRunnerIsolation:
    SOURCE = """
class Counter {
    static int runs;
    static void main() {
        runs = runs + 1;
        int[] a = new int[3];
        for (int i = 0; i < a.length; i++) a[i] = runs;
        System.out.println("run " + runs + " " + a[2]);
    }
}
"""

    def test_two_interpreters_keep_their_own_state(self):
        module = compile_source(self.SOURCE)
        first = Interpreter(module)
        second = Interpreter(module)
        assert first.run_main().stdout == "run 1 1\n"
        once = dict(first.check_counts)
        assert once["idxcheck"] == 4
        assert second.run_main().stdout == "run 1 1\n"
        assert first.run_main().stdout == "run 1 1\nrun 2 2\n"
        assert second.check_counts == once
        assert first.check_counts == {kind: 2 * count
                                      for kind, count in once.items()}
        assert second.run_main().stdout == "run 1 1\nrun 2 2\n"
        assert second.steps == first.steps
