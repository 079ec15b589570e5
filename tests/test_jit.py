"""Consumer-side code generation (repro.interp.jit) tests.

The JIT must be observably identical to the interpreter on every
program -- exceptions, dispatch, covariance checks included.
"""

import traceback
from pathlib import Path

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.cache import TraceCache
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import (
    AllocationLimitExceeded,
    Interpreter,
    InterpreterError,
)
from repro.interp import jit as jit_module
from repro.interp.jit import JitCompiler
from repro.interp.trace import TracingInterpreter
from repro.loader import load_module
from tests.conftest import main_wrap


def jit_run(source, main_class=None, optimize=False):
    module = compile_source(source, optimize=optimize)
    return JitCompiler(module).run_main(main_class)


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_jit_matches_interpreter_on_corpus(program):
    source = corpus_source(program)
    module = compile_source(source, optimize=True)
    expected = Interpreter(module, max_steps=80_000_000).run_main(program)
    actual = JitCompiler(module).run_main(program)
    assert actual.stdout == expected.stdout
    assert actual.exception_name() == expected.exception_name()


def test_jit_runs_decoded_modules():
    source = corpus_source("BitSieve")
    module = decode_module(encode_module(
        compile_source(source, optimize=True)))
    result = JitCompiler(module).run_main("BitSieve")
    assert result.stdout.startswith("primes=2262")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "opt"])
@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_jit_on_decoded_artifacts_matches_golden(program, optimize):
    """The consumer-side story end to end: the producer encodes, the
    consumer decodes the wire artifact and JITs it.  Stdout must match
    the pinned golden output byte for byte, for both the plain and the
    optimized artifact."""
    source = corpus_source(program)
    wire = encode_module(compile_source(source, optimize=optimize))
    result = JitCompiler(decode_module(wire)).run_main(program)
    golden = Path(__file__).parent / "golden" / f"{program}.out"
    assert result.stdout == golden.read_text()
    assert result.exception_name() is None


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "opt"])
def test_jit_exception_paths_through_wire(optimize):
    """Interpreter vs JIT on the same decoded artifact where the
    interesting path runs *through* try/finally: the finally body must
    execute, then the uncaught exception must escape identically."""
    src = """
    class Main {
        static int poke(int[] xs, int i) {
            try { xs[i] = 1; return xs[0]; }
            finally { System.out.println("fin " + i); }
        }
        static void main() {
            int[] xs = new int[2];
            System.out.println(poke(xs, 1));
            System.out.println(poke(xs, 5));
        }
    }
    """
    module = decode_module(encode_module(
        compile_source(src, optimize=optimize)))
    expected = Interpreter(module).run_main("Main")
    actual = JitCompiler(module).run_main("Main")
    assert actual.stdout == expected.stdout
    assert actual.stdout == "fin 1\n0\nfin 5\n"
    assert actual.exception_name() == expected.exception_name()
    assert actual.exception_name() \
        == "java.lang.ArrayIndexOutOfBoundsException"


class TestJitSemantics:
    def test_arithmetic_wrapping(self):
        result = jit_run(main_wrap(
            "int x = 2147483647; System.out.println(x + 1);"))
        assert result.stdout == "-2147483648\n"

    def test_exception_caught(self):
        result = jit_run(main_wrap(
            "try { int z = 0; int q = 1 / z; }"
            "catch (ArithmeticException e)"
            "{ System.out.println(\"caught \" + e.getMessage()); }"))
        assert result.stdout == "caught / by zero\n"

    def test_exception_propagates(self):
        result = jit_run(main_wrap("String s = null; int n = s.length();"))
        assert result.exception_name() == "java.lang.NullPointerException"

    def test_finally_on_all_paths(self):
        src = """
        class Main {
            static int f(boolean fail) {
                try {
                    if (fail) { int z = 0; return 1 / z; }
                    return 1;
                } finally { System.out.println("fin"); }
            }
            static void main() {
                System.out.println(f(false));
                try { f(true); }
                catch (ArithmeticException e) { System.out.println("top"); }
            }
        }
        """
        result = jit_run(src)
        assert result.stdout == "fin\n1\nfin\ntop\n"

    def test_virtual_dispatch_memoization(self):
        src = """
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class Main {
            static void main() {
                A[] xs = new A[6];
                for (int i = 0; i < 6; i++)
                    xs[i] = (i % 2 == 0) ? new A() : new B();
                int total = 0;
                for (int i = 0; i < 6; i++) total += xs[i].f();
                System.out.println(total);
            }
        }
        """
        assert jit_run(src, "Main").stdout == "9\n"

    def test_recursion_between_jitted_functions(self):
        src = """
        class Main {
            static boolean even(int n) { return n == 0 ? true : odd(n - 1); }
            static boolean odd(int n) { return n == 0 ? false : even(n - 1); }
            static void main() { System.out.println(even(101)); }
        }
        """
        assert jit_run(src).stdout == "false\n"

    def test_array_store_check(self):
        src = """
        class A { }
        class B extends A { }
        class Main {
            static void main() {
                A[] arr = new B[1];
                try { arr[0] = new A(); }
                catch (ArrayStoreException e)
                { System.out.println("store"); }
            }
        }
        """
        assert jit_run(src, "Main").stdout == "store\n"

    def test_string_interning_identity(self):
        result = jit_run(main_wrap(
            'String a = "x"; String b = "x";'
            "System.out.println(a == b);"))
        assert result.stdout == "true\n"

    def test_clinit_runs_before_main(self):
        src = ("class Config { static int limit = 17; }"
               "class Main { static void main() "
               "{ System.out.println(Config.limit); } }")
        assert jit_run(src, "Main").stdout == "17\n"

    def test_optimized_module_same_behaviour(self):
        source = corpus_source("Parser")
        plain = jit_run(source, "Parser", optimize=False)
        optimized = jit_run(source, "Parser", optimize=True)
        assert plain.stdout == optimized.stdout


def test_block_dispatch_does_not_nest():
    """One flat ``if`` per block: an ``elif`` chain nests one level per
    block, and ``compile()`` raised ``RecursionError`` on a main of 5001
    blocks."""
    module = compile_source(corpus_source("MiniVM"))
    for function in module.functions.values():
        emitter = jit_module._Emitter()
        jit_module._FunctionTranslator(function, emitter).translate("_jit")
        arms = [line for line in emitter.lines
                if line.lstrip().startswith(("if _b ==", "elif _b =="))]
        assert len({len(line) - len(line.lstrip()) for line in arms}) <= 1
        assert not any(arm.lstrip().startswith("elif") for arm in arms)


def test_jit_is_faster_than_interpreter():
    import time
    source = corpus_source("BitSieve")
    module = compile_source(source, optimize=True)
    start = time.perf_counter()
    Interpreter(module, max_steps=80_000_000).run_main("BitSieve")
    interp_time = time.perf_counter() - start
    jit = JitCompiler(module)
    start = time.perf_counter()
    jit.run_main("BitSieve")
    jit_time = time.perf_counter() - start
    assert jit_time < interp_time, \
        f"jit {jit_time:.3f}s not faster than interp {interp_time:.3f}s"


# ----------------------------------------------------------------------
# every tier runs an accepted module alike, failures included

#: a wire mutant the loader accepts (fuzz seed 0, v1 stream lane, the
#: 1501st mutant: the ``dispatch`` base under the ``zero`` mutator,
#: ddmin-shrunk from 103 bytes): the virtual method ``A.get`` arrives
#: named ``"\x00et"``, and ``main`` prints 21 through it
NUL_NAME_MUTANT = bytes.fromhex(
    "5354534131212092112a21d2093b00c800cae84273c696e69743e27d919d95d0"
    "84e78d2dcd2e87c4fb2b6b0b4b753ce78d2dcd2e87c4f283633d28320c23df50"
    "1419467c005209ca0c831dfba506335eef98ebd5e8002ba76ac55af7dd3e594a"
    "0c8308ffd400")


def every_tier(module):
    return (Interpreter(module),
            TracingInterpreter(module, threshold=1,
                               trace_cache=TraceCache()),
            JitCompiler(module))


class TestEveryTierAlike:
    def test_a_nul_in_a_method_name_runs_under_every_tier(self):
        module = load_module(NUL_NAME_MUTANT)
        assert "\x00et" in [method.name for method in module.functions]
        for runner in every_tier(module):
            result = runner.run_main()
            assert (result.stdout, result.exception) == ("21\n", None)

    def test_a_reachable_unreachable_leaf_is_an_interpreter_error(self):
        # the module the decoder now rejects (DEC-CST), built in-process
        module = compile_source('class T { public static void main('
                                'String[] a) { System.out.println("hi"); '
                                '} }')
        main = module.function_named("T", "main")
        for block in main.blocks:
            if block.term is not None and block.term.kind == "return":
                block.term.kind = "unreachable"
        for runner in every_tier(module):
            with pytest.raises(InterpreterError) as caught:
                runner.run_main()
            assert str(caught.value) == \
                "reached unreachable terminator in T.main(java.lang.String[])"

    # ``(i / 5) << 20`` reaches 1 << 20 once a trace runs the loop
    @pytest.mark.parametrize("length, in_trace",
                             [("1 << 20", False), ("(i / 5) << 20", True)],
                             ids=["straight", "in-trace"])
    def test_every_tier_keeps_the_allocation_cap(self, length, in_trace):
        module = compile_source(main_wrap(f"""
            int total = 0;
            for (int i = 0; i < 8; i++) {{
                int[] a = new int[{length}];
                total = total + a.length;
            }}
            System.out.println(total);
        """))
        for runner in every_tier(module):
            runner.max_array_length = 1 << 16
            with pytest.raises(AllocationLimitExceeded) as caught:
                runner.run_main("Main")
            assert runner.runtime.stdout == []
            if in_trace and isinstance(runner, TracingInterpreter):
                frames = traceback.extract_tb(caught.value.__traceback__)
                assert frames[-2].filename.startswith("<trace:")
