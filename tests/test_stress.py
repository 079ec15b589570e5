"""Stress tests: deep nesting, many locals, large methods, edge shapes."""

import pytest

from repro.api import compile_source
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.tsa.verifier import verify_module


def run_full_pipeline(source, main_class, expect):
    for optimize in (False, True):
        module = compile_source(source, optimize=optimize)
        verify_module(module)
        decoded = decode_module(encode_module(module))
        result = Interpreter(decoded, max_steps=80_000_000) \
            .run_main(main_class)
        assert result.exception is None, result.exception_name()
        assert result.stdout == expect, (optimize, result.stdout)


def test_deeply_nested_ifs():
    depth = 18
    body = "int x = 0;\n"
    for i in range(depth):
        body += f"if (n > {i}) {{ x = x + {i + 1};\n"
    body += "x = x * 2;\n" + "}" * depth + "\nSystem.out.println(x);"
    source = (f"class Deep {{ static void main() {{ int n = 10;\n{body}\n"
              "} }")
    # n = 10: conditions 0..9 true; the innermost doubling happens at
    # depth 10 where the chain stops
    expected_x = sum(range(1, 11))
    run_full_pipeline(source, "Deep", f"{expected_x}\n")


def test_deeply_nested_loops():
    depth = 8
    open_loops = "".join(
        f"for (int i{k} = 0; i{k} < 2; i{k}++) {{\n" for k in range(depth))
    source = ("class Nest { static void main() { int count = 0;\n"
              + open_loops + "count++;\n" + "}" * depth
              + "\nSystem.out.println(count); } }")
    run_full_pipeline(source, "Nest", f"{2 ** depth}\n")


def test_many_locals_and_phis():
    names = [f"v{i}" for i in range(40)]
    decls = "".join(f"int {n} = {i};\n" for i, n in enumerate(names))
    updates = "".join(f"{n} = {n} + 1;\n" for n in names)
    total = " + ".join(names)
    source = ("class Many { static void main() {\n" + decls
              + "for (int r = 0; r < 3; r++) {\n" + updates + "}\n"
              + f"System.out.println({total});\n}} }}")
    expected = sum(range(40)) + 40 * 3
    run_full_pipeline(source, "Many", f"{expected}\n")


def test_long_straightline_method():
    body = "int acc = 1;\n" + "".join(
        f"acc = acc * 3 + {i % 7};\nacc = acc % 100019;\n"
        for i in range(250))
    source = ("class Line { static void main() {\n" + body
              + "System.out.println(acc); } }")
    module = compile_source(source, optimize=True)
    verify_module(module)
    plain = Interpreter(compile_source(source)).run_main("Line")
    optimized = Interpreter(module).run_main("Line")
    assert plain.stdout == optimized.stdout
    decoded = decode_module(encode_module(module))
    assert Interpreter(decoded).run_main("Line").stdout == plain.stdout


def test_nested_try_pyramid():
    depth = 6
    source = "class Pyramid { static void main() {\nint mark = 0;\n"
    for i in range(depth):
        source += f"try {{ mark = mark * 10 + {i + 1};\n"
    source += "int z = 0; int boom = 1 / z;\n"
    for i in reversed(range(depth)):
        source += ("} catch (ArithmeticException e) { "
                   f"mark = mark * 10 + {i + 1}; throw e; }}\n"
                   if i > 0 else
                   "} catch (ArithmeticException e) { "
                   "mark = mark * 10 + 9; }\n")
    source += "System.out.println(mark);\n} }"
    run_full_pipeline(source, "Pyramid", _pyramid_expected(depth))


def _pyramid_expected(depth):
    from repro import jmath
    mark = 0
    for i in range(depth):
        mark = jmath.i32(jmath.i32(mark * 10) + (i + 1))
    for i in reversed(range(depth)):
        mark = jmath.i32(jmath.i32(mark * 10)
                         + ((i + 1) if i > 0 else 9))
    return f"{mark}\n"


def test_switch_with_many_cases():
    cases = "".join(f"case {i}: r = {i * i}; break;\n" for i in range(30))
    source = ("class Sw { static void main() { int total = 0;\n"
              "for (int i = 0; i < 35; i++) { int r = -1;\n"
              f"switch (i) {{ {cases} default: r = 0; }}\n"
              "total += r; }\nSystem.out.println(total); } }")
    expected = sum(i * i for i in range(30))
    run_full_pipeline(source, "Sw", f"{expected}\n")


def test_wide_expression_tree():
    expr = " + ".join(f"(n * {i} - {i % 5})" for i in range(60))
    source = ("class Wide { static void main() { int n = 3;\n"
              f"System.out.println({expr}); }} }}")
    n = 3
    expected = sum(n * i - i % 5 for i in range(60))
    run_full_pipeline(source, "Wide", f"{expected}\n")
