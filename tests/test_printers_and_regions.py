"""Printer smoke tests plus wire coverage for every CST region kind."""

import pytest

from repro.api import compile_source
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.ssa.cst import (
    RBasic,
    RDoWhile,
    RIf,
    RLabeled,
    RLoop,
    RSeq,
    RTry,
    RWhile,
    iter_regions,
)
from repro.ssa.printer import format_function, format_module
from repro.tsa.verifier import verify_module
from repro.uast.printer import format_method


def roundtrip_and_run(source, main_class, region_kinds):
    module = compile_source(source)
    found = set()
    for function in module.functions.values():
        for region in iter_regions(function.cst):
            found.add(type(region))
    for kind in region_kinds:
        assert kind in found, f"{kind.__name__} not exercised"
    expected = Interpreter(module).run_main(main_class)
    decoded = decode_module(encode_module(module))
    verify_module(decoded)
    actual = Interpreter(decoded).run_main(main_class)
    assert actual.stdout == expected.stdout
    return expected.stdout


class TestRegionWireCoverage:
    def test_dowhile_region_round_trips(self):
        out = roundtrip_and_run(
            "class T { static void main() {"
            "int n = 0; do { n += 2; } while (n < 10);"
            "System.out.println(n); } }",
            "T", [RDoWhile])
        assert out == "10\n"

    def test_loop_region_round_trips(self):
        out = roundtrip_and_run(
            "class T { static void main() {"
            "int n = 0; while (true) { n++; if (n == 7) break; }"
            "System.out.println(n); } }",
            "T", [RLoop])
        assert out == "7\n"

    def test_labeled_region_round_trips(self):
        out = roundtrip_and_run(
            "class T { static void main() {"
            "int c = 0;"
            "outer: for (int i = 0; i < 4; i++) {"
            "  for (int j = 0; j < 4; j++) {"
            "    if (i + j == 4) continue outer;"
            "    c++; } }"
            "System.out.println(c); } }",
            "T", [RLabeled, RWhile])
        assert out == "10\n"

    def test_try_region_round_trips(self):
        out = roundtrip_and_run(
            "class T { static void main() {"
            "try { int z = 0; int q = 1 / z; }"
            "catch (ArithmeticException e) { System.out.println(\"c\"); }"
            "} }",
            "T", [RTry, RIf, RSeq, RBasic])
        assert out == "c\n"

    def test_all_kinds_in_one_method(self):
        source = """
        class T { static void main() {
            int acc = 0;
            do { acc++; } while (acc < 3);
            while (true) { acc++; if (acc > 5) break; }
            lab: { if (acc > 0) break lab; acc = -1; }
            try { acc = acc / (acc - acc); }
            catch (ArithmeticException e) { acc += 10; }
            System.out.println(acc);
        } }
        """
        out = roundtrip_and_run(source, "T",
                                [RDoWhile, RLoop, RLabeled, RTry])
        assert out == "16\n"


class TestPrinters:
    def test_uast_printer_covers_nodes(self):
        from repro.frontend.parser import parse_compilation_unit
        from repro.frontend.semantics import analyze
        from repro.uast.builder import build_uast
        source = """
        class P {
            int f;
            static int go(int[] xs, boolean c) {
                int total = xs.length;
                do { total--; } while (total > 0 && c);
                try { total = xs[0] / total; }
                catch (ArithmeticException e) { throw e; }
                switch (total) { case 1: total = 2; break; }
                P p = new P();
                p.f = total;
                return p.f;
            }
        }
        """
        unit = parse_compilation_unit(source)
        world = analyze(unit)
        for umethod in build_uast(unit.classes[0], world):
            text = format_method(umethod)
            assert umethod.method.name in text
            assert text.count("\n") > 0

    def test_ssa_printer_output_is_parseable_shape(self):
        module = compile_source(
            "class T { static int f(int a) {"
            "if (a > 0) return a; return -a; } }")
        text = format_module(module)
        assert "function T.f(int)" in text
        assert "branch" in text
        assert "; preds:" in text
        # every value appears with its id
        assert "v" in text

    def test_printer_marks_exception_preds(self):
        module = compile_source(
            "class T { static int f(int a, int b) {"
            "try { return a / b; }"
            "catch (ArithmeticException e) { return 0; } } }")
        text = format_module(module)
        assert "!" in text  # exception predecessor marker
        assert "caughtexc" in text

    def test_plane_and_describe_strings(self):
        from repro.ssa.ir import Const, Plane
        from repro.typesys.types import ClassType, INT
        assert str(Plane.of_type(INT)) == "int"
        assert str(Plane.safe(ClassType("X"))) == "safe:X"
        const = Const(INT, 42)
        assert "42" in const.describe()
        assert str(Plane.safe_index(const)).startswith("safeidx:v")


class TestLrDisassembly:
    def test_lr_notation_shape(self):
        from repro.tsa.disasm import format_function_lr
        module = compile_source(
            "class T { static int f(boolean c, int i, int j) {"
            "int x; if (c) { x = i + j; } else { x = i - j; }"
            "return x * 2; } }")
        text = format_function_lr(module.function_named("T", "f"))
        # registers fill per plane from r0
        assert "boolean            r0 <- param 0" in text
        assert "int                r0 <- param 1" in text
        assert "int                r1 <- param 2" in text
        # dominator-relative references
        assert "(1-0) (1-1)" in text
        # the phi merges the two branch values with l = 0
        assert "phi (0-0) (0-0)" in text

    def test_lr_covers_corpus(self):
        from repro.tsa.disasm import format_module_lr
        from repro.bench.corpus import corpus_source
        module = compile_source(corpus_source("BinaryCode"),
                                optimize=True)
        text = format_module_lr(module)
        assert "caughtexc" in text
        assert "xdispatch" in text or "xcall" in text
        assert "(0-" in text and "(1-" in text

    def test_cli_lr_flag(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "T.java"
        path.write_text("class T { static int f(int a) { return -a; } }")
        assert main(["disasm", str(path), "--lr"]) == 0
        out = capsys.readouterr().out
        assert "r0 <-" in out
