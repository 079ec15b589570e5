"""Bytecode baseline tests: codegen, class files, interpreter, verifier."""

import pytest

from repro.api import compile_source
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.interp.interpreter import Interpreter
from repro.jvm.classfile import class_file_bytes
from repro.jvm.codegen import compile_unit
from repro.jvm.interp import BytecodeInterpreter
from repro.jvm.opcodes import Insn, insn_size
from repro.jvm.verifier import BytecodeVerifyError, verify_class, \
    verify_method
from repro.uast.builder import UastBuilder


def compile_bc(source: str):
    unit = parse_compilation_unit(source)
    world = analyze(unit)
    builder = UastBuilder(world)
    classes = compile_unit(world, {decl.info: builder.build_class(decl)
                                   for decl in unit.classes})
    return world, classes


def run_bc(source: str, main_class=None):
    world, classes = compile_bc(source)
    return BytecodeInterpreter(classes, world,
                               max_steps=50_000_000).run_main(main_class)


def method_named(classes, name):
    for cls in classes:
        for method in cls.methods:
            if method.method.name == name:
                return method
    raise KeyError(name)


class TestInsnSizes:
    def test_iconst_forms(self):
        assert insn_size(Insn("iconst", 3)) == 1
        assert insn_size(Insn("iconst", -1)) == 1
        assert insn_size(Insn("iconst", 100)) == 2   # bipush
        assert insn_size(Insn("iconst", 1000)) == 3  # sipush
        assert insn_size(Insn("iconst", 100000)) == 2  # ldc

    def test_load_forms(self):
        assert insn_size(Insn("iload", 0)) == 1
        assert insn_size(Insn("iload", 3)) == 1
        assert insn_size(Insn("iload", 4)) == 2
        assert insn_size(Insn("aload", 300)) == 4  # wide

    def test_member_refs_are_three_bytes(self):
        assert insn_size(Insn("getfield", None)) == 3
        assert insn_size(Insn("invokevirtual", None)) == 3

    def test_branches_are_three_bytes(self):
        assert insn_size(Insn("goto", 0)) == 3
        assert insn_size(Insn("if_icmplt", 0)) == 3


class TestCodegen:
    def test_comparison_fuses_into_branch(self):
        _, classes = compile_bc(
            "class T { static int f(int a, int b) {"
            "if (a < b) return 1; return 0; } }")
        ops = [i.op for i in method_named(classes, "f").insns]
        assert "if_icmpge" in ops  # negated fused comparison
        # no boolean materialisation for a bare if
        assert ops.count("iconst") <= 2

    def test_comparison_against_zero_uses_short_form(self):
        _, classes = compile_bc(
            "class T { static int f(int a) {"
            "if (a > 0) return 1; return 0; } }")
        ops = [i.op for i in method_named(classes, "f").insns]
        assert "ifle" in ops

    def test_null_comparison_uses_ifnull(self):
        _, classes = compile_bc(
            "class T { static int f(String s) {"
            "if (s == null) return 1; return 0; } }")
        ops = [i.op for i in method_named(classes, "f").insns]
        assert "ifnonnull" in ops or "ifnull" in ops

    def test_long_slots_are_double_width(self):
        _, classes = compile_bc(
            "class T { static long f(long a, long b) { return a + b; } }")
        compiled = method_named(classes, "f")
        assert compiled.max_locals >= 4

    def test_multianewarray_emitted(self):
        _, classes = compile_bc(
            "class T { static int f() {"
            "int[][] g = new int[2][3]; return g[1][2]; } }")
        ops = [i.op for i in method_named(classes, "f").insns]
        assert "multianewarray" in ops

    def test_exception_table_in_clause_order(self):
        _, classes = compile_bc(
            "class E1 extends RuntimeException { }"
            "class T { static int f() {"
            "try { return 1; } catch (E1 a) { return 2; }"
            "catch (RuntimeException b) { return 3; } } }")
        compiled = method_named(classes, "f")
        assert len(compiled.exception_table) == 2
        first, second = compiled.exception_table
        assert first[3].name == "E1"
        assert second[3].name == "java.lang.RuntimeException"

    def test_string_constants_use_ldc(self):
        _, classes = compile_bc(
            'class T { static String f() { return "hi"; } }')
        ops = [i.op for i in method_named(classes, "f").insns]
        assert "ldc_string" in ops


class TestClassFile:
    def test_real_class_file_header(self):
        _, classes = compile_bc("class T { int x; void f() { } }")
        data = class_file_bytes(classes[0])
        assert data[:4] == b"\xCA\xFE\xBA\xBE"

    def test_constant_pool_deduplicates(self):
        _, classes = compile_bc(
            'class T { static String f() { return "a"; }'
            'static String g() { return "a"; } }')
        data = class_file_bytes(classes[0])
        assert data.count(b"\x01\x00\x01a") == 1  # utf8 "a" appears once

    def test_size_grows_with_code(self):
        _, small = compile_bc("class T { void f() { } }")
        _, large = compile_bc(
            "class T { void f() { int s = 0;"
            + "s = s + 1;" * 50 + "} }")
        assert len(class_file_bytes(large[0])) > \
            len(class_file_bytes(small[0]))

    def test_exception_table_in_bytes(self):
        _, classes = compile_bc(
            "class T { static int f() {"
            "try { return 1; } catch (RuntimeException e) { return 2; } } }")
        data = class_file_bytes(classes[0])
        assert len(data) > 100


class TestBytecodeInterpreter:
    def test_arithmetic_matches_safetsa(self):
        source = ("class T { static void main() {"
                  "System.out.println(-2147483648 / -1);"
                  "System.out.println(7L * 3L);"
                  "System.out.println(1.5 % 0.7);"
                  "} }")
        bc = run_bc(source)
        ts = Interpreter(compile_source(source)).run_main()
        assert bc.stdout == ts.stdout

    def test_exception_dispatch(self):
        source = ("class T { static void main() {"
                  "try { int[] a = new int[2]; a[5] = 1; }"
                  "catch (ArrayIndexOutOfBoundsException e)"
                  "{ System.out.println(\"caught \" + e.getMessage()); }"
                  "} }")
        bc = run_bc(source)
        assert bc.stdout.startswith("caught Index 5")

    def test_virtual_dispatch(self):
        source = ("class A { int f() { return 1; } }"
                  "class B extends A { int f() { return 2; } }"
                  "class T { static void main() {"
                  "A[] xs = new A[2]; xs[0] = new A(); xs[1] = new B();"
                  "System.out.println(xs[0].f() + xs[1].f()); } }")
        assert run_bc(source, "T").stdout == "3\n"

    def test_npe_on_null_receiver(self):
        source = ("class A { int f() { return 1; } }"
                  "class T { static void main() {"
                  "A a = null; a.f(); } }")
        result = run_bc(source, "T")
        assert result.exception_name() == "java.lang.NullPointerException"

    def test_boolean_display(self):
        source = ("class T { static void main() {"
                  "int a = 3; boolean b = a > 2;"
                  "System.out.println(b); System.out.println(!b); } }")
        assert run_bc(source).stdout == "true\nfalse\n"

    def test_finally_semantics(self):
        source = ("class T { static int f() {"
                  "try { return 1; } finally { System.out.println(\"fin\"); }"
                  "} static void main() { System.out.println(f()); } }")
        assert run_bc(source).stdout == "fin\n1\n"


class TestBytecodeVerifier:
    def test_corpus_verifies(self):
        from repro.bench.corpus import corpus_source
        world, classes = compile_bc(corpus_source("Parser"))
        for cls in classes:
            assert verify_class(world, cls) > 0

    def test_stack_underflow_rejected(self):
        world, classes = compile_bc(
            "class T { static int f(int a) { return a; } }")
        compiled = method_named(classes, "f")
        compiled.insns.insert(0, Insn("pop"))
        with pytest.raises(BytecodeVerifyError, match="underflow"):
            verify_method(world, compiled)

    def test_type_confusion_rejected(self):
        world, classes = compile_bc(
            "class T { static int f(int a) { return a; } }")
        compiled = method_named(classes, "f")
        # iload of slot 0 then areturn-style misuse: make it fload
        compiled.insns[0] = Insn("fload", 0)
        with pytest.raises(BytecodeVerifyError):
            verify_method(world, compiled)

    def test_falling_off_end_rejected(self):
        world, classes = compile_bc(
            "class T { static void f() { } }")
        compiled = method_named(classes, "f")
        compiled.insns = compiled.insns[:-1]  # drop the return
        with pytest.raises(BytecodeVerifyError):
            verify_method(world, compiled)

    def test_join_depth_mismatch_rejected(self):
        world, classes = compile_bc(
            "class T { static int f(boolean b) {"
            "if (b) return 1; return 0; } }")
        compiled = method_named(classes, "f")
        # push an extra value on one path only
        index = next(i for i, insn in enumerate(compiled.insns)
                     if insn.op.startswith("if"))
        compiled.insns.insert(index + 1, Insn("iconst", 7))
        with pytest.raises(BytecodeVerifyError):
            verify_method(world, compiled)


class TestDifferentialHarness:
    SOURCES = [
        "class T { static void main() { int s = 0;"
        "for (int i = 1; i <= 10; i++) s += i * i;"
        "System.out.println(s); } }",

        "class T { static void main() {"
        "String out = \"\"; char c = 'a';"
        "while (c <= 'e') { out = out + c; c = (char)(c + 1); }"
        "System.out.println(out); } }",

        "class T { static void main() {"
        "double acc = 1.0; for (int i = 0; i < 8; i++) acc = acc * 1.5;"
        "System.out.println(acc); } }",

        "class T { static void main() {"
        "long h = 1125899906842597L;"
        "for (int i = 0; i < 5; i++) h = h * 31L + i;"
        "System.out.println(h); } }",
    ]

    @pytest.mark.parametrize("index", range(len(SOURCES)))
    def test_bytecode_vs_safetsa(self, index):
        source = self.SOURCES[index]
        bc = run_bc(source)
        ts = Interpreter(compile_source(source)).run_main()
        assert bc.stdout == ts.stdout
        assert bc.exception_name() == ts.exception_name()


class TestVerifierDataflow:
    def test_handler_entry_state_is_one_exception(self):
        world, classes = compile_bc(
            "class T { static int f() {"
            "try { return g(); } catch (RuntimeException e) "
            "{ return e.hashCode(); } }"
            "static int g() { return 1; } }")
        compiled = method_named(classes, "f")
        steps = verify_method(world, compiled)
        assert steps > 0
        # the handler entry (astore of the caught exception) was reached
        handler_pcs = {entry[2] for entry in compiled.exception_table}
        assert handler_pcs, "try must produce an exception-table entry"

    def test_loop_requires_fixpoint_iteration(self):
        world, classes = compile_bc(
            "class T { static int f(int n) {"
            "int s = 0;"
            "for (int i = 0; i < n; i++) s += i;"
            "return s; } }")
        compiled = method_named(classes, "f")
        steps = verify_method(world, compiled)
        # join blocks are revisited at least once
        assert steps > len(compiled.insns)

    def test_reference_merge_finds_common_supertype(self):
        world, classes = compile_bc(
            "class A { } class B extends A { } class C extends A { }"
            "class T { static A f(boolean c) {"
            "A r; if (c) r = new B(); else r = new C(); return r; } }")
        compiled = method_named(classes, "f")
        verify_method(world, compiled)  # must not reject the merge

    def test_int_vs_ref_merge_rejected_on_use(self):
        world, classes = compile_bc(
            "class T { static int f(boolean c) {"
            "int r; if (c) r = 1; else r = 2; return r; } }")
        compiled = method_named(classes, "f")
        # corrupt one arm to store a reference into the int slot
        index = next(i for i, insn in enumerate(compiled.insns)
                     if insn.op == "istore")
        compiled.insns[index] = Insn("astore", compiled.insns[index].args[0])
        compiled.insns[index - 1] = Insn("aconst_null")
        with pytest.raises(BytecodeVerifyError):
            verify_method(world, compiled)

    def test_branch_target_past_end_rejected(self):
        world, classes = compile_bc(
            "class T { static void f() { } }")
        compiled = method_named(classes, "f")
        compiled.insns.insert(0, Insn("goto", 999))
        with pytest.raises(BytecodeVerifyError):
            verify_method(world, compiled)
