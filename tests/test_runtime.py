"""Host runtime tests: natives, Java-style formatting, statics."""

import math

import pytest

from repro.interp.heap import ArrayRef, JStr, JavaError, ObjectRef, \
    value_instanceof
from repro.interp.runtime import Runtime, format_double, format_value
from repro.typesys.types import ArrayType, ClassType, INT
from repro.typesys.world import World
from tests.conftest import main_wrap, run_java, stdout_of


class TestDoubleFormatting:
    @pytest.mark.parametrize("value, expected", [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (1.5, "1.5"),
        (100.25, "100.25"),
        (1e7, "1.0E7"),
        (1.23e10, "1.23E10"),
        (1e-3, "0.001"),
        (5e-4, "5.0E-4"),
        (-2.5e8, "-2.5E8"),
        (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"),
        (float("nan"), "NaN"),
    ])
    def test_java_style(self, value, expected):
        assert format_double(value) == expected

    def test_format_value_booleans(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_format_value_null(self):
        assert format_value(None) == "null"


class TestStringNatives:
    def test_char_at_out_of_range_throws(self):
        result = run_java(main_wrap(
            'String s = "ab"; char c = s.charAt(5);'))
        assert result.exception_name() == \
            "java.lang.ArrayIndexOutOfBoundsException"

    def test_substring_bounds_checked(self):
        result = run_java(main_wrap(
            'String s = "ab"; String t = s.substring(1, 9);'))
        assert result.exception is not None

    def test_compare_to_orders_like_java(self):
        out = stdout_of(main_wrap(
            'System.out.println("apple".compareTo("banana") < 0);'
            'System.out.println("b".compareTo("azzz") > 0);'
            'System.out.println("abc".compareTo("ab") > 0);'
            'System.out.println("x".compareTo("x"));'))
        assert out == "true\ntrue\ntrue\n0\n"

    def test_index_of_and_affixes(self):
        out = stdout_of(main_wrap(
            'String s = "hello world";'
            'System.out.println(s.indexOf("o"));'
            'System.out.println(s.indexOf("zz"));'
            'System.out.println(s.endsWith("rld"));'
            'System.out.println(s.trim().length());'))
        assert out == "4\n-1\ntrue\n11\n"

    def test_string_hash_matches_java_algorithm(self):
        out = stdout_of(main_wrap(
            'System.out.println("Aa".hashCode());'
            'System.out.println("BB".hashCode());'))
        # the famous collision: "Aa".hashCode() == "BB".hashCode() == 2112
        assert out == "2112\n2112\n"

    def test_null_receiver_throws(self):
        result = run_java(main_wrap(
            "String s = null; int n = s.length();"))
        assert result.exception_name() == "java.lang.NullPointerException"


class TestLibraryNatives:
    def test_math_functions(self):
        out = stdout_of(main_wrap(
            "System.out.println(Math.sqrt(9.0));"
            "System.out.println(Math.abs(-5));"
            "System.out.println(Math.max(3, 9));"
            "System.out.println(Math.min(2.5, 1.5));"
            "System.out.println(Math.floor(-1.5));"
            "System.out.println(Math.pow(2.0, 10.0));"))
        assert out == "3.0\n5\n9\n1.5\n-2.0\n1024.0\n"

    def test_math_abs_int_min_wraps(self):
        out = stdout_of(main_wrap(
            "System.out.println(Math.abs(-2147483648));"))
        assert out == "-2147483648\n"

    def test_integer_statics(self):
        out = stdout_of(main_wrap(
            "System.out.println(Integer.MAX_VALUE);"
            "System.out.println(Integer.parseInt(\" 42 \"));"
            "System.out.println(Integer.bitCount(255));"
            "System.out.println(Integer.numberOfLeadingZeros(1));"
            "System.out.println(Integer.numberOfTrailingZeros(8));"))
        assert out == "2147483647\n42\n8\n31\n3\n"

    def test_parse_int_failure(self):
        result = run_java(main_wrap('Integer.parseInt("xyz");'))
        assert result.exception_name() == \
            "java.lang.IllegalArgumentException"

    def test_character_classifiers(self):
        out = stdout_of(main_wrap(
            "System.out.println(Character.isDigit('7'));"
            "System.out.println(Character.isLetter('x'));"
            "System.out.println(Character.isWhitespace(' '));"
            "System.out.println(Character.isLetterOrDigit('_'));"))
        assert out == "true\ntrue\ntrue\nfalse\n"

    def test_object_to_string_default(self):
        out = stdout_of(main_wrap(
            "Object o = new Object(); String s = o.toString();"
            "System.out.println(s.startsWith(\"java.lang.Object@\"));"))
        assert out == "true\n"

    def test_user_to_string_dispatched_by_println(self):
        src = """
        class P {
            int v;
            P(int v) { this.v = v; }
            String toString() { return "P(" + v + ")"; }
        }
        class Main { static void main() {
            P p = new P(7);
            System.out.println(p);
            System.out.println("as concat: " + p);
        } }
        """
        assert stdout_of(src) == "P(7)\nas concat: P(7)\n"

    def test_throwable_to_string(self):
        out = stdout_of(main_wrap(
            'RuntimeException e = new RuntimeException("boom");'
            "System.out.println(e);"))
        assert out == "java.lang.RuntimeException: boom\n"

    def test_statics_independent_per_execution(self):
        source = ("class T { static int counter;"
                  "static void main() { counter++; "
                  "System.out.println(counter); } }")
        assert stdout_of(source) == "1\n"
        assert stdout_of(source) == "1\n"  # fresh Runtime each run

    def test_runtimes_share_the_native_table_but_not_state(self):
        from repro.api import compile_source
        from repro.interp.interpreter import Interpreter
        from repro.interp.jit import JitCompiler
        module = compile_source(
            "class T { static int counter; static void main() {"
            "counter++; System.out.println(counter);"
            "System.out.println(System.currentTimeMillis()); } }")
        runners = [Interpreter(module), Interpreter(module),
                   JitCompiler(module)]
        first, second, jit = (runner.runtime for runner in runners)
        assert first._natives is second._natives is jit._natives
        assert runners[0].run_main().stdout == "1\n1\n"
        assert first.time_counter == 1 and first.statics
        assert second.stdout == [] and second.statics == {}
        assert second.time_counter == 0
        assert runners[1].run_main().stdout == "1\n1\n"
        assert runners[2].run_main().stdout == "1\n1\n"


class TestHeapModel:
    def test_default_values(self):
        array = ArrayRef(ArrayType(INT), 3)
        assert array.elements == [0, 0, 0]

    def test_instanceof_model(self):
        world = World()
        string = JStr("x")
        assert value_instanceof(world, string,
                                ClassType("java.lang.String"))
        assert value_instanceof(world, string,
                                ClassType("java.lang.Object"))
        assert not value_instanceof(world, None,
                                    ClassType("java.lang.Object"))
        array = ArrayRef(ArrayType(INT), 1)
        assert value_instanceof(world, array,
                                ClassType("java.lang.Object"))
        assert value_instanceof(world, array, ArrayType(INT))
        assert not value_instanceof(world, array,
                                    ArrayType(ClassType("java.lang.Object")))

    def test_interned_literals_share_identity(self):
        assert JStr.intern("same") is JStr.intern("same")
        assert JStr("a") is not JStr("a")
