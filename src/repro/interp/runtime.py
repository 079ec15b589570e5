"""Host runtime: native library methods, statics, and Java formatting.

The natives implement exactly the builtin ("imported") classes declared in
:mod:`repro.typesys.world`.  Both interpreters share this runtime so their
observable behaviour is identical.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro import jmath
from repro.typesys.types import BOOLEAN, CHAR
from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    default_value,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World


def format_double(value: float) -> str:
    """Format a double the way ``Double.toString`` does (approximation).

    Java: values in [1e-3, 1e7) print decimally, others in scientific
    ``dE+n`` notation; integral doubles keep a trailing ``.0``.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == 0.0:
        return "-0.0" if math.copysign(1.0, value) < 0 else "0.0"
    magnitude = abs(value)
    if 1e-3 <= magnitude < 1e7:
        text = repr(value)
        if "e" in text or "E" in text:
            # repr switched to scientific although Java would not
            decimals = f"{value:.17f}".rstrip("0")
            if decimals.endswith("."):
                decimals += "0"
            return decimals
        if "." not in text:
            text += ".0"
        return text
    mantissa, _, exponent = f"{value:e}".partition("e")
    # recompute the shortest mantissa from repr
    text = repr(value)
    if "e" in text:
        mantissa, _, exponent = text.partition("e")
    else:
        exp = int(exponent)
        mantissa = repr(value / (10.0 ** exp))
        exponent = str(exp)
    if "." not in mantissa:
        mantissa += ".0"
    return f"{mantissa}E{int(exponent)}"


class JChar(int):
    """An int tagged as a Java char for display purposes.

    SafeTSA keeps chars on their own register plane; at the native-call
    boundary the runtime tags char-typed arguments so println/valueOf can
    format them as characters rather than code points.
    """

    __slots__ = ()


def format_value(value, world: Optional[World] = None) -> str:
    """String conversion used by println/valueOf for non-object types."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, JChar):
        return chr(value & 0xFFFF)
    if isinstance(value, float):
        return format_double(value)
    if isinstance(value, JStr):
        return value.value
    if value is None:
        return "null"
    return str(value)


class Runtime:
    """Statics, stdout, and the native-method table for one execution."""

    def __init__(self, world: World):
        self.world = world
        self.stdout: list[str] = []
        self.statics: dict[tuple[str, str], object] = {}
        self._print_stream = ObjectRef(world.require("java.io.PrintStream"))
        self._natives = _NATIVES
        #: callback into the interpreter for re-entrant virtual calls
        #: (e.g. String.valueOf(Object) invoking a user toString)
        self.invoke_virtual: Optional[Callable] = None
        self.time_counter = 0

    # ------------------------------------------------------------------
    # statics

    def get_static(self, field: FieldInfo):
        key = (field.declaring.name, field.name)
        if key == ("java.lang.System", "out"):
            return self._print_stream
        if key not in self.statics:
            if field.const_value is not None:
                return field.const_value
            self.statics[key] = default_value(field.type)
        return self.statics[key]

    def set_static(self, field: FieldInfo, value) -> None:
        self.statics[(field.declaring.name, field.name)] = value

    # ------------------------------------------------------------------
    # exceptions

    def throw(self, class_name: str, message: Optional[str] = None):
        info = self.world.require(class_name)
        exc = ObjectRef(info)
        if message is not None:
            field = info.find_field("message")
            if field is not None:
                exc.fields[field.slot] = JStr(message)
        raise JavaError(exc)

    # ------------------------------------------------------------------
    # natives

    def invoke_native(self, method: MethodInfo, args: list):
        if CHAR in method.param_types or BOOLEAN in method.param_types:
            offset = 0 if method.is_static else 1
            args = list(args)
            for i, param in enumerate(method.param_types):
                if param is CHAR:
                    args[offset + i] = JChar(args[offset + i])
                elif param is BOOLEAN:
                    # bytecode materialises booleans as ints 0/1
                    args[offset + i] = bool(args[offset + i])
        key = (method.declaring.name, method.name, len(method.param_types),
               tuple(str(t) for t in method.param_types))
        handler = self._natives.get(key)
        if handler is None:
            # fall back to a name/arity match (covers overload tables)
            handler = self._natives.get(
                (method.declaring.name, method.name, len(method.param_types),
                 None))
        if handler is None:
            raise NotImplementedError(
                f"native method {method.qualified_name} is not implemented")
        return handler(self, args)

    def to_string(self, value) -> str:
        """Virtual toString used by valueOf(Object)/println(Object)."""
        if value is None:
            return "null"
        if isinstance(value, JStr):
            return value.value
        if isinstance(value, ArrayRef):
            return f"[{value.array_type.element}@{value.serial}"
        if isinstance(value, ObjectRef):
            if self.invoke_virtual is not None:
                to_string = _find_method(self.world, "java.lang.Object",
                                         "toString")
                result = self.invoke_virtual(value, to_string)
                return result.value if isinstance(result, JStr) else "null"
            return f"{value.class_info.name}@{value.serial}"
        return format_value(value)


def _find_method(world: World, class_name: str, method_name: str) -> MethodInfo:
    for method in world.require(class_name).methods:
        if method.name == method_name:
            return method
    raise KeyError(f"{class_name}.{method_name}")


def _string_index(runtime: Runtime, text: str, index: int) -> int:
    if not 0 <= index < len(text):
        runtime.throw("java.lang.ArrayIndexOutOfBoundsException",
                      f"String index out of range: {index}")
    return index


def _message_of(runtime: Runtime, obj: ObjectRef):
    field = obj.class_info.find_field("message")
    if field is None:
        return None
    return obj.fields[field.slot]


def _default_to_string(runtime: Runtime, obj) -> JStr:
    if isinstance(obj, JStr):
        return obj
    if isinstance(obj, ObjectRef):
        info = obj.class_info
        if info.is_subclass_of(runtime.world.require("java.lang.Throwable")):
            message = _message_of(runtime, obj)
            if isinstance(message, JStr):
                return JStr(f"{info.name}: {message.value}")
            return JStr(info.name)
        return JStr(f"{info.name}@{obj.serial}")
    return JStr(format_value(obj))


def _build_native_table() -> dict:
    table: dict = {}

    def native(class_name, method_name, arity, sig=None):
        def register(fn):
            table[(class_name, method_name, arity, sig)] = fn
            return fn
        return register

    # -- java.lang.Object ------------------------------------------------
    @native("java.lang.Object", "<init>", 0)
    def object_init(rt, args):
        return None

    @native("java.lang.Object", "toString", 0)
    def object_to_string(rt, args):
        return _default_to_string(rt, args[0])

    @native("java.lang.Object", "equals", 1)
    def object_equals(rt, args):
        return args[0] is args[1]

    @native("java.lang.Object", "hashCode", 0)
    def object_hash(rt, args):
        receiver = args[0]
        if isinstance(receiver, JStr):
            return _string_hash(receiver.value)
        return jmath.i32(receiver.serial * 31)

    # -- java.lang.String ------------------------------------------------
    def string_arg(rt, value) -> str:
        if value is None:
            rt.throw("java.lang.NullPointerException")
        return value.value

    @native("java.lang.String", "length", 0)
    def string_length(rt, args):
        return len(string_arg(rt, args[0]))

    @native("java.lang.String", "charAt", 1)
    def string_char_at(rt, args):
        text = string_arg(rt, args[0])
        return ord(text[_string_index(rt, text, args[1])])

    @native("java.lang.String", "equals", 1)
    def string_equals(rt, args):
        other = args[1]
        return isinstance(other, JStr) \
            and other.value == string_arg(rt, args[0])

    @native("java.lang.String", "compareTo", 1)
    def string_compare(rt, args):
        left = string_arg(rt, args[0])
        right = string_arg(rt, args[1])
        if left == right:
            return 0
        # Java compares char by char, then by length
        for a, b in zip(left, right):
            if a != b:
                return ord(a) - ord(b)
        return len(left) - len(right)

    @native("java.lang.String", "concat", 1)
    def string_concat(rt, args):
        return JStr(string_arg(rt, args[0]) + string_arg(rt, args[1]))

    @native("java.lang.String", "substring", 2)
    def string_substring(rt, args):
        text = string_arg(rt, args[0])
        begin, end = args[1], args[2]
        if begin < 0 or end > len(text) or begin > end:
            rt.throw("java.lang.ArrayIndexOutOfBoundsException",
                     f"begin {begin}, end {end}, length {len(text)}")
        return JStr(text[begin:end])

    @native("java.lang.String", "substring", 1)
    def string_substring_tail(rt, args):
        text = string_arg(rt, args[0])
        begin = args[1]
        if begin < 0 or begin > len(text):
            rt.throw("java.lang.ArrayIndexOutOfBoundsException",
                     f"begin {begin}, length {len(text)}")
        return JStr(text[begin:])

    @native("java.lang.String", "indexOf", 1)
    def string_index_of(rt, args):
        return string_arg(rt, args[0]).find(string_arg(rt, args[1]))

    @native("java.lang.String", "startsWith", 1)
    def string_starts(rt, args):
        return string_arg(rt, args[0]).startswith(string_arg(rt, args[1]))

    @native("java.lang.String", "endsWith", 1)
    def string_ends(rt, args):
        return string_arg(rt, args[0]).endswith(string_arg(rt, args[1]))

    @native("java.lang.String", "trim", 0)
    def string_trim(rt, args):
        return JStr(string_arg(rt, args[0]).strip())

    @native("java.lang.String", "toString", 0)
    def string_to_string(rt, args):
        return args[0]

    @native("java.lang.String", "hashCode", 0)
    def string_hash(rt, args):
        return _string_hash(string_arg(rt, args[0]))

    @native("java.lang.String", "valueOf", 1)
    def string_value_of(rt, args):
        value = args[0]
        if isinstance(value, (ObjectRef, ArrayRef)) or value is None \
                or isinstance(value, JStr):
            return JStr(rt.to_string(value))
        return JStr(format_value(value))

    # -- StringBuilder ----------------------------------------------------
    @native("java.lang.StringBuilder", "<init>", 0)
    def sb_init(rt, args):
        args[0].fields = [""]  # raw python string buffer
        return None

    @native("java.lang.StringBuilder", "append", 1)
    def sb_append(rt, args):
        receiver, value = args
        if isinstance(value, (ObjectRef, ArrayRef)) or value is None \
                or isinstance(value, JStr):
            text = rt.to_string(value)
        else:
            text = format_value(value)
        receiver.fields[0] += text
        return receiver

    @native("java.lang.StringBuilder", "toString", 0)
    def sb_to_string(rt, args):
        return JStr(args[0].fields[0])

    @native("java.lang.StringBuilder", "length", 0)
    def sb_length(rt, args):
        return len(args[0].fields[0])

    # -- PrintStream -------------------------------------------------------
    def print_text(rt, value) -> str:
        if isinstance(value, (ObjectRef, ArrayRef)) or value is None \
                or isinstance(value, JStr):
            return rt.to_string(value)
        return format_value(value)

    @native("java.io.PrintStream", "println", 0)
    def println_empty(rt, args):
        rt.stdout.append("\n")
        return None

    @native("java.io.PrintStream", "println", 1)
    def println(rt, args):
        rt.stdout.append(print_text(rt, args[1]) + "\n")
        return None

    @native("java.io.PrintStream", "print", 1)
    def print_(rt, args):
        rt.stdout.append(print_text(rt, args[1]))
        return None

    # -- System -------------------------------------------------------------
    @native("java.lang.System", "currentTimeMillis", 0)
    def current_time(rt, args):
        rt.time_counter += 1
        return rt.time_counter

    # -- Math -----------------------------------------------------------------
    @native("java.lang.Math", "sqrt", 1)
    def math_sqrt(rt, args):
        value = args[0]
        return math.nan if value < 0 else math.sqrt(value)

    @native("java.lang.Math", "pow", 2)
    def math_pow(rt, args):
        try:
            return math.pow(args[0], args[1])
        except (OverflowError, ValueError):
            return math.nan

    @native("java.lang.Math", "floor", 1)
    def math_floor(rt, args):
        value = args[0]
        if math.isnan(value) or math.isinf(value):
            return value
        return float(math.floor(value))

    @native("java.lang.Math", "ceil", 1)
    def math_ceil(rt, args):
        value = args[0]
        if math.isnan(value) or math.isinf(value):
            return value
        return float(math.ceil(value))

    @native("java.lang.Math", "abs", 1)
    def math_abs(rt, args):
        value = args[0]
        if isinstance(value, float):
            return abs(value)
        if value == jmath.INT_MIN:
            return value  # Java Math.abs(MIN_VALUE) wraps
        if value == jmath.LONG_MIN:
            return value
        return abs(value)

    @native("java.lang.Math", "min", 2)
    def math_min(rt, args):
        a, b = args
        if isinstance(a, float) and (math.isnan(a) or math.isnan(b)):
            return math.nan
        return min(a, b)

    @native("java.lang.Math", "max", 2)
    def math_max(rt, args):
        a, b = args
        if isinstance(a, float) and (math.isnan(a) or math.isnan(b)):
            return math.nan
        return max(a, b)

    # -- Integer / Long -------------------------------------------------------
    @native("java.lang.Integer", "toString", 1)
    def int_to_string(rt, args):
        return JStr(str(args[0]))

    @native("java.lang.Integer", "parseInt", 1)
    def parse_int(rt, args):
        text = args[0]
        if text is None:
            rt.throw("java.lang.NullPointerException")
        try:
            value = int(text.value.strip())
        except ValueError:
            rt.throw("java.lang.IllegalArgumentException",
                     f'For input string: "{text.value}"')
        if not jmath.INT_MIN <= value <= jmath.INT_MAX:
            rt.throw("java.lang.IllegalArgumentException",
                     f'For input string: "{text.value}"')
        return value

    @native("java.lang.Integer", "bitCount", 1)
    def bit_count(rt, args):
        return bin(args[0] & 0xFFFFFFFF).count("1")

    @native("java.lang.Integer", "numberOfLeadingZeros", 1)
    def nlz(rt, args):
        value = args[0] & 0xFFFFFFFF
        if value == 0:
            return 32
        return 32 - value.bit_length()

    @native("java.lang.Integer", "numberOfTrailingZeros", 1)
    def ntz(rt, args):
        value = args[0] & 0xFFFFFFFF
        if value == 0:
            return 32
        return (value & -value).bit_length() - 1

    @native("java.lang.Long", "toString", 1)
    def long_to_string(rt, args):
        return JStr(str(args[0]))

    # -- Character ---------------------------------------------------------------
    @native("java.lang.Character", "isDigit", 1)
    def is_digit(rt, args):
        return chr(args[0]).isdigit()

    @native("java.lang.Character", "isLetter", 1)
    def is_letter(rt, args):
        return chr(args[0]).isalpha()

    @native("java.lang.Character", "isWhitespace", 1)
    def is_whitespace(rt, args):
        return chr(args[0]).isspace()

    @native("java.lang.Character", "isLetterOrDigit", 1)
    def is_letter_or_digit(rt, args):
        ch = chr(args[0])
        return ch.isalpha() or ch.isdigit()

    # -- Throwable hierarchy -----------------------------------------------------
    def throwable_init0(rt, args):
        return None

    def throwable_init1(rt, args):
        obj, message = args
        field = obj.class_info.find_field("message")
        if field is not None:
            obj.fields[field.slot] = message
        return None

    for cls in ("java.lang.Throwable", "java.lang.Exception",
                "java.lang.RuntimeException", "java.lang.Error",
                "java.lang.NullPointerException",
                "java.lang.ArithmeticException",
                "java.lang.ArrayIndexOutOfBoundsException",
                "java.lang.ClassCastException",
                "java.lang.NegativeArraySizeException",
                "java.lang.IllegalArgumentException",
                "java.lang.IllegalStateException"):
        table[(cls, "<init>", 0, None)] = throwable_init0
        table[(cls, "<init>", 1, None)] = throwable_init1

    @native("java.lang.Throwable", "getMessage", 0)
    def get_message(rt, args):
        return _message_of(rt, args[0])

    @native("java.lang.Throwable", "toString", 0)
    def throwable_to_string(rt, args):
        return _default_to_string(rt, args[0])

    return table


def _string_hash(text: str) -> int:
    value = 0
    for ch in text:
        value = jmath.i32(value * 31 + ord(ch))
    return value


#: the native-method table, built once per process: its handlers take
#: the runtime as an argument and capture no per-runtime state
_NATIVES = _build_native_table()
