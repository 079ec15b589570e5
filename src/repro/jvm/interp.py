"""Bytecode interpreter: the differential oracle for the SafeTSA pipeline.

Shares the heap model and host runtime with the SafeTSA interpreter, so
any observable divergence between the two executions is a compiler bug,
not an environment difference.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import jmath
from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    runtime_class,
    value_instanceof,
)
from repro.interp.runtime import Runtime
from repro.jvm.codegen import CompiledClass, CompiledMethod
from repro.typesys.types import ArrayType, BOOLEAN, ClassType, PrimitiveType
from repro.typesys.world import ClassInfo, MethodInfo, World


class BytecodeError(Exception):
    """Internal interpreter failure (bad code or interpreter bug)."""


class BytecodeInterpreter:
    """Executes compiled classes."""

    def __init__(self, classes: list[CompiledClass], world: World,
                 max_steps: int = 50_000_000):
        self.classes = classes
        self.world = world
        self.runtime = Runtime(world)
        self.runtime.invoke_virtual = self._invoke_virtual_for_runtime
        self.max_steps = max_steps
        self.steps = 0
        self.methods: dict[MethodInfo, CompiledMethod] = {}
        for cls in classes:
            for compiled in cls.methods:
                self.methods[compiled.method] = compiled
        self._initialized = False

    # ------------------------------------------------------------------

    def run_main(self, class_name: Optional[str] = None,
                 method_name: str = "main"):
        from repro.interp.interpreter import ExecutionResult
        target = None
        for method, compiled in self.methods.items():
            if method.name != method_name or not method.is_static:
                continue
            if class_name is not None and \
                    method.declaring.name.split(".")[-1] != \
                    class_name.split(".")[-1]:
                continue
            target = compiled
            break
        if target is None:
            raise BytecodeError(f"no static {method_name} found")
        args = [None] if target.method.param_types else []
        exception = None
        value = None
        try:
            self._ensure_initialized()
            value = self.invoke(target, args)
        except JavaError as error:
            exception = error.value
        return ExecutionResult(value, exception,
                               "".join(self.runtime.stdout), self.steps)

    def _ensure_initialized(self) -> None:
        if self._initialized:
            return
        self._initialized = True
        for cls in self.classes:
            for compiled in cls.methods:
                if compiled.method.name == "<clinit>":
                    self.invoke(compiled, [])

    # ------------------------------------------------------------------

    def invoke(self, compiled: CompiledMethod, args: list):
        locals_: dict[int, object] = {}
        slot = 0
        method = compiled.method
        types = ([method.declaring.type] if not method.is_static else []) \
            + list(method.param_types)
        for value, type in zip(args, types):
            locals_[slot] = value
            slot += 2 if type in _WIDE else 1
        stack: list = []
        pc = 0
        insns = compiled.insns
        while True:
            self.steps += 1
            if self.steps > self.max_steps:
                raise BytecodeError("step limit exceeded")
            if pc >= len(insns):
                raise BytecodeError(
                    f"fell off the end of {method.qualified_name}")
            insn = insns[pc]
            try:
                result = self._step(insn, stack, locals_)
            except JavaError as error:
                handler = self._find_handler(compiled, pc, error.value)
                if handler is None:
                    raise
                stack.clear()
                stack.append(error.value)
                pc = handler
                continue
            if result is None:
                pc += 1
            elif result[0] == "jump":
                pc = result[1]
            elif result[0] == "return":
                return result[1]
            else:  # pragma: no cover
                raise BytecodeError(f"bad step result {result!r}")

    def _find_handler(self, compiled: CompiledMethod, pc: int,
                      exception: ObjectRef) -> Optional[int]:
        for start, end, handler, catch in compiled.exception_table:
            if start <= pc < end:
                if catch is None \
                        or exception.class_info.is_subclass_of(catch):
                    return handler
        return None

    # ------------------------------------------------------------------

    def _step(self, insn, stack: list, locals_: dict):
        op = insn.op
        rt = self.runtime

        # constants -----------------------------------------------------
        if op == "iconst" or op == "lconst":
            stack.append(insn.args[0])
            return None
        if op == "fconst" or op == "dconst":
            stack.append(insn.args[0])
            return None
        if op == "ldc_string":
            stack.append(JStr.intern(insn.args[0]))
            return None
        if op == "aconst_null":
            stack.append(None)
            return None

        # locals ----------------------------------------------------------
        if op in ("iload", "lload", "fload", "dload", "aload"):
            stack.append(locals_.get(insn.args[0]))
            return None
        if op in ("istore", "lstore", "fstore", "dstore", "astore"):
            locals_[insn.args[0]] = stack.pop()
            return None

        # stack ----------------------------------------------------------
        if op == "pop" or op == "pop2":
            stack.pop()
            return None
        if op == "dup":
            stack.append(stack[-1])
            return None
        if op == "dup_x1":
            stack.insert(-2, stack[-1])
            return None
        if op == "swap":
            stack[-1], stack[-2] = stack[-2], stack[-1]
            return None
        if op == "nop":
            return None

        # arithmetic -------------------------------------------------------
        handler = _ARITH.get(op)
        if handler is not None:
            return handler(self, stack)

        # branches ----------------------------------------------------------
        if op in ("goto",):
            return ("jump", insn.args[0])
        if op in _IF_ZERO:
            value = stack.pop()
            if _IF_ZERO[op](value):
                return ("jump", insn.args[0])
            return None
        if op in _IF_ICMP:
            right = stack.pop()
            left = stack.pop()
            if _IF_ICMP[op](left, right):
                return ("jump", insn.args[0])
            return None
        if op == "if_acmpeq" or op == "if_acmpne":
            right = stack.pop()
            left = stack.pop()
            same = left is right
            if same == (op == "if_acmpeq"):
                return ("jump", insn.args[0])
            return None
        if op == "ifnull" or op == "ifnonnull":
            value = stack.pop()
            if (value is None) == (op == "ifnull"):
                return ("jump", insn.args[0])
            return None

        # arrays --------------------------------------------------------------
        if op.endswith("aload") and op != "aload":
            index = stack.pop()
            array = stack.pop()
            self._array_check(array, index)
            stack.append(array.elements[index])
            return None
        if op.endswith("astore") and op != "astore":
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            self._array_check(array, index)
            if op == "bastore" and array.array_type.element is BOOLEAN:
                value = bool(value & 1)
            if op == "aastore" and value is not None \
                    and not value_instanceof(self.world, value,
                                             array.array_type.element):
                rt.throw("java.lang.ArrayStoreException",
                         str(array.array_type.element))
            array.elements[index] = value
            return None
        if op == "arraylength":
            array = stack.pop()
            if array is None:
                rt.throw("java.lang.NullPointerException")
            stack.append(array.length)
            return None
        if op == "newarray" or op == "anewarray":
            length = stack.pop()
            if length < 0:
                rt.throw("java.lang.NegativeArraySizeException", str(length))
            if op == "newarray":
                atype = {v: k for k, v in _ATYPE.items()}[insn.args[0]]
                stack.append(ArrayRef(ArrayType(PrimitiveType(atype)),
                                      length))
            else:
                stack.append(ArrayRef(ArrayType(_as_type(insn.args[0])),
                                      length))
            return None
        if op == "multianewarray":
            array_type, dims = insn.args
            lengths = [stack.pop() for _ in range(dims)][::-1]
            stack.append(self._alloc_multi(array_type, lengths))
            return None

        # fields -------------------------------------------------------------
        if op == "getfield":
            obj = stack.pop()
            if obj is None:
                rt.throw("java.lang.NullPointerException")
            stack.append(obj.fields[insn.args[0].slot])
            return None
        if op == "putfield":
            value = stack.pop()
            obj = stack.pop()
            if obj is None:
                rt.throw("java.lang.NullPointerException")
            obj.fields[insn.args[0].slot] = value
            return None
        if op == "getstatic":
            stack.append(rt.get_static(insn.args[0]))
            return None
        if op == "putstatic":
            rt.set_static(insn.args[0], stack.pop())
            return None

        # objects ---------------------------------------------------------------
        if op == "new":
            stack.append(ObjectRef(insn.args[0]))
            return None
        if op == "checkcast":
            value = stack[-1]
            if value is not None \
                    and not value_instanceof(self.world, value,
                                             insn.args[0]):
                rt.throw("java.lang.ClassCastException",
                         str(insn.args[0]))
            return None
        if op == "instanceof":
            value = stack.pop()
            stack.append(value_instanceof(self.world, value, insn.args[0]))
            return None
        if op == "athrow":
            value = stack.pop()
            if value is None:
                rt.throw("java.lang.NullPointerException")
            raise JavaError(value)

        # calls -------------------------------------------------------------------
        if op in ("invokestatic", "invokespecial", "invokevirtual"):
            method: MethodInfo = insn.args[0]
            count = len(method.param_types) \
                + (0 if method.is_static else 1)
            args = [stack.pop() for _ in range(count)][::-1]
            if op == "invokevirtual":
                receiver = args[0]
                if receiver is None:
                    rt.throw("java.lang.NullPointerException")
                method = self._resolve_virtual(receiver, method)
            elif not method.is_static and args[0] is None:
                rt.throw("java.lang.NullPointerException")
            value = self._invoke_any(method, args)
            if method.return_type.descriptor() != "V":
                stack.append(value)
            return None

        # returns -----------------------------------------------------------------
        if op == "return":
            return ("return", None)
        if op.endswith("return"):
            return ("return", stack.pop())

        raise BytecodeError(f"unhandled opcode {op}")

    # ------------------------------------------------------------------

    def _array_check(self, array, index) -> None:
        if array is None:
            self.runtime.throw("java.lang.NullPointerException")
        if not 0 <= index < array.length:
            self.runtime.throw(
                "java.lang.ArrayIndexOutOfBoundsException",
                f"Index {index} out of bounds for length {array.length}")

    def _alloc_multi(self, array_type: ArrayType, lengths: list):
        for length in lengths:
            if length < 0:
                self.runtime.throw(
                    "java.lang.NegativeArraySizeException", str(length))
        array = ArrayRef(array_type, lengths[0])
        if len(lengths) > 1:
            inner = array_type.element
            for i in range(lengths[0]):
                array.elements[i] = self._alloc_multi(inner, lengths[1:])
        return array

    def _resolve_virtual(self, receiver, method: MethodInfo) -> MethodInfo:
        cls = runtime_class(self.world, receiver)
        if cls is None:
            raise BytecodeError("dispatch on non-object")
        if 0 <= method.vtable_slot < len(cls.vtable):
            resolved = cls.vtable[method.vtable_slot]
            if resolved.signature == method.signature:
                return resolved
        for candidate in cls.methods_named(method.name):
            if candidate.signature == method.signature:
                return candidate
        return method

    def _invoke_any(self, method: MethodInfo, args: list):
        if method.is_native:
            return self.runtime.invoke_native(method, args)
        compiled = self.methods.get(method)
        if compiled is None:
            raise BytecodeError(f"no code for {method.qualified_name}")
        return self.invoke(compiled, args)

    def _invoke_virtual_for_runtime(self, receiver, method: MethodInfo):
        resolved = self._resolve_virtual(receiver, method)
        return self._invoke_any(resolved, [receiver])


_WIDE = frozenset([PrimitiveType("long"), PrimitiveType("double")])

_ATYPE = {"boolean": 4, "char": 5, "float": 6, "double": 7,
          "byte": 8, "short": 9, "int": 10, "long": 11}


def _as_type(value):
    return value.type if isinstance(value, ClassInfo) else value


# ----------------------------------------------------------------------
# arithmetic helpers

def _binary(fn):
    def step(interp, stack):
        right = stack.pop()
        left = stack.pop()
        try:
            stack.append(fn(left, right))
        except ZeroDivisionError:
            interp.runtime.throw("java.lang.ArithmeticException",
                                 "/ by zero")
        return None
    return step


def _unary(fn):
    def step(interp, stack):
        stack.append(fn(stack.pop()))
        return None
    return step


def _cmp(nan_result: int):
    def step(interp, stack):
        right = stack.pop()
        left = stack.pop()
        if isinstance(left, float) and (math.isnan(left)
                                        or math.isnan(right)):
            stack.append(nan_result)
        elif left < right:
            stack.append(-1)
        elif left > right:
            stack.append(1)
        else:
            stack.append(0)
        return None
    return step


_ARITH = {
    "iadd": _binary(lambda a, b: jmath.i32(a + b)),
    "isub": _binary(lambda a, b: jmath.i32(a - b)),
    "imul": _binary(lambda a, b: jmath.i32(a * b)),
    "idiv": _binary(lambda a, b: jmath.i32(jmath.idiv(a, b))),
    "irem": _binary(lambda a, b: jmath.i32(jmath.irem(a, b))),
    "ineg": _unary(lambda a: jmath.i32(-a)),
    "ishl": _binary(lambda a, b: jmath.ishl(a, b, 32)),
    "ishr": _binary(lambda a, b: jmath.ishr(a, b, 32)),
    "iushr": _binary(lambda a, b: jmath.iushr(a, b, 32)),
    "iand": _binary(lambda a, b: (bool(a & b)
                                  if isinstance(a, bool) else a & b)),
    "ior": _binary(lambda a, b: (bool(a | b)
                                 if isinstance(a, bool) else a | b)),
    "ixor": _binary(lambda a, b: (bool(a ^ b)
                                  if isinstance(a, bool) else a ^ b)),
    "ladd": _binary(lambda a, b: jmath.i64(a + b)),
    "lsub": _binary(lambda a, b: jmath.i64(a - b)),
    "lmul": _binary(lambda a, b: jmath.i64(a * b)),
    "ldiv": _binary(lambda a, b: jmath.idiv(a, b, 64)),
    "lrem": _binary(lambda a, b: jmath.irem(a, b, 64)),
    "lneg": _unary(lambda a: jmath.i64(-a)),
    "lshl": _binary(lambda a, b: jmath.ishl(a, b, 64)),
    "lshr": _binary(lambda a, b: jmath.ishr(a, b, 64)),
    "lushr": _binary(lambda a, b: jmath.iushr(a, b, 64)),
    "land": _binary(lambda a, b: a & b),
    "lor": _binary(lambda a, b: a | b),
    "lxor": _binary(lambda a, b: a ^ b),
    "fadd": _binary(lambda a, b: jmath.f32(a + b)),
    "fsub": _binary(lambda a, b: jmath.f32(a - b)),
    "fmul": _binary(lambda a, b: jmath.f32(a * b)),
    "fdiv": _binary(lambda a, b: jmath.f32(jmath.fdiv(a, b))),
    "frem": _binary(lambda a, b: jmath.f32(jmath.frem(a, b))),
    "fneg": _unary(lambda a: jmath.f32(-a)),
    "dadd": _binary(lambda a, b: a + b),
    "dsub": _binary(lambda a, b: a - b),
    "dmul": _binary(lambda a, b: a * b),
    "ddiv": _binary(jmath.fdiv),
    "drem": _binary(jmath.frem),
    "dneg": _unary(lambda a: -a),
    "i2l": _unary(lambda a: a),
    "i2f": _unary(lambda a: jmath.f32(float(a))),
    "i2d": _unary(lambda a: float(a)),
    "i2c": _unary(jmath.i2c),
    "l2i": _unary(jmath.l2i),
    "l2f": _unary(lambda a: jmath.f32(float(a))),
    "l2d": _unary(lambda a: float(a)),
    "f2i": _unary(jmath.d2i),
    "f2l": _unary(jmath.d2l),
    "f2d": _unary(lambda a: a),
    "d2i": _unary(jmath.d2i),
    "d2l": _unary(jmath.d2l),
    "d2f": _unary(jmath.f32),
    "lcmp": _cmp(0),
    "fcmpl": _cmp(-1),
    "fcmpg": _cmp(1),
    "dcmpl": _cmp(-1),
    "dcmpg": _cmp(1),
}

_IF_ZERO = {
    "ifeq": lambda v: v == 0,
    "ifne": lambda v: v != 0,
    "iflt": lambda v: v < 0,
    "ifge": lambda v: v >= 0,
    "ifgt": lambda v: v > 0,
    "ifle": lambda v: v <= 0,
}

_IF_ICMP = {
    "if_icmpeq": lambda a, b: a == b,
    "if_icmpne": lambda a, b: a != b,
    "if_icmplt": lambda a, b: a < b,
    "if_icmpge": lambda a, b: a >= b,
    "if_icmpgt": lambda a, b: a > b,
    "if_icmple": lambda a, b: a <= b,
}
