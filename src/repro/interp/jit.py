"""Consumer-side code generation: SafeTSA -> Python ("the JIT").

The paper's consumer is "a dynamic class loader that takes SafeTSA code
distribution units and executes them using on-the-fly code generation"
(Section 7), and its premise is that SafeTSA arrives *ready* for code
generation -- no stack simulation, no type inference, no dataflow
verification.  This module demonstrates exactly that: each decoded
function is translated, block by block, into a Python function.  The
translation consumes the SSA directly:

* every instruction becomes one assignment to its register (``v<n>``);
* phi instructions become parallel copies on the incoming edges (a
  single tuple assignment, so phi-swaps are handled for free);
* ``downcast`` disappears (a register alias), exactly as the paper
  promises ("will not result in any actual code on the eventual target
  machine");
* exception edges become ``try/except`` around the subblock's trapping
  tail, jumping to the dispatch block.

Semantically the JIT is bit-for-bit equivalent to
:class:`repro.interp.interpreter.Interpreter` (tested differentially);
operationally it is several times faster, which stands in for the
paper's "competitive runtime system" claim.  It counts no steps and no
checks.  Where a module's shape makes the interpreter fail -- an
``unreachable`` leaf, a block without a terminator or with the wrong
successors, a phi edge missing from the predecessor list, an unknown
instruction, a missing body, the allocation cap -- the JIT raises the
same :class:`~repro.interp.interpreter.InterpreterError` with the same
message, when the interpreter would: generated code raises it where
the run reaches the block.

Translation depends only on the function, so it happens once per
loaded function: on first use the source is emitted and compiled into
one Python function ``fn(rt, *args)``, kept in the function's
:class:`~repro.interp.interpreter.FunctionCode` memo beside the
interpreter's block plans and the trace tier's builds.  Like the
interpreter's ops, the code takes the running runner as ``rt``:
whatever a run owns -- its runtime (statics, stdout, throwing), world
and allocation cap -- reaches the code through ``rt``, and everything
else is a constant of the code.  A call site is made once per call
instruction when its caller is translated; it reaches the callee's
code through the callee's memo on every call, so a fresh
:class:`JitCompiler` over a module that has run translates, compiles
and links nothing.  This is sound only under the invariant stated on
:class:`repro.ssa.ir.Function`.

No wire text enters generated source except through ``repr`` or as a
bound constant: strings, floats, fields, types and messages that name
a method are constants of the code, and :func:`compile_generated`
writes the function's name into the filename through ``repr`` (a
wire-supplied name may hold a NUL, which ``compile`` refuses).
"""

from __future__ import annotations

from typing import Sequence

from repro.interp.heap import (
    JavaError,
    JStr,
    ObjectRef,
    value_instanceof,
)
from repro.interp.interpreter import (
    InterpreterError,
    Runner,
    _body,
    _new_array,
    _resolve_virtual,
    function_code,
)
from repro.ssa import ir
from repro.ssa.ir import Block, Function


class _Emitter:
    """Accumulates generated source with indentation."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines)


class JitCompiler(Runner):
    """Runs a module's functions as generated Python functions, each
    translated once per loaded function and shared by every runner."""

    def call(self, function: Function, args: Sequence):
        return _jit_code(function)(self, *args)


def _jit_code(function: Function):
    """The function's generated code, translated on first use."""
    code = function_code(function)
    jit = code.jit
    if jit is None:
        jit = code.jit = _translate(function)
    return jit


# ----------------------------------------------------------------------
# translation: once per function, kept in its FunctionCode and shared by
# every runner

def compile_generated(source: str, tier: str, function: Function,
                      env: dict):
    """Compile ``source``, which defines ``_<tier>``, with ``env`` as
    its globals, and return that function.  The filename names the
    function through ``repr``: a wire-supplied name may hold a NUL,
    which ``compile`` refuses in a filename."""
    exec(compile(source, f"<{tier}:{function.name!r}>", "exec"), env)
    return env.pop(f"_{tier}")


def _translate(function: Function):
    emitter = _Emitter()
    translator = _FunctionTranslator(function, emitter)
    translator.translate("_jit")
    return compile_generated(emitter.source(), "jit", function,
                             translator.env)


class _FunctionTranslator:
    """Emits one function's code.  The code reads the running runner
    as ``rt``; every other value it needs is a constant shared by every
    runner (:meth:`bind`)."""

    def __init__(self, function: Function, emitter: _Emitter):
        self.function = function
        self.env = dict(_GLOBALS)
        self.out = emitter
        self._names: dict = {}

    def bind(self, value) -> str:
        """A global shared by every runner, holding ``value``."""
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"_g{len(self._names) + 1}"
            self.env[name] = value
        return name

    def fail(self, message: str) -> None:
        """Code that raises the interpreter's error for ``message``."""
        self.out.emit(f"raise _IE({self.bind(message)})")

    def translate(self, name: str) -> None:
        function = self.function
        method = function.method
        arity = len(method.param_types) + (0 if method.is_static else 1)
        params = "".join(f", a{i}" for i in range(arity))
        self.out.emit(f"def {name}(rt{params}):")
        self.out.indent += 1
        reachable = function_code(function).blocks
        if not reachable:
            self.out.emit("return None")
            self.out.indent -= 1
            return
        if function.entry.phis:
            self.fail(f"phis in entry block B{function.entry.id}")
            self.out.indent -= 1
            return
        for param in function.params:
            self.out.emit(f"v{param.id} = a{param.index}")
        self.out.emit("_exc = None")
        self.out.emit(f"_b = {function.entry.id}")
        self.out.emit("while True:")
        self.out.indent += 1
        # one flat `if` per block (every block ends in a jump, a return
        # or a raise): an `elif` chain nests, and compile() overflows
        # its recursion limit on a few thousand blocks
        for block in reachable:
            self.out.emit(f"if _b == {block.id}:")
            self.out.indent += 1
            self._translate_block(block)
            self.out.indent -= 1
        self.out.indent -= 2

    def _jump(self, source: Block, target: Block, kind: str = "norm") -> None:
        """Take the edge source->target: its parallel phi copy, if any,
        then the jump."""
        if target.phis:
            index = None
            for position, (pred, pred_kind) in enumerate(target.preds):
                if pred is source and pred_kind == kind:
                    index = position
                    break
            if index is None:
                self.fail(f"edge B{source.id}->B{target.id} not in pred list")
                return
            targets = ", ".join(f"v{phi.id}" for phi in target.phis)
            values = ", ".join(f"v{phi.operands[index].id}"
                               for phi in target.phis)
            self.out.emit(f"{targets} = {values}")
        self.out.emit(f"_b = {target.id}")
        self.out.emit("continue")

    def _translate_block(self, block: Block) -> None:
        exc_target = block.exc_succ()
        body = list(block.instrs)
        tail_trap = (exc_target is not None and body and body[-1].traps
                     and block.term is not None
                     and block.term.kind == "fall")
        plain = body[:-1] if tail_trap else body
        for instr in plain:
            self._translate_instr(instr)
        if tail_trap:
            self.out.emit("try:")
            self.out.indent += 1
            self._translate_instr(body[-1])
            self.out.indent -= 1
            self.out.emit("except _JavaError as _e:")
            self.out.indent += 1
            self.out.emit("_exc = _e.value")
            self._jump(block, exc_target, "exc")
            self.out.indent -= 1
        self._translate_term(block, exc_target)

    def _translate_term(self, block: Block, exc_target) -> None:
        term = block.term
        if term is None:
            self.fail(f"block B{block.id} has no terminator")
            return
        if term.kind == "return":
            value = f"v{term.value.id}" if term.value is not None else "None"
            self.out.emit(f"return {value}")
            return
        if term.kind == "throw":
            if exc_target is not None:
                self.out.emit(f"_exc = v{term.value.id}")
                self._jump(block, exc_target, "exc")
            else:
                self.out.emit(f"raise _JavaError(v{term.value.id})")
            return
        if term.kind == "unreachable":
            self.fail("reached unreachable terminator in "
                      f"{self.function.name}")
            return
        normal = block.normal_succs()
        if term.kind == "branch" and len(normal) == 2:
            self.out.emit(f"if v{term.value.id}:")
            self.out.indent += 1
            self._jump(block, normal[0])
            self.out.indent -= 1
            self._jump(block, normal[1])
        elif term.kind in ("fall", "break", "continue") and len(normal) == 1:
            self._jump(block, normal[0])
        else:
            self.fail(f"B{block.id} ({term.kind}) has {len(normal)} "
                      "normal successors")

    # -- instructions -------------------------------------------------------

    def _translate_instr(self, instr: ir.Instr) -> None:
        handler = getattr(self, "_i_" + type(instr).__name__.lower(), None)
        if handler is None:
            raise InterpreterError(f"cannot execute {type(instr).__name__}")
        handler(instr)

    def _i_const(self, instr: ir.Const) -> None:
        value = instr.value
        if isinstance(value, str):
            name = self.bind(JStr.intern(value))
            self.out.emit(f"v{instr.id} = {name}")
        elif value is None or isinstance(value, bool) \
                or isinstance(value, int):
            self.out.emit(f"v{instr.id} = {value!r}")
        else:
            name = self.bind(value)  # floats: avoid repr round-trip issues
            self.out.emit(f"v{instr.id} = {name}")

    def _i_param(self, instr: ir.Param) -> None:
        pass  # bound in the prologue

    def _i_prim(self, instr: ir.Prim) -> None:
        operation = instr.operation
        fold = self.bind(operation.fold)
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        if operation.traps:
            self.out.emit(f"v{instr.id} = _trapping(rt, {fold}, {args})")
        else:
            self.out.emit(f"v{instr.id} = {fold}({args})")

    def _i_refcmp(self, instr: ir.RefCmp) -> None:
        op = "is" if instr.is_eq else "is not"
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id} {op} "
                      f"v{instr.operands[1].id}")

    def _i_nullcheck(self, instr: ir.NullCheck) -> None:
        value = f"v{instr.operands[0].id}"
        self.out.emit(f"if {value} is None: "
                      "rt.runtime.throw('java.lang.NullPointerException')")
        self.out.emit(f"v{instr.id} = {value}")

    def _i_idxcheck(self, instr: ir.IdxCheck) -> None:
        self.out.emit(f"v{instr.id} = _idxcheck(rt, v{instr.array.id}, "
                      f"v{instr.index.id})")

    def _i_upcast(self, instr: ir.Upcast) -> None:
        target = self.bind(instr.target_type)
        self.out.emit(f"v{instr.id} = _upcast(rt, v{instr.operands[0].id}, "
                      f"{target})")

    def _i_downcast(self, instr: ir.Downcast) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}")

    def _i_getfield(self, instr: ir.GetField) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".fields[{instr.field.slot}]")

    def _i_setfield(self, instr: ir.SetField) -> None:
        self.out.emit(f"v{instr.operands[0].id}.fields[{instr.field.slot}]"
                      f" = v{instr.operands[1].id}")

    def _i_getstatic(self, instr: ir.GetStatic) -> None:
        field = self.bind(instr.field)
        self.out.emit(f"v{instr.id} = rt.runtime.get_static({field})")

    def _i_setstatic(self, instr: ir.SetStatic) -> None:
        field = self.bind(instr.field)
        self.out.emit(f"rt.runtime.set_static({field}, "
                      f"v{instr.operands[0].id})")

    def _i_getelt(self, instr: ir.GetElt) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}]")

    def _i_setelt(self, instr: ir.SetElt) -> None:
        if instr.array_type.element.is_reference():
            self.out.emit(f"_storecheck(rt, v{instr.operands[0].id}, "
                          f"v{instr.operands[2].id})")
        self.out.emit(f"v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}] = "
                      f"v{instr.operands[2].id}")

    def _i_arraylen(self, instr: ir.ArrayLen) -> None:
        self.out.emit(f"v{instr.id} = "
                      f"len(v{instr.operands[0].id}.elements)")

    def _i_new(self, instr: ir.New) -> None:
        cls = self.bind(instr.class_info)
        self.out.emit(f"v{instr.id} = _ObjectRef({cls})")

    def _i_newarray(self, instr: ir.NewArray) -> None:
        array_type = self.bind(instr.array_type)
        self.out.emit(f"v{instr.id} = _new_array(rt, {array_type}, "
                      f"v{instr.operands[0].id})")

    def _i_instanceof(self, instr: ir.InstanceOf) -> None:
        target = self.bind(instr.target_type)
        self.out.emit(f"v{instr.id} = _instanceof(rt.world, "
                      f"v{instr.operands[0].id}, {target})")

    def _i_call(self, instr: ir.Call) -> None:
        site = self.bind(_call_site(instr))
        args = "".join(f", v{op.id}" for op in instr.operands)
        target = f"v{instr.id} = " if instr.plane is not None else ""
        self.out.emit(f"{target}{site}(rt{args})")

    def _i_caughtexc(self, instr: ir.CaughtExc) -> None:
        self.out.emit(f"v{instr.id} = _exc")


# ----------------------------------------------------------------------
# call sites: made once per call instruction when its caller is
# translated, invoked as ``site(rt, *args)``

def _call_site(call: ir.Call):
    """A static site resolves its body on first use -- not when its
    caller is translated, since a streamed module may still lack it --
    and a virtual site memoizes its resolution per receiver class (the
    class info of an object, the Python class of a builtin string or
    array).  Either reaches the body's code through the body's memo on
    every call, and passes its arguments on as one tuple, ``rt``
    first."""
    method = call.method
    if not call.dispatch:
        if method.is_native:
            def invoke_native(rt, *args):
                return rt.runtime.invoke_native(method, args)
            return invoke_native
        body = None

        def invoke(*args):
            nonlocal body
            if body is None:
                body = _body(args[0].module, method)
            try:
                jit = body._generated.jit
            except AttributeError:  # the memo was dropped
                jit = None
            return (jit or _jit_code(body))(*args)
        return invoke
    table: dict = {}

    def invoke_virtual(*args):
        receiver = args[1]
        key = receiver.class_info if type(receiver) is ObjectRef \
            else type(receiver)
        target = table.get(key)
        if target is None:
            rt = args[0]
            resolved = _resolve_virtual(rt.world, receiver, method)
            target = table[key] = resolved if resolved.is_native \
                else _body(rt.module, resolved)
        if type(target) is not Function:
            return args[0].runtime.invoke_native(target, args[1:])
        try:
            jit = target._generated.jit
        except AttributeError:  # the memo was dropped
            jit = None
        return (jit or _jit_code(target))(*args)
    return invoke_virtual


# ----------------------------------------------------------------------
# helpers the generated code calls with the running runner first

def _trapping(rt, fold, *args):
    try:
        return fold(*args)
    except ZeroDivisionError:
        rt.runtime.throw("java.lang.ArithmeticException", "/ by zero")


def _idxcheck(rt, array, index):
    if 0 <= index < len(array.elements):
        return index
    rt.runtime.throw(
        "java.lang.ArrayIndexOutOfBoundsException",
        f"Index {index} out of bounds for length {len(array.elements)}")


def _upcast(rt, value, target_type):
    # Java checkcast passes null through
    if value is not None and not value_instanceof(rt.world, value,
                                                  target_type):
        rt.runtime.throw("java.lang.ClassCastException", str(target_type))
    return value


def _storecheck(rt, array, value):
    element = array.array_type.element
    if value is not None and not value_instanceof(rt.world, value, element):
        rt.runtime.throw("java.lang.ArrayStoreException", str(element))


#: the globals every generated function starts from
_GLOBALS = {
    "_JavaError": JavaError,
    "_IE": InterpreterError,
    "_ObjectRef": ObjectRef,
    "_trapping": _trapping,
    "_idxcheck": _idxcheck,
    "_upcast": _upcast,
    "_storecheck": _storecheck,
    "_new_array": _new_array,
    "_instanceof": value_instanceof,
}
