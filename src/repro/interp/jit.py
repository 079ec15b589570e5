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
paper's "competitive runtime system" claim.

Translation depends only on the function, so it happens once per
loaded function: the source is emitted and compiled on first use and
kept in the function's
:class:`~repro.interp.interpreter.FunctionCode` memo, beside the
interpreter's block plans and the trace tier's builds.  Each
:class:`JitCompiler` links that code (:meth:`GeneratedCode.link`) to
its own runtime, call-site dispatch tables and throwing helpers, so a
fresh compiler over an already-run module pays no translation.  This
is sound only under the invariant stated on
:class:`repro.ssa.ir.Function`.
"""

from __future__ import annotations

from types import FunctionType
from typing import Callable, Optional

from repro import jmath
from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    runtime_class,
    value_instanceof,
)
from repro.interp.interpreter import ExecutionResult, function_code
from repro.interp.runtime import Runtime
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Module
from repro.typesys.world import MethodInfo


class JitError(Exception):
    """Translation failure (invalid module or unsupported shape)."""


class _Emitter:
    """Accumulates generated source with indentation."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines)


class JitCompiler:
    """Runs a module's functions as generated Python callables, linking
    each function's shared code to this compiler's runtime on demand."""

    def __init__(self, module: Module):
        self.module = module
        self.world = module.world
        self.runtime = Runtime(module.world)
        self.runtime.invoke_virtual = self._invoke_virtual_for_runtime
        self._compiled: dict[int, Callable] = {}
        self._initialized = False

    # ------------------------------------------------------------------
    # public API (mirrors the interpreter)

    def run_main(self, class_name: Optional[str] = None,
                 method_name: str = "main") -> ExecutionResult:
        target = None
        # key-only iteration: a streamed module may still lack bodies
        for method in self.module.functions:
            if method.name != method_name or not method.is_static:
                continue
            if class_name is not None and \
                    method.declaring.name.split(".")[-1] != \
                    class_name.split(".")[-1]:
                continue
            target = self.module.functions[method]
            break
        if target is None:
            raise JitError(f"no static {method_name} found")
        args = [None] if target.method.param_types else []
        return self.run_function(target, args)

    def run_function(self, function: Function,
                     args: list) -> ExecutionResult:
        self._ensure_initialized()
        compiled = self.get(function)
        exception = None
        value = None
        try:
            value = compiled(*args)
        except JavaError as error:
            exception = error.value
        return ExecutionResult(value, exception,
                               "".join(self.runtime.stdout), 0)

    def _ensure_initialized(self) -> None:
        if self._initialized:
            return
        self._initialized = True
        for info in self.module.classes:
            for method in info.methods:
                if method.name == "<clinit>":
                    function = self.module.functions.get(method)
                    if function is not None:
                        self.get(function)()

    # ------------------------------------------------------------------
    # compilation

    def get(self, function: Function) -> Callable:
        linked = self._compiled.get(id(function))
        if linked is None:
            code = function_code(function)
            generated = code.jit
            if generated is None:
                generated = code.jit = _translate(function)
            linked = self._compiled[id(function)] = generated.link(self)
        return linked

    def _invoker(self, call: ir.Call) -> Callable:
        """A call-site closure: static binding resolves once, virtual
        dispatch memoizes per runtime class."""
        method = call.method
        if not call.dispatch:
            return self._static_invoker(method)
        table: dict[int, Callable] = {}
        resolve = self._resolve_virtual
        static_invoker = self._static_invoker

        def invoke_virtual(*args):
            receiver = args[0]
            key = id(receiver.__class__) if not isinstance(
                receiver, ObjectRef) else id(receiver.class_info)
            target = table.get(key)
            if target is None:
                resolved = resolve(receiver, method)
                target = static_invoker(resolved)
                table[key] = target
            return target(*args)
        return invoke_virtual

    def _static_invoker(self, method: MethodInfo) -> Callable:
        if method.is_native:
            runtime = self.runtime

            def invoke_native(*args):
                return runtime.invoke_native(method, list(args))
            return invoke_native
        function = self.module.functions.get(method)
        if function is None:
            raise JitError(f"no body for {method.qualified_name}")
        cell: list = []
        get = self.get

        def invoke(*args):
            if not cell:
                cell.append(get(function))
            return cell[0](*args)
        return invoke

    def _resolve_virtual(self, receiver, method: MethodInfo) -> MethodInfo:
        cls = runtime_class(self.world, receiver)
        if cls is None:
            raise JitError("virtual dispatch on a non-object")
        if 0 <= method.vtable_slot < len(cls.vtable):
            resolved = cls.vtable[method.vtable_slot]
            if resolved.signature == method.signature:
                return resolved
        for candidate in cls.methods_named(method.name):
            if candidate.signature == method.signature:
                return candidate
        return method

    def _invoke_virtual_for_runtime(self, receiver, method: MethodInfo):
        resolved = self._resolve_virtual(receiver, method)
        return self._static_invoker(resolved)(receiver)


# ----------------------------------------------------------------------
# translation: once per function, kept in its FunctionCode and shared by
# every runner

class GeneratedCode:
    """One generated Python function: compiled once, linked per runner.

    ``constants`` are the globals every runner shares (interned
    strings, fold functions, field and class infos); ``slots`` are
    ``(name, make, arg)`` triples that :meth:`link` binds to
    ``make(runner, arg)``, so anything holding runner state is created
    for each runner.  Raises ``SyntaxError`` on bad source.
    """

    __slots__ = ("code", "constants", "slots")

    def __init__(self, source: str, filename: str, name: str,
                 constants: dict, slots: tuple):
        env = dict(constants)
        exec(compile(source, filename, "exec"), env)
        self.code = env.pop(name).__code__
        self.constants = env  # exec added __builtins__
        self.slots = slots

    def link(self, runner) -> Callable:
        env = dict(self.constants)
        for name, make, arg in self.slots:
            env[name] = make(runner, arg)
        return FunctionType(self.code, env)


def _translate(function: Function) -> GeneratedCode:
    env: dict = {"_JavaError": JavaError}
    emitter = _Emitter()
    translator = _FunctionTranslator(function, env, emitter)
    translator.translate("_jit")
    source = emitter.source()
    try:
        return GeneratedCode(source, f"<jit:{function.name}>", "_jit", env,
                             tuple(translator.slots))
    except SyntaxError as error:  # pragma: no cover - translator bug
        raise JitError(f"generated bad code for {function.name}: "
                       f"{error}\n{source}") from None


class _FunctionTranslator:
    """Emits one function's code.  Values every runner shares become
    constants (:meth:`bind`); values that hold runner state become
    link slots (:meth:`link`), bound by :meth:`GeneratedCode.link`."""

    def __init__(self, function: Function, env: dict, emitter: _Emitter):
        self.function = function
        self.env = env
        self.out = emitter
        self.slots: list[tuple] = []
        self._names: dict = {}

    def bind(self, value) -> str:
        """A global shared by every runner, holding ``value``."""
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"_g{len(self._names) + 1}"
            self.env[name] = value
        return name

    def link(self, make: Callable, arg=None) -> str:
        """A global each runner binds to ``make(runner, arg)``."""
        key = (make, id(arg))
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"_r{len(self._names) + 1}"
            self.slots.append((name, make, arg))
        return name

    # -- helpers bound once per function -----------------------------------

    def translate(self, name: str) -> None:
        function = self.function
        method = function.method
        arity = len(method.param_types) + (0 if method.is_static else 1)
        params = ", ".join(f"a{i}" for i in range(arity))
        self.out.emit(f"def {name}({params}):")
        self.out.indent += 1
        reachable = function_code(function).blocks
        if not reachable:
            self.out.emit("return None")
            self.out.indent -= 1
            return
        for param in function.params:
            self.out.emit(f"v{param.id} = a{param.index}")
        self.out.emit("_exc = None")
        self.out.emit(f"_b = {function.entry.id}")
        self.out.emit("while True:")
        self.out.indent += 1
        for index, block in enumerate(reachable):
            keyword = "if" if index == 0 else "elif"
            self.out.emit(f"{keyword} _b == {block.id}:")
            self.out.indent += 1
            self._translate_block(block)
            self.out.indent -= 1
        self.out.emit("else:")
        self.out.indent += 1
        self.out.emit("raise RuntimeError('jit: bad block id')")
        self.out.indent -= 2
        self.out.indent -= 1

    def _phi_copies(self, source: Block, target: Block, kind: str) -> str:
        """The parallel copy for edge source->target (may be '')."""
        if not target.phis:
            return ""
        index = None
        for position, (pred, pred_kind) in enumerate(target.preds):
            if pred is source and pred_kind == kind:
                index = position
                break
        if index is None:
            raise JitError("edge missing from predecessor list")
        targets = ", ".join(f"v{phi.id}" for phi in target.phis)
        values = ", ".join(f"v{phi.operands[index].id}"
                           for phi in target.phis)
        return f"{targets} = {values}"

    def _jump(self, source: Block, target: Block, kind: str = "norm") -> None:
        copies = self._phi_copies(source, target, kind)
        if copies:
            self.out.emit(copies)
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
            raise JitError(f"B{block.id} lacks a terminator")
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
            self.out.emit("raise RuntimeError('jit: unreachable')")
            return
        normal = block.normal_succs()
        if term.kind == "branch":
            if len(normal) != 2:
                raise JitError("branch without two successors")
            self.out.emit(f"if v{term.value.id}:")
            self.out.indent += 1
            self._jump(block, normal[0])
            self.out.indent -= 1
            self.out.emit("else:")
            self.out.indent += 1
            self._jump(block, normal[1])
            self.out.indent -= 1
            return
        if len(normal) != 1:
            raise JitError(f"{term.kind} with {len(normal)} successors")
        self._jump(block, normal[0])

    # -- instructions -------------------------------------------------------

    def _translate_instr(self, instr: ir.Instr) -> None:
        handler = getattr(self, "_i_" + type(instr).__name__.lower(), None)
        if handler is None:
            raise JitError(f"jit cannot translate {type(instr).__name__}")
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
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        if operation.traps:
            wrapper = self.link(_trapping, operation.fold)
            self.out.emit(f"v{instr.id} = {wrapper}({args})")
        else:
            fold = self.bind(operation.fold)
            self.out.emit(f"v{instr.id} = {fold}({args})")

    def _i_refcmp(self, instr: ir.RefCmp) -> None:
        op = "is" if instr.is_eq else "is not"
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id} {op} "
                      f"v{instr.operands[1].id}")

    def _i_nullcheck(self, instr: ir.NullCheck) -> None:
        helper = self.link(_runtime)
        value = f"v{instr.operands[0].id}"
        self.out.emit(f"if {value} is None: "
                      f"{helper}.throw('java.lang.NullPointerException')")
        self.out.emit(f"v{instr.id} = {value}")

    def _i_idxcheck(self, instr: ir.IdxCheck) -> None:
        helper = self.link(_idxcheck_helper)
        self.out.emit(f"v{instr.id} = {helper}(v{instr.array.id}, "
                      f"v{instr.index.id})")

    def _i_upcast(self, instr: ir.Upcast) -> None:
        helper = self.link(_upcast_helper, instr.target_type)
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_downcast(self, instr: ir.Downcast) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}")

    def _i_getfield(self, instr: ir.GetField) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".fields[{instr.field.slot}]")

    def _i_setfield(self, instr: ir.SetField) -> None:
        self.out.emit(f"v{instr.operands[0].id}.fields[{instr.field.slot}]"
                      f" = v{instr.operands[1].id}")

    def _i_getstatic(self, instr: ir.GetStatic) -> None:
        runtime = self.link(_runtime)
        field = self.bind(instr.field)
        self.out.emit(f"v{instr.id} = {runtime}.get_static({field})")

    def _i_setstatic(self, instr: ir.SetStatic) -> None:
        runtime = self.link(_runtime)
        field = self.bind(instr.field)
        self.out.emit(f"{runtime}.set_static({field}, "
                      f"v{instr.operands[0].id})")

    def _i_getelt(self, instr: ir.GetElt) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}]")

    def _i_setelt(self, instr: ir.SetElt) -> None:
        if instr.array_type.element.is_reference():
            helper = self.link(_storecheck_helper)
            self.out.emit(f"{helper}(v{instr.operands[0].id}, "
                          f"v{instr.operands[2].id})")
        self.out.emit(f"v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}] = "
                      f"v{instr.operands[2].id}")

    def _i_arraylen(self, instr: ir.ArrayLen) -> None:
        self.out.emit(f"v{instr.id} = "
                      f"len(v{instr.operands[0].id}.elements)")

    def _i_new(self, instr: ir.New) -> None:
        cls = self.bind(instr.class_info)
        ctor = self.bind(ObjectRef)
        self.out.emit(f"v{instr.id} = {ctor}({cls})")

    def _i_newarray(self, instr: ir.NewArray) -> None:
        helper = self.link(_newarray_helper, instr.array_type)
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_instanceof(self, instr: ir.InstanceOf) -> None:
        helper = self.link(_instanceof_helper, instr.target_type)
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_call(self, instr: ir.Call) -> None:
        invoker = self.link(_call_site, instr)
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        target = f"v{instr.id} = " if instr.plane is not None else ""
        self.out.emit(f"{target}{invoker}({args})")

    def _i_caughtexc(self, instr: ir.CaughtExc) -> None:
        self.out.emit(f"v{instr.id} = _exc")


# ----------------------------------------------------------------------
# link-time helpers: each is called as make(runner, arg) once per runner,
# where the runner is a JitCompiler or the trace tier's adapter (both
# expose runtime and world; a trace calls the interpreter's shared call
# sites instead of linking _call_site)

def _runtime(runner, _arg):
    return runner.runtime


def _call_site(runner, call: ir.Call):
    return runner._invoker(call)


def _trapping(runner, fold):
    runtime = runner.runtime

    def apply(*args):
        try:
            return fold(*args)
        except ZeroDivisionError:
            runtime.throw("java.lang.ArithmeticException", "/ by zero")
    return apply


def _idxcheck_helper(runner, _arg):
    runtime = runner.runtime

    def idxcheck(array, index):
        if 0 <= index < len(array.elements):
            return index
        runtime.throw(
            "java.lang.ArrayIndexOutOfBoundsException",
            f"Index {index} out of bounds for length "
            f"{len(array.elements)}")
    return idxcheck


def _upcast_helper(runner, target_type):
    world = runner.world
    runtime = runner.runtime

    def upcast(value):
        if value is None:
            return None
        if not value_instanceof(world, value, target_type):
            runtime.throw("java.lang.ClassCastException", str(target_type))
        return value
    return upcast


def _instanceof_helper(runner, target_type):
    world = runner.world

    def check(value):
        return value_instanceof(world, value, target_type)
    return check


def _newarray_helper(runner, array_type):
    runtime = runner.runtime

    def newarray(length):
        if length < 0:
            runtime.throw("java.lang.NegativeArraySizeException",
                          str(length))
        return ArrayRef(array_type, length)
    return newarray


def _storecheck_helper(runner, _arg):
    world = runner.world
    runtime = runner.runtime

    def storecheck(array, value):
        element = array.array_type.element
        if value is not None \
                and not value_instanceof(world, value, element):
            runtime.throw("java.lang.ArrayStoreException", str(element))
    return storecheck
