"""The SafeTSA interpreter: executes :class:`~repro.ssa.ir.Function` bodies.

Execution walks the CFG block by block.  Register state is a per-frame
mapping from instruction id to value; dominance guarantees every operand
was computed before its use, so no scoping machinery is needed at
runtime.  Phi operands are selected by the index of the incoming edge in
the block's canonical predecessor list -- the same list the wire format's
phi operand order is defined by.
"""

from __future__ import annotations

from typing import Optional

from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    value_instanceof,
)
from repro.interp.runtime import Runtime
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Module
from repro.typesys.world import MethodInfo


class InterpreterError(Exception):
    """Internal execution failure (invalid module or interpreter bug)."""


class StepLimitExceeded(InterpreterError):
    """The configured execution budget ran out."""


class AllocationLimitExceeded(InterpreterError):
    """An array allocation exceeded the configured cap (fuzzing guard)."""


class ExecutionResult:
    """Observable outcome of running an entry point."""

    def __init__(self, value, exception: Optional[ObjectRef], stdout: str,
                 steps: int):
        self.value = value
        self.exception = exception
        self.stdout = stdout
        self.steps = steps

    @property
    def completed(self) -> bool:
        return self.exception is None

    def exception_name(self) -> Optional[str]:
        return self.exception.class_info.name if self.exception else None

    def __repr__(self) -> str:  # pragma: no cover
        if self.exception is not None:
            return f"<ExecutionResult exception={self.exception_name()}>"
        return f"<ExecutionResult value={self.value!r}>"


class Interpreter:
    """Executes a SafeTSA module."""

    def __init__(self, module: Module, max_steps: int = 50_000_000):
        self.module = module
        self.world = module.world
        self.runtime = Runtime(module.world)
        self.runtime.invoke_virtual = self._invoke_virtual_for_runtime
        self.max_steps = max_steps
        #: optional cap on single-array allocations; None = unlimited.
        #: The fuzz harness sets this so a mutated length constant in an
        #: otherwise valid module cannot exhaust host memory.
        self.max_array_length: Optional[int] = None
        self.steps = 0
        self.check_counts = {"nullcheck": 0, "idxcheck": 0, "upcast": 0}
        self._initialized = False
        #: block id -> _BlockPlan; per-block handler/phi/terminator
        #: resolution done once instead of per executed instruction.
        self._plans: dict[int, _BlockPlan] = {}

    # ==================================================================
    # entry points

    def run_main(self, class_name: Optional[str] = None,
                 method_name: str = "main") -> ExecutionResult:
        function = self._find_main(class_name, method_name)
        args: list = []
        if function.method.param_types:
            args = [None]  # String[] args, unused by the corpus
        return self.run_function(function, args)

    def run_function(self, function: Function, args: list) -> ExecutionResult:
        self._ensure_initialized()
        exception: Optional[ObjectRef] = None
        value = None
        try:
            value = self.call(function, args)
        except JavaError as error:
            exception = error.value
        return ExecutionResult(value, exception,
                               "".join(self.runtime.stdout), self.steps)

    def _find_main(self, class_name: Optional[str],
                   method_name: str) -> Function:
        # iterate keys only: a streamed module may not have every body
        # yet, and the entry point is found without touching any
        for method in self.module.functions:
            if method.name != method_name or not method.is_static:
                continue
            if class_name is not None and \
                    method.declaring.name.split(".")[-1] != \
                    class_name.split(".")[-1]:
                continue
            return self.module.functions[method]
        raise InterpreterError(
            f"no static {method_name} method found"
            + (f" in {class_name}" if class_name else ""))

    def _ensure_initialized(self) -> None:
        """Run every <clinit> once, in class declaration order."""
        if self._initialized:
            return
        self._initialized = True
        for info in self.module.classes:
            for method in info.methods:
                if method.name == "<clinit>":
                    function = self.module.functions.get(method)
                    if function is not None:
                        self.call(function, [])

    # ==================================================================
    # calls

    def call(self, function: Function, args: list):
        frame: dict[int, object] = {}
        for param in function.params:
            frame[param.id] = args[param.index]
        plans = self._plans
        max_steps = self.max_steps
        block = function.entry
        plan = plans.get(block.id)
        if plan is None:
            plan = self._plan(block)
        came_key: Optional[tuple[int, str]] = None
        came_block: Optional[Block] = None
        exception: Optional[ObjectRef] = None
        while True:
            self.steps += 1
            if self.steps > max_steps:
                raise StepLimitExceeded(
                    f"exceeded {max_steps} steps in {function.name}")
            moves = plan.moves
            if moves is not None:
                move = moves.get(came_key)
                if move is None:
                    raise self._phi_edge_error(plan.block, came_block)
                targets, sources = move
                # parallel copy: read every source before the first write
                # (a phi operand may itself be a phi of this block)
                values = [frame[source] for source in sources]
                for target, value in zip(targets, values):
                    frame[target] = value
            for handler, instr, store in plan.ops:
                if handler is None:  # CaughtExc
                    frame[store] = exception
                    continue
                try:
                    result = handler(instr, frame)
                except JavaError as error:
                    target = plan.exc_target
                    if target is None:
                        raise
                    exception = error.value
                    came_key = (plan.block_id, "exc")
                    came_block = plan.block
                    plan = plans.get(target.id) or self._plan(target)
                    break
                if store is not None:
                    frame[store] = result
            else:
                kind = plan.kind
                if kind == "branch":
                    norm = plan.norm
                    next_block = norm[0] if frame[plan.value_id] else norm[1]
                elif plan.succ is not None:  # fall / break / continue
                    next_block = plan.succ
                elif kind == "return":
                    if plan.value_id is not None:
                        return frame[plan.value_id]
                    return None
                elif kind == "throw":
                    target = plan.exc_target
                    if target is None:
                        raise JavaError(frame[plan.value_id])
                    # a throw inside a try body jumps to the dispatch block
                    exception = frame[plan.value_id]
                    came_key = (plan.block_id, "exc")
                    came_block = plan.block
                    plan = plans.get(target.id) or self._plan(target)
                    continue
                elif kind == "unreachable":
                    raise InterpreterError(
                        f"reached unreachable terminator in {function.name}")
                elif kind is None:
                    raise InterpreterError(
                        f"block B{plan.block_id} has no terminator")
                else:
                    raise InterpreterError(
                        f"B{plan.block_id} ({kind}) has {len(plan.norm)} "
                        "normal successors")
                came_key = (plan.block_id, "norm")
                came_block = plan.block
                plan = plans.get(next_block.id) or self._plan(next_block)

    def _plan(self, block: Block) -> "_BlockPlan":
        plan = _BlockPlan(self, block)
        self._plans[block.id] = plan
        return plan

    @staticmethod
    def _phi_edge_error(block: Block, came_block) -> "InterpreterError":
        if came_block is None:
            return InterpreterError(f"phis in entry block B{block.id}")
        return InterpreterError(
            f"edge B{came_block.id}->B{block.id} not in pred list")

    # ==================================================================
    # instruction execution

    def _exec_const(self, instr: ir.Const, frame):
        if isinstance(instr.value, str):
            return JStr.intern(instr.value)
        return instr.value

    def _exec_param(self, instr: ir.Param, frame):
        return frame[instr.id]

    def _exec_prim(self, instr: ir.Prim, frame):
        args = [frame[op.id] for op in instr.operands]
        try:
            return instr.operation.fold(*args)
        except ZeroDivisionError:
            self.runtime.throw("java.lang.ArithmeticException", "/ by zero")

    def _exec_refcmp(self, instr: ir.RefCmp, frame):
        left = frame[instr.operands[0].id]
        right = frame[instr.operands[1].id]
        same = left is right
        return same if instr.is_eq else not same

    def _exec_nullcheck(self, instr: ir.NullCheck, frame):
        value = frame[instr.operands[0].id]
        self.check_counts["nullcheck"] += 1
        if value is None:
            self.runtime.throw("java.lang.NullPointerException")
        return value

    def _exec_idxcheck(self, instr: ir.IdxCheck, frame):
        array = frame[instr.array.id]
        index = frame[instr.index.id]
        self.check_counts["idxcheck"] += 1
        if not isinstance(array, ArrayRef):
            raise InterpreterError("idxcheck on non-array")
        if not 0 <= index < array.length:
            self.runtime.throw(
                "java.lang.ArrayIndexOutOfBoundsException",
                f"Index {index} out of bounds for length {array.length}")
        return index

    def _exec_upcast(self, instr: ir.Upcast, frame):
        value = frame[instr.operands[0].id]
        self.check_counts["upcast"] += 1
        if value is None:
            return None  # Java checkcast passes null through
        if not value_instanceof(self.world, value, instr.target_type):
            self.runtime.throw("java.lang.ClassCastException",
                               str(instr.target_type))
        return value

    def _exec_downcast(self, instr: ir.Downcast, frame):
        return frame[instr.operands[0].id]

    def _exec_getfield(self, instr: ir.GetField, frame):
        obj = frame[instr.operands[0].id]
        return obj.fields[instr.field.slot]

    def _exec_setfield(self, instr: ir.SetField, frame):
        obj = frame[instr.operands[0].id]
        obj.fields[instr.field.slot] = frame[instr.operands[1].id]
        return None

    def _exec_getstatic(self, instr: ir.GetStatic, frame):
        return self.runtime.get_static(instr.field)

    def _exec_setstatic(self, instr: ir.SetStatic, frame):
        self.runtime.set_static(instr.field, frame[instr.operands[0].id])
        return None

    def _exec_getelt(self, instr: ir.GetElt, frame):
        array = frame[instr.operands[0].id]
        return array.elements[frame[instr.operands[1].id]]

    def _exec_setelt(self, instr: ir.SetElt, frame):
        array = frame[instr.operands[0].id]
        value = frame[instr.operands[2].id]
        self._array_store_check(array, value)
        array.elements[frame[instr.operands[1].id]] = value
        return None

    def _array_store_check(self, array, value) -> None:
        """Java array covariance: reference stores are checked against
        the array's *runtime* element type (ArrayStoreException)."""
        element = array.array_type.element
        if value is None or not element.is_reference():
            return
        if not value_instanceof(self.world, value, element):
            self.runtime.throw("java.lang.ArrayStoreException",
                               str(element))

    def _exec_arraylen(self, instr: ir.ArrayLen, frame):
        return frame[instr.operands[0].id].length

    def _exec_new(self, instr: ir.New, frame):
        return ObjectRef(instr.class_info)

    def _exec_newarray(self, instr: ir.NewArray, frame):
        length = frame[instr.operands[0].id]
        if length < 0:
            self.runtime.throw("java.lang.NegativeArraySizeException",
                               str(length))
        if self.max_array_length is not None \
                and length > self.max_array_length:
            raise AllocationLimitExceeded(
                f"new array of {length} > cap {self.max_array_length}")
        return ArrayRef(instr.array_type, length)

    def _exec_instanceof(self, instr: ir.InstanceOf, frame):
        value = frame[instr.operands[0].id]
        return value_instanceof(self.world, value, instr.target_type)

    def _exec_call(self, instr: ir.Call, frame):
        args = [frame[op.id] for op in instr.operands]
        method = instr.method
        if instr.dispatch:
            receiver = args[0]
            method = self._resolve_virtual(receiver, method)
        return self._invoke(method, args)

    def _resolve_virtual(self, receiver, method: MethodInfo) -> MethodInfo:
        from repro.interp.heap import runtime_class
        cls = runtime_class(self.world, receiver)
        if cls is None:
            raise InterpreterError("virtual dispatch on null receiver")
        if method.vtable_slot >= 0 and method.vtable_slot < len(cls.vtable):
            resolved = cls.vtable[method.vtable_slot]
            if resolved.signature == method.signature:
                return resolved
        # builtin receiver (e.g. JStr) dispatches by signature search
        for candidate in cls.methods_named(method.name):
            if candidate.signature == method.signature:
                return candidate
        return method

    def _invoke(self, method: MethodInfo, args: list):
        if method.is_native:
            return self.runtime.invoke_native(method, args)
        function = self.module.functions.get(method)
        if function is None:
            raise InterpreterError(
                f"no body for method {method.qualified_name}")
        return self.call(function, args)

    def _invoke_virtual_for_runtime(self, receiver, method: MethodInfo):
        resolved = self._resolve_virtual(receiver, method)
        return self._invoke(resolved, [receiver])


class _BlockPlan:
    """Everything :meth:`Interpreter.call` would otherwise resolve per
    executed instruction -- handler bound methods, phi routing per
    incoming edge, terminator shape -- resolved once per block."""

    __slots__ = ("block", "block_id", "ops", "moves", "kind", "value_id",
                 "norm", "succ", "exc_target", "hs")

    def __init__(self, interp: Interpreter, block: Block):
        self.block = block
        self.block_id = block.id
        # loop-header state, set by the tracing interpreter's _plan
        # override; the base interpreter never reads it
        self.hs = None
        ops = []
        for instr in block.instrs:
            if isinstance(instr, ir.CaughtExc):
                ops.append((None, instr, instr.id))
                continue
            handler = getattr(
                interp, "_exec_" + type(instr).__name__.lower(), None)
            if handler is None:
                raise InterpreterError(
                    f"cannot execute {type(instr).__name__}")
            store = instr.id if instr.plane is not None else None
            ops.append((handler, instr, store))
        self.ops = tuple(ops)
        if block.phis:
            phi_ids = tuple(phi.id for phi in block.phis)
            moves: dict = {}
            for index, (pred, kind) in enumerate(block.preds):
                # setdefault: a duplicated edge keeps its first index,
                # the first match in pred order
                moves.setdefault(
                    (pred.id, kind),
                    (phi_ids,
                     tuple(phi.operands[index].id for phi in block.phis)))
            self.moves = moves
        else:
            self.moves = None
        term = block.term
        self.kind = term.kind if term is not None else None
        self.value_id = None
        if term is not None and term.value is not None:
            self.value_id = term.value.id
        self.norm = tuple(s for s, kind in block.succs if kind == "norm")
        self.succ = None
        if self.kind in ("fall", "break", "continue") and len(self.norm) == 1:
            self.succ = self.norm[0]
        self.exc_target = None
        for succ, kind in block.succs:
            if kind == "exc":
                self.exc_target = succ
                break
