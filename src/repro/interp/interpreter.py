"""The SafeTSA interpreter: executes :class:`~repro.ssa.ir.Function` bodies.

Execution walks the CFG block by block.  Register state is a per-frame
mapping from instruction id to value; dominance guarantees every operand
was computed before its use, so no scoping machinery is needed at
runtime.  Phi operands are selected by the index of the incoming edge in
the block's canonical predecessor list -- the same list the wire format's
phi operand order is defined by.

Every operand names the instruction that defines it, so nothing about an
instruction has to be looked up while it runs.  The first time a block
is entered its :class:`_BlockPlan` binds each instruction into one
closure ``op(frame)`` (the ``_bind_*`` methods).  The closure holds the
operand and result registers and whatever the instruction resolves to:
the operation's fold, a field slot, an interned string, a class or array
type, a call site.  It writes its own result register.  A block then
runs as ``for op in plan.ops: op(frame)`` inside one ``try``: a Java
exception raised by any op leaves the block along its exception edge,
and the dispatch block's ``caughtexc`` reads the caught value from the
reserved frame slot :data:`CAUGHT_SLOT`.  In SafeTSA only a trapping
instruction can raise, and it closes its subblock, so this is the edge
a handler around each instruction would take.

Every ``nullcheck``, ``idxcheck`` and ``upcast`` still runs and counts in
:attr:`Interpreter.check_counts`; binding only removes the lookups
around them.  A static call site resolves its body or native on first
use, and a virtual one memoizes its resolution per receiver class.
Plans and their ops belong to one interpreter: they close over its
counters, its :class:`~repro.interp.runtime.Runtime` and its call-site
memos, and read ``max_array_length`` when they run.  The trace tier's
fallback (:class:`repro.interp.trace.TracingInterpreter`) runs the same
ops.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Optional, Sequence

from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    runtime_class,
    value_instanceof,
)
from repro.interp.runtime import Runtime
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Module
from repro.typesys.world import MethodInfo

#: frame slot holding the exception a dispatch block's ``caughtexc``
#: reads; instruction ids start at 1, so no register uses it
CAUGHT_SLOT = -1

#: (interpreter class, instruction class) -> its ``_bind_*`` method
_BINDERS: dict = {}


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
        #: block id -> _BlockPlan: bound ops, phi moves per incoming
        #: edge and terminator shape, built on first entry
        self._plans: dict[int, _BlockPlan] = {}
        #: call instruction id -> its site's ``invoke(args)``
        self._sites: dict[int, Callable[[Sequence], object]] = {}

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

    def call(self, function: Function, args: Sequence):
        plans = self._plans
        max_steps = self.max_steps
        block = function.entry
        plan = plans.get(block.id) or self._plan(block)
        frame = plan.consts.copy()
        for param in function.params:
            frame[param.id] = args[param.index]
        came_key: Optional[tuple[int, str]] = None
        while True:
            self.steps += 1
            if self.steps > max_steps:
                raise StepLimitExceeded(
                    f"exceeded {max_steps} steps in {function.name}")
            moves = plan.moves
            if moves is not None:
                move = moves.get(came_key)
                if move is None:
                    raise self._phi_edge_error(plan.block, came_key)
                move(frame)
            try:
                for op in plan.ops:
                    op(frame)
            except JavaError as error:
                target = plan.exc_target
                if target is None:
                    raise
                frame[CAUGHT_SLOT] = error.value
                came_key = plan.exc_key
                plan = plans.get(target.id) or self._plan(target)
                continue
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
                frame[CAUGHT_SLOT] = frame[plan.value_id]
                came_key = plan.exc_key
                plan = plans.get(target.id) or self._plan(target)
                continue
            else:
                raise self._bad_terminator(plan, function)
            came_key = plan.norm_key
            plan = plans.get(next_block.id) or self._plan(next_block)

    def _plan(self, block: Block) -> "_BlockPlan":
        plan = _BlockPlan(self, block)
        self._plans[block.id] = plan
        return plan

    @staticmethod
    def _phi_edge_error(block: Block, came_key) -> "InterpreterError":
        if came_key is None:
            return InterpreterError(f"phis in entry block B{block.id}")
        return InterpreterError(
            f"edge B{came_key[0]}->B{block.id} not in pred list")

    @staticmethod
    def _bad_terminator(plan: "_BlockPlan",
                        function: Function) -> "InterpreterError":
        kind = plan.kind
        if kind == "unreachable":
            return InterpreterError(
                f"reached unreachable terminator in {function.name}")
        if kind is None:
            return InterpreterError(
                f"block B{plan.block_id} has no terminator")
        return InterpreterError(
            f"B{plan.block_id} ({kind}) has {len(plan.norm)} "
            "normal successors")

    # ==================================================================
    # call sites

    def _site(self, call: ir.Call) -> Callable[[Sequence], object]:
        """``invoke(args)`` for one call site of this interpreter, made
        once and shared by the site's op and any trace through it;
        ``args`` is the operand tuple, receiver first.

        A static site resolves its body or native on first use -- not
        when its block is bound, since a streamed module may still lack
        a body the block never reaches.  A virtual site memoizes its
        resolution per receiver class (the class info of an object, the
        Python class of a builtin string or array)."""
        invoke = self._sites.get(call.id)
        if invoke is not None:
            return invoke
        method = call.method
        target_of = self._target
        if not call.dispatch:
            target = None

            def invoke(args):
                nonlocal target
                if target is None:
                    target = target_of(method)
                return target(args)
        else:
            table: dict = {}
            resolve = self._resolve_virtual

            def invoke(args):
                receiver = args[0]
                key = receiver.class_info if type(receiver) is ObjectRef \
                    else type(receiver)
                target = table.get(key)
                if target is None:
                    target = table[key] = \
                        target_of(resolve(receiver, method))
                return target(args)
        self._sites[call.id] = invoke
        return invoke

    def _target(self, method: MethodInfo) -> Callable[[Sequence], object]:
        """``run(args)`` for a resolved method: its native, or a call of
        its body in this interpreter."""
        if method.is_native:
            return partial(self.runtime.invoke_native, method)
        function = self.module.functions.get(method)
        if function is None:
            raise InterpreterError(
                f"no body for method {method.qualified_name}")
        return self._body(function)

    def _body(self, function: Function) -> Callable[[Sequence], object]:
        """``run(args)`` for ``function``'s body in this interpreter."""
        return partial(self.call, function)

    def _resolve_virtual(self, receiver, method: MethodInfo) -> MethodInfo:
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

    def _invoke_virtual_for_runtime(self, receiver, method: MethodInfo):
        resolved = self._resolve_virtual(receiver, method)
        return self._target(resolved)((receiver,))

    # ==================================================================
    # binders: each turns one instruction into ``op(frame)``, once per
    # block plan; ``None`` means the instruction has nothing to run

    def _bind(self, instr: ir.Instr):
        key = (type(self), type(instr))
        binder = _BINDERS.get(key)
        if binder is None:
            binder = getattr(type(self),
                             "_bind_" + type(instr).__name__.lower(), None)
            if binder is None:
                raise InterpreterError(
                    f"cannot execute {type(instr).__name__}")
            _BINDERS[key] = binder
        return binder(self, instr)

    def _bind_const(self, instr: ir.Const):
        dst = instr.id
        value = _const_value(instr)

        def const(frame):
            frame[dst] = value
        return const

    def _bind_param(self, instr: ir.Param):
        return None  # call() stores every parameter before the entry block

    def _bind_prim(self, instr: ir.Prim):
        dst = instr.id
        fold = instr.operation.fold
        throw = self.runtime.throw
        ids = tuple(op.id for op in instr.operands)
        if len(ids) == 2:
            left, right = ids

            def prim(frame):
                try:
                    frame[dst] = fold(frame[left], frame[right])
                except ZeroDivisionError:
                    throw("java.lang.ArithmeticException", "/ by zero")
        elif len(ids) == 1:
            operand = ids[0]

            def prim(frame):
                try:
                    frame[dst] = fold(frame[operand])
                except ZeroDivisionError:
                    throw("java.lang.ArithmeticException", "/ by zero")
        else:
            def prim(frame):
                try:
                    frame[dst] = fold(*[frame[i] for i in ids])
                except ZeroDivisionError:
                    throw("java.lang.ArithmeticException", "/ by zero")
        return prim

    def _bind_refcmp(self, instr: ir.RefCmp):
        dst = instr.id
        left = instr.operands[0].id
        right = instr.operands[1].id
        if instr.is_eq:
            def refcmp(frame):
                frame[dst] = frame[left] is frame[right]
        else:
            def refcmp(frame):
                frame[dst] = frame[left] is not frame[right]
        return refcmp

    def _bind_nullcheck(self, instr: ir.NullCheck):
        dst = instr.id
        src = instr.operands[0].id
        counts = self.check_counts
        throw = self.runtime.throw

        def nullcheck(frame):
            value = frame[src]
            counts["nullcheck"] += 1
            if value is None:
                throw("java.lang.NullPointerException")
            frame[dst] = value
        return nullcheck

    def _bind_idxcheck(self, instr: ir.IdxCheck):
        dst = instr.id
        array_id = instr.array.id
        index_id = instr.index.id
        counts = self.check_counts
        throw = self.runtime.throw

        def idxcheck(frame):
            array = frame[array_id]
            index = frame[index_id]
            counts["idxcheck"] += 1
            if not isinstance(array, ArrayRef):
                raise InterpreterError("idxcheck on non-array")
            length = len(array.elements)
            if not 0 <= index < length:
                throw("java.lang.ArrayIndexOutOfBoundsException",
                      f"Index {index} out of bounds for length {length}")
            frame[dst] = index
        return idxcheck

    def _bind_upcast(self, instr: ir.Upcast):
        dst = instr.id
        src = instr.operands[0].id
        target_type = instr.target_type
        world = self.world
        counts = self.check_counts
        throw = self.runtime.throw

        def upcast(frame):
            value = frame[src]
            counts["upcast"] += 1
            # Java checkcast passes null through
            if value is not None and \
                    not value_instanceof(world, value, target_type):
                throw("java.lang.ClassCastException", str(target_type))
            frame[dst] = value
        return upcast

    def _bind_downcast(self, instr: ir.Downcast):
        dst = instr.id
        src = instr.operands[0].id

        def downcast(frame):
            frame[dst] = frame[src]
        return downcast

    def _bind_getfield(self, instr: ir.GetField):
        dst = instr.id
        obj = instr.operands[0].id
        slot = instr.field.slot

        def getfield(frame):
            frame[dst] = frame[obj].fields[slot]
        return getfield

    def _bind_setfield(self, instr: ir.SetField):
        obj = instr.operands[0].id
        src = instr.operands[1].id
        slot = instr.field.slot

        def setfield(frame):
            frame[obj].fields[slot] = frame[src]
        return setfield

    def _bind_getstatic(self, instr: ir.GetStatic):
        dst = instr.id
        field = instr.field
        get_static = self.runtime.get_static

        def getstatic(frame):
            frame[dst] = get_static(field)
        return getstatic

    def _bind_setstatic(self, instr: ir.SetStatic):
        src = instr.operands[0].id
        field = instr.field
        set_static = self.runtime.set_static

        def setstatic(frame):
            set_static(field, frame[src])
        return setstatic

    def _bind_getelt(self, instr: ir.GetElt):
        dst = instr.id
        array_id = instr.operands[0].id
        index_id = instr.operands[1].id

        def getelt(frame):
            frame[dst] = frame[array_id].elements[frame[index_id]]
        return getelt

    def _bind_setelt(self, instr: ir.SetElt):
        array_id = instr.operands[0].id
        index_id = instr.operands[1].id
        src = instr.operands[2].id
        if not instr.array_type.element.is_reference():
            # primitive arrays are invariant: nothing to check
            def setelt(frame):
                frame[array_id].elements[frame[index_id]] = frame[src]
            return setelt
        world = self.world
        throw = self.runtime.throw

        def setelt_checked(frame):
            array = frame[array_id]
            value = frame[src]
            # Java array covariance: a reference store is checked against
            # the array's *runtime* element type
            if value is not None:
                element = array.array_type.element
                if element.is_reference() and \
                        not value_instanceof(world, value, element):
                    throw("java.lang.ArrayStoreException", str(element))
            array.elements[frame[index_id]] = value
        return setelt_checked

    def _bind_arraylen(self, instr: ir.ArrayLen):
        dst = instr.id
        src = instr.operands[0].id

        def arraylen(frame):
            frame[dst] = len(frame[src].elements)
        return arraylen

    def _bind_new(self, instr: ir.New):
        dst = instr.id
        class_info = instr.class_info

        def new(frame):
            frame[dst] = ObjectRef(class_info)
        return new

    def _bind_newarray(self, instr: ir.NewArray):
        dst = instr.id
        src = instr.operands[0].id
        array_type = instr.array_type
        throw = self.runtime.throw
        interp = self

        def newarray(frame):
            length = frame[src]
            if length < 0:
                throw("java.lang.NegativeArraySizeException", str(length))
            # read per run: the fuzz harness sets the cap after binding
            cap = interp.max_array_length
            if cap is not None and length > cap:
                raise AllocationLimitExceeded(
                    f"new array of {length} > cap {cap}")
            frame[dst] = ArrayRef(array_type, length)
        return newarray

    def _bind_instanceof(self, instr: ir.InstanceOf):
        dst = instr.id
        src = instr.operands[0].id
        target_type = instr.target_type
        world = self.world

        def instanceof(frame):
            frame[dst] = value_instanceof(world, frame[src], target_type)
        return instanceof

    def _bind_call(self, instr: ir.Call):
        # a void call stores None under its own id, which nothing reads
        dst = instr.id
        ids = [op.id for op in instr.operands]
        invoke = self._site(instr)
        if len(ids) == 1:
            only = ids[0]

            def call(frame):
                frame[dst] = invoke((frame[only],))
        elif ids:
            read = itemgetter(*ids)  # two or more registers, as a tuple

            def call(frame):
                frame[dst] = invoke(read(frame))
        else:
            def call(frame):
                frame[dst] = invoke(())
        return call

    def _bind_caughtexc(self, instr: ir.CaughtExc):
        dst = instr.id

        def caughtexc(frame):
            frame[dst] = frame.get(CAUGHT_SLOT)
        return caughtexc


def _const_value(instr: ir.Const):
    value = instr.value
    return JStr.intern(value) if isinstance(value, str) else value


def _bind_move(targets: tuple, sources: tuple):
    """The parallel copy of one incoming edge's phi operands: every
    source is read before the first write, since a phi operand may
    itself be a phi of the same block."""
    if len(targets) == 1:
        target, source = targets[0], sources[0]

        def move(frame):
            frame[target] = frame[source]
        return move

    def move_all(frame):
        values = [frame[source] for source in sources]
        for target, value in zip(targets, values):
            frame[target] = value
    return move_all


class _BlockPlan:
    """One block, bound once per interpreter: its ops, a phi move per
    incoming edge, and its terminator's shape and edge keys."""

    __slots__ = ("block", "block_id", "consts", "ops", "moves", "kind",
                 "value_id", "norm", "succ", "exc_target", "norm_key",
                 "exc_key", "hs")

    def __init__(self, interp: Interpreter, block: Block):
        self.block = block
        self.block_id = block.id
        # loop-header state, set by the tracing interpreter's _plan
        # override; the base interpreter never reads it
        self.hs = None
        #: an entry block's constants, copied into each new frame rather
        #: than run as ops: a const has no operands and cannot trap
        self.consts: dict[int, object] = {}
        entry = block.function is not None and block.function.entry is block
        ops = []
        for instr in block.instrs:
            if entry and isinstance(instr, ir.Const):
                self.consts[instr.id] = _const_value(instr)
                continue
            op = interp._bind(instr)
            if op is not None:
                ops.append(op)
        self.ops = tuple(ops)
        if block.phis:
            phi_ids = tuple(phi.id for phi in block.phis)
            moves: dict = {}
            for index, (pred, kind) in enumerate(block.preds):
                # a duplicated edge keeps its first index, the first
                # match in pred order
                if (pred.id, kind) not in moves:
                    moves[(pred.id, kind)] = _bind_move(
                        phi_ids,
                        tuple(phi.operands[index].id for phi in block.phis))
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
        #: the came-from keys of this block's two kinds of outgoing edge
        self.norm_key = (block.id, "norm")
        self.exc_key = (block.id, "exc")
