"""The SafeTSA interpreter: executes :class:`~repro.ssa.ir.Function` bodies.

Execution walks the CFG block by block.  Register state is a per-frame
mapping from instruction id to value; dominance guarantees every operand
was computed before its use, so no scoping machinery is needed at
runtime.  Phi operands are selected by the index of the incoming edge in
the block's canonical predecessor list -- the same list the wire format's
phi operand order is defined by.

Every operand names the instruction that defines it, so nothing about an
instruction has to be looked up while it runs.  The first time a
function is called in the process, every reachable block of it gets a
:class:`_BlockPlan`, which binds each instruction into one closure
``op(frame, rt)`` (the ``_bind_*`` functions).  The closure holds the
operand and result registers and whatever the instruction resolves to:
the operation's fold, a field slot, an interned string, a class or array
type, a call site.  It writes its own result register.  A plan's
successor fields point at its successors' plans, so a block transfer
looks nothing up.  A block then runs as ``for op in plan.ops: op(frame,
rt)`` inside one ``try``: a Java exception raised by any op leaves the
block along its exception edge, and the dispatch block's ``caughtexc``
reads the caught value from the reserved frame slot :data:`CAUGHT_SLOT`.
In SafeTSA only a trapping instruction can raise, and it closes its
subblock, so this is the edge a handler around each instruction would
take.

Plans depend only on the function, so they are kept in its
:class:`FunctionCode` memo, which the JIT and the trace tier share, and
every :class:`Interpreter` and
:class:`~repro.interp.trace.TracingInterpreter` over the module runs
them.  Whatever a run changes reaches an op through ``rt``, the running
interpreter: its :attr:`~Interpreter.check_counts` (every ``nullcheck``,
``idxcheck`` and ``upcast`` still runs and counts; binding only removes
the lookups around them), its :class:`~repro.interp.runtime.Runtime`
(statics, stdout, throwing), its allocation cap and its ``call``.  A
call site's resolution depends only on the module and its world, so the
site memoizes it for every runner: a static site resolves its body or
native on first use, a virtual site per receiver class.  This is sound
only under the invariant stated on :class:`repro.ssa.ir.Function`.

The JIT's generated functions and the trace tier's traces follow the
same rule: they take the running runner as ``rt`` and are never linked
per runner.  Every tier's runner is a :class:`Runner`, which holds what
a run owns (the module's runtime, the allocation cap) and the one copy
of the entry points (``run_main``, ``run_function``, class
initialisation and the runtime's virtual callback); a tier supplies
only ``call(function, args)``.
"""

from __future__ import annotations

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
from repro.typesys.world import MethodInfo, World

#: frame slot holding the exception a dispatch block's ``caughtexc``
#: reads; instruction ids start at 1, so no register uses it
CAUGHT_SLOT = -1


class InterpreterError(Exception):
    """Internal execution failure (invalid module or interpreter bug)."""


class StepLimitExceeded(InterpreterError):
    """The configured execution budget ran out."""


class AllocationLimitExceeded(InterpreterError):
    """An array allocation exceeded the configured cap (fuzzing guard)."""


class StackDepthExceeded(InterpreterError):
    """The Java call stack outgrew the host's recursion limit.  Each
    tier spends a different number of Python frames per Java call, so
    the depth at which this fires differs between tiers."""


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


# ----------------------------------------------------------------------
# what a function alone determines, built once per loaded function

class FunctionCode:
    """What is derived once per loaded function and shared by its
    runners: the ``reachable_blocks()`` order and its index, the
    interpreter's block plans (``plans`` by block id, ``entry`` the
    entry block's, ``loop_free`` when no back edge enters any of them)
    and call sites, the loop headers (set by the trace tier), the JIT's
    compiled function ``jit(rt, *args)`` and the trace builds keyed on
    reachable-block indices (``None`` marks a path that does not
    compile).

    A build is complete before the one store that publishes it: every
    plan is built and linked before ``entry`` is set, a call site is
    added whole by one insert-if-absent, the JIT's function is compiled
    before it is stored, and the trace table is replaced, never
    updated.  Threads racing on a function may waste a build but never
    see half of one.  No run's state lives here: a call site memoizes
    only what the module and its world determine."""

    __slots__ = ("blocks", "index_of", "plans", "entry", "loop_free",
                 "sites", "loops", "jit", "traces")

    def __init__(self, function: Function):
        self.blocks = tuple(function.reachable_blocks())
        self.index_of = {block.id: i for i, block in enumerate(self.blocks)}
        self.plans: Optional[dict[int, _BlockPlan]] = None
        self.entry: Optional[_BlockPlan] = None
        #: no back edge enters any block (set with the plans)
        self.loop_free = False
        #: call instruction id -> its site's ``invoke(rt, args)``
        self.sites: dict[int, Callable] = {}
        self.loops = None
        self.jit: Optional[Callable] = None
        self.traces: dict = {}


def function_code(function: Function) -> FunctionCode:
    """The function's memo, created on first use.  It lives on the
    function, so it is freed with the module.  Threads racing to create
    it all get the one that is stored first."""
    code = getattr(function, "_generated", None)
    if code is None:
        code = function.__dict__.setdefault("_generated",
                                            FunctionCode(function))
    return code


def _build_plans(function: Function) -> "_BlockPlan":
    """Bind every reachable block of ``function`` into a plan, link the
    plans to each other and publish them; returns the entry plan."""
    code = function_code(function)
    headers = _loop_entries(function.entry)
    plans = {block.id: _BlockPlan(block, block.id in headers)
             for block in code.blocks}
    for plan in plans.values():
        plan.link(plans)
    code.plans = plans
    code.loop_free = not headers
    entry = code.entry = plans[function.entry.id]
    return entry


def _loop_entries(entry: Block) -> set[int]:
    """Ids of the blocks that a retreating edge of a depth-first walk
    from ``entry`` enters.  A loop header dominates its latches, so its
    back edges retreat in every such walk: the set holds every natural
    loop header and, in a reducible CFG, nothing else."""
    entered: set[int] = set()
    on_path = {entry.id}
    seen = {entry.id}
    stack = [(entry, iter(entry.succs))]
    while stack:
        block, succs = stack[-1]
        for succ, _kind in succs:
            if succ.id in on_path:
                entered.add(succ.id)
            elif succ.id not in seen:
                seen.add(succ.id)
                on_path.add(succ.id)
                stack.append((succ, iter(succ.succs)))
                break
        else:
            on_path.discard(block.id)
            stack.pop()
    return entered


class Runner:
    """What every tier's runner has: the module, its own
    :class:`~repro.interp.runtime.Runtime` (statics, stdout), the
    allocation cap, and the entry points.  A subclass supplies
    :meth:`call`, which runs one function on this runner; the shared
    code of every tier (block plans, call sites, the JIT's functions,
    traces) takes the running runner as its ``rt`` argument."""

    def __init__(self, module: Module):
        self.module = module
        self.world = module.world
        self.runtime = Runtime(module.world)
        self.runtime.invoke_virtual = self._invoke_virtual_for_runtime
        #: optional cap on single-array allocations; None = unlimited.
        #: The fuzz harness sets this so a mutated length constant in an
        #: otherwise valid module cannot exhaust host memory.
        self.max_array_length: Optional[int] = None
        #: blocks executed (the JIT counts none)
        self.steps = 0
        self._initialized = False

    def run_main(self, class_name: Optional[str] = None,
                 method_name: str = "main") -> ExecutionResult:
        function = self._find_main(class_name, method_name)
        args: list = []
        if function.method.param_types:
            args = [None]  # String[] args, unused by the corpus
        return self.run_function(function, args)

    def run_function(self, function: Function, args: list) -> ExecutionResult:
        """Run ``function`` after every ``<clinit>``; a Java exception
        thrown by either ends the run as its ``exception`` (one thrown
        by a ``<clinit>`` means ``function`` never runs)."""
        exception: Optional[ObjectRef] = None
        value = None
        try:
            try:
                self._ensure_initialized()
                value = self.call(function, args)
            except JavaError as error:
                exception = error.value
        except RecursionError:
            # the host stack ran out, in <clinit> or in the run
            raise StackDepthExceeded(
                f"call stack too deep running {function.name}") from None
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

    def _invoke_virtual_for_runtime(self, receiver, method: MethodInfo):
        resolved = _resolve_virtual(self.world, receiver, method)
        if resolved.is_native:
            return self.runtime.invoke_native(resolved, (receiver,))
        return self.call(_body(self.module, resolved), (receiver,))


class Interpreter(Runner):
    """Executes a SafeTSA module block by block over the shared plans."""

    def __init__(self, module: Module, max_steps: int = 50_000_000):
        super().__init__(module)
        self.max_steps = max_steps
        self.check_counts = {"nullcheck": 0, "idxcheck": 0, "upcast": 0}

    # ==================================================================
    # calls

    def call(self, function: Function, args: Sequence):
        try:
            plan = function._generated.entry
        except AttributeError:  # the function's first use in the process
            plan = None
        if plan is None:
            plan = _build_plans(function)
        max_steps = self.max_steps
        frame = plan.consts.copy()
        for register, index in plan.params:
            frame[register] = args[index]
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
                    op(frame, self)
            except JavaError as error:
                target = plan.exc_target
                if target is None:
                    raise
                frame[CAUGHT_SLOT] = error.value
                came_key = plan.exc_key
                plan = target
                continue
            kind = plan.kind
            if kind == "branch":
                norm = plan.norm
                next_plan = norm[0] if frame[plan.value_id] else norm[1]
            elif plan.succ is not None:  # fall / break / continue
                next_plan = plan.succ
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
                plan = target
                continue
            else:
                raise self._bad_terminator(plan, function)
            came_key = plan.norm_key
            plan = next_plan

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


# ----------------------------------------------------------------------
# call sites: resolved once per loaded module, invoked through the runner

def call_site(call: ir.Call) -> Callable[[object, Sequence], object]:
    """``invoke(rt, args)`` for one call instruction, made once per
    loaded function and shared by the site's op, every runner, and any
    trace through the site; ``args`` is the operand tuple, receiver
    first, and ``rt`` the interpreter that runs the call."""
    sites = function_code(call.block.function).sites
    invoke = sites.get(call.id)
    if invoke is None:
        invoke = sites.setdefault(call.id, _make_site(call))
    return invoke


def _make_site(call: ir.Call) -> Callable[[object, Sequence], object]:
    """A static site resolves its body on first use -- not when its
    block is bound, since a streamed module may still lack a body the
    block never reaches.  A virtual site memoizes its resolution per
    receiver class (the class info of an object, the Python class of a
    builtin string or array)."""
    method = call.method
    if not call.dispatch:
        if method.is_native:
            def invoke_native(rt, args):
                return rt.runtime.invoke_native(method, args)
            return invoke_native
        run = body = None

        def invoke(rt, args):
            nonlocal run, body
            if body is None:
                # ``body`` is stored last: once set, the site is resolved
                run, body = _target(rt.module, method)
            if run is None:
                return rt.call(body, args)
            return run(rt, body, args)
        return invoke
    table: dict = {}

    def invoke_virtual(rt, args):
        receiver = args[0]
        key = receiver.class_info if type(receiver) is ObjectRef \
            else type(receiver)
        target = table.get(key)
        if target is None:
            target = table[key] = _target(
                rt.module, _resolve_virtual(rt.world, receiver, method))
        run, body = target
        if run is None:
            return rt.call(body, args)
        return run(rt, body, args)
    return invoke_virtual


def _target(module: Module, method: MethodInfo) -> tuple:
    """``(run, target)`` for a resolved method, invoked as ``run(rt,
    target, args)``: the runtime's native, or the method's body.  A body
    that no back edge enters gives the trace tier nothing to count,
    record or enter, so every runner runs it in the base loop
    (:meth:`Interpreter.call`); ``run`` is ``None`` for any other body,
    which runs through the runner's own ``rt.call(target, args)``."""
    if method.is_native:
        return _run_native, method
    function = _body(module, method)
    code = function_code(function)
    if code.entry is None:
        _build_plans(function)
    return (Interpreter.call if code.loop_free else None), function


def _body(module: Module, method: MethodInfo) -> Function:
    """The body of a resolved, non-native method."""
    function = module.functions.get(method)
    if function is None:
        raise InterpreterError(
            f"no body for method {method.qualified_name}")
    return function


def _run_native(rt, method: MethodInfo, args):
    return rt.runtime.invoke_native(method, args)


def _resolve_virtual(world: World, receiver,
                     method: MethodInfo) -> MethodInfo:
    cls = runtime_class(world, receiver)
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


# ----------------------------------------------------------------------
# binders: each turns one instruction into ``op(frame, rt)``, once per
# loaded function; ``None`` means the instruction has nothing to run

def _bind(instr: ir.Instr):
    binder = _BINDERS.get(type(instr))
    if binder is None:
        raise InterpreterError(f"cannot execute {type(instr).__name__}")
    return binder(instr)


def _bind_const(instr: ir.Const):
    dst = instr.id
    value = _const_value(instr)

    def const(frame, rt):
        frame[dst] = value
    return const


def _bind_param(instr: ir.Param):
    return None  # call() stores every parameter before the entry block


def _bind_prim(instr: ir.Prim):
    dst = instr.id
    fold = instr.operation.fold
    ids = tuple(op.id for op in instr.operands)
    if len(ids) == 2:
        left, right = ids

        def prim(frame, rt):
            try:
                frame[dst] = fold(frame[left], frame[right])
            except ZeroDivisionError:
                rt.runtime.throw("java.lang.ArithmeticException",
                                 "/ by zero")
    elif len(ids) == 1:
        operand = ids[0]

        def prim(frame, rt):
            try:
                frame[dst] = fold(frame[operand])
            except ZeroDivisionError:
                rt.runtime.throw("java.lang.ArithmeticException",
                                 "/ by zero")
    else:
        def prim(frame, rt):
            try:
                frame[dst] = fold(*[frame[i] for i in ids])
            except ZeroDivisionError:
                rt.runtime.throw("java.lang.ArithmeticException",
                                 "/ by zero")
    return prim


def _bind_refcmp(instr: ir.RefCmp):
    dst = instr.id
    left = instr.operands[0].id
    right = instr.operands[1].id
    if instr.is_eq:
        def refcmp(frame, rt):
            frame[dst] = frame[left] is frame[right]
    else:
        def refcmp(frame, rt):
            frame[dst] = frame[left] is not frame[right]
    return refcmp


def _bind_nullcheck(instr: ir.NullCheck):
    dst = instr.id
    src = instr.operands[0].id

    def nullcheck(frame, rt):
        value = frame[src]
        rt.check_counts["nullcheck"] += 1
        if value is None:
            rt.runtime.throw("java.lang.NullPointerException")
        frame[dst] = value
    return nullcheck


def _bind_idxcheck(instr: ir.IdxCheck):
    dst = instr.id
    array_id = instr.array.id
    index_id = instr.index.id

    def idxcheck(frame, rt):
        array = frame[array_id]
        index = frame[index_id]
        rt.check_counts["idxcheck"] += 1
        if not isinstance(array, ArrayRef):
            raise InterpreterError("idxcheck on non-array")
        length = len(array.elements)
        if not 0 <= index < length:
            rt.runtime.throw(
                "java.lang.ArrayIndexOutOfBoundsException",
                f"Index {index} out of bounds for length {length}")
        frame[dst] = index
    return idxcheck


def _bind_upcast(instr: ir.Upcast):
    dst = instr.id
    src = instr.operands[0].id
    target_type = instr.target_type

    def upcast(frame, rt):
        value = frame[src]
        rt.check_counts["upcast"] += 1
        # Java checkcast passes null through
        if value is not None and \
                not value_instanceof(rt.world, value, target_type):
            rt.runtime.throw("java.lang.ClassCastException",
                             str(target_type))
        frame[dst] = value
    return upcast


def _bind_downcast(instr: ir.Downcast):
    dst = instr.id
    src = instr.operands[0].id

    def downcast(frame, rt):
        frame[dst] = frame[src]
    return downcast


def _bind_getfield(instr: ir.GetField):
    dst = instr.id
    obj = instr.operands[0].id
    slot = instr.field.slot

    def getfield(frame, rt):
        frame[dst] = frame[obj].fields[slot]
    return getfield


def _bind_setfield(instr: ir.SetField):
    obj = instr.operands[0].id
    src = instr.operands[1].id
    slot = instr.field.slot

    def setfield(frame, rt):
        frame[obj].fields[slot] = frame[src]
    return setfield


def _bind_getstatic(instr: ir.GetStatic):
    dst = instr.id
    field = instr.field

    def getstatic(frame, rt):
        frame[dst] = rt.runtime.get_static(field)
    return getstatic


def _bind_setstatic(instr: ir.SetStatic):
    src = instr.operands[0].id
    field = instr.field

    def setstatic(frame, rt):
        rt.runtime.set_static(field, frame[src])
    return setstatic


def _bind_getelt(instr: ir.GetElt):
    dst = instr.id
    array_id = instr.operands[0].id
    index_id = instr.operands[1].id

    def getelt(frame, rt):
        frame[dst] = frame[array_id].elements[frame[index_id]]
    return getelt


def _bind_setelt(instr: ir.SetElt):
    array_id = instr.operands[0].id
    index_id = instr.operands[1].id
    src = instr.operands[2].id
    if not instr.array_type.element.is_reference():
        # primitive arrays are invariant: nothing to check
        def setelt(frame, rt):
            frame[array_id].elements[frame[index_id]] = frame[src]
        return setelt

    def setelt_checked(frame, rt):
        array = frame[array_id]
        value = frame[src]
        # Java array covariance: a reference store is checked against
        # the array's *runtime* element type
        if value is not None:
            element = array.array_type.element
            if element.is_reference() and \
                    not value_instanceof(rt.world, value, element):
                rt.runtime.throw("java.lang.ArrayStoreException",
                                 str(element))
        array.elements[frame[index_id]] = value
    return setelt_checked


def _bind_arraylen(instr: ir.ArrayLen):
    dst = instr.id
    src = instr.operands[0].id

    def arraylen(frame, rt):
        frame[dst] = len(frame[src].elements)
    return arraylen


def _bind_new(instr: ir.New):
    dst = instr.id
    class_info = instr.class_info

    def new(frame, rt):
        frame[dst] = ObjectRef(class_info)
    return new


def _bind_newarray(instr: ir.NewArray):
    dst = instr.id
    src = instr.operands[0].id
    array_type = instr.array_type

    def newarray(frame, rt):
        frame[dst] = _new_array(rt, array_type, frame[src])
    return newarray


def _new_array(rt, array_type, length: int) -> ArrayRef:
    """``new T[length]`` on the runner ``rt``, under its allocation cap
    (every tier allocates arrays here)."""
    if length < 0:
        rt.runtime.throw("java.lang.NegativeArraySizeException",
                         str(length))
    cap = rt.max_array_length
    if cap is not None and length > cap:
        raise AllocationLimitExceeded(f"new array of {length} > cap {cap}")
    return ArrayRef(array_type, length)


def _bind_instanceof(instr: ir.InstanceOf):
    dst = instr.id
    src = instr.operands[0].id
    target_type = instr.target_type

    def instanceof(frame, rt):
        frame[dst] = value_instanceof(rt.world, frame[src], target_type)
    return instanceof


def _bind_call(instr: ir.Call):
    # a void call stores None under its own id, which nothing reads
    dst = instr.id
    ids = [op.id for op in instr.operands]
    invoke = call_site(instr)
    if len(ids) == 1:
        only = ids[0]

        def call(frame, rt):
            frame[dst] = invoke(rt, (frame[only],))
    elif ids:
        read = itemgetter(*ids)  # two or more registers, as a tuple

        def call(frame, rt):
            frame[dst] = invoke(rt, read(frame))
    else:
        def call(frame, rt):
            frame[dst] = invoke(rt, ())
    return call


def _bind_caughtexc(instr: ir.CaughtExc):
    dst = instr.id

    def caughtexc(frame, rt):
        frame[dst] = frame.get(CAUGHT_SLOT)
    return caughtexc


#: instruction class -> its binder
_BINDERS = {
    ir.Const: _bind_const,
    ir.Param: _bind_param,
    ir.Prim: _bind_prim,
    ir.RefCmp: _bind_refcmp,
    ir.NullCheck: _bind_nullcheck,
    ir.IdxCheck: _bind_idxcheck,
    ir.Upcast: _bind_upcast,
    ir.Downcast: _bind_downcast,
    ir.GetField: _bind_getfield,
    ir.SetField: _bind_setfield,
    ir.GetStatic: _bind_getstatic,
    ir.SetStatic: _bind_setstatic,
    ir.GetElt: _bind_getelt,
    ir.SetElt: _bind_setelt,
    ir.ArrayLen: _bind_arraylen,
    ir.New: _bind_new,
    ir.NewArray: _bind_newarray,
    ir.InstanceOf: _bind_instanceof,
    ir.Call: _bind_call,
    ir.CaughtExc: _bind_caughtexc,
}


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
    """One block, bound once per loaded function: its ops, a phi move
    per incoming edge, its terminator's shape and edge keys, and its
    successors' plans.  ``header`` marks a block a loop's back edge may
    enter, where the trace tier looks up its own per-runner state."""

    __slots__ = ("block", "block_id", "header", "consts", "params", "ops",
                 "moves", "kind", "value_id", "norm", "succ", "exc_target",
                 "norm_key", "exc_key")

    def __init__(self, block: Block, header: bool):
        self.block = block
        self.block_id = block.id
        self.header = header
        #: an entry block's constants, copied into each new frame rather
        #: than run as ops: a const has no operands and cannot trap
        self.consts: dict[int, object] = {}
        entry = block.function is not None and block.function.entry is block
        #: an entry block's ``(register, argument index)`` per parameter
        self.params = tuple((param.id, param.index)
                            for param in block.function.params) \
            if entry else ()
        ops = []
        for instr in block.instrs:
            if entry and isinstance(instr, ir.Const):
                self.consts[instr.id] = _const_value(instr)
                continue
            op = _bind(instr)
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
        #: the came-from keys of this block's two kinds of outgoing edge
        self.norm_key = (block.id, "norm")
        self.exc_key = (block.id, "exc")

    def link(self, plans: dict) -> None:
        """Point the successor fields at the successors' plans."""
        block = self.block
        self.norm = tuple(plans[succ.id] for succ, kind in block.succs
                          if kind == "norm")
        self.succ = None
        if self.kind in ("fall", "break", "continue") and len(self.norm) == 1:
            self.succ = self.norm[0]
        self.exc_target = None
        for succ, kind in block.succs:
            if kind == "exc":
                self.exc_target = plans[succ.id]
                break
