"""Trace-based speculative execution tier for the interpreter.

The method JIT proves SafeTSA arrives "ready for code generation"; this
module adds the next tier for loop-heavy code: record one hot linear
iteration, compile it to a guarded straight-line Python fast path, and
run it until a guard fails.  SafeTSA makes the transformation unusually
clean -- the recorded path is itself straight-line SSA, every branch
becomes a typed guard on the already-computed condition register, every
phi becomes an explicit parallel move, and the explicit ``nullcheck`` /
``idxcheck`` / ``upcast`` instructions stay in recorded order, so trap
identity is preserved bit-for-bit.

Lifecycle per ``(function, loop header)``:

1. **count** -- back-edge arrivals at the header bump a counter; at the
   configurable threshold the next arrival starts a recording.
2. **record** -- the interpreter appends each executed block until it
   returns to the header via a normal back edge (close), leaves the
   loop, takes an exception edge, or exceeds ``MAX_TRACE_BLOCKS``
   (abort; repeated aborts blacklist the header).
3. **compiled** -- arrivals at the header *via the recorded latch edge*
   enter the trace, which loops over the fast path until a guard fails,
   a trap fires, or the step budget nears exhaustion.  Every exit
   materialises the register frame (``_MISSING``-guarded write-back)
   and resumes the interpreter at the exact equivalent point, so
   results, heap effects, ``steps`` and ``check_counts`` are identical
   to the untraced interpreter.
4. **blacklist** -- a trace that keeps exiting with zero committed
   trips is dropped and its header is never considered again.

Compiled paths are remembered in :class:`repro.cache.TraceCache` keyed
on ``(wire_digest, qualified function name, header index)`` using
reachable-block indices (block *ids* are not stable across decodes), so
a warm serve process re-creates traces without re-recording.

What depends only on the function is built once per loaded function
and kept on it, in the JIT's :func:`~repro.interp.jit.function_code`
memo: the ``reachable_blocks()`` order and its index, the loop headers,
and each recorded path's generated code and exit sites, keyed on its
block indices.  Each :class:`TracingInterpreter` links that code to its
own adapter (call sites, runtime helpers, the allocation cap) and keeps
its own header states, trace counters and step budget; a call-flavour
trace formats its step-limit message from the running interpreter's
``max_steps``.  This is sound only under the invariant stated on
:class:`repro.ssa.ir.Function`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.analysis.loops import find_loops
from repro.cache import TraceCache, default_trace_cache
from repro.interp.heap import ArrayRef, JavaError
from repro.interp.interpreter import (
    CAUGHT_SLOT,
    AllocationLimitExceeded,
    Interpreter,
    StepLimitExceeded,
)
from repro.interp.jit import (
    GeneratedCode,
    _Emitter,
    _FunctionTranslator,
    function_code,
)
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Module

#: back-edge arrivals at a header before a recording starts
TRACE_DEFAULT_THRESHOLD = 16
#: longest recordable path (aborts recording of megamorphic loops);
#: sized so a dispatch loop's whole opcode cycle plus its confirming
#: second pass fits (see the recorder notes in TracingInterpreter.call)
MAX_TRACE_BLOCKS = 256
#: zero-trip trace exits before the trace is dropped for good
BLACKLIST_AFTER_ABORTS = 8
#: failed recording/compile attempts before the header is given up
BLACKLIST_AFTER_ATTEMPTS = 5

#: prologue sentinel: register not present in the frame at trace entry
_MISSING = object()


class _TraceExit(Exception):
    """Internal: leaves the trace loop carrying the exit site index."""

    def __init__(self, site: int):
        self.site = site


class _TraceCompileError(Exception):
    """The recorded path cannot be compiled (shape unsupported)."""


class _Site:
    """One exit point of a compiled trace."""

    __slots__ = ("kind", "block", "block_id", "resume", "exc_target",
                 "steps_prefix", "checks_prefix")

    def __init__(self, kind: str, block: Optional[Block], resume,
                 exc_target, steps_prefix: int,
                 checks_prefix: tuple[int, int, int]):
        self.kind = kind  # "budget" | "guard" | "trap"
        self.block = block
        self.block_id = block.id if block is not None else -1
        self.resume = resume          # guard: the untaken successor
        self.exc_target = exc_target  # trap: the exception edge target
        self.steps_prefix = steps_prefix
        self.checks_prefix = checks_prefix


class _TraceCode:
    """One recorded path's generated code and exit metadata: built once
    per (function, path), shared by every runner that links it."""

    __slots__ = ("generated", "sites", "path_len", "per_trip_checks",
                 "has_calls", "entry_latch_id")

    def __init__(self, generated: GeneratedCode, sites, path_len,
                 per_trip_checks, has_calls, entry_latch: Block):
        self.generated = generated
        self.sites = sites
        self.path_len = path_len
        self.per_trip_checks = per_trip_checks
        self.has_calls = has_calls
        self.entry_latch_id = entry_latch.id


class CompiledTrace:
    """One runner's link of a shared trace: its own callable and
    counters over the shared :class:`_TraceCode`."""

    __slots__ = ("fn", "code", "path_indices", "aborts", "entries", "trips")

    def __init__(self, code: _TraceCode, adapter: "_InterpAdapter",
                 path_indices: tuple[int, ...]):
        self.fn = code.generated.link(adapter)
        self.code = code
        self.path_indices = path_indices
        self.aborts = 0
        self.entries = 0
        self.trips = 0


class _HeaderState:
    """Hotness / trace state of one loop header."""

    __slots__ = ("header", "header_id", "loop_blocks", "counter",
                 "failures", "trace", "blacklisted")

    def __init__(self, header: Block, loop_blocks: frozenset):
        self.header = header
        self.header_id = header.id
        self.loop_blocks = loop_blocks
        self.counter = 0
        self.failures = 0
        self.trace: Optional[CompiledTrace] = None
        self.blacklisted = False


class _FunctionState:
    """One runner's tracing state of a function: a header state per
    loop, over the block index and loop headers in the function's
    shared :class:`~repro.interp.jit.FunctionCode`."""

    __slots__ = ("function", "code", "name", "headers", "live")

    def __init__(self, manager: "TraceManager", function: Function):
        code = function_code(function)
        self.function = function
        self.code = code
        self.name = function.method.qualified_name
        self.headers: dict[int, _HeaderState] = {}
        loops = code.loops
        if loops is None:
            # derived once per function: re-deriving dominators per
            # interpreter would dwarf short runs (the warm serve path
            # spins up a fresh TracingInterpreter per request)
            loops = code.loops = _loop_headers(function)
        for header, loop_blocks in loops:
            hs = _HeaderState(header, loop_blocks)
            self.headers[header.id] = hs
            manager.header_states[header.id] = hs
        #: headers not yet blacklisted; at zero the per-block hook
        #: disables itself for this function entirely
        self.live = len(self.headers)
        manager._preload(self)


def _loop_headers(function: Function) -> tuple:
    """``(header, loop block ids)`` per natural loop; none for a
    malformed CFG, which is then never traced."""
    try:
        forest = find_loops(function)
    except Exception:
        return ()
    return tuple((loop.header, frozenset(loop.blocks))
                 for loop in forest.by_header.values())


# ----------------------------------------------------------------------
# interpreter adapter: call sites inside a trace route through the
# interpreter so nested frames keep counting steps and checks

class _InterpAdapter:
    """The runner a trace links to: duck-types the slice of
    :class:`JitCompiler` the JIT's link-time helpers touch."""

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.world = interp.world
        self.runtime = interp.runtime

    def _invoker(self, call: ir.Call):
        # the interpreter's own call site: static resolution on first
        # use, virtual resolution memoized per receiver class
        invoke = self.interp._site(call)

        def invoker(*args):
            return invoke(args)
        return invoker


def _trace_newarray_helper(adapter: _InterpAdapter, array_type):
    """Unlike the JIT's helper this honours ``max_array_length`` so a
    traced run keeps the interpreter's fuzzing allocation guard."""
    interp = adapter.interp
    runtime = interp.runtime

    def newarray(length):
        if length < 0:
            runtime.throw("java.lang.NegativeArraySizeException",
                          str(length))
        cap = interp.max_array_length
        if cap is not None and length > cap:
            raise AllocationLimitExceeded(
                f"new array of {length} > cap {cap}")
        return ArrayRef(array_type, length)
    return newarray


class _TraceOps(_FunctionTranslator):
    """Instruction emission for traces: the JIT handlers, minus the
    shapes a linear trace cannot contain."""

    def _i_newarray(self, instr: ir.NewArray) -> None:
        helper = self.link(_trace_newarray_helper, instr.array_type)
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_caughtexc(self, instr: ir.CaughtExc) -> None:
        raise _TraceCompileError("exception dispatch block on trace path")


_CHECK_KIND = {ir.NullCheck: 0, ir.IdxCheck: 1, ir.Upcast: 2}


def _step_limit(interp: Interpreter, name: str) -> StepLimitExceeded:
    """The untraced interpreter's step-limit error, worded from the
    running interpreter's own budget."""
    return StepLimitExceeded(
        f"exceeded {interp.max_steps} steps in {name}")


class _TraceCompiler:
    """Compiles one recorded block path into a looping fast path.

    Generated shape (call-free flavour)::

        def _trace(interp, frame):
            _trips = 0; _pc = -1
            v3 = frame.get(3, _M); ...
            _maxtrips = (interp.max_steps - interp.steps) // PATH_LEN
            try:
                while True:
                    if _trips >= _maxtrips: raise _X(0)     # budget
                    v3, v5 = v9, v11        # header phis, latch edge
                    _pc = 2                 # next trap's site index
                    v7 = _g1(v3, v6)        # block bodies, JIT-style
                    if not v8: raise _X(1)  # branch -> guard
                    ...
                    _trips += 1
            except _X as _x:
                _site = _x.site; _err = None
            except _JavaError as _e:
                _site = _pc; _err = _e
            _ls = locals()
            for _i, _n in _W:               # frame materialisation
                _v = _ls[_n]
                if _v is not _M: frame[_i] = _v
            return _trips, _site, _err

    Traces containing calls cannot precompute a trip budget (nested
    frames consume steps too); they commit ``interp.steps`` per block
    top and raise the step limit inline instead, which keeps ``steps``
    exact in both flavours.  Nothing in the code depends on the
    interpreter that records the path: ``interp`` is an argument and
    the rest is linked per runner.
    """

    def __init__(self, function: Function, path: list[Block]):
        self.function = function
        self.path = path
        self.env: dict = {"_JavaError": JavaError, "_X": _TraceExit,
                          "_M": _MISSING, "_SLE": _step_limit}
        self.out = _Emitter()
        self.ops = _TraceOps(function, self.env, self.out)
        self.sites: list[_Site] = []
        self.checks = [0, 0, 0]  # nullcheck, idxcheck, upcast per trip

    # -- path shape ----------------------------------------------------

    def _edge_move(self, source: Block,
                   target: Block) -> tuple[list[int], list[int]]:
        """Phi targets and sources for the norm edge source->target."""
        index = None
        for position, (pred, kind) in enumerate(target.preds):
            if pred is source and kind == "norm":
                index = position
                break
        if index is None:
            raise _TraceCompileError(
                f"edge B{source.id}->B{target.id} missing from preds")
        return ([phi.id for phi in target.phis],
                [phi.operands[index].id for phi in target.phis])

    def _collect(self) -> tuple[list[int], list[int], bool]:
        """All registers the path touches, write-back order, calls?"""
        regs: set[int] = set()
        writes: list[int] = []
        written: set[int] = set()
        has_calls = False

        def write(reg: int) -> None:
            regs.add(reg)
            if reg not in written:
                written.add(reg)
                writes.append(reg)

        path = self.path
        for k, block in enumerate(path):
            target = path[k + 1] if k + 1 < len(path) else path[0]
            if k == 0 and block.phis:  # header phis, latch edge
                targets, sources = self._edge_move(path[-1], block)
                regs.update(sources)
                for reg in targets:
                    write(reg)
            for instr in block.instrs:
                if isinstance(instr, ir.CaughtExc):
                    raise _TraceCompileError("caughtexc on trace path")
                if isinstance(instr, ir.Call):
                    if instr.dispatch or not instr.method.is_native:
                        has_calls = True
                for op in instr.operands:
                    regs.add(op.id)
                if instr.plane is not None:
                    write(instr.id)
            term = block.term
            if term is not None and term.value is not None:
                regs.add(term.value.id)
            if target.phis and k + 1 < len(path):
                targets, sources = self._edge_move(block, target)
                regs.update(sources)
                for reg in targets:
                    write(reg)
        return sorted(regs), writes, has_calls

    # -- emission ------------------------------------------------------

    def compile(self) -> _TraceCode:
        function = self.function
        path = self.path
        regs, writes, has_calls = self._collect()
        out = self.out
        out.emit("def _trace(interp, frame):")
        out.indent += 1
        out.emit("_trips = 0")
        out.emit("_pc = -1")
        for reg in regs:
            out.emit(f"v{reg} = frame.get({reg}, _M)")
        if not has_calls:
            out.emit(f"_maxtrips = (interp.max_steps - interp.steps) "
                     f"// {len(path)}")
        out.emit("try:")
        out.indent += 1
        out.emit("while True:")
        out.indent += 1
        # site 0 is the budget exit (call-free flavour only raises it)
        self.sites.append(_Site("budget", None, None, None, 0, (0, 0, 0)))
        if not has_calls:
            out.emit("if _trips >= _maxtrips: raise _X(0)")
        if path[0].phis:
            self._emit_move(*self._edge_move(path[-1], path[0]))
        for k, block in enumerate(path):
            if has_calls:
                out.emit("interp.steps += 1")
                out.emit(f"if interp.steps > interp.max_steps: "
                         f"raise _SLE(interp, {function.name!r})")
            self._emit_block(k, block)
        out.emit("_trips += 1")
        out.indent -= 2
        out.emit("except _X as _x:")
        out.indent += 1
        out.emit("_site = _x.site")
        out.emit("_err = None")
        out.indent -= 1
        out.emit("except _JavaError as _e:")
        out.indent += 1
        out.emit("_site = _pc")
        out.emit("_err = _e")
        out.indent -= 1
        out.emit("_ls = locals()")
        out.emit("for _i, _n in _W:")
        out.indent += 1
        out.emit("_v = _ls[_n]")
        out.emit("if _v is not _M:")
        out.indent += 1
        out.emit("frame[_i] = _v")
        out.indent -= 2
        out.emit("return _trips, _site, _err")
        out.indent -= 1
        self.env["_W"] = tuple((reg, f"v{reg}") for reg in writes)
        source = out.source()
        try:
            generated = GeneratedCode(source, f"<trace:{function.name}>",
                                      "_trace", self.env,
                                      tuple(self.ops.slots))
        except SyntaxError as error:  # pragma: no cover - emitter bug
            raise _TraceCompileError(
                f"generated bad trace for {function.name}: {error}\n"
                f"{source}") from None
        return _TraceCode(generated, tuple(self.sites), len(path),
                          tuple(self.checks), has_calls, path[-1])

    def _emit_move(self, targets: list[int], sources: list[int]) -> None:
        if not targets:
            return
        lhs = ", ".join(f"v{t}" for t in targets)
        rhs = ", ".join(f"v{s}" for s in sources)
        self.out.emit(f"{lhs} = {rhs}")

    def _emit_block(self, k: int, block: Block) -> None:
        path = self.path
        next_expected = path[k + 1] if k + 1 < len(path) else path[0]
        exc_target = block.exc_succ()
        checks = self.checks
        for instr in block.instrs:
            if instr.traps:
                kind = _CHECK_KIND.get(type(instr))
                prefix = list(checks)
                if kind is not None:
                    # the interpreter counts a check before it throws
                    prefix[kind] += 1
                self.out.emit(f"_pc = {len(self.sites)}")
                self.sites.append(_Site(
                    "trap", block, None, exc_target, k + 1,
                    tuple(prefix)))
            self.ops._translate_instr(instr)
            kind = _CHECK_KIND.get(type(instr))
            if kind is not None:
                checks[kind] += 1
        term = block.term
        if term is None:
            raise _TraceCompileError(f"B{block.id} lacks a terminator")
        if term.kind == "branch":
            normal = block.normal_succs()
            if len(normal) != 2:
                raise _TraceCompileError("branch without two successors")
            if normal[0] is normal[1]:
                pass  # both arms reach the recorded block: no guard
            elif normal[0] is next_expected:
                self._emit_guard(f"not v{term.value.id}", block,
                                 normal[1], k)
            elif normal[1] is next_expected:
                self._emit_guard(f"v{term.value.id}", block,
                                 normal[0], k)
            else:
                raise _TraceCompileError(
                    f"recorded successor B{next_expected.id} is not a "
                    f"branch target of B{block.id}")
        elif term.kind in ("fall", "break", "continue"):
            normal = block.normal_succs()
            if len(normal) != 1 or normal[0] is not next_expected:
                raise _TraceCompileError(
                    f"B{block.id} does not fall to B{next_expected.id}")
        else:
            raise _TraceCompileError(
                f"{term.kind} terminator on trace path")
        if k + 1 < len(path) and next_expected.phis:
            self._emit_move(*self._edge_move(block, next_expected))

    def _emit_guard(self, condition: str, block: Block, resume: Block,
                    k: int) -> None:
        index = len(self.sites)
        self.sites.append(_Site("guard", block, resume, None, k + 1,
                                tuple(self.checks)))
        self.out.emit(f"if {condition}: raise _X({index})")


# ----------------------------------------------------------------------
# manager

class TraceManager:
    """Owns per-function tracing state, compilation, and the cache."""

    def __init__(self, interp: Interpreter,
                 threshold: int = TRACE_DEFAULT_THRESHOLD,
                 cache: Optional[TraceCache] = None):
        self.interp = interp
        self.threshold = max(1, int(threshold))
        self.cache = cache if cache is not None else default_trace_cache()
        self.digest = getattr(interp.module, "wire_digest", None)
        #: what this runner's traces link to
        self.adapter = _InterpAdapter(interp)
        self._states: dict[int, _FunctionState] = {}
        #: block id -> header state, for annotating block plans (block
        #: ids are process-unique, so one flat map covers all functions)
        self.header_states: dict[int, _HeaderState] = {}
        self.compiled = 0
        self.preloaded = 0
        self.recordings = 0
        self.recording_aborts = 0
        #: verdicts made in this run; preloaded ones are counted apart
        self.blacklisted = 0
        self.preloaded_blacklisted = 0
        self.entries = 0
        self.trips = 0

    def state_for(self, function: Function) -> _FunctionState:
        key = id(function)
        state = self._states.get(key)
        if state is None or state.function is not function:
            state = self._states[key] = _FunctionState(self, function)
        return state

    # -- recording lifecycle -------------------------------------------

    def finish_recording(self, fstate: _FunctionState, hs: _HeaderState,
                         path: list[Block]) -> None:
        if self._compile(fstate, hs, path):
            hs.counter = 0
        else:
            self.abort_recording(fstate, hs)

    def abort_recording(self, fstate: _FunctionState,
                        hs: _HeaderState) -> None:
        self.recording_aborts += 1
        hs.failures += 1
        hs.counter = 0
        if hs.failures >= BLACKLIST_AFTER_ATTEMPTS:
            self.blacklist(fstate, hs)

    def blacklist(self, fstate: _FunctionState, hs: _HeaderState) -> None:
        if not hs.blacklisted:
            hs.blacklisted = True
            hs.trace = None
            fstate.live -= 1
            self.blacklisted += 1
            # persist the verdict (empty path = negative entry) so warm
            # processes skip the whole count/record/abort cycle
            if self.cache and self.digest is not None:
                self.cache.put(self.digest, fstate.name,
                               fstate.code.index_of[hs.header_id], ())

    def _compile(self, fstate: _FunctionState, hs: _HeaderState,
                 path: list[Block]) -> bool:
        if not path or path[0] is not hs.header:
            return False
        code = fstate.code
        # the key is derived from the blocks, so one path has one key
        indices = tuple(code.index_of[b.id] for b in path)
        traces = code.traces
        if indices in traces:
            built = traces[indices]
        else:
            try:
                built = _TraceCompiler(fstate.function, path).compile()
            except Exception:  # unsupported shape: fall back to interpreting
                built = None
            # copy on write: a published table is never mutated
            code.traces = {**traces, indices: built}
        if built is None:
            return False
        hs.trace = CompiledTrace(built, self.adapter, indices)
        self.compiled += 1
        if self.cache and self.digest is not None:
            self.cache.put(self.digest, fstate.name,
                           code.index_of[hs.header_id], indices)
        return True

    def _preload(self, fstate: _FunctionState) -> None:
        """Recreate cached traces for a warm module: no re-recording."""
        if not self.cache or self.digest is None or not fstate.headers:
            return
        cached = self.cache.get(self.digest)
        if not cached:
            return
        blocks = fstate.code.blocks
        count = len(blocks)
        for (name, header_index), indices in cached.items():
            if name != fstate.name:
                continue
            if not 0 <= header_index < count \
                    or not all(0 <= i < count for i in indices):
                continue  # damaged entry: a miss, the loop records cold
            hs = fstate.headers.get(blocks[header_index].id)
            if hs is None or hs.trace is not None or hs.blacklisted:
                continue
            if not indices:
                # persisted blacklist: don't count, record, or retry
                hs.blacklisted = True
                fstate.live -= 1
                self.preloaded_blacklisted += 1
                continue
            path = [blocks[i] for i in indices]
            if self._compile(fstate, hs, path):
                self.preloaded += 1

    def stats(self) -> dict:
        live = 0
        for state in self._states.values():
            for hs in state.headers.values():
                if hs.trace is not None:
                    live += 1
        return {
            "threshold": self.threshold,
            "compiled": self.compiled,
            "preloaded": self.preloaded,
            "live_traces": live,
            "recordings_finished": self.compiled - self.preloaded,
            "recording_aborts": self.recording_aborts,
            "blacklisted": self.blacklisted,
            "preloaded_blacklisted": self.preloaded_blacklisted,
            "entries": self.entries,
            "trips": self.trips,
        }


# ----------------------------------------------------------------------
# the tracing interpreter

class TracingInterpreter(Interpreter):
    """An :class:`Interpreter` with the speculative trace tier enabled.

    Bit-identical to the base interpreter on every observable --
    result, stdout, heap effects, trap identity, ``steps`` and
    ``check_counts`` -- which the fuzz oracle's trace lane enforces.
    """

    def __init__(self, module: Module, max_steps: int = 50_000_000, *,
                 threshold: int = TRACE_DEFAULT_THRESHOLD,
                 trace_cache: Optional[TraceCache] = None):
        super().__init__(module, max_steps)
        self.traces = TraceManager(self, threshold=threshold,
                                   cache=trace_cache)

    def trace_stats(self) -> dict:
        return self.traces.stats()

    def _body(self, function: Function):
        """A call site into a function with no loop header left to
        count, record or enter runs the base loop, which skips the hook
        and its per-call state lookup.  ``live`` only falls, so the
        choice holds for the site's lifetime."""
        if self.traces.state_for(function).live:
            return super()._body(function)
        return partial(Interpreter.call, self, function)

    def _plan(self, block: Block):
        """Annotate loop-header plans with their header state so the
        execution loop's hook costs two pointer tests on non-header
        blocks instead of a dict probe per transfer."""
        plan = super()._plan(block)
        plan.hs = self.traces.header_states.get(block.id)
        return plan

    # The body below is the base `call` loop with the trace hook spliced
    # in at the block-arrival point; it runs the same bound ops.  The
    # hot-path cost for untraced code is two pointer tests per executed
    # block.
    def call(self, function: Function, args: Sequence):
        plans = self._plans
        max_steps = self.max_steps
        manager = self.traces
        fstate = manager.state_for(function)
        headers = fstate.headers if fstate.live else None
        threshold = manager.threshold
        block = function.entry
        plan = plans.get(block.id) or self._plan(block)
        frame = plan.consts.copy()
        for param in function.params:
            frame[param.id] = args[param.index]
        came_key: Optional[tuple[int, str]] = None
        rec_path: Optional[list[Block]] = None
        rec_hs: Optional[_HeaderState] = None
        # positions of header visits inside rec_path: a recording
        # closes when the path *ends with a repeated cycle* -- the
        # blocks since some header visit exactly repeat the blocks
        # before it.  A plain loop closes after two identical
        # iterations; a dispatch loop keeps recording through header
        # visits until its whole opcode cycle repeats, then closes
        # with exactly one cycle.
        rec_visits: Optional[list[int]] = None
        skip_once: Optional[_HeaderState] = None
        while True:
            if headers:
                if rec_path is not None:
                    bid = plan.block_id
                    if came_key is None or came_key[1] != "norm" \
                            or bid not in rec_hs.loop_blocks \
                            or plan.block.caught is not None \
                            or len(rec_path) >= MAX_TRACE_BLOCKS:
                        manager.abort_recording(fstate, rec_hs)
                        rec_path = rec_hs = None
                        if not fstate.live:
                            headers = None
                    else:
                        if bid == rec_hs.header_id:
                            position = len(rec_path)
                            cycle_at = -1
                            for visit in reversed(rec_visits):
                                cycle = position - visit
                                if visit - cycle < 0:
                                    break
                                if rec_path[visit - cycle:visit] == \
                                        rec_path[visit:position]:
                                    cycle_at = visit
                                    break
                            if cycle_at >= 0:
                                manager.finish_recording(
                                    fstate, rec_hs,
                                    rec_path[cycle_at:position])
                                rec_path = rec_hs = None
                            else:
                                rec_visits.append(position)
                                rec_path.append(plan.block)
                        else:
                            rec_path.append(plan.block)
                hs = plan.hs
                if hs is not None and came_key is not None and \
                        came_key[1] == "norm":
                    trace = hs.trace
                    if trace is not None:
                        code = trace.code
                        if hs is skip_once:
                            skip_once = None
                        elif rec_path is None and \
                                came_key[0] == code.entry_latch_id:
                            trips, site_index, err = trace.fn(self, frame)
                            site = code.sites[site_index]
                            manager.entries += 1
                            manager.trips += trips
                            per = code.per_trip_checks
                            prefix = site.checks_prefix
                            counts = self.check_counts
                            counts["nullcheck"] += \
                                trips * per[0] + prefix[0]
                            counts["idxcheck"] += \
                                trips * per[1] + prefix[1]
                            counts["upcast"] += trips * per[2] + prefix[2]
                            if not code.has_calls:
                                self.steps += trips * code.path_len \
                                    + site.steps_prefix
                            if trips == 0 and site.kind != "budget":
                                trace.aborts += 1
                                if trace.aborts >= BLACKLIST_AFTER_ABORTS:
                                    manager.blacklist(fstate, hs)
                                    if not fstate.live:
                                        headers = None
                            if site.kind == "guard":
                                came_key = (site.block_id, "norm")
                                target = site.resume
                                plan = plans.get(target.id) \
                                    or self._plan(target)
                                continue
                            if site.kind == "trap":
                                target = site.exc_target
                                if target is None:
                                    raise err
                                frame[CAUGHT_SLOT] = err.value
                                came_key = (site.block_id, "exc")
                                plan = plans.get(target.id) \
                                    or self._plan(target)
                                continue
                            # budget: interpret the header once (the
                            # step limit is about to fire exactly)
                            skip_once = hs
                            continue
                    elif not hs.blacklisted and rec_path is None and \
                            came_key[0] in hs.loop_blocks:
                        hs.counter += 1
                        if hs.counter >= threshold:
                            manager.recordings += 1
                            rec_hs = hs
                            rec_path = [plan.block]
                            rec_visits = [0]
            # ---------- base interpreter loop (see Interpreter.call) ---
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
                frame[CAUGHT_SLOT] = frame[plan.value_id]
                came_key = plan.exc_key
                plan = plans.get(target.id) or self._plan(target)
                continue
            else:
                raise self._bad_terminator(plan, function)
            came_key = plan.norm_key
            plan = plans.get(next_block.id) or self._plan(next_block)
