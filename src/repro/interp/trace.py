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
   to the untraced interpreter.  A bound that stops the run inside a
   trace (the step limit, the allocation cap, or one raised in a callee)
   leaves through the same exit: the trips and the partial trip's
   prefix are counted before the error is raised again.
4. **blacklist** -- a trace that keeps exiting with zero committed
   trips is dropped and its header is never considered again.

Compiled paths are remembered in :class:`repro.cache.TraceCache` keyed
on ``(wire_digest, qualified function name, header index)`` using
reachable-block indices (block *ids* are not stable across decodes), so
a warm serve process re-creates traces without re-recording.

What depends only on the function is built once per loaded function
and kept in its :class:`~repro.interp.interpreter.FunctionCode` memo:
the ``reachable_blocks()`` order and its index, the loop headers, the
interpreter's block plans and call sites, and each recorded path's
generated function ``fn(rt, frame)`` and exit sites, keyed on its block
indices.  Each :class:`TracingInterpreter` runs those plans and those
functions with itself as ``rt``, as the interpreter's ops and the
JIT's code do: the runtime helpers, the allocation cap, the step
budget and the call sites (the interpreter's shared ones) all reach a
trace through ``rt``, so a runner compiles and links
nothing for a path another runner built.  The runner keeps its own
header states and trace counters: a shared plan records only whether
its block is a loop header, and the runner's :class:`_FunctionState`
maps such a block to its own :class:`_HeaderState`.  This is sound
only under the invariant stated on :class:`repro.ssa.ir.Function`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.loops import find_loops
from repro.cache import TraceCache, default_trace_cache
from repro.interp.heap import JavaError
from repro.interp.interpreter import (
    CAUGHT_SLOT,
    Interpreter,
    StepLimitExceeded,
    _build_plans,
    call_site,
    function_code,
)
from repro.interp.jit import _Emitter, _FunctionTranslator, compile_generated
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
        self.kind = kind  # "budget" | "guard" | "trap" | "limit"
        self.block = block
        self.block_id = block.id if block is not None else -1
        self.resume = resume          # guard: the untaken successor
        self.exc_target = exc_target  # trap: the exception edge target
        self.steps_prefix = steps_prefix
        self.checks_prefix = checks_prefix


class _TraceCode:
    """One recorded path's generated function ``fn(rt, frame)`` and
    exit metadata: built once per (function, path) and run by every
    runner that enters the path."""

    __slots__ = ("fn", "sites", "path_len", "per_trip_checks",
                 "has_calls", "entry_latch_id")

    def __init__(self, fn, sites, path_len, per_trip_checks, has_calls,
                 entry_latch: Block):
        self.fn = fn
        self.sites = sites
        self.path_len = path_len
        self.per_trip_checks = per_trip_checks
        self.has_calls = has_calls
        self.entry_latch_id = entry_latch.id


class CompiledTrace:
    """One runner's use of a shared :class:`_TraceCode`: its own count
    of zero-trip exits."""

    __slots__ = ("code", "aborts")

    def __init__(self, code: _TraceCode):
        self.code = code
        self.aborts = 0


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
    shared :class:`~repro.interp.interpreter.FunctionCode`."""

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
            self.headers[header.id] = _HeaderState(header, loop_blocks)
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
# compilation

class _TraceOps(_FunctionTranslator):
    """Instruction emission for traces: the JIT handlers, minus the
    shapes a linear trace cannot contain."""

    def _i_call(self, instr: ir.Call) -> None:
        # the call's op's own site, shared by every runner: its
        # resolution is memoized once, and it runs through ``rt``
        site = self.bind(call_site(instr))
        args = "".join(f"v{op.id}, " for op in instr.operands)
        target = f"v{instr.id} = " if instr.plane is not None else ""
        self.out.emit(f"{target}{site}(rt, ({args}))")

    def _i_caughtexc(self, instr: ir.CaughtExc) -> None:
        raise _TraceCompileError("exception dispatch block on trace path")


_CHECK_KIND = {ir.NullCheck: 0, ir.IdxCheck: 1, ir.Upcast: 2}


class _TraceCompiler:
    """Compiles one recorded block path into a looping fast path.

    Generated shape (call-free flavour)::

        def _trace(rt, frame):
            _trips = 0; _pc = -1
            v3 = frame.get(3, _M); ...
            _maxtrips = (rt.max_steps - rt.steps) // PATH_LEN
            try:
                while True:
                    if _trips >= _maxtrips: raise _X(0)     # budget
                    v3, v5 = v9, v11        # header phis, latch edge
                    _pc = 2                 # next trap's site index
                    v7 = _g1(v3, v6)        # block bodies, JIT-style
                    v8 = _idxcheck(rt, v4, v7)
                    if not v8: raise _X(1)  # branch -> guard
                    ...
                    _trips += 1
            except _X as _x:
                _site = _x.site; _err = None
            except (_JavaError, _IE) as _e:   # a trap, or a bound
                _site = _pc; _err = _e
            _ls = locals()
            for _i, _n in _W:               # frame materialisation
                _v = _ls[_n]
                if _v is not _M: frame[_i] = _v
            return _trips, _site, _err

    Traces containing calls cannot precompute a trip budget (nested
    frames consume steps too); they commit ``rt.steps`` per block top
    and leave through a ``limit`` site of that block when the budget
    runs out, which keeps ``steps`` exact in both flavours.  An
    :class:`~repro.interp.interpreter.InterpreterError` -- the
    allocation cap, or a bound raised in a callee -- leaves like a
    trap, through the site of the instruction that raised it, so the
    runner can count the partial trip before raising it again.
    Nothing in the code depends on the interpreter that records the
    path: the running interpreter is the argument ``rt``, and
    everything else is a constant of the code.
    """

    def __init__(self, function: Function, path: list[Block]):
        self.function = function
        self.path = path
        self.out = _Emitter()
        self.ops = _TraceOps(function, self.out)
        self.env = self.ops.env
        self.env.update(_X=_TraceExit, _M=_MISSING)
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
        out.emit("def _trace(rt, frame):")
        out.indent += 1
        out.emit("_trips = 0")
        out.emit("_pc = -1")
        for reg in regs:
            out.emit(f"v{reg} = frame.get({reg}, _M)")
        if not has_calls:
            out.emit(f"_maxtrips = (rt.max_steps - rt.steps) "
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
                out.emit("rt.steps += 1")
                out.emit(f"if rt.steps > rt.max_steps: "
                         f"raise _X({len(self.sites)})")
                self.sites.append(_Site("limit", block, None, None, 0,
                                        tuple(self.checks)))
            self._emit_block(k, block)
        out.emit("_trips += 1")
        out.indent -= 2
        out.emit("except _X as _x:")
        out.indent += 1
        out.emit("_site = _x.site")
        out.emit("_err = None")
        out.indent -= 1
        out.emit("except (_JavaError, _IE) as _e:")
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
        fn = compile_generated(out.source(), "trace", function, self.env)
        return _TraceCode(fn, tuple(self.sites), len(path),
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

    def __init__(self, module: Module,
                 threshold: int = TRACE_DEFAULT_THRESHOLD,
                 cache: Optional[TraceCache] = None):
        self.threshold = max(1, int(threshold))
        self.cache = cache if cache is not None else default_trace_cache()
        self.digest = getattr(module, "wire_digest", None)
        self._states: dict[Function, _FunctionState] = {}
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
        state = self._states.get(function)
        if state is None:
            state = self._states[function] = _FunctionState(self, function)
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
        hs.trace = CompiledTrace(built)
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
        self.traces = TraceManager(module, threshold=threshold,
                                   cache=trace_cache)

    def trace_stats(self) -> dict:
        return self.traces.stats()

    # The body below is the base `call` loop with the trace hook spliced
    # in at the block-arrival point; it runs the same shared plans.  The
    # hot-path cost for untraced code is two pointer tests per executed
    # block.  A function with no loop header left to count, record or
    # enter (none, or all blacklisted; ``live`` only falls) runs the
    # base loop instead, which skips the hook.
    def call(self, function: Function, args: Sequence):
        manager = self.traces
        fstate = manager._states.get(function) \
            or manager.state_for(function)
        if not fstate.live:
            return Interpreter.call(self, function, args)
        plan = fstate.code.entry or _build_plans(function)
        plans = fstate.code.plans
        max_steps = self.max_steps
        headers = fstate.headers
        threshold = manager.threshold
        frame = plan.consts.copy()
        for register, index in plan.params:
            frame[register] = args[index]
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
                # the shared plan only marks a header; the header state
                # is this runner's
                hs = headers.get(plan.block_id) \
                    if plan.header and headers else None
                if hs is not None and came_key is not None and \
                        came_key[1] == "norm":
                    trace = hs.trace
                    if trace is not None:
                        code = trace.code
                        if hs is skip_once:
                            skip_once = None
                        elif rec_path is None and \
                                came_key[0] == code.entry_latch_id:
                            trips, site_index, err = code.fn(self, frame)
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
                            if site.kind == "limit":
                                raise StepLimitExceeded(
                                    f"exceeded {max_steps} steps in "
                                    f"{function.name}")
                            if err is not None and \
                                    not isinstance(err, JavaError):
                                raise err  # a bound, counted above
                            if trips == 0 and site.kind != "budget":
                                trace.aborts += 1
                                if trace.aborts >= BLACKLIST_AFTER_ABORTS:
                                    manager.blacklist(fstate, hs)
                                    if not fstate.live:
                                        headers = None
                            if site.kind == "guard":
                                came_key = (site.block_id, "norm")
                                plan = plans[site.resume.id]
                                continue
                            if site.kind == "trap":
                                target = site.exc_target
                                if target is None:
                                    raise err
                                frame[CAUGHT_SLOT] = err.value
                                came_key = (site.block_id, "exc")
                                plan = plans[target.id]
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
                frame[CAUGHT_SLOT] = frame[plan.value_id]
                came_key = plan.exc_key
                plan = target
                continue
            else:
                raise self._bad_terminator(plan, function)
            came_key = plan.norm_key
            plan = next_plan
