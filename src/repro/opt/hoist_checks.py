"""Hoist loop-invariant null and bounds checks out of loop bodies.

``nullcheck``/``idxcheck`` are *trapping* instructions, so plain LICM
must leave them alone: moving an exception point above the loop bound
test would throw for executions that never reached the check.  Two
stronger arguments do license motion of a check whose operands are all
loop invariant, and each reduces the check's dynamic execution count
from once-per-iteration to once-per-loop-entry:

**Case A -- the check provably passes.**  Nullness of an SSA reference
and the integer value of an invariant index are properties of the
*value*, not of the program point, so a must-fact at the loop header's
entry (``nonnull_at_entry`` / ``idxcheck_safe_at_entry``) proves the
check can never trap on any iteration.  Entry facts join every incoming
edge -- the preheader edge included -- so the proof also holds at the
preheader, and evaluating the never-trapping check there is observably
identical no matter where in the body it originally sat.

**Case B -- the check is guaranteed to execute on the first trip.**
The preheader runs exactly when the loop header is about to run, so an
instruction that the first iteration must reach *before any side effect
or other exception point* can trap in the preheader instead: the same
exception arrives with the same prefix of observable behaviour.  The
pass walks the guaranteed path from the header, stopping at the first
*barrier* (a store, call, allocation, retained trapping instruction, or
a branch it cannot decide for the first trip).  Branches are decided by
substituting each header phi with its preheader operand and comparing
intervals at the header entry -- e.g. a ``while (i < n)`` loop entered
with ``i = 0`` and a proven ``n >= 1`` guarantees the body's first trip.

Checks hoisted within one walk keep their relative order in the
preheader, and a retained barrier stops the walk, so two checks that
may both trap are never reordered (across rounds either: later rounds
can only hoist from the suffix that begins at the previous barrier).

Loops inside a ``try`` are skipped entirely: a trapping instruction in
a try region needs an exception edge to the dispatch block, and adding
one to the preheader would change the handler's phi structure -- a
transform out of scope here (STSA-EXC-001 keeps us honest).

The affine case -- an ``idxcheck`` whose index is an induction variable
with provable bounds -- is deliberately *not* hoisted: the safe-index
plane is produced per-iteration and every iteration needs its own
``idxcheck`` result value, so SafeTSA cannot represent "check the whole
range once".  See ``docs/LOOPS.md`` for the full discussion.

The pass iterates a few outer rounds with freshly recomputed facts so
cascades resolve (hoisting a ``nullcheck`` makes the ``idxcheck`` using
its result invariant in the next round).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import Loop, LoopForest, ensure_preheader, find_loops
from repro.analysis.nullness import NullnessFacts, analyze_nullness, \
    is_intrinsically_nonnull
from repro.analysis.range import RangeFacts, analyze_ranges
from repro.ssa import ir
from repro.ssa.cst import map_exception_contexts
from repro.ssa.ir import Block, Function, Instr

#: cascades settle in two or three rounds; the cap is a safety net
_MAX_ROUNDS = 8
#: guaranteed-path walk bound (structured loops are far shallower)
_MAX_WALK_BLOCKS = 64

_COMPARES = {"lt", "le", "gt", "ge", "eq", "ne"}


class _Hoister:
    def __init__(self, function: Function, forest: LoopForest):
        self.function = function
        self.forest = forest
        self.contexts = map_exception_contexts(function.cst) \
            if function.cst is not None else {}
        self.nullness: NullnessFacts = analyze_nullness(function)
        self.ranges: RangeFacts = analyze_ranges(function)
        self.stats = {"checks_hoisted_null": 0, "checks_hoisted_idx": 0,
                      "preheaders": 0}

    def refresh_facts(self) -> None:
        self.nullness = analyze_nullness(self.function)
        self.ranges = analyze_ranges(self.function)

    # -- shared helpers -------------------------------------------------

    def _loop_allowed(self, loop: Loop) -> bool:
        # a preheader would live in the same region as the header; any
        # try context there means hoisted traps would need exception
        # edges we do not build
        return self.contexts.get(loop.header.id) is None

    def _invariant_check(self, instr: Instr, loop: Loop) -> bool:
        if not isinstance(instr, (ir.NullCheck, ir.IdxCheck)):
            return False
        return all(loop.is_invariant(op) for op in instr.operands)

    def _provably_passes(self, instr: Instr, loop: Loop) -> bool:
        header = loop.header
        if isinstance(instr, ir.NullCheck):
            value = instr.operands[0]
            return is_intrinsically_nonnull(value) \
                or value.id in self.nullness.nonnull_at_entry(header)
        if isinstance(instr, ir.IdxCheck):
            return self.ranges.idxcheck_safe_at_entry(instr, header)
        return False

    def _hoist(self, instr: Instr, loop: Loop) -> bool:
        preheader = loop.preheader
        if preheader is None:
            before = len(self.function.blocks)
            preheader = ensure_preheader(self.function, loop, self.forest)
            if preheader is None:
                return False
            self.stats["preheaders"] += len(self.function.blocks) - before
        block = instr.block
        block.instrs.remove(instr)
        preheader.append(instr)
        key = "checks_hoisted_null" if isinstance(instr, ir.NullCheck) \
            else "checks_hoisted_idx"
        self.stats[key] += 1
        return True

    # -- Case A: provable anywhere in the loop --------------------------

    def hoist_provable(self, loop: Loop) -> int:
        moved = 0
        for block in self.function.blocks:
            if block.id not in loop.blocks:
                continue
            if self.contexts.get(block.id) is not None:
                continue  # nested try inside the loop: leave its checks
            for instr in list(block.instrs):
                if not self._invariant_check(instr, loop):
                    continue
                if not self._provably_passes(instr, loop):
                    continue
                if self._hoist(instr, loop):
                    moved += 1
        return moved

    # -- Case B: guaranteed execution on the first trip -----------------

    def hoist_guaranteed(self, loop: Loop) -> int:
        moved = 0
        env = self._first_trip_env(loop)
        block: Optional[Block] = loop.header
        visited = 0
        while block is not None and visited < _MAX_WALK_BLOCKS:
            visited += 1
            if self.contexts.get(block.id) is not None:
                break
            for instr in list(block.instrs):
                if self._invariant_check(instr, loop):
                    if self._hoist(instr, loop):
                        moved += 1
                        continue
                    break  # un-preheaderable loop: retained trap
                if instr.is_pure():
                    continue
                break  # side effect or retained exception point
            else:
                block = self._first_trip_successor(block, loop, env)
                continue
            break
        return moved

    def _first_trip_env(self, loop: Loop) -> dict[int, Instr]:
        """Header phi id -> the value it carries on the preheader edge."""
        env: dict[int, Instr] = {}
        header = loop.header
        for phi in header.phis:
            if len(phi.operands) != len(header.preds):
                continue
            entry_ops = [op for op, (pred, _k) in zip(phi.operands,
                                                      header.preds)
                         if pred.id not in loop.blocks]
            if len(entry_ops) == 1 \
                    or (entry_ops
                        and all(op is entry_ops[0] for op in entry_ops)):
                env[phi.id] = entry_ops[0]
        return env

    def _first_trip_successor(self, block: Block, loop: Loop,
                              env: dict[int, Instr]) -> Optional[Block]:
        term = block.term
        succs = block.normal_succs()
        if term is None:
            return None
        if term.kind == "fall" and len(succs) == 1:
            target = succs[0]
        elif term.kind == "branch" and len(succs) == 2:
            verdict = self._prove_branch(term.value, loop, env)
            if verdict is None:
                return None
            target = succs[0] if verdict else succs[1]
        else:
            return None
        if target.id not in loop.blocks or target is loop.header:
            return None
        self._extend_env(target, block, env)
        return target

    def _extend_env(self, target: Block, came_from: Block,
                    env: dict[int, Instr]) -> None:
        for phi in target.phis:
            if len(phi.operands) != len(target.preds):
                continue
            for operand, (pred, kind) in zip(phi.operands, target.preds):
                if pred is came_from and kind == "norm":
                    env[phi.id] = env.get(operand.id, operand)
                    break

    def _prove_branch(self, cond: Optional[Instr], loop: Loop,
                      env: dict[int, Instr]) -> Optional[bool]:
        """True/False when the branch direction is decided for the first
        trip; None when it cannot be proven."""
        if cond is None:
            return None
        cond = env.get(cond.id, cond)
        if isinstance(cond, ir.Const) and isinstance(cond.value, bool):
            return cond.value
        if not isinstance(cond, ir.Prim) \
                or cond.operation.name not in _COMPARES \
                or len(cond.operands) != 2:
            return None
        header = loop.header
        left = env.get(cond.operands[0].id, cond.operands[0])
        right = env.get(cond.operands[1].id, cond.operands[1])
        a = self.ranges.interval_at_entry(left, header)
        b = self.ranges.interval_at_entry(right, header)
        if a is None or b is None:
            return None
        return _compare_intervals(cond.operation.name, a, b)

    # -- driver ---------------------------------------------------------

    def run(self) -> dict:
        for _ in range(_MAX_ROUNDS):
            moved = 0
            for loop in self.forest.innermost_first():
                if not self._loop_allowed(loop):
                    continue
                moved += self.hoist_guaranteed(loop)
                moved += self.hoist_provable(loop)
            if not moved:
                break
            self.refresh_facts()
        return self.stats


def _compare_intervals(op: str, a: tuple[int, int],
                       b: tuple[int, int]) -> Optional[bool]:
    a_lo, a_hi = a
    b_lo, b_hi = b
    if op == "lt":
        if a_hi < b_lo:
            return True
        if a_lo >= b_hi:
            return False
    elif op == "le":
        if a_hi <= b_lo:
            return True
        if a_lo > b_hi:
            return False
    elif op == "gt":
        if a_lo > b_hi:
            return True
        if a_hi <= b_lo:
            return False
    elif op == "ge":
        if a_lo >= b_hi:
            return True
        if a_hi < b_lo:
            return False
    elif op == "eq":
        if a_lo == a_hi == b_lo == b_hi:
            return True
        if a_hi < b_lo or b_hi < a_lo:
            return False
    elif op == "ne":
        if a_hi < b_lo or b_hi < a_lo:
            return True
        if a_lo == a_hi == b_lo == b_hi:
            return False
    return None


def run_hoist_checks(function: Function,
                     forest: Optional[LoopForest] = None) -> dict:
    """Hoist provably-safe and first-trip-guaranteed checks out of every
    natural loop; returns ``{"checks_hoisted_null", "checks_hoisted_idx",
    "preheaders"}``."""
    if forest is None:
        forest = find_loops(function)
    if not forest.loops:
        return {"checks_hoisted_null": 0, "checks_hoisted_idx": 0,
                "preheaders": 0}
    return _Hoister(function, forest).run()
