"""Dead-code elimination (paper Section 8: most effective on phis).

Mark-and-sweep over the SSA graph.  Roots are the instructions whose
removal would be observable: memory writes, calls, allocations, every
trapping instruction (exceptions are observable), and terminator
operands.  Everything unreachable from a root -- including eagerly
inserted phis that survive pruning, and pure loads made redundant by CSE
-- is deleted.  Type separation is what makes ``getfield``/``getelt``
loads removable at all: their object operands are already on safe
planes, so a dead load provably cannot trap.
"""

from __future__ import annotations

from repro.ssa import ir
from repro.ssa.ir import Function, Instr


def _is_root(instr: Instr) -> bool:
    if instr.traps:
        return True  # the potential exception is observable
    if isinstance(instr, (ir.SetField, ir.SetElt, ir.SetStatic, ir.New)):
        return True
    if isinstance(instr, ir.CaughtExc):
        return True  # positional: heads its dispatch block
    return False


def observable_values(function: Function) -> set[int]:
    """Ids of values transitively reachable from an observable root
    (side effect, trap, or terminator operand) -- the DCE mark set.

    A phi outside this set is dead even when a cycle of dead phis keeps
    referencing it, which is also what the ``STSA-PHI-101`` lint rule
    reports."""
    live: set[int] = set()
    worklist: list[Instr] = []

    def mark(instr: Instr) -> None:
        if instr.id not in live:
            live.add(instr.id)
            worklist.append(instr)

    for block in function.reachable_blocks():
        for instr in block.all_instrs():
            if _is_root(instr):
                mark(instr)
        if block.term is not None and block.term.value is not None:
            mark(block.term.value)
    while worklist:
        instr = worklist.pop()
        for operand in instr.operands:
            mark(operand)
    return live


def run_dce(function: Function, observable: set | None = None) -> dict:
    """Remove dead instructions; returns per-kind removal counts.

    ``observable`` is an optional precomputed observability closure (the
    ``observable`` analysis of :mod:`repro.analysis.manager`); when
    omitted the mark phase computes it here.  Sweeping keeps exactly the
    closure, so a caller-supplied result must be current.
    """
    live = observable if observable is not None \
        else observable_values(function)
    reachable_ids = {block.id for block in function.reachable_blocks()}
    removed: dict[str, int] = {}
    for block in function.blocks:
        if block.id not in reachable_ids:
            continue  # unreachable blocks are skipped by the encoder
        keep_phis = []
        for phi in block.phis:
            if phi.id in live:
                keep_phis.append(phi)
            else:
                phi.drop_operands()
                removed["phi"] = removed.get("phi", 0) + 1
        block.phis = keep_phis
        keep = []
        for instr in block.instrs:
            if instr.id in live:
                keep.append(instr)
            else:
                instr.drop_operands()
                removed[instr.opcode] = removed.get(instr.opcode, 0) + 1
        block.instrs = keep
    return removed
