"""Constant propagation / folding (paper Section 8: ~1-2% size effect).

Folds ``primitive`` applications whose operands are all constants, plus
constant reference comparisons and ``instanceof null``.  Trapping
operations are folded only when they do not actually trap (folding away a
division by a non-zero constant is sound; folding a division by zero
would delete a required exception).  Control flow is left untouched --
the paper performs constant propagation "at a local level".
"""

from __future__ import annotations

from typing import Optional

from repro.ssa import ir
from repro.ssa.ir import Const, Function, Instr
from repro.typesys.types import Type


class ConstPool:
    """Interns folded constants into the entry block (Section 5:
    constants are pre-loaded)."""

    def __init__(self, function: Function):
        self.function = function
        self.pool: dict[tuple, Const] = {}
        # Normalise the entry block: constants and parameters become a
        # prefix (the paper's "pre-loading"), so reusing an existing
        # constant can never place a use before its definition.
        entry = function.entry
        preload = [i for i in entry.instrs
                   if isinstance(i, (Const, ir.Param))]
        rest = [i for i in entry.instrs
                if not isinstance(i, (Const, ir.Param))]
        entry.instrs = preload + rest
        for instr in entry.instrs:
            if isinstance(instr, Const):
                self.pool[self._key(instr.type, instr.value)] = instr

    @staticmethod
    def _key(type: Type, value: object) -> tuple:
        return (type, value.__class__.__name__, repr(value))

    def get(self, type: Type, value: object) -> Const:
        key = self._key(type, value)
        cached = self.pool.get(key)
        if cached is None:
            cached = Const(type, value)
            # prepend: the entry block may contain real code whose
            # position precedes an end-of-block append
            cached.block = self.function.entry
            self.function.entry.instrs.insert(0, cached)
            self.pool[key] = cached
        return cached


def _fold(instr: Instr) -> Optional[tuple]:
    """Return ``(type, value)`` when ``instr`` folds to a constant."""
    if isinstance(instr, ir.Prim):
        values = []
        for operand in instr.operands:
            if not isinstance(operand, Const):
                return None
            values.append(operand.value)
        try:
            result = instr.operation.fold(*values)
        except ZeroDivisionError:
            return None  # the trap must be preserved
        return (instr.operation.result, result)
    if isinstance(instr, ir.RefCmp):
        left, right = instr.operands
        if isinstance(left, Const) and isinstance(right, Const) \
                and left.value is None and right.value is None:
            return (instr.plane.type, instr.is_eq)
        return None
    if isinstance(instr, ir.InstanceOf):
        operand = instr.operands[0]
        if isinstance(operand, Const) and operand.value is None:
            return (instr.plane.type, False)
        return None
    return None


def run_constprop(function: Function) -> int:
    """Fold constants to a fixpoint; returns the number of folds."""
    pool = ConstPool(function)
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in function.reachable_blocks():
            for instr in list(block.instrs):
                result = _fold(instr)
                if result is None:
                    continue
                type, value = result
                replacement = pool.get(type, value)
                instr.replace_all_uses(replacement)
                instr.drop_operands()
                block.instrs.remove(instr)
                folded += 1
                changed = True
    return folded
