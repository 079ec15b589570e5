"""Register layout: dominator-relative ``(l, r)`` value references.

On every plane, registers fill in ascending order per basic block
("a contiguous numbering facilitates compact externalization", Section 3).
An operand reference ``(l, r)`` selects the block ``l`` levels up the
dominator tree (0 = the using block) and register ``r`` on the
instruction's implied plane there.  For phi operands, ``l = 0`` denotes
the corresponding predecessor block and higher values that block's
dominators (Section 2).
"""

from __future__ import annotations

from typing import Optional

from repro.ssa.dominators import DominatorTree, compute_dominators
from repro.ssa.ir import Block, Function, Instr, Phi, Plane


class LayoutError(Exception):
    """An operand reference is unrepresentable as ``(l, r)``."""


class FunctionLayout:
    """Precomputed numbering for one function."""

    def __init__(self, function: Function,
                 domtree: Optional[DominatorTree] = None):
        self.function = function
        self.domtree = domtree or compute_dominators(function)
        #: blocks in dominator-tree pre-order (the transmission order)
        self.order: list[Block] = list(self.domtree.preorder)
        #: instr id -> (block, plane, register index)
        self.position: dict[int, tuple[Block, Plane, int]] = {}
        #: block id -> plane -> list of instrs in register order
        self.planes: dict[int, dict[Plane, list[Instr]]] = {}
        #: instr id -> linear position within its block (phis first)
        self.linear: dict[int, int] = {}
        for block in self.order:
            self._number_block(block)

    def _number_block(self, block: Block) -> None:
        planes: dict[Plane, list[Instr]] = {}
        self.planes[block.id] = planes
        for position, instr in enumerate(block.all_instrs()):
            self.linear[instr.id] = position
            if instr.plane is None:
                continue
            regs = planes.setdefault(instr.plane, [])
            self.position[instr.id] = (block, instr.plane, len(regs))
            regs.append(instr)

    # ------------------------------------------------------------------

    def ref_of(self, use_block: Block, operand: Instr) -> tuple[int, int]:
        """The ``(l, r)`` pair referencing ``operand`` from ``use_block``."""
        if operand.id not in self.position:
            raise LayoutError(f"operand v{operand.id} was never numbered "
                              "(unreachable definition)")
        def_block, _plane, reg = self.position[operand.id]
        try:
            level = self.domtree.level_of(use_block, def_block)
        except ValueError as error:
            raise LayoutError(str(error)) from None
        return level, reg

    def phi_ref(self, pred_block: Block, operand: Instr) -> tuple[int, int]:
        """Phi operand reference: ``l = 0`` is the predecessor itself."""
        return self.ref_of(pred_block, operand)

    # ------------------------------------------------------------------
    # alphabet sizes (the "finite set determined by the preceding
    # context" the prefix coder relies on)

    def regs_at(self, block: Block, plane: Plane) -> int:
        """Registers defined on ``plane`` in ``block`` (complete block)."""
        return len(self.planes.get(block.id, {}).get(plane, ()))

    def flat_index(self, use_block: Block, operand: Instr,
                   defined_in_use_block: int) -> int:
        """Flatten ``(l, r)`` into a single bounded integer.

        The alphabet enumerates, innermost block first, every register on
        the operand's plane that is visible at the use point:
        ``defined_in_use_block`` registers of the using block itself, then
        all registers of each dominator in turn.
        """
        level, reg = self.ref_of(use_block, operand)
        plane = operand.plane
        offset = 0
        current: Optional[Block] = use_block
        for step in range(level):
            offset += (defined_in_use_block if step == 0
                       else self.regs_at(current, plane))
            current = self.domtree.idom.get(current)
            if current is None:
                raise LayoutError("reference escapes the dominator chain")
        return offset + reg

    def alphabet_size(self, use_block: Block, plane: Plane,
                      defined_in_use_block: int) -> int:
        """Total registers on ``plane`` visible at a point in ``use_block``."""
        total = defined_in_use_block
        current = self.domtree.idom.get(use_block)
        while current is not None:
            total += self.regs_at(current, plane)
            current = self.domtree.idom.get(current)
        return total

    def resolve_flat(self, use_block: Block, plane: Plane,
                     defined_in_use_block: int, index: int) -> Instr:
        """Inverse of :meth:`flat_index` (used by the decoder)."""
        current: Optional[Block] = use_block
        first = True
        while current is not None:
            count = (defined_in_use_block if first
                     else self.regs_at(current, plane))
            if index < count:
                return self.planes[current.id][plane][index]
            index -= count
            current = self.domtree.idom.get(current)
            first = False
        raise LayoutError(f"flat register index out of range on {plane}")
