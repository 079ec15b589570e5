"""Dominator computation.

The Cooper-Harvey-Kennedy iterative algorithm; the test suite
cross-checks it against Lengauer-Tarjan (cited by the paper [21],
``tests/dominators_reference.py``).  The dominator tree drives the
``(l, r)`` reference numbering: an instruction may only reference values
in blocks that dominate it, with ``l`` counting levels up the tree.
"""

from __future__ import annotations

from typing import Optional

from repro.ssa.ir import Block, Function


class DominatorTree:
    """Immutable dominator information for the reachable blocks."""

    def __init__(self, entry: Block, idom: dict[Block, Optional[Block]],
                 order_index: Optional[dict[Block, int]] = None):
        self.entry = entry
        self.idom = idom
        self.children: dict[Block, list[Block]] = {b: [] for b in idom}
        for block, parent in idom.items():
            if parent is not None:
                self.children[parent].append(block)
        self.depth: dict[Block, int] = {}
        self.preorder: list[Block] = []
        self._number: dict[Block, int] = {}
        # The pre-order must be identical on the producer and the consumer,
        # so children are ordered by a CFG-derived index (RPO), never by
        # block creation order.
        self._order_index = order_index or {}
        self._compute_order()

    def _compute_order(self) -> None:
        index = self._order_index
        stack = [(self.entry, 0)]
        while stack:
            block, depth = stack.pop()
            self.depth[block] = depth
            self._number[block] = len(self.preorder)
            self.preorder.append(block)
            for child in sorted(self.children[block],
                                key=lambda b: index.get(b, b.id),
                                reverse=True):
                stack.append((child, depth + 1))

    def contains(self, block: Block) -> bool:
        return block in self.idom

    def dominates(self, a: Block, b: Block) -> bool:
        """True when ``a`` dominates ``b`` (reflexively)."""
        while b is not None and self.depth.get(b, -1) >= self.depth.get(a, 0):
            if b is a:
                return True
            b = self.idom.get(b)
        return False

    def walk_up(self, block: Block, levels: int) -> Optional[Block]:
        """The ``levels``-th dominator above ``block`` (0 = itself)."""
        current: Optional[Block] = block
        for _ in range(levels):
            if current is None:
                return None
            current = self.idom.get(current)
        return current

    def level_of(self, use_block: Block, def_block: Block) -> int:
        """Dominator-tree distance from ``use_block`` up to ``def_block``.

        Raises ValueError when ``def_block`` does not dominate
        ``use_block`` -- exactly the condition SafeTSA makes
        unrepresentable.
        """
        level = 0
        current: Optional[Block] = use_block
        while current is not None:
            if current is def_block:
                return level
            current = self.idom.get(current)
            level += 1
        raise ValueError(
            f"B{def_block.id} does not dominate B{use_block.id}")

    def dom_chain(self, block: Block) -> list[Block]:
        """``[block, idom(block), ..., entry]``."""
        chain = []
        current: Optional[Block] = block
        while current is not None:
            chain.append(current)
            current = self.idom.get(current)
        return chain


def _reverse_postorder(entry: Block) -> list[Block]:
    order: list[Block] = []
    seen: set[int] = set()
    stack: list[tuple[Block, int]] = [(entry, 0)]
    while stack:
        block, index = stack.pop()
        if index == 0:
            if block.id in seen:
                continue
            seen.add(block.id)
        if index < len(block.succs):
            stack.append((block, index + 1))
            succ = block.succs[index][0]
            if succ.id not in seen:
                stack.append((succ, 0))
        else:
            order.append(block)
    order.reverse()
    return order


def compute_dominators(function: Function) -> DominatorTree:
    """Cooper-Harvey-Kennedy iterative dominators over reachable blocks."""
    entry = function.entry
    rpo = _reverse_postorder(entry)
    index = {block: i for i, block in enumerate(rpo)}
    idom: dict[Block, Optional[Block]] = {entry: None}

    def intersect(a: Block, b: Block) -> Block:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is entry:
                continue
            new_idom: Optional[Block] = None
            for pred, _kind in block.preds:
                if pred not in index:
                    continue  # unreachable predecessor
                if pred is not entry and pred not in idom:
                    continue
                new_idom = pred if new_idom is None \
                    else intersect(pred, new_idom)
            if new_idom is None:
                continue
            if idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    return DominatorTree(entry, idom, index)
