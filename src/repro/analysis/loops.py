"""Natural-loop detection, loop nests, and preheader insertion.

A *natural loop* is discovered from a back edge ``u -> v`` where ``v``
dominates ``u`` (``v`` is the header, ``u`` a latch): the loop body is
the header plus every block that reaches a latch without passing through
the header.  Back edges with the same header are merged into one loop;
the loops of a function form a forest ordered by block containment.

SafeTSA functions are built from structured source, so every loop here
is reducible and corresponds to an ``RWhile``/``RDoWhile``/``RLoop``
region of the CST.  That correspondence is what makes *preheader
insertion* representable: the wire format transmits the CST, not the
edge set, so a preheader must be a CST mutation -- a fresh fall-through
``RBasic`` spliced immediately before the loop region.  The canonical
:func:`repro.ssa.cst.derive_cfg` walk then re-derives exactly the edges
this module wires by hand, which the verifier (and the decoder on the
consumer side) re-checks.

Registered with the :class:`~repro.analysis.manager.AnalysisManager`
as ``"loops"``; any pass that reports a CFG-shape change invalidates it
(the manager drops non-preserved results after every changing pass).
"""

from __future__ import annotations

from typing import Optional

from repro.ssa.cst import (
    RBasic,
    RDoWhile,
    RIf,
    RLabeled,
    RLoop,
    RSeq,
    RTry,
    RWhile,
    Region,
    _entry_block,
)
from repro.ssa.dominators import DominatorTree, compute_dominators
from repro.ssa.ir import Block, Function, Instr, Phi, Term


class Loop:
    """One natural loop: header, member blocks, latches, nesting info."""

    def __init__(self, header: Block):
        self.header = header
        #: ids of member blocks (header included; preheader excluded)
        self.blocks: set[int] = {header.id}
        #: blocks with a back edge to the header, in pred order
        self.latches: list[Block] = []
        self.parent: Optional["Loop"] = None
        self.children: list["Loop"] = []
        #: 1 for an outermost loop, +1 per level of nesting
        self.depth = 1
        #: preheader inserted by :func:`ensure_preheader` (or detected)
        self.preheader: Optional[Block] = None

    def contains(self, block: Block) -> bool:
        return block.id in self.blocks

    def is_invariant(self, value: Instr) -> bool:
        """Defined outside the loop, hence the same on every iteration."""
        return value.block is None or value.block.id not in self.blocks

    def entry_preds(self) -> list[tuple[Block, str]]:
        """Header predecessors from outside the loop, in pred order."""
        return [(pred, kind) for pred, kind in self.header.preds
                if pred.id not in self.blocks]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<loop header=B{self.header.id} "
                f"blocks={len(self.blocks)} depth={self.depth}>")


class LoopForest:
    """All natural loops of one function, nesting resolved."""

    def __init__(self, function: Function, domtree: DominatorTree,
                 loops: list[Loop]):
        self.function = function
        self.domtree = domtree
        #: all loops, outermost-first (stable: by header RPO position)
        self.loops = loops
        self.by_header: dict[int, Loop] = {
            loop.header.id: loop for loop in loops}

    def innermost_first(self) -> list[Loop]:
        return sorted(self.loops, key=lambda l: -l.depth)

    def note_preheader(self, loop: Loop, preheader: Block) -> None:
        """Record a freshly inserted preheader: it belongs to every
        *enclosing* loop (it sits on their paths), never to ``loop``."""
        loop.preheader = preheader
        ancestor = loop.parent
        while ancestor is not None:
            ancestor.blocks.add(preheader.id)
            ancestor = ancestor.parent


def find_loops(function: Function,
               domtree: Optional[DominatorTree] = None) -> LoopForest:
    """Detect the natural loops of ``function`` from its back edges."""
    if domtree is None:
        domtree = compute_dominators(function)
    reachable = [b for b in function.reachable_blocks()
                 if domtree.contains(b)]
    order = {block.id: i for i, block in enumerate(reachable)}
    by_header: dict[int, Loop] = {}
    for block in reachable:
        for succ, kind in block.succs:
            if kind != "norm" or not domtree.contains(succ):
                continue
            if not domtree.dominates(succ, block):
                continue  # not a back edge
            loop = by_header.get(succ.id)
            if loop is None:
                loop = by_header[succ.id] = Loop(succ)
            loop.latches.append(block)
            _collect_body(loop, block)
    loops = sorted(by_header.values(),
                   key=lambda l: order.get(l.header.id, 1 << 30))
    _resolve_nesting(loops)
    return LoopForest(function, domtree, loops)


def _collect_body(loop: Loop, latch: Block) -> None:
    """Add everything reaching ``latch`` without crossing the header."""
    stack = [latch]
    while stack:
        block = stack.pop()
        if block.id in loop.blocks:
            continue
        loop.blocks.add(block.id)
        for pred, _kind in block.preds:
            stack.append(pred)


def _resolve_nesting(loops: list[Loop]) -> None:
    for loop in loops:
        best: Optional[Loop] = None
        for candidate in loops:
            if candidate is loop:
                continue
            if loop.header.id not in candidate.blocks:
                continue
            if best is None or len(candidate.blocks) < len(best.blocks):
                best = candidate
        loop.parent = best
        if best is not None:
            best.children.append(loop)
    changed = True
    while changed:  # settle depths (parents may come later in the list)
        changed = False
        for loop in loops:
            depth = 1 if loop.parent is None else loop.parent.depth + 1
            if loop.depth != depth:
                loop.depth = depth
                changed = True


# =====================================================================
# preheader insertion (a CST transform)

def existing_preheader(loop: Loop) -> Optional[Block]:
    """A block that already behaves as ``loop``'s preheader: the single
    outside predecessor of the header, falling through with no other
    successors and no exception edge.  Appending code to it is exactly
    as sound as inserting a fresh preheader (it executes iff the loop
    is entered)."""
    entries = loop.entry_preds()
    if len(entries) != 1:
        return None
    pred, kind = entries[0]
    if kind != "norm":
        return None
    if pred.succs != [(loop.header, "norm")]:
        return None
    if pred.term is None or pred.term.kind != "fall":
        return None
    return pred


def ensure_preheader(function: Function, loop: Loop,
                     forest: Optional[LoopForest] = None) -> Optional[Block]:
    """Give ``loop`` a preheader, inserting one if necessary.

    Returns None when the loop's entry shape rules the transform out
    (exception predecessors, a dispatch-block header, or no matching
    CST loop region) -- callers must simply skip such loops.
    """
    if loop.preheader is not None:
        return loop.preheader
    found = existing_preheader(loop)
    if found is not None:
        loop.preheader = found
        return found
    return insert_preheader(function, loop, forest)


def insert_preheader(function: Function, loop: Loop,
                     forest: Optional[LoopForest] = None) -> Optional[Block]:
    """Splice a fresh fall-through block before ``loop``'s CST region.

    All entry edges are redirected to the new block; header phis keep
    one operand per latch plus a single entry operand (a new preheader
    phi merges multiple distinct entry values).  The rewired edges are
    exactly what :func:`derive_cfg` re-derives from the mutated CST, so
    the function stays canonically encodable.
    """
    header = loop.header
    if header is function.entry or header.caught is not None:
        return None
    if any(kind != "norm" for _pred, kind in header.preds):
        return None
    entry_count = sum(1 for pred, _kind in header.preds
                      if pred.id not in loop.blocks)
    if entry_count == 0:
        return None
    # the canonical walk connects entry edges before any latch, so the
    # entry predecessors must form a prefix of the pred list
    if any(header.preds[i][0].id in loop.blocks
           for i in range(entry_count)):
        return None
    region, parent = _find_loop_region(function.cst, header)
    if region is None:
        return None

    pre = function.new_block()
    entry_preds = header.preds[:entry_count]
    latch_preds = header.preds[entry_count:]

    # header phis: entry operands move to the preheader
    for phi in header.phis:
        if len(phi.operands) != len(header.preds):
            return None  # ill-formed; leave it to the verifier
    for phi in header.phis:
        entry_ops = phi.operands[:entry_count]
        latch_ops = phi.operands[entry_count:]
        if all(op is entry_ops[0] for op in entry_ops):
            entry_value: Instr = entry_ops[0]
        else:
            merge = Phi(phi.plane, var=phi.var)
            pre.append(merge)
            for op in entry_ops:
                merge.add_operand(op)
            entry_value = merge
        phi.drop_operands()
        phi.add_operand(entry_value)
        for op in latch_ops:
            phi.add_operand(op)

    # edges: entry preds now feed the preheader (in place, so branch
    # arm order is untouched), the preheader falls through to the header
    for pred, _kind in entry_preds:
        pred.succs = [(pre, "norm") if (succ is header and kind == "norm")
                      else (succ, kind) for succ, kind in pred.succs]
    pre.preds = list(entry_preds)
    pre.succs = [(header, "norm")]
    pre.term = Term("fall")
    header.preds = [(pre, "norm")] + latch_preds

    _splice_before(parent, region, RBasic(pre, exc=False), function)
    if forest is not None:
        forest.note_preheader(loop, pre)
    else:
        loop.preheader = pre
    return pre


def _find_loop_region(root: Region, header: Block) \
        -> tuple[Optional[Region], Optional[Region]]:
    """The outermost loop region headed by ``header`` and its parent.

    Pre-order search, so when nested regions share an entry block (e.g.
    ``RLoop`` directly inside ``RLoop``) the outermost wins -- its
    incoming edges are precisely the natural loop's entry edges.
    """
    stack: list[tuple[Region, Optional[Region]]] = [(root, None)]
    while stack:
        region, parent = stack.pop()
        if _is_loop_region_for(region, header):
            return region, parent
        if isinstance(region, RSeq):
            for child in reversed(region.regions):
                stack.append((child, region))
        elif isinstance(region, RIf):
            if region.else_region is not None:
                stack.append((region.else_region, region))
            stack.append((region.then_region, region))
        elif isinstance(region, (RWhile, RDoWhile, RLoop, RLabeled)):
            stack.append((region.body, region))
        elif isinstance(region, RTry):
            stack.append((region.handler, region))
            stack.append((region.body, region))
    return None, None


def _is_loop_region_for(region: Region, header: Block) -> bool:
    if isinstance(region, RWhile):
        return region.header is header
    if isinstance(region, (RDoWhile, RLoop)):
        return _entry_block(region.body) is header
    return False


def _splice_before(parent: Optional[Region], region: Region,
                   basic: RBasic, function: Function) -> None:
    """Insert ``basic`` immediately before ``region`` in the CST."""
    if isinstance(parent, RSeq):
        index = _index_of(parent.regions, region)
        parent.regions.insert(index, basic)
        return
    replacement = RSeq([basic, region])
    if parent is None:
        function.cst = replacement
    elif isinstance(parent, RIf):
        if parent.then_region is region:
            parent.then_region = replacement
        else:
            parent.else_region = replacement
    elif isinstance(parent, (RWhile, RDoWhile, RLoop, RLabeled)):
        parent.body = replacement
    elif isinstance(parent, RTry):
        if parent.body is region:
            parent.body = replacement
        else:
            parent.handler = replacement


def _index_of(regions: list[Region], target: Region) -> int:
    for index, region in enumerate(regions):
        if region is target:
            return index
    raise ValueError("region not found in its parent")  # pragma: no cover
