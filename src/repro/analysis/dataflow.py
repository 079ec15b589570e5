"""Generic forward worklist dataflow solver over the SafeTSA CFG.

The solver iterates to a fixpoint over the *reachable* blocks in DFS
preorder, merges at joins -- exception edges included -- and supports
per-edge fact refinement (the hook branch- and trap-sensitive analyses
use) plus widening at loop heads so infinite-height lattices
(intervals) still terminate.

Lattice protocol
----------------

An analysis supplies its lattice operations directly (facts are opaque
to the solver):

``boundary(function)``
    the fact at the function entry;
``join(a, b)``
    least upper bound of two facts -- intersection for the nullness
    must-analysis, interval hull for ranges;
``transfer(block, fact)``
    flow one whole block, returning the fact at its end;
``edge(src, index, dst, kind, fact)`` (optional)
    refine ``src``'s out-fact for the specific out-edge at position
    ``index`` of ``src.succs`` (``kind`` is ``'norm'`` or ``'exc'``) --
    this is where branch conditions and trapping tails specialise facts;
``widen(old, new)`` (optional)
    called instead of ``join`` at loop heads once a block has been
    revisited :data:`WIDEN_AFTER` times.

Facts must be treated as immutable values compared with ``==``:
``transfer`` returns a new fact and never mutates its argument.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.ssa.ir import Block, Function

#: after this many visits of the same block the solver widens instead of
#: joining (only when the analysis defines ``widen``)
WIDEN_AFTER = 3


class DataflowResult:
    """Fixpoint facts per block id: ``entry[b]`` at the block's start,
    ``exit[b]`` at its end."""

    def __init__(self) -> None:
        self.entry: dict[int, object] = {}
        self.exit: dict[int, object] = {}


def branch_arm(block: Block, succ_index: int) -> Optional[str]:
    """'true'/'false' for the two normal successors of a branch (the
    position ``succ_index`` in ``block.succs``), None for any other."""
    normals = [i for i, (_succ, kind) in enumerate(block.succs)
               if kind == "norm"]
    if len(normals) < 2:
        return None
    if succ_index == normals[0]:
        return "true"
    if succ_index == normals[1]:
        return "false"
    return None


def _edges_into(block: Block):
    """(pred, edge-kind, succ-index-in-pred) triples feeding ``block``.

    A degenerate branch can route both arms to the same block; every
    matching out-edge of the predecessor is reported so the caller can
    join their (differently refined) facts.
    """
    for pred, kind in block.preds:
        for index, (succ, succ_kind) in enumerate(pred.succs):
            if succ is block and succ_kind == kind:
                yield pred, kind, index


def solve(function: Function, analysis) -> DataflowResult:
    """Run ``analysis`` to a fixpoint over ``function``'s reachable CFG."""
    result = DataflowResult()
    # reachable_blocks() is a DFS preorder from the entry; a stable
    # approximation of RPO that keeps the worklist passes low.  The
    # fixpoint is order-independent, order only affects speed.
    blocks = function.reachable_blocks()
    if not blocks:
        return result
    edge_fn: Optional[Callable] = getattr(analysis, "edge", None)
    widen_fn: Optional[Callable] = getattr(analysis, "widen", None)

    reachable = {block.id for block in blocks}
    boundary = analysis.boundary(function)
    visits: dict[int, int] = {}

    worklist: deque[Block] = deque(blocks)
    queued = set(reachable)
    while worklist:
        block = worklist.popleft()
        queued.discard(block.id)
        visits[block.id] = visits.get(block.id, 0) + 1

        incoming = _merge_incoming(block, analysis, result, edge_fn,
                                   boundary, reachable)
        if incoming is None:
            continue  # no flowed-in fact yet (e.g. loop not entered)
        old_in = result.entry.get(block.id)
        if old_in is not None:
            if widen_fn is not None \
                    and visits[block.id] > WIDEN_AFTER:
                incoming = widen_fn(old_in, incoming)
            else:
                incoming = analysis.join(old_in, incoming)
            if old_in == incoming:
                # entry unchanged -> exit unchanged, nothing to propagate
                continue
        result.entry[block.id] = incoming
        outgoing = analysis.transfer(block, incoming)
        old_out = result.exit.get(block.id)
        result.exit[block.id] = outgoing
        if old_out is not None and old_out == outgoing:
            continue
        for succ, _kind in block.succs:
            if succ.id in reachable and succ.id not in queued:
                worklist.append(succ)
                queued.add(succ.id)
    return result


def _merge_incoming(block: Block, analysis, result, edge_fn, boundary,
                    reachable):
    """Join the facts flowing into ``block`` from all its predecessors."""
    if not block.preds:
        return boundary
    facts = []
    for pred, kind, index in _edges_into(block):
        if pred.id not in reachable:
            continue  # unreachable predecessor contributes nothing
        fact = result.exit.get(pred.id)
        if fact is None:
            continue
        if edge_fn is not None:
            fact = edge_fn(pred, index, block, kind, fact)
        facts.append(fact)
    if not facts:
        return None
    merged = facts[0]
    for fact in facts[1:]:
        merged = analysis.join(merged, fact)
    return merged
