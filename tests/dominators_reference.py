"""Reference dominator algorithm for the dominator cross-check tests.

Lengauer-Tarjan (the paper's reference [21]), kept as an independent
oracle that :func:`repro.ssa.dominators.compute_dominators` (Cooper,
Harvey and Kennedy's iterative algorithm) must agree with
(``tests/test_ssa_construction.py``, ``tests/test_dominators_layout.py``).
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

from repro.ssa.dominators import DominatorTree
from repro.ssa.ir import Block, Function


def compute_dominators_lt(function: Function) -> DominatorTree:
    """Lengauer-Tarjan (simple path-compression variant)."""
    entry = function.entry
    # step 1: DFS numbering
    parent: dict[Block, Block] = {}
    vertex: list[Block] = []
    semi: dict[Block, int] = {}
    stack = [(entry, None)]
    while stack:
        block, par = stack.pop()
        if block in semi:
            continue
        semi[block] = len(vertex)
        vertex.append(block)
        if par is not None:
            parent[block] = par
        for succ, _kind in reversed(block.succs):
            if succ not in semi:
                stack.append((succ, block))

    bucket: dict[Block, list[Block]] = {b: [] for b in vertex}
    dom: dict[Block, Block] = {}
    ancestor: dict[Block, Block] = {}
    label: dict[Block, Block] = {b: b for b in vertex}

    def compress(v: Block) -> None:
        path = []
        while ancestor.get(v) is not None and ancestor.get(ancestor[v]) is not None:
            path.append(v)
            v = ancestor[v]
        for node in reversed(path):
            anc = ancestor[node]
            if semi[label[anc]] < semi[label[node]]:
                label[node] = label[anc]
            ancestor[node] = ancestor[anc]

    def evaluate(v: Block) -> Block:
        if ancestor.get(v) is None:
            return label[v]
        compress(v)
        return label[v]

    for w in reversed(vertex[1:]):
        for pred, _kind in w.preds:
            if pred not in semi:
                continue
            u = evaluate(pred)
            if semi[u] < semi[w]:
                semi[w] = semi[u]
        bucket[vertex[semi[w]]].append(w)
        ancestor[w] = parent[w]
        for v in bucket[parent[w]]:
            u = evaluate(v)
            dom[v] = u if semi[u] < semi[v] else parent[w]
        bucket[parent[w]] = []

    idom: dict[Block, Optional[Block]] = {entry: None}
    for w in vertex[1:]:
        if dom[w] is not vertex[semi[w]]:
            dom[w] = dom[dom[w]]
        idom[w] = dom[w]
    order_index = {block: i for i, block in enumerate(vertex)}
    return DominatorTree(entry, idom, order_index)
