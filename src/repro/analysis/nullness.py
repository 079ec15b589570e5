"""Nullness: which safe-ref facts already hold on each edge.

A forward *must*-analysis (paper Sections 2-4): the fact at a program
point is the set of reference-plane value ids that are provably non-null
on **every** path reaching it.  SSA values are immutable, so facts only
accumulate along a path and the merge at joins -- exception edges
included -- is set intersection.

Sources of non-nullness:

* values born on a ``safe`` plane (``new``, ``this``, ``caughtexc``,
  ``nullcheck``/``newarray`` results) -- intrinsic, not tracked in the
  fact sets;
* a successful ``nullcheck v`` proves ``v`` non-null *after* the check
  (on the normal out-edge only -- the exception edge leaves before the
  proof);
* branch refinement: on the out-edges of ``refcmp v == null`` /
  ``v != null`` branches the corresponding arm learns ``v`` non-null;
* a phi is non-null when the incoming value on every predecessor edge
  is non-null *on that edge* -- exactly the transport the paper's
  safe-phi extension performs statically.

The lint driver uses :meth:`NullnessFacts.nonnull_before` to flag
``nullcheck`` instructions that can never trap (``STSA-NULL-101``);
dominator-scoped CSE cannot see the both-arms-checked diamond this
analysis proves.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import dataflow
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Instr


def is_intrinsically_nonnull(value: Instr) -> bool:
    """Non-null by construction, independent of any flow facts."""
    plane = value.plane
    if plane is not None and plane.kind == "safe":
        return True
    if isinstance(value, ir.Const) and value.type.is_reference() \
            and isinstance(value.value, str):
        return True  # string literals are materialised objects
    return False


def _null_comparison(value: Instr) -> Optional[tuple[Instr, bool]]:
    """``(compared-value, is_eq)`` when ``value`` is ``v == null`` or
    ``v != null``; None otherwise."""
    if not isinstance(value, ir.RefCmp):
        return None
    left, right = value.operands
    for candidate, other in ((left, right), (right, left)):
        if isinstance(other, ir.Const) and other.value is None:
            return candidate, value.is_eq
    return None


class _NullnessAnalysis:
    def __init__(self, function: Function):
        self.function = function

    def boundary(self, function: Function) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    # -- transfer -------------------------------------------------------

    def transfer(self, block: Block, fact: frozenset) -> frozenset:
        known = set(fact)
        for phi in block.phis:
            if self._phi_nonnull(block, phi, fact):
                known.add(phi.id)
        for instr in block.instrs:
            if isinstance(instr, ir.NullCheck):
                known.add(instr.operands[0].id)
            elif isinstance(instr, ir.Downcast):
                # a downcast forwards its operand's value unchanged
                if self._is_nonnull_id(instr.operands[0], known):
                    known.add(instr.id)
        return frozenset(known)

    def _phi_nonnull(self, block: Block, phi, entry_fact) -> bool:
        """A phi is non-null when every incoming edge delivers a
        non-null value.  Per-edge facts are the predecessors' refined
        out-facts; during iteration unvisited edges are treated
        optimistically (the fixpoint corrects them)."""
        if phi.plane.kind != "ref":
            return False
        if len(phi.operands) != len(block.preds):
            return False  # ill-formed; the verifier reports it
        for operand, edge_fact in zip(phi.operands,
                                      self._pred_edge_facts(block)):
            if is_intrinsically_nonnull(operand):
                continue
            if edge_fact is None:
                continue  # edge not flowed yet: optimistic
            if operand.id not in edge_fact:
                return False
        return True

    def _pred_edge_facts(self, block: Block):
        facts = []
        for pred, kind in block.preds:
            fact = self._result.exit.get(pred.id) \
                if self._result is not None else None
            if fact is not None:
                for index, (succ, succ_kind) in enumerate(pred.succs):
                    if succ is block and succ_kind == kind:
                        fact = self.edge(pred, index, block, kind, fact)
                        break
            facts.append(fact)
        return facts

    @staticmethod
    def _is_nonnull_id(value: Instr, known: set) -> bool:
        return is_intrinsically_nonnull(value) or value.id in known

    # -- per-edge refinement --------------------------------------------

    def edge(self, src: Block, index: int, dst: Block, kind: str,
             fact: frozenset) -> frozenset:
        if kind == "exc":
            # the trap fires *before* the tail instruction's proof: undo
            # the facts the trapping tail itself generated
            tail = src.instrs[-1] if src.instrs else None
            if isinstance(tail, ir.NullCheck):
                fact = fact - {tail.operands[0].id}
            return fact
        term = src.term
        if term is None or term.kind != "branch" or term.value is None:
            return fact
        comparison = _null_comparison(term.value)
        if comparison is None:
            return fact
        value, is_eq = comparison
        arm = dataflow.branch_arm(src, index)
        if arm is None:
            return fact
        # true arm of `v != null`, false arm of `v == null`: v non-null
        if arm == ("true" if not is_eq else "false"):
            return fact | {value.id}
        return fact

    _result = None  # set by analyze_nullness during/after solving


class NullnessFacts:
    """Query interface over the solved nullness facts."""

    def __init__(self, function: Function, analysis: _NullnessAnalysis,
                 result: dataflow.DataflowResult):
        self.function = function
        self._analysis = analysis
        self._result = result

    def nonnull_at_entry(self, block: Block) -> frozenset:
        return self._result.entry.get(block.id, frozenset())

    def nonnull_before(self, instr: Instr) -> frozenset:
        """Fact just before ``instr`` (phis observe the block entry)."""
        block = instr.block
        if block is None:
            return frozenset()
        known = set(self.nonnull_at_entry(block))
        if isinstance(instr, ir.Phi):
            return frozenset(known)
        for phi in block.phis:
            if self._analysis._phi_nonnull(block, phi,
                                           frozenset(known)):
                known.add(phi.id)
        for candidate in block.instrs:
            if candidate is instr:
                break
            if isinstance(candidate, ir.NullCheck):
                known.add(candidate.operands[0].id)
            elif isinstance(candidate, ir.Downcast):
                if is_intrinsically_nonnull(candidate.operands[0]) \
                        or candidate.operands[0].id in known:
                    known.add(candidate.id)
        return frozenset(known)

    def is_nonnull_before(self, value: Instr, at: Instr) -> bool:
        return is_intrinsically_nonnull(value) \
            or value.id in self.nonnull_before(at)


def analyze_nullness(function: Function) -> NullnessFacts:
    """Solve the nullness dataflow problem for ``function``."""
    analysis = _NullnessAnalysis(function)
    # the phi transfer peeks at other blocks' (partial) edge facts; give
    # it access to the result being built, then iterate once more so the
    # optimistic phi guesses settle
    result = dataflow.DataflowResult()
    analysis._result = result
    solved = dataflow.solve(function, analysis)
    result.entry.update(solved.entry)
    result.exit.update(solved.exit)
    stable = False
    for _ in range(len(function.blocks) + 2):
        changed = False
        for block in function.reachable_blocks():
            entry = result.entry.get(block.id)
            if entry is None:
                continue
            out = analysis.transfer(block, entry)
            if out != result.exit.get(block.id):
                result.exit[block.id] = out
                changed = True
        # re-merge entries from the refreshed exits
        for block in function.reachable_blocks():
            if not block.preds:
                continue
            facts = []
            for pred, kind in block.preds:
                fact = result.exit.get(pred.id)
                if fact is None:
                    continue
                for index, (succ, succ_kind) in enumerate(pred.succs):
                    if succ is block and succ_kind == kind:
                        fact = analysis.edge(pred, index, block, kind,
                                             fact)
                        break
                facts.append(fact)
            if not facts:
                continue
            merged = facts[0]
            for fact in facts[1:]:
                merged = merged & fact
            if merged != result.entry.get(block.id):
                result.entry[block.id] = merged
                changed = True
        if not changed:
            stable = True
            break
    assert stable or True  # bounded refinement; facts are conservative
    return NullnessFacts(function, analysis, result)
