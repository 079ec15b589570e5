"""SSA construction: UAST -> SafeTSA form, in a single pass.

This adapts the Brandis/Moessenboeck single-pass algorithm (the paper's
choice, [6]) to the UAST, using sealed-block incomplete phis for loop
headers.  Following the paper:

* phi instructions are inserted *eagerly* at join points for every
  variable assigned in the joined region (Section 7; the dead ones are
  later removed by Briggs-style pruning, reported as a ~31% reduction);
* inside ``try`` bodies, basic blocks are split after every potentially
  trapping instruction and an exception edge is added from the split
  point to the try's dispatch block, so the dispatch phis observe the
  variable values at the exception point (Section 7);
* constants and parameters are pre-loaded in the entry block (Section 5);
* every memory access takes its object operand from a safe-ref plane and
  its index operand from the array value's safe-index plane, inserting
  explicit ``nullcheck``/``idxcheck`` instructions (Section 4);
* ``this``, allocation results and caught exceptions are intrinsically
  non-null and are deposited directly on safe-ref planes.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend.ast import LocalVar
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    ClassType,
    PrimitiveType,
    Type,
    VOID,
)
from repro.typesys.world import ClassInfo, MethodInfo, World
from repro.ssa import ir
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
)
from repro.ssa.ir import (
    ArrayLen,
    Block,
    Call,
    CaughtExc,
    Const,
    Downcast,
    Function,
    GetElt,
    GetField,
    GetStatic,
    IdxCheck,
    InstanceOf,
    Instr,
    New,
    NewArray,
    NullCheck,
    Param,
    Phi,
    Plane,
    Prim,
    RefCmp,
    SetElt,
    SetField,
    SetStatic,
    Term,
    Upcast,
)
from repro.uast import nodes as u
from repro.uast.builder import _zero_const

THROWABLE = ClassType("java.lang.Throwable")


class ConstructionError(Exception):
    """Internal invariant violation while building SSA (compiler bug or a
    program the front-end should have rejected)."""


class _Breakable:
    """A break/continue context during construction."""

    __slots__ = ("break_ids", "continue_ids", "continue_target",
                 "break_edges", "is_loop")

    def __init__(self, break_ids: set[int], continue_ids: set[int],
                 continue_target: Optional[Block], is_loop: bool):
        self.break_ids = break_ids
        self.continue_ids = continue_ids
        self.continue_target = continue_target
        self.break_edges: list[tuple[Block, str]] = []
        self.is_loop = is_loop


def _var_plane(var: LocalVar) -> Plane:
    if var.is_this:
        return Plane.safe(var.type)
    return Plane.of_type(var.type)


class SsaBuilder:
    """Builds one :class:`~repro.ssa.ir.Function` from a UAST method."""

    def __init__(self, world: World, class_info: ClassInfo,
                 umethod: u.UMethod):
        self.world = world
        self.class_info = class_info
        self.umethod = umethod
        self.function = Function(umethod.method, class_info)

        self.current: Optional[Block] = None
        self.pending: list[tuple[Block, str]] = []
        self.defs: dict[LocalVar, dict[Block, Optional[Instr]]] = {}
        self.sealed: set[int] = set()
        self.incomplete: dict[int, dict[LocalVar, Phi]] = {}
        self.const_pool: dict[tuple, Const] = {}
        self._region_stack: list[list[Region]] = []
        self._breakables: list[_Breakable] = []
        self._exc_stack: list[Optional[Block]] = [None]
        self._pending_eager: set[LocalVar] = set()
        #: id(node) -> (node, assigned vars).  The node itself is kept
        #: in the entry: lowering builds throwaway synthetic UAST nodes
        #: (do-while/for wrappers), and without the pin a collected
        #: node's id can be recycled by a later synthetic node, making
        #: the memo return the *previous* node's variable set.
        self._assigned_memo: dict[int, tuple[u.UStmt, frozenset]] = {}

    # ==================================================================
    # top level

    def build(self) -> Function:
        entry = self.function.new_block()
        self.function.entry = entry
        self.sealed.add(entry.id)
        self.current = entry
        self._region_stack.append([])
        self._emit_params()
        self._build_stmt(self.umethod.body)
        self._finish_method()
        self.function.cst = RSeq(self._region_stack.pop())
        self.function.phi_count_unpruned = sum(
            len(b.phis) for b in self.function.blocks)
        return self.function

    def _emit_params(self) -> None:
        method = self.umethod.method
        index = 0
        for var in self.umethod.locals:
            if not var.is_param:
                continue
            is_this = (index == 0 and not method.is_static)
            param = Param(index, var.type, var.name, is_this=is_this)
            self.current.append(param)
            self.function.params.append(param)
            self._write(var, param)
            index += 1

    def _finish_method(self) -> None:
        if self.current is None and not self.pending:
            return
        block = self._ensure_block()
        return_type = self.umethod.method.return_type
        if return_type is VOID:
            self._finish_leaf("return", None)
        elif block in self.function.reachable_blocks():
            # semantics proved the method cannot complete normally, yet
            # lowering left a path here that no run takes: the
            # normal-completion arm of a finally dispatch after a try
            # that always transfers.  Consumers reject a reachable
            # ``unreachable`` leaf (DEC-CST), so close it with a return
            # of the type's zero value instead.
            self._finish_leaf("return", self.eval(_zero_const(return_type)))
        else:
            self._finish_leaf("unreachable", None)

    # ==================================================================
    # block plumbing

    def _ensure_block(self) -> Block:
        if self.current is None:
            block = self.function.new_block()
            for source, kind in self.pending:
                block.add_pred(source, kind)
            self.pending = []
            self.sealed.add(block.id)
            self.current = block
            block.exc_target = self._exc_stack[-1]
            if self._pending_eager:
                eager, self._pending_eager = self._pending_eager, set()
                self._insert_eager_join_phis(block, eager)
        return self.current

    def _new_unsealed_block(self) -> Block:
        """Open a block that will receive additional preds later."""
        if self.current is not None:
            self._finish_leaf("fall", None)
        block = self.function.new_block()
        for source, kind in self.pending:
            block.add_pred(source, kind)
        self.pending = []
        block.exc_target = self._exc_stack[-1]
        self.incomplete.setdefault(block.id, {})
        self._pending_eager = set()
        return block

    def _finish_leaf(self, kind: str, value: Optional[Instr],
                     depth: int = 0, exc: bool = False) -> Block:
        block = self._ensure_block()
        block.term = Term(kind, value, depth)
        if kind == "throw" and self._exc_stack[-1] is not None:
            # a throw inside a try body is an exception point: it reaches
            # the enclosing dispatch block, not the caller
            self._exc_stack[-1].add_pred(block, "exc")
            exc = True
        self._region_stack[-1].append(RBasic(block, exc=exc))
        self.current = None
        self.pending = [(block, "norm")] if kind == "fall" else []
        return block

    def _capture_cond_block(self, cond_value: Instr) -> Block:
        """Turn the current block into a branch block (owned by RIf etc.)."""
        block = self._ensure_block()
        block.term = Term("branch", cond_value)
        self.current = None
        self.pending = []
        return block

    def _push_region(self) -> None:
        self._region_stack.append([])

    def _pop_region(self) -> Region:
        regions = self._region_stack.pop()
        return regions[0] if len(regions) == 1 else RSeq(regions)

    # ==================================================================
    # value emission

    def emit(self, instr: Instr) -> Instr:
        block = self._ensure_block()
        block.append(instr)
        if instr.traps and self._exc_stack[-1] is not None:
            dispatch = self._exc_stack[-1]
            dispatch.add_pred(block, "exc")
            # split the subblock at the exception point (paper Section 7)
            self._finish_leaf("fall", None, exc=True)
        return instr

    def const(self, type: Type, value: object) -> Const:
        """Constants are pre-loaded (and shared) in the entry block."""
        # repr() keeps -0.0 distinct from 0.0 and True distinct from 1
        key = (type, value.__class__.__name__, repr(value))
        cached = self.const_pool.get(key)
        if cached is None:
            cached = Const(type, value)
            self.function.entry.append(cached)
            self.const_pool[key] = cached
        return cached

    # ------------------------------------------------------------------
    # variables (sealed-block SSA)

    def _write(self, var: LocalVar, value: Instr) -> None:
        self.defs.setdefault(var, {})[self._ensure_block()] = value

    def _read(self, var: LocalVar, block: Optional[Block] = None) -> Instr:
        if block is None:
            block = self._ensure_block()
        value = self._read_opt(var, block)
        if value is None:
            raise ConstructionError(
                f"read of unassigned variable {var.name!r} in "
                f"{self.function.name}")
        return value

    def _read_opt(self, var: LocalVar, block: Block) -> Optional[Instr]:
        value = self.defs.get(var, {}).get(block)
        if value is not None:
            value = _resolve(value)
            self.defs[var][block] = value
            return value
        if block in self.defs.get(var, {}):
            return None  # cached undefined
        return self._read_recursive(var, block)

    def _read_recursive(self, var: LocalVar, block: Block) -> Optional[Instr]:
        if block.id not in self.sealed:
            phi = Phi(_var_plane(var), var)
            block.phis.insert(0, phi)
            phi.block = block
            self.incomplete.setdefault(block.id, {})[var] = phi
            value: Optional[Instr] = phi
        elif not block.preds:
            value = None
        elif len(block.preds) == 1:
            value = self._read_opt(var, block.preds[0][0])
        else:
            phi = Phi(_var_plane(var), var)
            block.phis.append(phi)
            phi.block = block
            self.defs.setdefault(var, {})[block] = phi  # break cycles
            operands = [self._read_opt(var, pred) for pred, _ in block.preds]
            if any(op is None for op in operands):
                block.phis.remove(phi)
                value = None
            else:
                for op in operands:
                    phi.add_operand(op)
                value = _resolve(self._try_remove_trivial(phi))
        self.defs.setdefault(var, {})[block] = value
        return value

    def _seal(self, block: Block) -> None:
        for var, phi in self.incomplete.pop(block.id, {}).items():
            operands = [self._read_opt(var, pred) for pred, _ in block.preds]
            if any(op is None for op in operands):
                if phi.is_eager and not phi.users:
                    # the variable is not defined before the loop after
                    # all; retract the speculative header phi
                    block.phis.remove(phi)
                    phi.removed = True
                    if self.defs.get(var, {}).get(block) is phi:
                        del self.defs[var][block]
                    continue
                raise ConstructionError(
                    f"variable {var.name!r} undefined on a path into "
                    f"B{block.id} in {self.function.name}")
            for op in operands:
                phi.add_operand(op)
            if phi.is_eager:
                continue  # B&M keeps it; Briggs pruning may remove it
            resolved = _resolve(self._try_remove_trivial(phi))
            if self.defs.get(var, {}).get(block) is phi:
                self.defs[var][block] = resolved
        self.sealed.add(block.id)

    def _try_remove_trivial(self, phi: Phi) -> Instr:
        same: Optional[Instr] = None
        for operand in phi.operands:
            operand = _resolve(operand)
            if operand is phi or operand is same:
                continue
            if same is not None:
                return phi  # two distinct operands: not trivial
            same = operand
        if same is None:
            return phi  # self-referential only; unreachable loop artifact
        users = sorted((user for user in phi.users
                        if isinstance(user, Phi) and user is not phi
                        and not user.is_eager),
                       key=lambda user: user.id)
        phi.replace_all_uses(same)
        phi.removed = True
        phi.replacement = same
        if phi in phi.block.phis:
            phi.block.phis.remove(phi)
        phi.drop_operands()
        for user in users:
            if not user.removed:
                self._try_remove_trivial(user)
        # the recursion above may have removed `same` itself
        return _resolve(same)

    def _is_defined(self, var: LocalVar, block: Block,
                    seen: Optional[set] = None) -> bool:
        """Side-effect-free probe: does ``var`` reach ``block``?

        Unlike ``_read_opt`` this never creates phis, so eager insertion
        can test definedness without poisoning unsealed loop headers.
        Cycles (loop back edges) are judged optimistically, matching the
        incomplete-phi semantics.
        """
        if seen is None:
            seen = set()
        per_block = self.defs.get(var, {})
        if block in per_block:
            return per_block[block] is not None
        if block.id in seen:
            return True
        seen.add(block.id)
        if not block.preds:
            return False
        return all(self._is_defined(var, pred, seen)
                   for pred, _ in block.preds)

    def _insert_eager_join_phis(self, block: Block,
                                vars: set[LocalVar]) -> None:
        """B&M-style eager phis at a sealed join block."""
        if len(block.preds) < 2:
            return
        for var in sorted(vars, key=lambda v: (v.index, v.name)):
            if self.defs.get(var, {}).get(block) is not None:
                continue
            if not all(self._is_defined(var, pred)
                       for pred, _ in block.preds):
                continue  # not defined on all paths; cannot merge
            operands = [self._read_opt(var, pred) for pred, _ in block.preds]
            if any(op is None for op in operands):
                continue
            phi = Phi(_var_plane(var), var, is_eager=True)
            block.phis.append(phi)
            phi.block = block
            for op in operands:
                phi.add_operand(op)
            self.defs.setdefault(var, {})[block] = phi

    def _assigned_vars(self, node: u.UStmt) -> frozenset:
        memo = self._assigned_memo.get(id(node))
        if memo is not None:
            return memo[1]
        out: set[LocalVar] = set()
        if isinstance(node, u.SBlock):
            for inner in node.stmts:
                out |= self._assigned_vars(inner)
        elif isinstance(node, u.SLocalWrite):
            out.add(node.local)
        elif isinstance(node, u.SIf):
            out |= self._assigned_vars(node.then_body)
            if node.else_body is not None:
                out |= self._assigned_vars(node.else_body)
        elif isinstance(node, (u.SWhile, u.SDoWhile, u.SLabeled)):
            out |= self._assigned_vars(node.body)
        elif isinstance(node, u.STry):
            out |= self._assigned_vars(node.body)
            for catch in node.catches:
                out.add(catch.local)
                out |= self._assigned_vars(catch.body)
        result = frozenset(out)
        self._assigned_memo[id(node)] = (node, result)
        return result

    # ==================================================================
    # plane adaptation

    def as_plane(self, value: Instr, plane: Plane) -> Instr:
        if value.plane == plane:
            return value
        source = value.plane
        if source.kind in ("ref", "safe") and plane.kind in ("ref", "safe"):
            if plane.kind == "safe" and source.kind == "ref":
                raise ConstructionError(
                    f"cannot statically move {source} to {plane}")
            if not self.world.is_subtype(source.type, plane.type):
                raise ConstructionError(f"bad downcast {source} -> {plane}")
            return self.emit(Downcast(plane, value))
        raise ConstructionError(f"cannot adapt {source} to {plane}")

    def ensure_safe(self, value: Instr) -> Instr:
        """Null-check a reference value onto its safe plane (or reuse)."""
        if value.plane.kind == "safe":
            return value
        if value.plane.kind != "ref":
            raise ConstructionError(f"nullcheck of non-reference {value!r}")
        return self.emit(NullCheck(value.type, value))

    def _safe_receiver(self, value: Instr, base: ClassInfo) -> Instr:
        safe = self.ensure_safe(value)
        return self.as_plane(safe, Plane.safe(base.type))

    # ==================================================================
    # statements

    def _build_stmt(self, stmt: u.UStmt) -> None:
        handler = getattr(self, "_stmt_" + type(stmt).__name__.lower(), None)
        if handler is None:
            raise ConstructionError(
                f"unsupported UAST statement {type(stmt).__name__}")
        handler(stmt)

    def _stmt_sblock(self, stmt: u.SBlock) -> None:
        for inner in stmt.stmts:
            if self.current is None and not self.pending:
                return  # unreachable tail (e.g. after return)
            self._build_stmt(inner)

    def _stmt_slocalwrite(self, stmt: u.SLocalWrite) -> None:
        value = self.eval(stmt.value)
        self._write(stmt.local, self.as_plane(value, _var_plane(stmt.local)))

    def _stmt_sfieldwrite(self, stmt: u.SFieldWrite) -> None:
        obj = self.eval(stmt.obj)
        base = self._class_of_value(obj)
        safe = self._safe_receiver(obj, base)
        value = self.eval(stmt.value)
        value = self.as_plane(value, Plane.of_type(stmt.field.type))
        self.emit(SetField(base, safe, stmt.field, value))

    def _stmt_sstaticwrite(self, stmt: u.SStaticWrite) -> None:
        value = self.eval(stmt.value)
        value = self.as_plane(value, Plane.of_type(stmt.field.type))
        self.emit(SetStatic(stmt.field, value))

    def _stmt_sarraywrite(self, stmt: u.SArrayWrite) -> None:
        array = self.eval(stmt.array)
        array_type = array.type
        if not isinstance(array_type, ArrayType):
            raise ConstructionError("array write to non-array")
        safe_array = self.ensure_safe(array)
        index = self.eval(stmt.index)
        safe_index = self.emit(IdxCheck(safe_array, index))
        value = self.eval(stmt.value)
        value = self.as_plane(value, Plane.of_type(array_type.element))
        self.emit(SetElt(array_type, safe_array, safe_index, value))

    def _stmt_seval(self, stmt: u.SEval) -> None:
        self.eval(stmt.expr)

    def _stmt_sif(self, stmt: u.SIf) -> None:
        cond = self.eval(stmt.cond)
        cond_block = self._capture_cond_block(cond)
        assigned = (self._assigned_vars(stmt.then_body)
                    | (self._assigned_vars(stmt.else_body)
                       if stmt.else_body is not None else frozenset()))
        # then branch
        self.pending = [(cond_block, "norm")]
        self._push_region()
        self._ensure_block()  # materialise the arm even if it stays empty
        self._build_stmt(stmt.then_body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        then_region = self._pop_region()
        then_out = self.pending
        # else branch
        if stmt.else_body is not None:
            self.pending = [(cond_block, "norm")]
            self._push_region()
            self._ensure_block()
            self._build_stmt(stmt.else_body)
            if self.current is not None:
                self._finish_leaf("fall", None)
            else_region: Optional[Region] = self._pop_region()
            else_out = self.pending
        else:
            else_region = None
            else_out = [(cond_block, "norm")]
        self._region_stack[-1].append(RIf(cond_block, then_region,
                                          else_region))
        self.pending = then_out + else_out
        self.current = None
        self._pending_eager = set(assigned)

    def _cond_is_simple(self, expr: u.UExpr) -> bool:
        """True when evaluating ``expr`` emits straight-line, non-trapping
        code (so it can live in a loop header block)."""
        if isinstance(expr, (u.EConst, u.ELocal)):
            return True
        if isinstance(expr, u.EPrim):
            return (not expr.operation.traps
                    and all(self._cond_is_simple(a) for a in expr.args))
        if isinstance(expr, u.ERefCmp):
            return (self._cond_is_simple(expr.left)
                    and self._cond_is_simple(expr.right))
        if isinstance(expr, u.EInstanceOf):
            return self._cond_is_simple(expr.operand)
        if isinstance(expr, u.EWidenRef):
            return self._cond_is_simple(expr.operand)
        return False

    def _stmt_swhile(self, stmt: u.SWhile) -> None:
        is_true_const = isinstance(stmt.cond, u.EConst) \
            and stmt.cond.value is True
        if is_true_const:
            self._build_infinite_loop(stmt)
            return
        if not self._cond_is_simple(stmt.cond):
            self._build_while_lowered(stmt)
            return
        assigned = self._assigned_vars(stmt.body) | self._assigned_vars(stmt)
        header = self._new_unsealed_block()
        self.current = header
        cond = self.eval(stmt.cond)
        if self.current is not header:
            raise ConstructionError("loop condition was not single-block")
        header.term = Term("branch", cond)
        self.current = None
        breakable = _Breakable({stmt.break_id}, {stmt.continue_id},
                               header, is_loop=True)
        self._breakables.append(breakable)
        self.pending = [(header, "norm")]
        self._push_region()
        self._ensure_block()
        self._build_stmt(stmt.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        body_region = self._pop_region()
        self._breakables.pop()
        for source, kind in self.pending:
            header.add_pred(source, kind)
        self._insert_loop_header_phis(header, assigned)
        self._seal(header)
        self._region_stack[-1].append(RWhile(header, body_region))
        self.pending = [(header, "norm")] + breakable.break_edges
        self.current = None
        self._pending_eager = set(assigned)

    def _build_while_lowered(self, stmt: u.SWhile) -> None:
        """``while(c) S`` with a complex condition becomes
        ``loop { c'; if(!c) break; S }``."""
        from repro.typesys.ops import lookup_op
        not_op = lookup_op(BOOLEAN, "not")
        inner = u.SBlock([
            u.SIf(u.EPrim(not_op, [stmt.cond]), u.SBreak(stmt.break_id),
                  None),
            stmt.body,
        ])
        loop = u.SWhile(stmt.break_id, stmt.continue_id,
                        u.EConst(BOOLEAN, True), inner)
        self._build_infinite_loop(loop)

    def _build_infinite_loop(self, stmt: u.SWhile) -> None:
        assigned = self._assigned_vars(stmt.body) | self._assigned_vars(stmt)
        entry = self._new_unsealed_block()
        self.current = entry
        breakable = _Breakable({stmt.break_id}, {stmt.continue_id},
                               entry, is_loop=True)
        self._breakables.append(breakable)
        self._push_region()
        self._build_stmt(stmt.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        body_region = self._pop_region()
        self._breakables.pop()
        for source, kind in self.pending:
            entry.add_pred(source, kind)
        self._insert_loop_header_phis(entry, assigned)
        self._seal(entry)
        self._region_stack[-1].append(RLoop(body_region))
        self.pending = list(breakable.break_edges)
        self.current = None
        self._pending_eager = set(assigned)

    def _stmt_sdowhile(self, stmt: u.SDoWhile) -> None:
        if not self._cond_is_simple(stmt.cond):
            # the UAST builder lowers effectful do-while conditions, but a
            # trapping-but-preludeless condition can still reach us here
            from repro.typesys.ops import lookup_op
            not_op = lookup_op(BOOLEAN, "not")
            body = u.SLabeled(stmt.continue_id, stmt.body)
            inner = u.SBlock([
                body,
                u.SIf(u.EPrim(not_op, [stmt.cond]),
                      u.SBreak(stmt.break_id), None),
            ])
            loop = u.SWhile(stmt.break_id, self._fresh_id(),
                            u.EConst(BOOLEAN, True), inner)
            self._build_infinite_loop(loop)
            return
        assigned = self._assigned_vars(stmt.body) | self._assigned_vars(stmt)
        entry = self._new_unsealed_block()
        self.current = entry
        cond_block = self.function.new_block()
        self.incomplete.setdefault(cond_block.id, {})
        breakable = _Breakable({stmt.break_id}, {stmt.continue_id},
                               cond_block, is_loop=True)
        self._breakables.append(breakable)
        self._push_region()
        self._build_stmt(stmt.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        body_region = self._pop_region()
        self._breakables.pop()
        for source, kind in self.pending:
            cond_block.add_pred(source, kind)
        self._seal(cond_block)
        self.current = cond_block
        self.pending = []
        cond = self.eval(stmt.cond)
        if self.current is not cond_block:
            raise ConstructionError("do-while condition was not single-block")
        cond_block.term = Term("branch", cond)
        self.current = None
        entry.add_pred(cond_block, "norm")  # back edge
        self._insert_loop_header_phis(entry, assigned)
        self._seal(entry)
        # region: the body was already collected; cond block is structural
        inner_region = body_region
        self._region_stack[-1].append(RDoWhile(inner_region, cond_block))
        self.pending = [(cond_block, "norm")] + breakable.break_edges
        self._pending_eager = set(assigned)

    _fresh_counter = 10_000_000

    def _fresh_id(self) -> int:
        SsaBuilder._fresh_counter += 1
        return SsaBuilder._fresh_counter

    def _insert_loop_header_phis(self, header: Block, assigned) -> None:
        """Eager B&M phis for every variable assigned in the loop body."""
        for var in sorted(assigned, key=lambda v: (v.index, v.name)):
            if var in self.incomplete.get(header.id, {}):
                continue  # a demand phi already exists
            entry_preds = header.preds
            if not entry_preds:
                continue
            if not all(self._is_defined(var, pred)
                       for pred, _ in entry_preds):
                continue  # not defined before the loop
            if self.defs.get(var, {}).get(header) is not None:
                continue
            phi = Phi(_var_plane(var), var, is_eager=True)
            header.phis.append(phi)
            phi.block = header
            self.incomplete.setdefault(header.id, {})[var] = phi
            self.defs.setdefault(var, {})[header] = phi

    def _stmt_slabeled(self, stmt: u.SLabeled) -> None:
        assigned = self._assigned_vars(stmt.body)
        breakable = _Breakable({stmt.target_id}, set(), None, is_loop=False)
        self._breakables.append(breakable)
        self._push_region()
        self._build_stmt(stmt.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        body_region = self._pop_region()
        self._breakables.pop()
        self._region_stack[-1].append(RLabeled(body_region))
        self.pending = self.pending + breakable.break_edges
        self.current = None
        self._pending_eager = set(assigned)

    def _stmt_sbreak(self, stmt: u.SBreak) -> None:
        depth = self._breakable_depth(stmt.target_id, want_continue=False)
        block = self._finish_leaf("break", None, depth=depth)
        target = self._breakables[-1 - depth]
        target.break_edges.append((block, "norm"))

    def _stmt_scontinue(self, stmt: u.SContinue) -> None:
        loops = [b for b in self._breakables if b.is_loop]
        for depth, breakable in enumerate(reversed(loops)):
            if stmt.target_id in breakable.continue_ids:
                block = self._finish_leaf("continue", None, depth=depth)
                breakable.continue_target.add_pred(block, "norm")
                return
        # the loop was restructured (effectful do-while condition): the
        # continue target became a labeled region exit
        self._stmt_sbreak(u.SBreak(stmt.target_id))

    def _breakable_depth(self, target_id: int, want_continue: bool) -> int:
        if want_continue:
            loops = [b for b in self._breakables if b.is_loop]
            for depth, breakable in enumerate(reversed(loops)):
                if target_id in breakable.continue_ids:
                    return depth
        else:
            for depth, breakable in enumerate(reversed(self._breakables)):
                if target_id in breakable.break_ids:
                    return depth
        raise ConstructionError(f"unknown jump target {target_id}")

    def _stmt_sreturn(self, stmt: u.SReturn) -> None:
        value = None
        if stmt.value is not None:
            value = self.eval(stmt.value)
            value = self.as_plane(
                value, Plane.of_type(self.umethod.method.return_type))
        self._finish_leaf("return", value)

    def _stmt_sthrow(self, stmt: u.SThrow) -> None:
        value = self.eval(stmt.value)
        safe = self.ensure_safe(value)
        safe = self.as_plane(safe, Plane.safe(THROWABLE))
        self._finish_leaf("throw", safe)

    def _stmt_stry(self, stmt: u.STry) -> None:
        assigned = self._assigned_vars(stmt)
        dispatch = self.function.new_block()
        self.incomplete.setdefault(dispatch.id, {})
        self._exc_stack.append(dispatch)
        if self.current is not None:
            self._finish_leaf("fall", None)
        self._push_region()
        self._ensure_block()
        self._build_stmt(stmt.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        body_region = self._pop_region()
        self._exc_stack.pop()
        body_out = self.pending

        if not dispatch.preds:
            # nothing in the body can throw: the handler is dead
            self.function.blocks.remove(dispatch)
            self.incomplete.pop(dispatch.id, None)
            self._region_stack[-1].append(body_region)
            self.pending = body_out
            self.current = None
            self._pending_eager = set(assigned)
            return

        self._insert_eager_dispatch_phis(dispatch,
                                         self._assigned_vars(stmt.body))
        self._seal(dispatch)
        dispatch.exc_target = self._exc_stack[-1]
        caught = CaughtExc()
        dispatch.append(caught)
        self.current = dispatch
        self.pending = []
        self._push_region()
        self._build_handler(stmt.catches, caught)
        handler_region = self._pop_region()
        handler_out = self.pending
        self._region_stack[-1].append(
            RTry(body_region, dispatch, handler_region))
        self.pending = body_out + handler_out
        self.current = None
        self._pending_eager = set(assigned)

    def _insert_eager_dispatch_phis(self, dispatch: Block, assigned) -> None:
        for var in sorted(assigned, key=lambda v: (v.index, v.name)):
            if var in self.incomplete.get(dispatch.id, {}):
                continue
            if not all(self._is_defined(var, pred)
                       for pred, _ in dispatch.preds):
                continue
            operands = [self._read_opt(var, pred)
                        for pred, _ in dispatch.preds]
            if any(op is None for op in operands):
                continue
            if self.defs.get(var, {}).get(dispatch) is not None:
                continue
            phi = Phi(_var_plane(var), var, is_eager=True)
            dispatch.phis.append(phi)
            phi.block = dispatch
            for op in operands:
                phi.add_operand(op)
            self.defs.setdefault(var, {})[dispatch] = phi

    def _build_handler(self, catches: list[u.UCatch],
                       caught: CaughtExc) -> None:
        """Emit the instanceof dispatch chain plus the default rethrow."""
        if not catches:
            # the implicit default catch block: rethrow
            self._finish_leaf("throw", caught)
            return
        clause = catches[0]
        exc_ref = self.as_plane(caught, Plane.of_type(THROWABLE))
        test = self.emit(InstanceOf(clause.catch_class.type, exc_ref))
        cond_block = self._capture_cond_block(test)
        # catch body
        self.pending = [(cond_block, "norm")]
        self._push_region()
        self._ensure_block()
        bound = self.emit(Upcast(clause.catch_class.type, exc_ref))
        self._write(clause.local, bound)
        self._build_stmt(clause.body)
        if self.current is not None:
            self._finish_leaf("fall", None)
        then_region = self._pop_region()
        then_out = self.pending
        # next clause / default
        self.pending = [(cond_block, "norm")]
        self._push_region()
        self._ensure_block()
        self._build_handler(catches[1:], caught)
        if self.current is not None:
            self._finish_leaf("fall", None)
        else_region = self._pop_region()
        else_out = self.pending
        self._region_stack[-1].append(
            RIf(cond_block, then_region, else_region))
        self.pending = then_out + else_out
        self.current = None

    # ==================================================================
    # expressions

    def eval(self, expr: u.UExpr) -> Instr:
        handler = getattr(self, "_eval_" + type(expr).__name__.lower(), None)
        if handler is None:
            raise ConstructionError(
                f"unsupported UAST expression {type(expr).__name__}")
        return handler(expr)

    def _eval_econst(self, expr: u.EConst) -> Instr:
        return self.const(expr.type, expr.value)

    def _eval_elocal(self, expr: u.ELocal) -> Instr:
        return self._read(expr.local)

    def _class_of_value(self, value: Instr) -> ClassInfo:
        type = value.type
        if isinstance(type, ClassType):
            return self.world.class_of(type)
        raise ConstructionError(f"not a class-typed value: {value!r}")

    def _eval_egetfield(self, expr: u.EGetField) -> Instr:
        obj = self.eval(expr.obj)
        base = self._class_of_value(obj)
        safe = self._safe_receiver(obj, base)
        return self.emit(GetField(base, safe, expr.field))

    def _eval_egetstatic(self, expr: u.EGetStatic) -> Instr:
        return self.emit(GetStatic(expr.field))

    def _eval_earrayget(self, expr: u.EArrayGet) -> Instr:
        array = self.eval(expr.array)
        array_type = array.type
        if not isinstance(array_type, ArrayType):
            raise ConstructionError("array read from non-array")
        safe_array = self.ensure_safe(array)
        index = self.eval(expr.index)
        safe_index = self.emit(IdxCheck(safe_array, index))
        return self.emit(GetElt(array_type, safe_array, safe_index))

    def _eval_earraylen(self, expr: u.EArrayLen) -> Instr:
        array = self.eval(expr.array)
        array_type = array.type
        if not isinstance(array_type, ArrayType):
            raise ConstructionError("length of non-array")
        safe_array = self.ensure_safe(array)
        return self.emit(ArrayLen(array_type, safe_array))

    def _eval_eprim(self, expr: u.EPrim) -> Instr:
        args = [self.eval(arg) for arg in expr.args]
        args = [self.as_plane(arg, Plane.of_type(param))
                for arg, param in zip(args, expr.operation.params)]
        return self.emit(Prim(expr.operation, args))

    def _eval_erefcmp(self, expr: u.ERefCmp) -> Instr:
        plane = Plane.of_type(expr.plane_type)
        left = self.as_plane(self.eval(expr.left), plane)
        right = self.as_plane(self.eval(expr.right), plane)
        return self.emit(RefCmp(expr.is_eq, expr.plane_type, left, right))

    def _eval_ecall(self, expr: u.ECall) -> Instr:
        operands: list[Instr] = []
        if expr.receiver is not None:
            receiver = self.eval(expr.receiver)
            operands.append(self._safe_receiver(receiver, expr.base))
        for arg, param in zip(expr.args, expr.method.param_types):
            value = self.eval(arg)
            operands.append(self.as_plane(value, Plane.of_type(param)))
        return self.emit(Call(expr.base, expr.method, operands,
                              expr.dispatch))

    def _eval_enew(self, expr: u.ENew) -> Instr:
        obj = self.emit(New(expr.class_info))
        operands: list[Instr] = [obj]
        for arg, param in zip(expr.args, expr.ctor.param_types):
            value = self.eval(arg)
            operands.append(self.as_plane(value, Plane.of_type(param)))
        self.emit(Call(expr.class_info, expr.ctor, operands, dispatch=False))
        return obj

    def _eval_enewarray(self, expr: u.ENewArray) -> Instr:
        length = self.eval(expr.length)
        return self.emit(NewArray(expr.array_type, length))

    _multi_temp = 0

    def _eval_enewmultiarray(self, expr: u.ENewMultiArray) -> Instr:
        """SafeTSA has no multianewarray primitive: allocate the outer
        array and fill it with explicit loops."""
        from repro.frontend.ast import LocalVar
        from repro.typesys.ops import lookup_op
        from repro.typesys.types import INT as _INT

        dims = [self.eval(d) for d in expr.dims]
        dim_vars = []
        for dim in dims:
            SsaBuilder._multi_temp += 1
            var = LocalVar(f"$dim{SsaBuilder._multi_temp}", _INT, 0,
                           is_synthetic=True)
            self._write(var, dim)
            dim_vars.append(var)

        def allocate(array_type, level: int) -> Instr:
            length = self._read(dim_vars[level])
            outer = self.emit(NewArray(array_type, length))
            if level + 1 >= len(dim_vars):
                return outer
            SsaBuilder._multi_temp += 1
            arr_var = LocalVar(f"$arr{SsaBuilder._multi_temp}",
                               array_type, 0, is_synthetic=True)
            self._write(arr_var, self.as_plane(outer,
                                               _var_plane(arr_var)))
            idx_var = LocalVar(f"$idx{SsaBuilder._multi_temp}", _INT, 0,
                               is_synthetic=True)
            self._write(idx_var, self.const(_INT, 0))
            lt = lookup_op(_INT, "lt")
            add = lookup_op(_INT, "add")
            # while (idx < dim) { arr[idx] = allocate(...); idx++ }
            break_id = self._fresh_id()
            continue_id = self._fresh_id()
            header = self._new_unsealed_block()
            self.current = header
            cond = self.emit(Prim(lt, [self._read(idx_var),
                                       self._read(dim_vars[level])]))
            if self.current is not header:
                raise ConstructionError("multiarray condition split")
            header.term = Term("branch", cond)
            self.current = None
            breakable = _Breakable({break_id}, {continue_id}, header,
                                   is_loop=True)
            self._breakables.append(breakable)
            self.pending = [(header, "norm")]
            self._push_region()
            self._ensure_block()
            element = allocate(array_type.element, level + 1)
            arr_val = self.ensure_safe(self._read(arr_var))
            idx_val = self._read(idx_var)
            safe_idx = self.emit(IdxCheck(arr_val, idx_val))
            self.emit(SetElt(array_type, arr_val, safe_idx,
                             self.as_plane(element,
                                           Plane.of_type(
                                               array_type.element))))
            self._write(idx_var, self.emit(
                Prim(add, [self._read(idx_var), self.const(_INT, 1)])))
            if self.current is not None:
                self._finish_leaf("fall", None)
            body_region = self._pop_region()
            self._breakables.pop()
            for source, kind in self.pending:
                header.add_pred(source, kind)
            self._insert_loop_header_phis(
                header, frozenset({idx_var, arr_var}))
            self._seal(header)
            self._region_stack[-1].append(RWhile(header, body_region))
            self.pending = [(header, "norm")]
            self.current = None
            return self._read(arr_var)

        result = allocate(expr.array_type, 0)
        return self.ensure_safe(result) if result.plane.kind == "ref" \
            else result

    def _eval_einstanceof(self, expr: u.EInstanceOf) -> Instr:
        operand = self.eval(expr.operand)
        operand = self.as_plane(operand, Plane.of_type(operand.type))
        return self.emit(InstanceOf(expr.target_type, operand))

    def _eval_echeckedcast(self, expr: u.ECheckedCast) -> Instr:
        operand = self.eval(expr.operand)
        operand = self.as_plane(operand, Plane.of_type(operand.type))
        return self.emit(Upcast(expr.type, operand))

    def _eval_ewidenref(self, expr: u.EWidenRef) -> Instr:
        operand = self.eval(expr.operand)
        return self.as_plane(operand, Plane.of_type(expr.type))


def _resolve(value: Instr) -> Instr:
    """Chase removed-phi forwarding links."""
    while isinstance(value, Phi) and value.removed:
        value = value.replacement
    return value


def build_function(world: World, class_info: ClassInfo,
                   umethod: u.UMethod) -> Function:
    """Construct SSA (SafeTSA form) for one UAST method."""
    return SsaBuilder(world, class_info, umethod).build()
