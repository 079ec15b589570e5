"""Module decoder: wire bytes -> verified SafeTSA in-memory form.

The decoder is where "safety by construction" becomes operational: every
symbol it reads is drawn from an alphabet it computed itself -- the type
table it rebuilt, the member tables of the class it resolved, and the
registers visible on the required plane at the current point of the
dominator tree.  A bit pattern can therefore denote *only* well-formed
references; streams that would need anything else fail with
:class:`DecodeError`.  The handful of rules that are cheaper to check
than to make unrepresentable (trapping instructions must close their
subblock, ``downcast`` must widen, ``xprimitive`` must name a trapping
operation) are enforced inline -- these are the paper's "simple counter"
checks.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Optional

from repro.encode.bitio import BitIOError, BitReader
from repro.encode.common import (
    MAGIC,
    OPCODES,
    PRIMITIVE_BASES,
    REGIONS,
    TERM_KINDS,
)
from repro.ssa.cst import (
    CstError,
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
    derive_cfg,
    map_exception_contexts,
)
from repro.ssa.dominators import compute_dominators
from repro.ssa import ir
from repro.ssa.ir import (
    Block,
    Function,
    Instr,
    Module,
    Phi,
    Plane,
    Term,
)
from repro.typesys.ops import OPS_BY_TYPE
from repro.typesys.table import TypeTable, TypeTableError
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PrimitiveType,
    Type,
    VOID,
)
from repro.typesys.world import (
    ClassInfo,
    FieldInfo,
    MethodInfo,
    World,
    WorldError,
)


class DecodeError(Exception):
    """The byte stream does not encode a well-formed SafeTSA module.

    Carries a stable ``code`` naming the rejection category --
    ``DEC-IO`` (ran off the stream / symbol out of its bounded
    alphabet), ``DEC-MAGIC``, ``DEC-LIMIT`` (a declared count exceeds
    its sanity bound), ``DEC-CST`` (bad control structure),
    ``DEC-EXC`` (exception discipline), ``DEC-REF`` / ``DEC-TRAP-REF``
    (value references), ``DEC-TRAILING``, ``DEC-WORLD`` /
    ``DEC-TABLE`` / ``DEC-VALUE`` (wrapped lower-layer validation), and
    ``DEC-MALFORMED`` for the remaining shape rules.  The fuzzing
    rejection taxonomy and the attack-fixture manifest key on these
    codes, so they must stay stable.

    Mid-function rejections additionally carry a ``(function, block,
    instr)`` location the way :class:`repro.tsa.verifier.VerifyError`
    does -- ``function`` is the method's qualified name, ``block`` the
    block's *position* in the function's decode order, and ``instr`` the
    *index* of the instruction within its block.  Block and value ids
    come from process-global counters, so they are not used: the same
    bytes rejected twice, in any process, report the same location, and
    fuzz minimization and the fused loader report comparable ones.
    """

    def __init__(self, message: str, code: str = "DEC-MALFORMED", *,
                 function: Optional[str] = None,
                 block: Optional[int] = None,
                 instr: Optional[int] = None):
        self.code = code
        self.function = function
        self.block = block
        self.instr = instr
        super().__init__(f"{message} [{code}]")

    def attach(self, function: Optional[str] = None,
               block: Optional[int] = None,
               instr: Optional[int] = None) -> None:
        """Fill in location fields that are still unknown (an inner
        raise site that already knows its location wins)."""
        if self.function is None:
            self.function = function
        if self.block is None:
            self.block = block
        if self.instr is None:
            self.instr = instr

    def location(self) -> str:
        parts = []
        if self.function is not None:
            parts.append(self.function)
        if self.block is not None:
            parts.append(f"B{self.block}")
        if self.instr is not None:
            parts.append(f"i{self.instr}")
        return ":".join(parts) or "<module>"


@contextmanager
def decode_errors():
    """Report a lower layer's validation error as a coded
    :class:`DecodeError`: the one mapping every consumer path uses (the
    streaming loader adds only its wait-for-more-data rule)."""
    try:
        yield
    except BitIOError as error:
        raise DecodeError(str(error), "DEC-IO") from None
    except WorldError as error:
        raise DecodeError(str(error), "DEC-WORLD") from None
    except TypeTableError as error:
        raise DecodeError(str(error), "DEC-TABLE") from None
    except ValueError as error:
        raise DecodeError(str(error), "DEC-VALUE") from None


def _read_utf8(reader: BitReader) -> str:
    length = reader.read_gamma()
    if length > 1 << 20:
        raise DecodeError("unreasonable string length", "DEC-LIMIT")
    try:
        return reader.read_bytes(length).decode("utf-8")
    except UnicodeDecodeError as error:
        raise DecodeError(f"bad utf-8: {error}") from None


class _ModuleDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.reader = BitReader(data)
        self.world = World()
        self.table = TypeTable(self.world)
        self.module = Module(self.world, self.table)

    def decode(self) -> Module:
        bodies = self.decode_header()
        self._decode_bodies(bodies)
        self._require_end()
        return self.module

    def decode_header(self) -> list[MethodInfo]:
        """Decode everything up to (not including) the function bodies:
        magic, type table, hierarchy, member tables.  Returns the
        methods whose bodies follow, in stream order."""
        reader = self.reader
        if reader.read_bytes(len(MAGIC)) != MAGIC:
            raise DecodeError("bad magic", "DEC-MAGIC")
        declared_count = reader.read_gamma()
        if declared_count > 1 << 16:
            raise DecodeError("unreasonable type table size", "DEC-LIMIT")
        class_infos: list[ClassInfo] = []
        for _ in range(declared_count):
            if reader.read_flag():  # array entry
                elem_index = reader.read_bounded(len(self.table))
                elem = self.table.type_at(elem_index)
                if elem is VOID:
                    raise DecodeError("array of void")
                array = ArrayType(elem)
                if array in self.table:
                    raise DecodeError("duplicate array entry")
                self.table.intern(array)
            else:
                name = _read_utf8(reader)
                if self.world.lookup(name) is not None and \
                        name in self.world.classes:
                    raise DecodeError(f"duplicate class {name}")
                if not name or name.startswith("java."):
                    raise DecodeError(f"illegal class name {name!r}")
                info = ClassInfo(name)
                self.world.define_class(info)
                self.table.declare_class(info)
                class_infos.append(info)
        table_size = len(self.table)
        for info in class_infos:
            super_type = self.table.type_at(reader.read_bounded(table_size))
            if not isinstance(super_type, ClassType):
                raise DecodeError("superclass is not a class type")
            info.super_name = super_type.name
            info.is_abstract = reader.read_flag()
        self._check_hierarchy(class_infos)
        bodies: list[MethodInfo] = []
        for info in class_infos:
            bodies.extend(self._decode_members(info, table_size))
        self.world.link()
        self.table.invalidate_member_tables()
        self.module.classes = class_infos
        return bodies

    def _decode_bodies(self, bodies: list[MethodInfo]) -> None:
        for method in bodies:
            decoder = self._function_decoder(method)
            function = decoder.decode()
            self._on_function(decoder, function)
            self.module.add_function(function)

    def _function_decoder(self, method: MethodInfo,
                          reader: Optional[BitReader] = None):
        """The decoder for one body; the streaming loader passes a
        ``reader`` that starts where the previous body ended."""
        return _FunctionDecoder(self, method, reader)

    def _on_function(self, decoder, function: Function) -> None:
        """Hook: called after each body decodes (fused residual checks)."""

    def _require_end(self) -> None:
        """The stream must be fully consumed (only zero padding to the
        byte boundary may remain): trailing data cannot ride along."""
        reader = self.reader
        remaining = reader.bits_remaining()
        if remaining >= 8:
            raise DecodeError(f"{remaining} trailing bits after the "
                              "module", "DEC-TRAILING")
        if not reader.at_end():
            raise DecodeError("nonzero padding bits", "DEC-TRAILING")

    def _check_hierarchy(self, class_infos: list[ClassInfo]) -> None:
        for info in class_infos:
            seen = set()
            name: Optional[str] = info.name
            while name is not None:
                if name in seen:
                    raise DecodeError(f"cyclic class hierarchy at {name}")
                seen.add(name)
                parent = self.world.lookup(name)
                if parent is None:
                    raise DecodeError(f"unknown superclass {name}")
                name = parent.super_name

    def _decode_members(self, info: ClassInfo,
                        table_size: int) -> list[MethodInfo]:
        reader = self.reader
        bodies: list[MethodInfo] = []
        field_count = reader.read_gamma()
        if field_count > 1 << 14:
            raise DecodeError("unreasonable field count", "DEC-LIMIT")
        for _ in range(field_count):
            name = _read_utf8(reader)
            is_static = reader.read_flag()
            is_final = reader.read_flag()
            field_type = self.table.type_at(reader.read_bounded(table_size))
            if field_type is VOID:
                raise DecodeError("field of type void")
            info.add_field(FieldInfo(name, field_type, is_static, is_final))
        method_count = reader.read_gamma()
        if method_count > 1 << 14:
            raise DecodeError("unreasonable method count", "DEC-LIMIT")
        for _ in range(method_count):
            name = _read_utf8(reader)
            is_static = reader.read_flag()
            is_abstract = reader.read_flag()
            param_count = reader.read_gamma()
            if param_count > 255:
                raise DecodeError("unreasonable parameter count",
                                  "DEC-LIMIT")
            params = [self.table.type_at(reader.read_bounded(table_size))
                      for _ in range(param_count)]
            if any(p is VOID for p in params):
                raise DecodeError("parameter of type void")
            return_type = self.table.type_at(reader.read_bounded(table_size))
            method = MethodInfo(name, params, return_type,
                                is_static=is_static, is_abstract=is_abstract)
            info.add_method(method)
            if reader.read_flag():
                if is_abstract:
                    raise DecodeError("abstract method with a body")
                bodies.append(method)
        return bodies


class _FunctionDecoder:
    def __init__(self, parent: _ModuleDecoder, method: MethodInfo,
                 reader: Optional[BitReader] = None):
        # a private reader lets the streaming loader start each body
        # where the previous one ended
        self.reader = parent.reader if reader is None else reader
        self.world = parent.world
        self.table = parent.table
        self.module = parent.module
        self.method = method
        self.function = Function(method, method.declaring)
        #: block id -> plane -> list of value instrs, in register order
        self.planes: dict[int, dict[Plane, list[Instr]]] = {}
        self._defined: dict[Plane, int] = {}
        # incremental dominator scopes: per block, the per-plane chain
        # of (registers, parent-node) segments visible at its end, and
        # the per-plane visible-register counts -- maintained along the
        # dominator tree so references cost O(defining ancestors on the
        # plane) instead of two walks over the whole idom chain
        self._chains: dict[int, dict[Plane, tuple]] = {}
        self._counts: dict[int, dict[Plane, int]] = {}
        self._chain: dict[Plane, tuple] = {}
        self._inherited_chain: dict[Plane, tuple] = {}
        self._entry_counts: dict[Plane, int] = {}
        self._current_block: Optional[Block] = None
        # error-location context (mirrors VerifyError's location)
        self._ctx_block: Optional[Block] = None
        self._ctx_instr: Optional[int] = None

    # ==================================================================

    def decode(self) -> Function:
        try:
            return self._decode()
        except DecodeError as error:
            error.attach(function=self.function.name,
                         block=self._ctx_position(), instr=self._ctx_instr)
            raise
        except BitIOError as error:
            raise DecodeError(str(error), "DEC-IO",
                              function=self.function.name,
                              block=self._ctx_position(),
                              instr=self._ctx_instr) from None

    def _ctx_position(self) -> Optional[int]:
        """The context block's position in decode order (its ``Block.id``
        differs from load to load)."""
        if self._ctx_block is None:
            return None
        return self.function.blocks.index(self._ctx_block)

    def _decode(self) -> Function:
        try:
            cst = self._decode_region(break_depth=0, loop_depth=0,
                                      in_try=False)
        except RecursionError:
            raise DecodeError("control structure nests too deeply",
                              "DEC-CST") from None
        self.function.cst = cst
        if not self.function.blocks:
            raise DecodeError("method body has no blocks", "DEC-CST")
        self.function.entry = self.function.blocks[0]
        try:
            derive_cfg(self.function)
        except CstError as error:
            raise DecodeError(f"bad control structure: {error}",
                              "DEC-CST") from None
        self.domtree = compute_dominators(self.function)
        if self.function.entry.preds:
            raise DecodeError("entry block has predecessors", "DEC-CST")
        # the producer ends only dead code with an unreachable leaf; a
        # reachable one would make every consumer fall off the block
        for block in self.domtree.preorder:
            if block.term.kind == "unreachable":
                self._ctx_block = block
                raise DecodeError("reachable block ends in an unreachable "
                                  "leaf", "DEC-CST")
        self.dispatch_of = map_exception_contexts(cst)
        for block in self.domtree.preorder:
            self._decode_block(block)
        self._current_block = None
        for block in self.domtree.preorder:
            self._ctx_block, self._ctx_instr = block, None
            self._decode_phi_operands(block)
        self._ctx_block = self._ctx_instr = None
        return self.function

    # -- phase 1 -----------------------------------------------------------

    def _decode_region(self, break_depth: int, loop_depth: int,
                       in_try: bool) -> Region:
        reader = self.reader
        symbol = REGIONS[reader.read_bounded(len(REGIONS))]
        if symbol == "basic":
            block = self.function.new_block()
            kind = TERM_KINDS[reader.read_bounded(len(TERM_KINDS))]
            depth = 0
            if kind == "break":
                if break_depth == 0:
                    raise DecodeError("break outside a breakable region",
                                      "DEC-CST")
                depth = reader.read_bounded(break_depth)
            elif kind == "continue":
                if loop_depth == 0:
                    raise DecodeError("continue outside a loop", "DEC-CST")
                depth = reader.read_bounded(loop_depth)
            block.term = Term(kind, None, depth)
            exc = reader.read_flag() if in_try else False
            return RBasic(block, exc)
        if symbol == "seq":
            count = self.reader.read_gamma()
            if count > 1 << 16:
                raise DecodeError("unreasonable sequence length",
                                  "DEC-LIMIT")
            return RSeq([self._decode_region(break_depth, loop_depth, in_try)
                         for _ in range(count)])
        if symbol in ("if", "ifelse"):
            cond = self.function.new_block()
            cond.term = Term("branch", None)
            then_region = self._decode_region(break_depth, loop_depth,
                                              in_try)
            else_region = None
            if symbol == "ifelse":
                else_region = self._decode_region(break_depth, loop_depth,
                                                  in_try)
            return RIf(cond, then_region, else_region)
        if symbol == "while":
            header = self.function.new_block()
            header.term = Term("branch", None)
            body = self._decode_region(break_depth + 1, loop_depth + 1,
                                       in_try)
            return RWhile(header, body)
        if symbol == "dowhile":
            body = self._decode_region(break_depth + 1, loop_depth + 1,
                                       in_try)
            cond = self.function.new_block()
            cond.term = Term("branch", None)
            return RDoWhile(body, cond)
        if symbol == "loop":
            return RLoop(self._decode_region(break_depth + 1, loop_depth + 1,
                                             in_try))
        if symbol == "labeled":
            return RLabeled(self._decode_region(break_depth + 1, loop_depth,
                                                in_try))
        if symbol == "try":
            body = self._decode_region(break_depth, loop_depth, True)
            handler = self._decode_region(break_depth, loop_depth, in_try)
            try:
                dispatch = _entry_block(handler)
            except CstError as error:
                raise DecodeError(str(error), "DEC-CST") from None
            return RTry(body, dispatch, handler)
        raise DecodeError(f"unknown region symbol {symbol}", "DEC-CST")

    # -- phase 2 -----------------------------------------------------------

    def _read_plane(self) -> Plane:
        type = self.table.type_at(self.reader.read_bounded(len(self.table)))
        if type is VOID:
            raise DecodeError("plane of type void")
        if type.is_reference():
            if self.reader.read_flag():
                return Plane.safe(type)
            return Plane("ref", type)
        return Plane("prim", type)

    def _type_ref(self) -> Type:
        return self.table.type_at(self.reader.read_bounded(len(self.table)))

    def _class_ref(self) -> ClassInfo:
        type = self._type_ref()
        if not isinstance(type, ClassType):
            raise DecodeError(f"{type} is not a class type")
        return self.world.class_of(type)

    def _array_ref(self) -> ArrayType:
        type = self._type_ref()
        if not isinstance(type, ArrayType):
            raise DecodeError(f"{type} is not an array type")
        return type

    def _ref_type_ref(self) -> Type:
        type = self._type_ref()
        if not type.is_reference():
            raise DecodeError(f"{type} is not a reference type")
        return type

    def _resolve_ref(self, block: Block, plane: Plane,
                     defined: int) -> Instr:
        """Read one (flattened) value reference on ``plane``.

        The alphabet size and the register lookup come from the scope
        chains maintained incrementally along the dominator tree --
        same alphabet values (hence identical symbol widths) as the
        seed decoder's double idom-chain walk, but each reference now
        costs only the ancestors that actually define on the plane."""
        if block is self._current_block:
            # phase 2: the block being decoded; its own registers are
            # counted by ``defined``, the ancestors by the entry counts
            alphabet = self._entry_counts.get(plane, 0) + defined
            chain = self._chain
        else:
            # phase 3 (phi operands at a predecessor): the block is
            # fully decoded, so its end-of-block counts are recorded.
            # An unreachable predecessor has no record: its alphabet is
            # just ``defined`` (always 0), as in the seed decoder.
            counts = self._counts.get(block.id)
            alphabet = counts.get(plane, 0) if counts is not None \
                else defined
            chain = self._chains.get(block.id, {})
        index = self.reader.read_bounded(alphabet)
        if index < defined:
            return self.planes[block.id][plane][index]
        index -= defined
        node = chain.get(plane)
        if defined and node is not None:
            node = node[1]  # skip the block's own segment
        while node is not None:
            regs, node = node
            if index < len(regs):
                return self._check_trap_visibility(block, regs[index])
            index -= len(regs)
        raise DecodeError("unresolvable value reference", "DEC-REF")

    def _check_trap_visibility(self, use_block: Block,
                               instr: Instr) -> Instr:
        """Dominance alone over-approximates visibility for a trapping
        subblock tail: the exception edge leaves before the result is
        assigned, so the reference is only sound beneath the tail's
        normal successor (see ir.trapping_tail_gate)."""
        gate = ir.trapping_tail_gate(instr.block, instr)
        if gate is not None and instr.block is not use_block \
                and not self.domtree.dominates(gate, use_block):
            raise DecodeError(
                f"reference to trapping v{instr.id} from B{use_block.id}, "
                "reachable through its exception edge", "DEC-TRAP-REF")
        return instr

    def _ref(self, block: Block, plane: Plane) -> Instr:
        return self._resolve_ref(block, plane,
                                 self._defined.get(plane, 0))

    def _record(self, block: Block, instr: Instr) -> Instr:
        block.append(instr)
        plane = instr.plane
        if plane is not None:
            regs = self.planes[block.id].setdefault(plane, [])
            if not regs:
                # first definition on this plane here: push the block's
                # own segment onto a copy-on-write chain
                chain = self._chain
                if chain is self._inherited_chain:
                    chain = self._chain = dict(chain)
                    self._chains[block.id] = chain
                chain[plane] = (regs, self._inherited_chain.get(plane))
            regs.append(instr)
            self._defined[plane] = self._defined.get(plane, 0) + 1
        return instr

    def _decode_block(self, block: Block) -> None:
        reader = self.reader
        self.planes[block.id] = {}
        self._defined = {}
        self._current_block = block
        self._ctx_block, self._ctx_instr = block, None
        parent = self.domtree.idom.get(block)
        if parent is None:
            inherited_chain: dict[Plane, tuple] = {}
            inherited_counts: dict[Plane, int] = {}
        else:
            inherited_chain = self._chains[parent.id]
            inherited_counts = self._counts[parent.id]
        self._inherited_chain = inherited_chain
        self._chain = inherited_chain  # copied on the first definition
        self._chains[block.id] = inherited_chain
        self._entry_counts = inherited_counts
        phi_count = reader.read_gamma()
        if phi_count > 1 << 16:
            raise DecodeError("unreasonable phi count", "DEC-LIMIT")
        if phi_count and not block.preds:
            raise DecodeError("phis in a block without predecessors")
        for _ in range(phi_count):
            plane = self._read_plane()
            phi = Phi(plane)
            self._record(block, phi)
        instr_count = reader.read_gamma()
        if instr_count > 1 << 20:
            raise DecodeError("unreasonable instruction count", "DEC-LIMIT")
        dispatch = self.dispatch_of.get(block.id)
        exc_edge = block.exc_succ()
        for position in range(instr_count):
            self._ctx_instr = position
            instr = self._decode_instr(block)
            if instr.traps and dispatch is not None:
                if position != instr_count - 1:
                    raise DecodeError(
                        "trapping instruction does not close its subblock",
                        "DEC-EXC")
                if exc_edge is not dispatch:
                    raise DecodeError(
                        "trapping subblock lacks its exception edge",
                        "DEC-EXC")
            if isinstance(instr, ir.CaughtExc):
                kinds = {kind for _, kind in block.preds}
                if kinds != {"exc"}:
                    raise DecodeError("caughtexc outside a dispatch block",
                                      "DEC-EXC")
        term = block.term
        if exc_edge is not None and term.kind == "fall":
            if not (block.instrs and block.instrs[-1].traps):
                raise DecodeError("exception edge without exception point",
                                  "DEC-EXC")
        if term.kind == "branch":
            term.value = self._ref(block, Plane.of_type(BOOLEAN))
            term.value.users.add(ir._TermUse(term))
        elif term.kind == "return":
            expected = self.method.return_type
            if expected is not VOID:
                term.value = self._ref(block, Plane.of_type(expected))
                term.value.users.add(ir._TermUse(term))
        elif term.kind == "throw":
            term.value = self._ref(
                block, Plane.safe(ClassType("java.lang.Throwable")))
            term.value.users.add(ir._TermUse(term))
        if self._defined:
            counts = dict(inherited_counts)
            for plane, defined in self._defined.items():
                counts[plane] = counts.get(plane, 0) + defined
        else:
            counts = inherited_counts  # nothing defined: share the dict
        self._counts[block.id] = counts

    def _decode_instr(self, block: Block) -> Instr:
        opcode = OPCODES[self.reader.read_bounded(len(OPCODES))]
        handler = getattr(self, "_op_" + opcode)
        instr = handler(block)
        return self._record(block, instr)

    # -- per-opcode readers --------------------------------------------------

    def _require_entry(self, block: Block, what: str) -> None:
        if block is not self.function.entry:
            raise DecodeError(f"{what} outside the entry block")

    def _op_const(self, block: Block) -> Instr:
        self._require_entry(block, "const")
        reader = self.reader
        type = self._type_ref()
        if type is INT:
            value = reader.read_signed_gamma()
            if not -(2**31) <= value < 2**31:
                raise DecodeError("int constant out of range")
        elif type is LONG:
            value = reader.read_signed_gamma()
            if not -(2**63) <= value < 2**63:
                raise DecodeError("long constant out of range")
        elif type is BOOLEAN:
            value = reader.read_flag()
        elif type is CHAR:
            value = reader.read_bits(16)
        elif type is FLOAT:
            value = struct.unpack(">f",
                                  struct.pack(">I", reader.read_bits(32)))[0]
        elif type is DOUBLE:
            value = struct.unpack(">d",
                                  struct.pack(">Q", reader.read_bits(64)))[0]
        elif type == ClassType("java.lang.String"):
            value = _read_utf8(reader) if reader.read_flag() else None
        elif type.is_reference():
            value = None
        else:
            raise DecodeError(f"constant of type {type}")
        return ir.Const(type, value)

    def _op_param(self, block: Block) -> Instr:
        self._require_entry(block, "param")
        method = self.method
        arity = len(method.param_types) + (0 if method.is_static else 1)
        if arity == 0:
            raise DecodeError("param in a method without parameters")
        index = self.reader.read_bounded(arity)
        if method.is_static:
            type = method.param_types[index]
            is_this = False
        elif index == 0:
            type = method.declaring.type
            is_this = True
        else:
            type = method.param_types[index - 1]
            is_this = False
        param = ir.Param(index, type, is_this=is_this)
        self.function.params.append(param)
        return param

    def _decode_prim(self, block: Block, expect_traps: bool) -> Instr:
        base_index = self.reader.read_bounded(PRIMITIVE_BASES)
        base = self.table.type_at(base_index)
        ops = OPS_BY_TYPE[base]
        operation = ops[self.reader.read_bounded(len(ops))]
        if operation.traps != expect_traps:
            raise DecodeError(
                f"{operation.qualified_name} used with the wrong "
                "primitive/xprimitive opcode")
        args = [self._ref(block, Plane.of_type(param))
                for param in operation.params]
        return ir.Prim(operation, args)

    def _op_primitive(self, block: Block) -> Instr:
        return self._decode_prim(block, expect_traps=False)

    def _op_xprimitive(self, block: Block) -> Instr:
        return self._decode_prim(block, expect_traps=True)

    def _op_refcmp(self, block: Block) -> Instr:
        is_eq = self.reader.read_flag()
        plane_type = self._ref_type_ref()
        plane = Plane.of_type(plane_type)
        left = self._ref(block, plane)
        right = self._ref(block, plane)
        return ir.RefCmp(is_eq, plane_type, left, right)

    def _op_nullcheck(self, block: Block) -> Instr:
        ref_type = self._ref_type_ref()
        value = self._ref(block, Plane.of_type(ref_type))
        return ir.NullCheck(ref_type, value)

    def _op_idxcheck(self, block: Block) -> Instr:
        array_type = self._array_ref()
        array = self._ref(block, Plane.safe(array_type))
        index = self._ref(block, Plane.of_type(INT))
        return ir.IdxCheck(array, index)

    def _op_upcast(self, block: Block) -> Instr:
        target = self._ref_type_ref()
        source_type = self._ref_type_ref()
        value = self._ref(block, Plane.of_type(source_type))
        return ir.Upcast(target, value)

    def _op_downcast(self, block: Block) -> Instr:
        target = self._read_plane()
        source = self._read_plane()
        if target.kind not in ("ref", "safe") \
                or source.kind not in ("ref", "safe"):
            raise DecodeError("downcast between non-reference planes")
        if source.kind == "ref" and target.kind == "safe":
            raise DecodeError("downcast cannot make a value safe")
        if not self.world.is_subtype(source.type, target.type):
            raise DecodeError(f"downcast {source} -> {target} is not a "
                              "widening")
        value = self._ref(block, source)
        return ir.Downcast(target, value)

    def _field_access(self, block: Block, static: bool):
        base = self._class_ref()
        field_table = self.table.field_table(base)
        if not field_table:
            raise DecodeError(f"{base.name} has no fields")
        field = field_table[self.reader.read_bounded(len(field_table))]
        if field.is_static != static:
            raise DecodeError("static/instance field mismatch")
        obj = None
        if not static:
            obj = self._ref(block, Plane.safe(base.type))
        return base, field, obj

    def _op_getfield(self, block: Block) -> Instr:
        base, field, obj = self._field_access(block, static=False)
        return ir.GetField(base, obj, field)

    def _op_setfield(self, block: Block) -> Instr:
        base, field, obj = self._field_access(block, static=False)
        value = self._ref(block, Plane.of_type(field.type))
        return ir.SetField(base, obj, field, value)

    def _op_getstatic(self, block: Block) -> Instr:
        _base, field, _obj = self._field_access(block, static=True)
        return ir.GetStatic(field)

    def _op_setstatic(self, block: Block) -> Instr:
        _base, field, _obj = self._field_access(block, static=True)
        if field.is_final and field.declaring.is_builtin:
            raise DecodeError("write to a final library field")
        value = self._ref(block, Plane.of_type(field.type))
        return ir.SetStatic(field, value)

    def _op_getelt(self, block: Block) -> Instr:
        array_type = self._array_ref()
        array = self._ref(block, Plane.safe(array_type))
        index = self._ref(block, Plane.safe_index(array))
        return ir.GetElt(array_type, array, index)

    def _op_setelt(self, block: Block) -> Instr:
        array_type = self._array_ref()
        array = self._ref(block, Plane.safe(array_type))
        index = self._ref(block, Plane.safe_index(array))
        value = self._ref(block, Plane.of_type(array_type.element))
        return ir.SetElt(array_type, array, index, value)

    def _op_arraylen(self, block: Block) -> Instr:
        array_type = self._array_ref()
        array = self._ref(block, Plane.safe(array_type))
        return ir.ArrayLen(array_type, array)

    def _op_new(self, block: Block) -> Instr:
        info = self._class_ref()
        if info.is_abstract:
            raise DecodeError(f"new of abstract class {info.name}")
        return ir.New(info)

    def _op_newarray(self, block: Block) -> Instr:
        array_type = self._array_ref()
        length = self._ref(block, Plane.of_type(INT))
        return ir.NewArray(array_type, length)

    def _op_instanceof(self, block: Block) -> Instr:
        target = self._ref_type_ref()
        source_type = self._ref_type_ref()
        value = self._ref(block, Plane.of_type(source_type))
        return ir.InstanceOf(target, value)

    def _decode_call(self, block: Block, dispatch: bool) -> Instr:
        base = self._class_ref()
        method_table = self.table.method_table(base)
        if not method_table:
            raise DecodeError(f"{base.name} has no methods")
        method = method_table[self.reader.read_bounded(len(method_table))]
        if dispatch and method.is_static:
            raise DecodeError("xdispatch of a static method")
        operands: list[Instr] = []
        if not method.is_static:
            operands.append(self._ref(block, Plane.safe(base.type)))
        for param in method.param_types:
            operands.append(self._ref(block, Plane.of_type(param)))
        return ir.Call(base, method, operands, dispatch)

    def _op_xcall(self, block: Block) -> Instr:
        return self._decode_call(block, dispatch=False)

    def _op_xdispatch(self, block: Block) -> Instr:
        return self._decode_call(block, dispatch=True)

    def _op_caughtexc(self, block: Block) -> Instr:
        return ir.CaughtExc()

    # -- phase 3 -----------------------------------------------------------

    def _decode_phi_operands(self, block: Block) -> None:
        for phi in block.phis:
            for pred, kind in block.preds:
                defined = len(self.planes.get(pred.id, {})
                              .get(phi.plane, ()))
                operand = self._resolve_ref(pred, phi.plane, defined)
                # along an exception edge, only values defined *before*
                # the trap fires are available -- which excludes the
                # trapping tail itself
                if kind == "exc" and operand.traps \
                        and operand.block is pred \
                        and pred.instrs and pred.instrs[-1] is operand:
                    raise DecodeError(
                        f"phi operand v{operand.id} is the trapping tail "
                        f"of its own exception edge B{pred.id}",
                        "DEC-TRAP-REF")
                phi.add_operand(operand)


def decode_module(data: bytes, *, store=None) -> Module:
    """Decode (and thereby validate) a SafeTSA distribution unit.

    A v2 envelope (shared dictionaries / delta; ``STSA2``) is resolved
    to its v1 payload through ``store`` first -- resolution failures
    reject with their own stable codes (``DEC-DICT``,
    ``DEC-DELTA-BASE``, ``DEC-DELTA``, ``DEC-STREAM``) before any IR
    exists.  Everything else, v1 included, flows through the verifying
    decoder unchanged.
    """
    from repro.encode.format import resolve_stream
    data = resolve_stream(data, store)
    with decode_errors():
        return _ModuleDecoder(data).decode()
