"""Module encoder: SafeTSA in-memory form -> wire bytes.

See :mod:`repro.encode` for the format overview.  Every write here is a
bounded symbol, a gamma count, or a raw IEEE field; the matching reads in
:mod:`repro.encode.deserializer` consume the identical context.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.encode.bitio import BitWriter
from repro.encode.common import (
    MAGIC,
    OPCODE_INDEX,
    PRIMITIVE_BASES,
    REGION_INDEX,
    TERM_INDEX,
    WIRE_VERSIONS,
)
from repro.ssa.cst import (
    RBasic,
    RDoWhile,
    RIf,
    RLabeled,
    RLoop,
    RSeq,
    RTry,
    RWhile,
)
from repro.ssa import ir
from repro.ssa.ir import Block, Function, Instr, Module, Phi, Plane
from repro.tsa.layout import FunctionLayout
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
)


class EncodeError(Exception):
    """The module cannot be externalised (malformed or unsupported)."""


def _utf8(writer: BitWriter, text: str) -> None:
    data = text.encode("utf-8")
    writer.write_gamma(len(data))
    writer.write_bytes(data)


class _ModuleEncoder:
    def __init__(self, module: Module, size_report: Optional[dict] = None,
                 analyses=None):
        self.module = module
        self.table = module.type_table
        self.world = module.world
        self.writer = BitWriter()
        #: optional dict filled with per-class bit counts
        self.size_report = size_report
        #: optional :class:`repro.analysis.manager.AnalysisManager`;
        #: supplies cached dominator trees for the register layout
        self.analyses = analyses

    # ------------------------------------------------------------------
    # symbol section

    def encode(self) -> bytes:
        writer = self.writer
        writer.write_bytes(MAGIC)
        declared = self.table.declared_entries()
        writer.write_gamma(len(declared))
        class_entries = []
        for position, entry in enumerate(declared):
            if isinstance(entry.type, ClassType):
                writer.write_flag(False)
                _utf8(writer, entry.type.name)
                class_entries.append(entry)
            elif isinstance(entry.type, ArrayType):
                writer.write_flag(True)
                elem_index = self.table.index_of(entry.type.element)
                if elem_index >= entry.index:
                    raise EncodeError("array element declared after array")
                writer.write_bounded(elem_index, entry.index)
            else:
                raise EncodeError(f"cannot declare {entry.type}")
        table_size = len(self.table)
        for entry in class_entries:
            info = self.world.class_of(entry.type)
            super_index = self.table.index_of(info.superclass.type)
            writer.write_bounded(super_index, table_size)
            writer.write_flag(info.is_abstract)
        if self.size_report is not None:
            self.size_report["_header"] = writer.bit_length()
        for entry in class_entries:
            info = self.world.class_of(entry.type)
            start = writer.bit_length()
            self._encode_members(info, table_size)
            if self.size_report is not None:
                self.size_report.setdefault(info.name, 0)
                self.size_report[info.name] += writer.bit_length() - start
        for entry in class_entries:
            info = self.world.class_of(entry.type)
            start = writer.bit_length()
            for method in info.methods:
                function = self.module.functions.get(method)
                if function is not None:
                    self._encode_function(function)
            if self.size_report is not None:
                self.size_report[info.name] += writer.bit_length() - start
        return writer.getvalue()

    def _encode_members(self, info, table_size: int) -> None:
        writer = self.writer
        writer.write_gamma(len(info.fields))
        for field in info.fields:
            _utf8(writer, field.name)
            writer.write_flag(field.is_static)
            writer.write_flag(field.is_final)
            writer.write_bounded(self.table.index_of(field.type), table_size)
        writer.write_gamma(len(info.methods))
        for method in info.methods:
            _utf8(writer, method.name)
            writer.write_flag(method.is_static)
            writer.write_flag(method.is_abstract)
            writer.write_gamma(len(method.param_types))
            for param in method.param_types:
                writer.write_bounded(self.table.index_of(param), table_size)
            writer.write_bounded(self.table.index_of(method.return_type),
                                 table_size)
            writer.write_flag(method in self.module.functions)

    # ------------------------------------------------------------------
    # method bodies

    def _encode_function(self, function: Function) -> None:
        _FunctionEncoder(self, function).encode()


class _FunctionEncoder:
    def __init__(self, parent: _ModuleEncoder, function: Function):
        self.module = parent.module
        self.table = parent.table
        self.world = parent.world
        self.writer = parent.writer
        self.function = function
        domtree = parent.analyses.get("domtree", function) \
            if parent.analyses is not None else None
        self.layout = FunctionLayout(function, domtree=domtree)
        self.size_report = parent.size_report
        #: block id -> enclosing dispatch block (exception context)
        self.dispatch_of: dict[int, Optional[Block]] = {}

    def encode(self) -> None:
        start = self.writer.bit_length()
        self._encode_region(self.function.cst,
                            break_depth=0, loop_depth=0, dispatch=None)
        after_cst = self.writer.bit_length()
        for block in self.layout.order:
            self._encode_block(block)
        after_blocks = self.writer.bit_length()
        for block in self.layout.order:
            self._encode_phi_operands(block)
        after_phis = self.writer.bit_length()
        if self.size_report is not None:
            phases = self.size_report.setdefault(
                "_phases", {"cst": 0, "instructions": 0, "phi_operands": 0})
            phases["cst"] += after_cst - start
            phases["instructions"] += after_blocks - after_cst
            phases["phi_operands"] += after_phis - after_blocks

    # -- phase 1: control structure tree --------------------------------

    def _encode_region(self, region, break_depth: int, loop_depth: int,
                       dispatch: Optional[Block]) -> None:
        writer = self.writer
        if isinstance(region, RBasic):
            writer.write_bounded(REGION_INDEX["basic"], len(REGION_INDEX))
            self._register(region.block, dispatch)
            term = region.block.term
            writer.write_bounded(TERM_INDEX[term.kind], len(TERM_INDEX))
            if term.kind == "break":
                if break_depth == 0:
                    raise EncodeError("break outside a breakable region")
                writer.write_bounded(term.depth, break_depth)
            elif term.kind == "continue":
                if loop_depth == 0:
                    raise EncodeError("continue outside a loop")
                writer.write_bounded(term.depth, loop_depth)
            if dispatch is not None:
                writer.write_flag(region.exc)
            elif region.exc:
                raise EncodeError("exception edge outside a try body")
            return
        if isinstance(region, RSeq):
            writer.write_bounded(REGION_INDEX["seq"], len(REGION_INDEX))
            writer.write_gamma(len(region.regions))
            for child in region.regions:
                self._encode_region(child, break_depth, loop_depth, dispatch)
            return
        if isinstance(region, RIf):
            symbol = "ifelse" if region.else_region is not None else "if"
            writer.write_bounded(REGION_INDEX[symbol], len(REGION_INDEX))
            self._register(region.cond_block, dispatch)
            self._encode_region(region.then_region, break_depth, loop_depth,
                                dispatch)
            if region.else_region is not None:
                self._encode_region(region.else_region, break_depth,
                                    loop_depth, dispatch)
            return
        if isinstance(region, RWhile):
            writer.write_bounded(REGION_INDEX["while"], len(REGION_INDEX))
            self._register(region.header, dispatch)
            self._encode_region(region.body, break_depth + 1, loop_depth + 1,
                                dispatch)
            return
        if isinstance(region, RDoWhile):
            writer.write_bounded(REGION_INDEX["dowhile"], len(REGION_INDEX))
            self._encode_region(region.body, break_depth + 1, loop_depth + 1,
                                dispatch)
            self._register(region.cond_block, dispatch)
            return
        if isinstance(region, RLoop):
            writer.write_bounded(REGION_INDEX["loop"], len(REGION_INDEX))
            self._encode_region(region.body, break_depth + 1, loop_depth + 1,
                                dispatch)
            return
        if isinstance(region, RLabeled):
            writer.write_bounded(REGION_INDEX["labeled"], len(REGION_INDEX))
            self._encode_region(region.body, break_depth + 1, loop_depth,
                                dispatch)
            return
        if isinstance(region, RTry):
            writer.write_bounded(REGION_INDEX["try"], len(REGION_INDEX))
            self._encode_region(region.body, break_depth, loop_depth,
                                region.dispatch_block)
            self._encode_region(region.handler, break_depth, loop_depth,
                                dispatch)
            return
        raise EncodeError(f"unknown region {type(region).__name__}")

    def _register(self, block: Block, dispatch: Optional[Block]) -> None:
        self.dispatch_of[block.id] = dispatch

    # -- phase 2: blocks in dominator pre-order ---------------------------

    def _plane_symbol(self, plane: Plane) -> None:
        if plane.kind == "safeidx":
            raise EncodeError("safe-index phis are not supported by the "
                              "wire format")
        self.writer.write_bounded(self.table.index_of(plane.type),
                                  len(self.table))
        if plane.type.is_reference():
            self.writer.write_flag(plane.kind == "safe")

    def _encode_block(self, block: Block) -> None:
        writer = self.writer
        writer.write_gamma(len(block.phis))
        self._defined: dict[Plane, int] = {}
        for phi in block.phis:
            self._plane_symbol(phi.plane)
            self._defined[phi.plane] = self._defined.get(phi.plane, 0) + 1
        writer.write_gamma(len(block.instrs))
        self._block = block
        for instr in block.instrs:
            self._encode_instr(block, instr)
            if instr.plane is not None:
                self._defined[instr.plane] = \
                    self._defined.get(instr.plane, 0) + 1
        term = block.term
        if term is None:
            raise EncodeError(f"B{block.id} has no terminator")
        if term.kind == "branch":
            self._ref(block, term.value, Plane.of_type(BOOLEAN))
        elif term.kind == "return" and term.value is not None:
            self._ref(block, term.value,
                      Plane.of_type(self.function.method.return_type))
        elif term.kind == "throw":
            self._ref(block, term.value,
                      Plane.safe(ClassType("java.lang.Throwable")))

    def _ref(self, block: Block, operand: Instr, plane: Plane) -> None:
        """Encode a value reference on a known plane."""
        if operand.plane != plane:
            raise EncodeError(
                f"operand v{operand.id} on {operand.plane}, context "
                f"requires {plane}")
        defined = self._defined.get(plane, 0)
        alphabet = self.layout.alphabet_size(block, plane, defined)
        flat = self.layout.flat_index(block, operand, defined)
        self.writer.write_bounded(flat, alphabet)

    def _type_ref(self, type: Type) -> None:
        self.writer.write_bounded(self.table.index_of(type), len(self.table))

    def _member_index(self, index: int, table_len: int) -> None:
        self.writer.write_bounded(index, table_len)

    def _encode_instr(self, block: Block, instr: Instr) -> None:
        writer = self.writer
        opcode = instr.opcode
        writer.write_bounded(OPCODE_INDEX[opcode], len(OPCODE_INDEX))
        handler = getattr(self, "_op_" + type(instr).__name__.lower())
        handler(block, instr)

    # -- per-opcode bodies -------------------------------------------------

    def _op_const(self, block: Block, instr: ir.Const) -> None:
        writer = self.writer
        self._type_ref(instr.type)
        type = instr.type
        if type is INT or type is LONG:
            writer.write_signed_gamma(instr.value)
        elif type is BOOLEAN:
            writer.write_flag(bool(instr.value))
        elif type is CHAR:
            writer.write_bits(instr.value, 16)
        elif type is FLOAT:
            writer.write_bits(
                struct.unpack(">I", struct.pack(">f", instr.value))[0], 32)
        elif type is DOUBLE:
            writer.write_bits(
                struct.unpack(">Q", struct.pack(">d", instr.value))[0], 64)
        elif type == ClassType("java.lang.String"):
            if instr.value is None:
                writer.write_flag(False)
            else:
                writer.write_flag(True)
                _utf8(writer, instr.value)
        elif type.is_reference():
            if instr.value is not None:
                raise EncodeError("non-null constant of reference type")
        else:
            raise EncodeError(f"cannot encode constant of type {type}")

    def _op_param(self, block: Block, instr: ir.Param) -> None:
        method = self.function.method
        arity = len(method.param_types) + (0 if method.is_static else 1)
        self.writer.write_bounded(instr.index, arity)

    def _op_prim(self, block: Block, instr: ir.Prim) -> None:
        operation = instr.operation
        base_index = self.table.index_of(operation.base)
        if base_index >= PRIMITIVE_BASES:
            raise EncodeError(f"bad primitive base {operation.base}")
        self.writer.write_bounded(base_index, PRIMITIVE_BASES)
        from repro.typesys.ops import OPS_BY_TYPE
        ops = OPS_BY_TYPE[operation.base]
        self.writer.write_bounded(operation.index, len(ops))
        for operand, param in zip(instr.operands, operation.params):
            self._ref(block, operand, Plane.of_type(param))

    def _op_refcmp(self, block: Block, instr: ir.RefCmp) -> None:
        self.writer.write_flag(instr.is_eq)
        self._type_ref(instr.plane_type)
        plane = Plane.of_type(instr.plane_type)
        self._ref(block, instr.operands[0], plane)
        self._ref(block, instr.operands[1], plane)

    def _op_nullcheck(self, block: Block, instr: ir.NullCheck) -> None:
        self._type_ref(instr.ref_type)
        self._ref(block, instr.operands[0], Plane.of_type(instr.ref_type))

    def _op_idxcheck(self, block: Block, instr: ir.IdxCheck) -> None:
        array_type = instr.array.plane.type
        self._type_ref(array_type)
        self._ref(block, instr.array, Plane.safe(array_type))
        self._ref(block, instr.index, Plane.of_type(INT))

    def _op_upcast(self, block: Block, instr: ir.Upcast) -> None:
        self._type_ref(instr.target_type)
        source = instr.operands[0]
        self._type_ref(source.plane.type)
        self._ref(block, source, source.plane)

    def _op_downcast(self, block: Block, instr: ir.Downcast) -> None:
        self._plane_symbol(instr.plane)
        source = instr.operands[0]
        self._plane_symbol(source.plane)
        self._ref(block, source, source.plane)

    def _op_getfield(self, block: Block, instr: ir.GetField) -> None:
        self._encode_field_access(block, instr, value=None)

    def _op_setfield(self, block: Block, instr: ir.SetField) -> None:
        self._encode_field_access(block, instr, value=instr.operands[1])

    def _encode_field_access(self, block: Block, instr,
                             value: Optional[Instr]) -> None:
        base = instr.base
        self._type_ref(base.type)
        field_table = self.table.field_table(base)
        self._member_index(self.table.field_index(base, instr.field),
                           len(field_table))
        self._ref(block, instr.operands[0], Plane.safe(base.type))
        if value is not None:
            self._ref(block, value, Plane.of_type(instr.field.type))

    def _op_getstatic(self, block: Block, instr: ir.GetStatic) -> None:
        self._encode_static_access(block, instr, value=None)

    def _op_setstatic(self, block: Block, instr: ir.SetStatic) -> None:
        self._encode_static_access(block, instr, value=instr.operands[0])

    def _encode_static_access(self, block: Block, instr,
                              value: Optional[Instr]) -> None:
        declaring = instr.field.declaring
        self._type_ref(declaring.type)
        field_table = self.table.field_table(declaring)
        self._member_index(self.table.field_index(declaring, instr.field),
                           len(field_table))
        if value is not None:
            self._ref(block, value, Plane.of_type(instr.field.type))

    def _op_getelt(self, block: Block, instr: ir.GetElt) -> None:
        self._encode_elt(block, instr, value=None)

    def _op_setelt(self, block: Block, instr: ir.SetElt) -> None:
        self._encode_elt(block, instr, value=instr.operands[2])

    def _encode_elt(self, block: Block, instr,
                    value: Optional[Instr]) -> None:
        self._type_ref(instr.array_type)
        array = instr.operands[0]
        self._ref(block, array, Plane.safe(instr.array_type))
        index = instr.operands[1]
        self._ref(block, index, Plane.safe_index(array))
        if value is not None:
            self._ref(block, value,
                      Plane.of_type(instr.array_type.element))

    def _op_arraylen(self, block: Block, instr: ir.ArrayLen) -> None:
        self._type_ref(instr.array_type)
        self._ref(block, instr.operands[0], Plane.safe(instr.array_type))

    def _op_new(self, block: Block, instr: ir.New) -> None:
        self._type_ref(instr.class_info.type)

    def _op_newarray(self, block: Block, instr: ir.NewArray) -> None:
        self._type_ref(instr.array_type)
        self._ref(block, instr.operands[0], Plane.of_type(INT))

    def _op_instanceof(self, block: Block, instr: ir.InstanceOf) -> None:
        self._type_ref(instr.target_type)
        source = instr.operands[0]
        self._type_ref(source.plane.type)
        self._ref(block, source, source.plane)

    def _op_call(self, block: Block, instr: ir.Call) -> None:
        base = instr.base
        self._type_ref(base.type)
        method_table = self.table.method_table(base)
        self._member_index(self.table.method_index(base, instr.method),
                           len(method_table))
        method = instr.method
        offset = 0
        if not method.is_static:
            self._ref(block, instr.operands[0], Plane.safe(base.type))
            offset = 1
        for operand, param in zip(instr.operands[offset:],
                                  method.param_types):
            self._ref(block, operand, Plane.of_type(param))

    def _op_caughtexc(self, block: Block, instr: ir.CaughtExc) -> None:
        pass

    # -- phase 3: phi operands ---------------------------------------------

    def _encode_phi_operands(self, block: Block) -> None:
        for phi in block.phis:
            for operand, (pred, _kind) in zip(phi.operands, block.preds):
                if operand.plane != phi.plane:
                    raise EncodeError("phi operand plane mismatch")
                defined = self.layout.regs_at(pred, phi.plane)
                alphabet = self.layout.alphabet_size(pred, phi.plane,
                                                     defined)
                flat = self.layout.flat_index(pred, operand, defined)
                self.writer.write_bounded(flat, alphabet)


def encode_module(module: Module,
                  size_report: Optional[dict] = None, *,
                  analyses=None, format_version: str = "stsa1",
                  store=None) -> bytes:
    """Externalise ``module`` into SafeTSA wire bytes.

    ``size_report``, when given, is filled with per-class bit counts
    (plus ``_header`` for the shared type-table section) so the Figure 5
    harness can attribute file size to individual classes.  ``analyses``
    optionally shares an :class:`repro.analysis.manager.AnalysisManager`
    so the per-function register layout reuses cached dominator trees.

    ``format_version`` selects the distribution layout, one of
    :data:`~repro.encode.common.WIRE_VERSIONS`: the default ``"stsa1"``
    is the bit-identical historical stream; ``"stsa2"`` wraps that
    stream in a self-contained v2 envelope (dictionary factoring and
    deltas are publisher batch operations -- see
    :func:`repro.encode.format.encode_modules_v2` / ``encode_delta``).
    """
    wire = _ModuleEncoder(module, size_report, analyses=analyses).encode()
    if format_version == "stsa1":
        return wire
    if format_version not in WIRE_VERSIONS.values():
        raise ValueError(f"unknown wire format version {format_version!r}")
    from repro.encode.format import encode_v2
    return encode_v2(wire, store=store)
