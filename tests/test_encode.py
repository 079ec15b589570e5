"""Wire format tests: bit I/O primitives and module round-trips."""

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.bitio import BitIOError, BitReader, BitWriter
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.tsa.verifier import verify_module


class TestBitIO:
    def test_bits_round_trip(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        writer.write_bits(0xFFFF, 16)
        writer.write_bits(0, 1)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b101
        assert reader.read_bits(16) == 0xFFFF
        assert reader.read_bits(1) == 0

    def test_value_too_wide_rejected(self):
        with pytest.raises(BitIOError):
            BitWriter().write_bits(4, 2)

    def test_bounded_round_trip_all_alphabets(self):
        for alphabet in (1, 2, 3, 5, 8, 9, 100, 257):
            writer = BitWriter()
            values = list(range(alphabet))
            for value in values:
                writer.write_bounded(value, alphabet)
            reader = BitReader(writer.getvalue())
            assert [reader.read_bounded(alphabet) for _ in values] == values

    def test_bounded_single_symbol_costs_nothing(self):
        writer = BitWriter()
        for _ in range(1000):
            writer.write_bounded(0, 1)
        assert writer.bit_length() == 0

    def test_bounded_phase_in_is_shorter_for_small_symbols(self):
        # alphabet 5: symbols 0..2 use 2 bits, 3..4 use 3 bits
        w0 = BitWriter(); w0.write_bounded(0, 5)
        w4 = BitWriter(); w4.write_bounded(4, 5)
        assert w0.bit_length() == 2
        assert w4.bit_length() == 3

    def test_bounded_out_of_alphabet_rejected(self):
        with pytest.raises(BitIOError):
            BitWriter().write_bounded(5, 5)

    def test_empty_alphabet_unencodable_and_undecodable(self):
        with pytest.raises(BitIOError):
            BitWriter().write_bounded(0, 0)
        with pytest.raises(BitIOError):
            BitReader(b"\xff").read_bounded(0)

    def test_gamma_round_trip(self):
        writer = BitWriter()
        values = [0, 1, 2, 3, 7, 8, 100, 12345]
        for value in values:
            writer.write_gamma(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_gamma() for _ in values] == values

    def test_signed_gamma_round_trip(self):
        writer = BitWriter()
        values = [0, -1, 1, -2**31, 2**31 - 1, 2**62, -(2**62)]
        for value in values:
            writer.write_signed_gamma(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_signed_gamma() for _ in values] == values

    def test_reading_past_end_rejected(self):
        reader = BitReader(b"\x80")
        reader.read_bits(8)
        with pytest.raises(BitIOError):
            reader.read_bits(1)

    def test_negative_gamma_rejected(self):
        with pytest.raises(BitIOError):
            BitWriter().write_gamma(-1)


class TestModuleRoundTrip:
    @pytest.mark.parametrize("program", CORPUS_PROGRAMS)
    def test_round_trip_preserves_everything(self, program):
        source = corpus_source(program)
        module = compile_source(source, optimize=True)
        wire = encode_module(module)
        decoded = decode_module(wire)
        verify_module(decoded)
        # structure: same opcode histogram
        def histogram(m):
            out = {}
            for f in m.functions.values():
                for b in f.blocks:
                    for i in b.all_instrs():
                        out[i.opcode] = out.get(i.opcode, 0) + 1
            return out
        assert histogram(decoded) == histogram(module)
        # determinism: re-encoding the decoded module is byte-identical
        assert encode_module(decoded) == wire

    @pytest.mark.parametrize("program", ("Parser", "BitSieve", "BinaryCode"))
    def test_round_trip_preserves_behaviour(self, program):
        source = corpus_source(program)
        module = compile_source(source, optimize=True)
        expected = Interpreter(module, max_steps=50_000_000) \
            .run_main(program)
        decoded = decode_module(encode_module(module))
        actual = Interpreter(decoded, max_steps=50_000_000) \
            .run_main(program)
        assert actual.stdout == expected.stdout
        assert actual.exception_name() == expected.exception_name()

    def test_unpruned_module_round_trips(self):
        source = corpus_source("Linpack")
        module = compile_source(source, prune_phis=False)
        decoded = decode_module(encode_module(module))
        verify_module(decoded)

    def test_class_hierarchy_survives(self):
        source = """
        class Animal { int legs() { return 0; } }
        class Cat extends Animal { int legs() { return 4; } }
        class Main { static void main() {
            Animal a = new Cat();
            System.out.println(a.legs());
        } }
        """
        module = compile_source(source)
        decoded = decode_module(encode_module(module))
        cat = decoded.world.require("Cat")
        animal = decoded.world.require("Animal")
        assert cat.superclass is animal
        assert len(cat.vtable) >= 1
        result = Interpreter(decoded).run_main("Main")
        assert result.stdout == "4\n"

    def test_string_constants_survive(self):
        source = ('class T { static void main() '
                  '{ System.out.println("héllo\\nwörld"); } }')
        module = compile_source(source)
        decoded = decode_module(encode_module(module))
        result = Interpreter(decoded).run_main("T")
        assert result.stdout == "héllo\nwörld\n"

    def test_float_and_double_bits_survive(self):
        source = ("class T { static void main() {"
                  "double d = -0.0; float f = 1.5f;"
                  "System.out.println(1.0 / d);"
                  "System.out.println(f * 2.0);"
                  "} }")
        module = compile_source(source)
        decoded = decode_module(encode_module(module))
        result = Interpreter(decoded).run_main("T")
        assert result.stdout == "-Infinity\n3.0\n"

    def test_size_report_accounts_all_classes(self):
        source = corpus_source("Parser")
        module = compile_source(source)
        report = {}
        wire = encode_module(module, size_report=report)
        header = report.pop("_header")
        phases = report.pop("_phases")
        assert header > 0
        assert set(phases) == {"cst", "instructions", "phi_operands"}
        assert set(report) == {info.name for info in module.classes}
        total_bits = header + sum(report.values())
        assert abs(total_bits - len(wire) * 8) < 8


class TestDecodeRejections:
    def test_bad_magic(self):
        with pytest.raises(DecodeError):
            decode_module(b"NOPE!" + b"\x00" * 16)

    def test_empty_stream(self):
        with pytest.raises(DecodeError):
            decode_module(b"")

    def test_trailing_garbage_rejected(self):
        module = compile_source("class T { static void main() { } }")
        wire = encode_module(module)
        with pytest.raises(DecodeError):
            decode_module(wire + b"\x00\x01")

    def test_truncations_rejected(self):
        module = compile_source(corpus_source("BitSieve"))
        wire = encode_module(module)
        for cut in range(1, len(wire), 37):
            with pytest.raises(DecodeError):
                decode_module(wire[:cut])

    def test_declared_java_lang_class_rejected(self):
        # forging a class named java.lang.String must not decode
        from repro.encode.bitio import BitWriter
        from repro.encode.common import MAGIC
        writer = BitWriter()
        writer.write_bytes(MAGIC)
        writer.write_gamma(1)           # one declared entry
        writer.write_flag(False)        # a class
        name = "java.lang.Evil".encode()
        writer.write_gamma(len(name))
        writer.write_bytes(name)
        with pytest.raises(DecodeError):
            decode_module(writer.getvalue())
