"""Property-based tests (hypothesis) over the core invariants.

The headline property: for *arbitrary generated programs*, the SafeTSA
pipeline (construct, optimise, encode, decode, execute) agrees with the
independent bytecode pipeline, and every artifact verifies.
"""

import pytest

from hypothesis import example, given, settings, strategies as st

from repro import jmath
from repro.encode.bitio import BitReader, BitWriter
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.pipeline import compile_to_module
from repro.tsa.verifier import verify_module


# ======================================================================
# bit-level codes

@given(st.lists(st.tuples(st.integers(min_value=1, max_value=300),
                          st.integers(min_value=0))))
def test_bounded_code_round_trip(pairs):
    normalized = [(alphabet, value % alphabet) for alphabet, value in pairs]
    writer = BitWriter()
    for alphabet, value in normalized:
        writer.write_bounded(value, alphabet)
    reader = BitReader(writer.getvalue())
    for alphabet, value in normalized:
        assert reader.read_bounded(alphabet) == value


@given(st.lists(st.integers(min_value=0, max_value=2**40)))
def test_gamma_round_trip(values):
    writer = BitWriter()
    for value in values:
        writer.write_gamma(value)
    reader = BitReader(writer.getvalue())
    for value in values:
        assert reader.read_gamma() == value


@given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)))
def test_signed_gamma_round_trip(values):
    writer = BitWriter()
    for value in values:
        writer.write_signed_gamma(value)
    reader = BitReader(writer.getvalue())
    for value in values:
        assert reader.read_signed_gamma() == value


@given(st.integers(min_value=1, max_value=1000))
def test_phase_in_code_is_near_optimal(alphabet):
    """No symbol costs more than ceil(log2 n) bits."""
    import math
    ceiling = math.ceil(math.log2(alphabet)) if alphabet > 1 else 0
    for value in range(0, alphabet, max(alphabet // 17, 1)):
        writer = BitWriter()
        writer.write_bounded(value, alphabet)
        assert writer.bit_length() <= ceiling


# ======================================================================
# Java arithmetic

@given(st.integers(), st.integers())
def test_i32_is_32_bit_ring_homomorphism(a, b):
    assert jmath.i32(a + b) == jmath.i32(jmath.i32(a) + jmath.i32(b))
    assert jmath.i32(a * b) == jmath.i32(jmath.i32(a) * jmath.i32(b))
    assert jmath.INT_MIN <= jmath.i32(a) <= jmath.INT_MAX


@given(st.integers(min_value=jmath.INT_MIN, max_value=jmath.INT_MAX),
       st.integers(min_value=jmath.INT_MIN, max_value=jmath.INT_MAX))
def test_div_rem_reconstruct(a, b):
    if b == 0:
        return
    assert jmath.idiv(a, b) * b + jmath.irem(a, b) == a
    assert abs(jmath.irem(a, b)) < abs(b)


@given(st.integers(min_value=jmath.INT_MIN, max_value=jmath.INT_MAX),
       st.integers())
def test_shifts_match_mask_semantics(a, s):
    assert jmath.ishl(a, s, 32) == jmath.ishl(a, s & 31, 32)
    assert jmath.iushr(a, s, 32) == jmath.iushr(a, s & 31, 32)


# ======================================================================
# random-program differential testing
#
# The program grammar lives in repro.fuzz.gen (one grammar, two
# frontends: a seeded random.Random for campaigns, a hypothesis draw
# here -- so shrinking still works); the agreement matrix lives in
# repro.fuzz.oracle.  These tests drive both through hypothesis.

from repro.fuzz.gen import GeneratedProgram, program_strategy
from repro.fuzz.oracle import check_program


@pytest.mark.slow
@given(program_strategy())
@settings(max_examples=40, deadline=None)
@example(
    generated=GeneratedProgram(source='class Shape {\n    int tag;\n    int weigh(int x) { return ((tag <= tag) ? x : x); }\n}\nclass Ring extends Shape {\n    int weigh(int x) { return (tag % (x | 1)); }\n}\nclass Main {\n    static int h(int x) {\n        int a = x; int b = x - 1; int c = 7;\n        return ((-20 - a) | a);\n    }\n    static void main() {\n        int a = -96;\n        int b = 82;\n        int c = 78;\n        int[] arr = new int[8];\n        for (int f0 = 0; f0 < 8; f0++) {\n            arr[f0] = f0 * 5 + 3;\n        }\n        Shape s = new Shape();\n        s.tag = -12;\n        switch (a & 3) { case 0: a = 1; case 1: a = 2; break; case 2: arr[(1 & 7)] = -57; break; default: a = 15; }\n        { int d1 = 2; do { d1 = d1 - 1; for (int lo2 = 0; lo2 < 4; lo2++) { for (int ln3 = 0; ln3 < arr.length; ln3++) { c = c + arr[lo2 & 7]; } arr[lo2 & 7] = c; } } while (d1 > 0); }\n        c = (-83 % ((a * ((c > 0) ? b : a)) | 1));\n        for (int lo4 = 0; lo4 < 3; lo4++) { for (int ln5 = 0; ln5 < arr.length; ln5++) { b = b + arr[lo4 & 7]; } arr[lo4 & 7] = b; }\n        int sum = 0;\n        for (int f1 = 0; f1 < 8; f1++) { sum += arr[f1]; }\n        System.out.println(a + " " + b + " " + c + " " + sum\n                           + " " + s.weigh(a) + " " + s.tag);\n    }\n}\n',
     main_class='Main',
     seed=None),
).via('discovered failure')
def test_generated_programs_agree_across_pipelines(generated):
    result = check_program(generated.source, generated.main_class)
    assert not result.invalid, "generator produced an uncompilable program"
    assert result.ok, str(result.divergence)
    # the full matrix ran: reference + optimised + pass specs + wire +
    # rebuild + jit + bytecode
    assert result.pipelines >= 7


@given(program_strategy())
@settings(max_examples=15, deadline=None)
def test_generated_programs_reencode_identically(generated):
    module = compile_to_module(generated.source)
    wire = encode_module(module)
    assert encode_module(decode_module(wire)) == wire


# ======================================================================
# wire-format mutation safety

@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=60, deadline=None)
def test_arbitrary_bytes_never_yield_invalid_module(data):
    try:
        module = decode_module(data)
    except DecodeError:
        return
    verify_module(module)  # whatever decodes must verify


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=255))
@settings(max_examples=80, deadline=None)
def test_single_byte_mutations_safe(position, xor):
    source = ("class T { static int f(int[] a, int i) "
              "{ return a[i] + a[i]; } }")
    module = compile_to_module(source, optimize=True)
    wire = bytearray(encode_module(module))
    wire[position % len(wire)] ^= xor
    try:
        mutated = decode_module(bytes(wire))
    except DecodeError:
        return
    verify_module(mutated)
