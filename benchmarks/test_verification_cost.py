"""E5 -- Section 9: SafeTSA's consumer check vs JVM dataflow verification.

The paper argues JVM bytecode verification requires an expensive dataflow
analysis, while SafeTSA verification amounts to bounded-symbol checks
("simple counters").  Two measurements:

* wall-clock: decoding a SafeTSA module (which *includes* all safety
  enforcement) vs running the bytecode dataflow verifier;
* the explicit SafeTSA structural verifier vs the dataflow verifier.
"""

from __future__ import annotations

import time

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.jvm.codegen import compile_unit
from repro.jvm.verifier import verify_class
from repro.tsa.verifier import verify_module
from repro.uast.builder import UastBuilder


def _bytecode_classes(source: str):
    unit = parse_compilation_unit(source)
    world = analyze(unit)
    builder = UastBuilder(world)
    return world, compile_unit(world, {decl.info: builder.build_class(decl)
                                       for decl in unit.classes})


@pytest.fixture(scope="module")
def prepared():
    out = {}
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        module = compile_source(source)
        world, classes = _bytecode_classes(source)
        out[name] = (module, world, classes)
    return out


def test_verification_cost_table(prepared):
    print()
    print(f"{'Program':16} {'tsa verify':>11} {'jvm verify':>11} "
          f"{'ratio':>7}")
    total_tsa = total_jvm = 0.0
    for name, (module, world, classes) in prepared.items():
        start = time.perf_counter()
        verify_module(module)
        tsa = time.perf_counter() - start
        start = time.perf_counter()
        for cls in classes:
            verify_class(world, cls)
        jvm = time.perf_counter() - start
        total_tsa += tsa
        total_jvm += jvm
        print(f"{name:16} {tsa * 1000:9.2f}ms {jvm * 1000:9.2f}ms "
              f"{jvm / tsa:7.2f}")
    print(f"{'TOTAL':16} {total_tsa * 1000:9.2f}ms "
          f"{total_jvm * 1000:9.2f}ms {total_jvm / total_tsa:7.2f}")
    # the paper's qualitative claim: SafeTSA verification is cheaper
    assert total_tsa < total_jvm, \
        "SafeTSA verification should be cheaper than JVM dataflow"


def test_dataflow_iterates_joins(prepared):
    """JVM verification is a fixpoint: abstract steps exceed the
    instruction count on methods with joins, while the SafeTSA check
    touches every instruction exactly once."""
    module, world, classes = prepared["Linpack"]
    steps = sum(verify_class(world, cls) for cls in classes)
    insns = sum(cls.instruction_count() for cls in classes)
    assert steps > insns, "dataflow should revisit joined code"


def test_tsa_verify_benchmark(benchmark, prepared):
    module, _world, _classes = prepared["BigInt"]
    benchmark(lambda: verify_module(module))


def test_jvm_verify_benchmark(benchmark, prepared):
    _module, world, classes = prepared["BigInt"]

    def run():
        return sum(verify_class(world, cls) for cls in classes)

    benchmark(run)


def test_decode_enforcement_benchmark(benchmark):
    """Decoding *is* the SafeTSA safety check: everything the verifier
    would reject is unrepresentable in the wire format."""
    module = compile_source(corpus_source("BigInt"))
    wire = encode_module(module)
    decoded = benchmark(lambda: decode_module(wire))
    assert decoded.instruction_count() == module.instruction_count()
