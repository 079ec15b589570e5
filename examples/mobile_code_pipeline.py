"""The full mobile-code scenario the paper is built around.

A code *producer* compiles and optimises a program, transmits it, and a
*consumer* -- who does not trust the producer -- receives bytes from the
wire, decodes them (which enforces every safety property), and executes.
A man-in-the-middle who flips bits either produces an undecodable stream
or another well-formed program; never an unsafe one.

The same program is also compiled to the Java-bytecode baseline to show
the size comparison from the paper's Figure 5.

Run with:  python examples/mobile_code_pipeline.py
"""

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.interp.interpreter import Interpreter
from repro.interp.jit import JitCompiler
from repro.jvm.classfile import class_file_bytes
from repro.jvm.codegen import compile_unit
from repro.tsa.verifier import verify_module
from repro.uast.builder import UastBuilder


def producer(source: str) -> bytes:
    """Compile, optimise, and externalise."""
    module = compile_source(source, optimize=True)
    print(f"[producer] compiled: {module.instruction_count()} instructions "
          f"({module.count_opcodes('nullcheck')} null checks, "
          f"{module.count_opcodes('idxcheck')} bounds checks "
          f"after producer-side elimination)")
    wire = encode_module(module)
    print(f"[producer] transmitting {len(wire)} bytes")
    return wire


def consumer(wire: bytes) -> str:
    """Decode (the safety check), verify, generate code, execute."""
    module = decode_module(wire)
    print(f"[consumer] decoded {len(module.classes)} classes; every "
          "reference was alphabet-checked during decoding")
    verify_module(module)  # the residual rules decoding does not cover
    print("[consumer] structural verification: OK")
    interp = Interpreter(module, max_steps=50_000_000)
    interp.run_main("Parser")
    print(f"[consumer] (instrumented run: "
          f"{interp.check_counts['nullcheck']} dynamic null checks, "
          f"{interp.check_counts['idxcheck']} dynamic bounds checks)")
    # the real execution path: on-the-fly code generation (paper §7)
    result = JitCompiler(module).run_main("Parser")
    print("[consumer] executed via generated code (SafeTSA -> Python), "
          "no re-analysis needed")
    return result.stdout


def attacker(wire: bytes) -> None:
    """Bit-flip the stream and watch the consumer reject it."""
    rejected = 0
    changed = 0
    for position in range(0, len(wire) * 8, 97):
        mutated = bytearray(wire)
        mutated[position // 8] ^= 1 << (position % 8)
        try:
            module = decode_module(bytes(mutated))
        except DecodeError:
            rejected += 1
            continue
        # decoding succeeded: it is necessarily a *different but still
        # well-formed* program -- prove it by verifying
        verify_module(module)
        changed += 1
    print(f"[attacker] {rejected + changed} mutations: "
          f"{rejected} rejected outright, {changed} decoded to other "
          "well-formed programs, 0 unsafe programs")


def baseline_sizes(source: str) -> None:
    unit = parse_compilation_unit(source)
    world = analyze(unit)
    builder = UastBuilder(world)
    classes = compile_unit(world, {decl.info: builder.build_class(decl)
                                   for decl in unit.classes})
    total = sum(len(class_file_bytes(cls)) for cls in classes)
    insns = sum(cls.instruction_count() for cls in classes)
    print(f"[baseline] javac-equivalent class files: {total} bytes, "
          f"{insns} bytecode instructions")


def main() -> None:
    source = corpus_source("Parser")
    wire = producer(source)
    baseline_sizes(source)
    print()
    output = consumer(wire)
    print("\nprogram output:")
    print(output, end="")
    print()
    attacker(wire)


if __name__ == "__main__":
    main()
