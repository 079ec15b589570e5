"""Corpus programs: golden outputs and four-way execution equality.

The paper's safety argument rests on the transmitted code being the
*same program*; these tests pin every corpus program's behaviour across
the plain SafeTSA interpreter, the optimised module, the decoded module
and the Java-bytecode interpreter.
"""

import pytest

from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.interp.interpreter import Interpreter
from repro.jvm.codegen import compile_unit
from repro.jvm.interp import BytecodeInterpreter
from repro.tsa.verifier import verify_module
from repro.uast.builder import UastBuilder

MAX_STEPS = 80_000_000

#: first lines of each program's expected output (golden pins)
GOLDEN_FIRST_LINES = {
    "Scanner": "tokens=36",
    "Parser": "0: 7 = 7 (size 5->1)",
    "Environment": "symbols=15",
    "BinaryCode": "true ok(sum=20)",
    "BigInt": "20! = 2432902008176640000",
    "MutableBigInt": "30! = 265252859812191058636308480000000",
    "BigDecimalLite": "price=19.99",
    "BitSieve": "primes=2262",
    "MiniVM": "10! = 3628800 in 118 steps",
    "Linpack": "info=0",
}


@pytest.fixture(scope="module")
def outputs():
    """Reference stdout for every corpus program (plain pipeline)."""
    results = {}
    for name in CORPUS_PROGRAMS:
        module = compile_source(corpus_source(name))
        result = Interpreter(module, max_steps=MAX_STEPS).run_main(name)
        assert result.exception is None, (name, result.exception_name())
        results[name] = result.stdout
    return results


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_golden_first_line(outputs, program):
    first = outputs[program].splitlines()[0]
    assert first == GOLDEN_FIRST_LINES[program]


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_optimized_equals_plain(outputs, program):
    module = compile_source(corpus_source(program), optimize=True)
    verify_module(module)
    result = Interpreter(module, max_steps=MAX_STEPS).run_main(program)
    assert result.stdout == outputs[program]


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_decoded_equals_plain(outputs, program):
    module = compile_source(corpus_source(program), optimize=True)
    decoded = decode_module(encode_module(module))
    verify_module(decoded)
    result = Interpreter(decoded, max_steps=MAX_STEPS).run_main(program)
    assert result.stdout == outputs[program]


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_bytecode_equals_plain(outputs, program):
    source = corpus_source(program)
    unit = parse_compilation_unit(source)
    world = analyze(unit)
    builder = UastBuilder(world)
    classes = compile_unit(world, {decl.info: builder.build_class(decl)
                                   for decl in unit.classes})
    result = BytecodeInterpreter(classes, world,
                                 max_steps=MAX_STEPS).run_main(program)
    assert result.stdout == outputs[program]


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_optimized_runs_fewer_dynamic_checks(program):
    source = corpus_source(program)
    plain = Interpreter(compile_source(source), max_steps=MAX_STEPS)
    plain.run_main(program)
    optimized = Interpreter(compile_source(source, optimize=True),
                            max_steps=MAX_STEPS)
    optimized.run_main(program)
    plain_total = sum(plain.check_counts.values())
    opt_total = sum(optimized.check_counts.values())
    assert opt_total <= plain_total
    # programs with real field/array traffic show a strict win
    if plain.check_counts["nullcheck"] > 50:
        assert optimized.check_counts["nullcheck"] \
            < plain.check_counts["nullcheck"], program


@pytest.mark.parametrize("program", CORPUS_PROGRAMS)
def test_full_golden_output(outputs, program):
    """Byte-exact full stdout, pinned in tests/golden/."""
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / f"{program}.out"
    assert outputs[program] == golden.read_text()
