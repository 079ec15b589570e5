"""Runtime-facing claims (Sections 1 and 8-10), measured with the JIT.

Two claims the paper makes about execution speed:

1. SafeTSA arrives ready for code generation -- the consumer can go
   straight from decoded SSA to target code (no stack simulation, no
   type inference, no dataflow verification).  `repro.interp.jit` is
   that code generator, and it beats the interpreter by a wide margin.
2. Producer-side check elimination "eventually leads to faster
   execution": the removed null/bounds checks are real work the
   consumer no longer performs.
"""

from __future__ import annotations

import time

import pytest

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.interp.interpreter import Interpreter
from repro.interp.jit import JitCompiler


def _time(callable_, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_jit_speedup_table():
    print()
    print(f"{'Program':16} {'interp':>9} {'jit':>9} {'speedup':>8}")
    total_interp = total_jit = 0.0
    for name in ("BitSieve", "Linpack", "BigInt", "MiniVM"):
        source = corpus_source(name)
        module = compile_source(source, optimize=True)
        interp_time = _time(lambda: Interpreter(
            module, max_steps=200_000_000).run_main(name), repeat=1)
        jit = JitCompiler(module)
        jit.run_main(name)  # warm: builds the module's code once
        # each fresh compiler below links that code: run time only
        jit_time = _time(lambda: JitCompiler(module).run_main(name))
        total_interp += interp_time
        total_jit += jit_time
        print(f"{name:16} {interp_time * 1000:7.1f}ms "
              f"{jit_time * 1000:7.1f}ms {interp_time / jit_time:7.1f}x")
    print(f"{'TOTAL':16} {total_interp * 1000:7.1f}ms "
          f"{total_jit * 1000:7.1f}ms "
          f"{total_interp / total_jit:7.1f}x")
    assert total_jit < total_interp


def test_check_elimination_speeds_execution():
    """Optimized modules execute fewer dynamic checks; under the JIT the
    removed checks are genuinely absent from the generated code."""
    source = corpus_source("Linpack")
    plain = compile_source(source)
    optimized = compile_source(source, optimize=True)
    # dynamic check counts from the (instrumented) interpreter
    interp_plain = Interpreter(plain, max_steps=200_000_000)
    interp_plain.run_main("Linpack")
    interp_opt = Interpreter(optimized, max_steps=200_000_000)
    interp_opt.run_main("Linpack")
    plain_checks = sum(interp_plain.check_counts.values())
    opt_checks = sum(interp_opt.check_counts.values())
    print(f"\ndynamic checks: plain {plain_checks}, "
          f"optimized {opt_checks} "
          f"({1 - opt_checks / plain_checks:.0%} fewer)")
    assert opt_checks < plain_checks
    # wall clock under the JIT (best of 5 to damp noise)
    plain_time = _time(lambda: JitCompiler(plain).run_main("Linpack"),
                       repeat=5)
    opt_time = _time(lambda: JitCompiler(optimized).run_main("Linpack"),
                     repeat=5)
    print(f"jit wall clock: plain {plain_time * 1000:.1f}ms, "
          f"optimized {opt_time * 1000:.1f}ms")
    # the optimized module must not be slower by more than noise
    assert opt_time < plain_time * 1.15


def test_jit_compile_benchmark(benchmark):
    """Translation cost: each round gets a freshly decoded module, whose
    functions carry no generated code yet."""
    wire = encode_module(compile_source(corpus_source("BigInt"),
                                        optimize=True))

    def fresh_module():
        return (decode_module(wire),), {}

    def compile_all(module):
        jit = JitCompiler(module)
        return [jit.get(f) for f in module.functions.values()]

    compiled = benchmark.pedantic(compile_all, setup=fresh_module,
                                  rounds=20)
    assert all(callable(f) for f in compiled)


def test_jit_execute_benchmark(benchmark):
    module = compile_source(corpus_source("BitSieve"), optimize=True)

    def run():
        return JitCompiler(module).run_main("BitSieve")

    result = benchmark(run)
    assert result.stdout.startswith("primes=")
