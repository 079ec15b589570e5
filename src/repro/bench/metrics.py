"""The measurements behind the paper tables, and the bench timer.

For every corpus program :func:`measure_program` compiles three
artifacts from the same source -- the Java-bytecode baseline, plain
SafeTSA, and optimised SafeTSA -- and collects, per class:

* file size in bytes (real ``.class`` bytes vs attributed SafeTSA wire
  bits) and instruction counts (Figure 5);
* phi, null-check and array-check instruction counts before and after
  producer-side optimisation (Figure 6).

The other paper tables measure here too -- phi pruning (E3), the
per-pass ablation (E4), verification cost (E5), the wire bit breakdown
(E7), the extension ablation (E8) and consumer code generation (E9) --
so the runner renders them and the tests assert over the same numbers.
"""

from __future__ import annotations

import os
import time
import zlib
from typing import Optional

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import CompilationSession, PassManager
from repro.encode.serializer import encode_module
from repro.jvm.classfile import class_file_bytes
from repro.ssa.ir import Module
from repro.tsa.verifier import verify_module

#: The two transmitted forms every corpus program is compiled to.
TRANSMITTED_FLAGS = ({"prune_phis": False}, {"optimize": True})


class ClassMetrics:
    """One row of the Figure 5 / Figure 6 tables."""

    def __init__(self, program: str, class_name: str):
        self.program = program
        self.class_name = class_name
        # Figure 5 columns
        self.bytecode_size = 0
        self.bytecode_insns = 0
        self.tsa_size = 0
        self.tsa_insns = 0
        self.tsa_opt_size = 0
        self.tsa_opt_insns = 0
        # Figure 6 columns
        self.phis_before = 0
        self.phis_after = 0
        self.nullchecks_before = 0
        self.nullchecks_after = 0
        self.idxchecks_before = 0
        self.idxchecks_after = 0

    def delta_pct(self, before: int, after: int) -> Optional[int]:
        """Percent change (rounded), or None when before == 0 (N/A)."""
        if before == 0:
            return None
        return round(100 * (after - before) / before)

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{self.class_name}: bc {self.bytecode_insns}i/"
                f"{self.bytecode_size}B tsa {self.tsa_insns}i/"
                f"{self.tsa_size}B opt {self.tsa_opt_insns}i/"
                f"{self.tsa_opt_size}B>")


def _class_opcode_counts(module: Module, class_name: str,
                         *opcodes: str) -> int:
    total = 0
    for method, function in module.functions.items():
        if method.declaring.name != class_name:
            continue
        for block in function.reachable_blocks():
            for instr in block.all_instrs():
                if instr.opcode in opcodes:
                    total += 1
    return total


def _class_instruction_count(module: Module, class_name: str) -> int:
    total = 0
    for method, function in module.functions.items():
        if method.declaring.name != class_name:
            continue
        for block in function.reachable_blocks():
            total += len(block.phis) + len(block.instrs)
    return total


def _tsa_sizes(module: Module) -> dict[str, int]:
    """Per-class SafeTSA size in bytes (shared header apportioned)."""
    report: dict[str, int] = {}
    encode_module(module, size_report=report)
    header_bits = report.pop("_header", 0)
    report.pop("_phases", None)
    class_count = max(len(report), 1)
    out = {}
    for name, bits in report.items():
        out[name] = (bits + header_bits // class_count + 7) // 8
    return out


def measure_program(program: str, source: Optional[str] = None, *,
                    cache=None) -> list[ClassMetrics]:
    """Compile one corpus program three ways and measure every class.

    ``cache`` is forwarded to the two SafeTSA compiles; ``None`` keeps
    the process default, ``False`` forces cold compiles.
    """
    if source is None:
        source = corpus_source(program)

    _world, compiled = _bytecode(source)

    # the unoptimised transmitted form keeps the eager (B&M) phis;
    # pruning is part of the producer-side optimisation (Figure 6)
    plain = CompilationSession(prune_phis=False,
                               cache=cache).compile(source)
    optimized = CompilationSession(optimize=True,
                                   cache=cache).compile(source)
    plain_sizes = _tsa_sizes(plain)
    opt_sizes = _tsa_sizes(optimized)

    rows: list[ClassMetrics] = []
    for compiled_class in compiled:
        name = compiled_class.info.name
        row = ClassMetrics(program, name)
        row.bytecode_size = len(class_file_bytes(compiled_class))
        row.bytecode_insns = compiled_class.instruction_count()
        row.tsa_size = plain_sizes.get(name, 0)
        row.tsa_insns = _class_instruction_count(plain, name)
        row.tsa_opt_size = opt_sizes.get(name, 0)
        row.tsa_opt_insns = _class_instruction_count(optimized, name)
        row.phis_before = _class_opcode_counts(plain, name, "phi")
        row.phis_after = _class_opcode_counts(optimized, name, "phi")
        row.nullchecks_before = _class_opcode_counts(plain, name,
                                                     "nullcheck")
        row.nullchecks_after = _class_opcode_counts(optimized, name,
                                                    "nullcheck")
        row.idxchecks_before = _class_opcode_counts(plain, name, "idxcheck")
        row.idxchecks_after = _class_opcode_counts(optimized, name,
                                                   "idxcheck")
        rows.append(row)
    return rows


def measure_corpus(programs=None, *, cache=None) -> list[ClassMetrics]:
    """Measure every corpus program (the full Figure 5 / 6 data set)."""
    rows: list[ClassMetrics] = []
    for program in programs or CORPUS_PROGRAMS:
        rows.extend(measure_program(program, cache=cache))
    return rows


def bench_repeats(repeats: Optional[int] = None) -> int:
    """``repeats``, or else ``REPRO_BENCH_REPEATS`` (default 3): the
    timed runs behind every best-of figure."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    return max(repeats, 1)


def best_of(fn, repeats: Optional[int] = None, warmup: int = 1,
            setup=None) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs,
    after ``warmup`` untimed runs: the estimator for "time the code
    would take undisturbed", where one sample is at the mercy of
    whatever else the machine was doing.  With ``setup``, every run is
    ``fn(setup())`` and ``setup`` runs off the clock.  ``fn``'s return
    value is discarded; capture it via a closure if it is needed."""
    best = float("inf")
    for run in range(warmup + bench_repeats(repeats)):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        if run >= warmup and elapsed < best:
            best = elapsed
    return best


def _bytecode(source: str):
    """``(world, compiled classes)`` of the Java-bytecode baseline."""
    session = CompilationSession(cache=False)
    classes = session.compile_to_classfiles(source)
    return session.frontend(source)[1], classes


def phi_pruning_counts(programs=None, *, cache=None) -> list:
    """E3: ``(program, unpruned phis, pruned phis)`` per program."""
    def phis(name: str, prune: bool) -> int:
        return CompilationSession(prune_phis=prune, cache=cache).compile(
            corpus_source(name)).count_opcodes("phi")

    return [(name, phis(name, False), phis(name, True))
            for name in programs or CORPUS_PROGRAMS]


#: E4: the single-pass ablation against no passes and all three
ABLATION_CONFIGS = {
    "none": [],
    "constprop": ["constprop"],
    "cse": ["cse"],
    "dce": ["dce"],
    "all": ["constprop", "cse", "dce"],
}


def ablation_counts(programs=None, *, cache=None) -> list:
    """E4: ``(program, {config: instruction count})`` per program."""
    results = []
    for name in programs or CORPUS_PROGRAMS:
        counts = {}
        for label, passes in ABLATION_CONFIGS.items():
            # each configuration mutates its module, so every one needs
            # a fresh decode -- which is exactly what a cache hit is
            module = CompilationSession(cache=cache).compile(
                corpus_source(name))
            if passes:
                PassManager(passes).run_module(module)
            counts[label] = module.instruction_count()
        results.append((name, counts))
    return results


def verify_costs(programs=None, *, cache=None, repeats=None) -> list:
    """E5: ``(program, SafeTSA verify ms, JVM verify ms, JVM dataflow
    steps)`` per program."""
    from repro.jvm.verifier import verify_class
    rows = []
    for name in programs or CORPUS_PROGRAMS:
        source = corpus_source(name)
        module = CompilationSession(cache=cache).compile(source)
        world, classes = _bytecode(source)
        steps: list = []
        tsa_ms = best_of(lambda: verify_module(module), repeats) * 1000
        jvm_ms = best_of(lambda: steps.append(
            sum(verify_class(world, cls) for cls in classes)),
            repeats) * 1000
        rows.append((name, tsa_ms, jvm_ms, steps[-1]))
    return rows


def bit_breakdown(programs=None, *, cache=None) -> list[dict]:
    """E7: where each optimised wire stream's bits go -- linking
    information (header and member tables), constants, instructions,
    phi operands -- and both formats' bytes, raw and under zlib (the
    paper: "any dictionary encoding scheme can be used" on the symbol
    sequence, so the prefix coder is the floor, not the ceiling)."""
    rows = []
    for name in programs or CORPUS_PROGRAMS:
        source = corpus_source(name)
        sizes: dict = {}
        wire = encode_module(CompilationSession(
            optimize=True, cache=cache).compile(source), size_report=sizes)
        phases = sizes.pop("_phases")
        header = sizes.pop("_header")
        classfile = b"".join(class_file_bytes(cls)
                             for cls in _bytecode(source)[1])
        rows.append({
            "program": name,
            "wire_bytes": len(wire),
            "wire_zlib": len(zlib.compress(wire, 9)),
            "class_bytes": len(classfile),
            "class_zlib": len(zlib.compress(classfile, 9)),
            "linking_bits": header + sum(sizes.values())
            - sum(phases.values()),
            "cst_bits": phases["cst"],
            "code_bits": phases["instructions"],
            "phi_bits": phases["phi_operands"],
        })
    return rows


#: E8: the paper's base optimiser, plus safe-phi transport (§4), plus
#: memory partitioned by field (§8's proposed alias improvement)
EXTENSION_CONFIGS = {
    "base": ["constprop", "cse", "dce"],
    "safephi": ["constprop", "safephi", "cse", "dce"],
    "fields": ["constprop", "safephi", "cse_fields", "dce"],
}


def extension_ablation(programs=None, *, cache=None) -> dict:
    """E8: corpus totals of instructions, null checks, array checks and
    memory loads per :data:`EXTENSION_CONFIGS` entry."""
    totals = {}
    for config, passes in EXTENSION_CONFIGS.items():
        total = dict.fromkeys(
            ("instructions", "nullchecks", "idxchecks", "loads"), 0)
        for name in programs or CORPUS_PROGRAMS:
            module = CompilationSession(cache=cache).compile(
                corpus_source(name))
            PassManager(passes).run_module(module)
            verify_module(module)
            total["instructions"] += module.instruction_count()
            total["nullchecks"] += module.count_opcodes("nullcheck")
            total["idxchecks"] += module.count_opcodes("idxcheck")
            total["loads"] += module.count_opcodes("getfield", "getelt",
                                                   "getstatic")
        totals[config] = total
    return totals


#: E9: the corpus programs with enough run time to time a tier on
JIT_PROGRAMS = ("BitSieve", "Linpack", "BigInt", "MiniVM")


def jit_speeds(programs=JIT_PROGRAMS, *, cache=None,
               repeats=None) -> list:
    """E9: ``(program, interpreter s, first JIT run s, warm JIT run s)``.
    The first run is on a freshly loaded module, translation included
    and loading not; a warm run links the code its module's functions
    already carry."""
    from repro.interp.interpreter import Interpreter
    from repro.interp.jit import JitCompiler
    from repro.loader import load_module
    rows = []
    for name in programs:
        wire = encode_module(CompilationSession(
            optimize=True, cache=cache).compile(corpus_source(name)))
        module = load_module(wire)
        interp_s = best_of(lambda: Interpreter(
            module, max_steps=200_000_000).run_main(name), repeats)
        cold_s = best_of(lambda fresh: JitCompiler(fresh).run_main(name),
                         repeats, warmup=0,
                         setup=lambda: load_module(wire))
        warm_s = best_of(lambda: JitCompiler(module).run_main(name),
                         repeats)
        rows.append((name, interp_s, cold_s, warm_s))
    return rows
