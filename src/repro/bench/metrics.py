"""Per-class measurements behind Figures 5 and 6.

For every corpus program this module compiles three artifacts from the
same source -- the Java-bytecode baseline, plain SafeTSA, and optimised
SafeTSA -- and collects, per class:

* file size in bytes (real ``.class`` bytes vs attributed SafeTSA wire
  bits) and instruction counts (Figure 5);
* phi, null-check and array-check instruction counts before and after
  producer-side optimisation (Figure 6).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Optional

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.serializer import encode_module
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.semantics import analyze
from repro.jvm.classfile import class_file_bytes
from repro.jvm.codegen import compile_unit
from repro.pipeline import compile_to_module, pipeline_cache_key
from repro.ssa.ir import Module
from repro.uast.builder import UastBuilder

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

    # bytecode baseline
    unit = parse_compilation_unit(source)
    world = analyze(unit)
    builder = UastBuilder(world)
    per_class = {decl.info: builder.build_class(decl)
                 for decl in unit.classes}
    compiled = compile_unit(world, per_class)

    # the unoptimised transmitted form keeps the eager (B&M) phis;
    # pruning is part of the producer-side optimisation (Figure 6)
    plain = compile_to_module(source, prune_phis=False, cache=cache)
    optimized = compile_to_module(source, optimize=True, cache=cache)
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


def compile_wire_job(job) -> bytes:
    """Worker: one cold compile, returned as picklable wire bytes."""
    source, flags = job
    return encode_module(compile_to_module(source, cache=False, **flags))


def pool_map(fn, items) -> tuple[list, int]:
    """``[fn(item) for item in items]`` across a process pool with one
    worker per CPU (at most one per item).

    Compilation is pure CPU, so processes, not threads, are the
    executor.  Workers are spawned, not forked -- the calling process
    may have threads -- so ``fn`` must be importable, the items must
    pickle, and each worker runs under its own hash seed.  Results come
    back in item order.  Returns ``(results, workers)``, where
    ``workers`` is the pool size that actually ran: 1 means the plain
    serial loop did -- on a single CPU, for a single item, or where a
    process pool cannot start or breaks (restricted sandboxes).
    """
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items))
    if workers > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context(
                        "spawn")) as pool:
                return list(pool.map(fn, items)), workers
        except (OSError, NotImplementedError,
                concurrent.futures.process.BrokenProcessPool):
            pass
    return [fn(item) for item in items], 1


def warm_cache(cache, jobs) -> int:
    """Fill ``cache`` by compiling ``jobs`` (source, flags) pairs across
    :func:`pool_map`, wire bytes being the picklable result.
    Already-cached jobs are skipped; returns how many compiles ran."""
    pending = [(source, flags) for source, flags in jobs
               if cache.get(pipeline_cache_key(cache, source, **flags))
               is None]
    wires, _ = pool_map(compile_wire_job, pending)
    for (source, flags), wire in zip(pending, wires):
        cache.put(pipeline_cache_key(cache, source, **flags), wire)
    return len(pending)


def corpus_compile_jobs(programs=None) -> list:
    """(source, flags) for every transmitted form of the corpus."""
    return [(corpus_source(program), dict(flags))
            for program in (programs or CORPUS_PROGRAMS)
            for flags in TRANSMITTED_FLAGS]


def measure_corpus(programs=None, *, cache=None) -> list[ClassMetrics]:
    """Measure every corpus program (the full Figure 5 / 6 data set).

    With a ``cache``, the corpus's SafeTSA compiles are first warmed
    across a process pool, so the serial measurement loop below runs on
    cache hits (decode-only).
    """
    programs = programs or CORPUS_PROGRAMS
    if cache:
        warm_cache(cache, corpus_compile_jobs(programs))
    rows: list[ClassMetrics] = []
    for program in programs:
        rows.extend(measure_program(program, cache=cache))
    return rows
