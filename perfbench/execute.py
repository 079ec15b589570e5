"""The ``execute`` workload: the loop-heavy corpus under every tier.

BitSieve, Linpack and MiniVM are compiled and loaded once per set-up,
and each set-up warms one ``TraceCache`` per program by running it
under the trace tier (the first of those runs is the cold recording).
The timed loop then runs rounds; a round runs every (program, tier)
cell once, in a seeded order, where a cell is the program's ``main``
repeated ``REPS[program]`` times on fresh ``Interpreter``,
``JitCompiler`` or ``TracingInterpreter`` instances, followed by twenty
cold ``load_module`` calls of each program.  Each cell, and each load
of the three modules, is a segment between two host-speed readings
(:class:`perfbench.common.HostSpeed`).  Every run's stdout is checked
against the bytecode baseline, and the trace tier's step and check
counts against the interpreter's.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from repro.bench.corpus import corpus_source
from repro.cache import TraceCache
from repro.driver import CompilationSession
from repro.interp import Interpreter, JitCompiler
from repro.interp.trace import TracingInterpreter
from repro.loader import load_module

from perfbench.common import (
    HostSpeed,
    Outcomes,
    bytecode_reference,
    geomean,
    quantile,
    repeated_setup,
    summarize,
)

#: runs of ``main`` per cell: short programs repeat until a cell takes
#: a time comparable to one interpreted BitSieve
REPS = {"BitSieve": 1, "Linpack": 4, "MiniVM": 50}
TIERS = ("interp", "jit", "trace")
MAX_STEPS = 80_000_000
#: cold loads of the three modules per round; one verdict sample is
#: the time to load all three
LOADS = 20


class _Program:
    def __init__(self, name: str):
        self.name = name
        self.source = corpus_source(name)
        self.reps = REPS[name]
        self.wire = b""
        self.module = None
        self.trace_cache = None
        self.blacklisted = 0


class ExecuteWorkload:
    def __init__(self, seed: int):
        self.seed = seed
        self.outcomes = Outcomes()
        self.speed = HostSpeed()
        self.programs = [_Program(name) for name in REPS]
        self.record_s = {name: [] for name in REPS}

    def _runner(self, tier: str, program: _Program):
        if tier == "interp":
            return Interpreter(program.module, max_steps=MAX_STEPS)
        if tier == "jit":
            return JitCompiler(program.module)
        return TracingInterpreter(program.module, max_steps=MAX_STEPS,
                                  trace_cache=program.trace_cache)

    def setup(self) -> float:
        """Compile, load and warm a trace cache for every program."""
        start = perf_counter()
        for program in self.programs:
            session = CompilationSession(optimize=True, cache=False)
            program.wire = session.encode(session.compile(program.source))
            program.module = load_module(program.wire, cache=False)
            program.trace_cache = TraceCache()
            # the runs that record also decide the blacklist verdicts;
            # warm runs preload those verdicts without counting them
            program.blacklisted = 0
            for rep in range(program.reps):
                runner = self._runner("trace", program)
                record = perf_counter()
                runner.run_main(program.name)
                if rep == 0:
                    self.record_s[program.name].append(
                        perf_counter() - record)
                program.blacklisted += runner.trace_stats()["blacklisted"]
        return perf_counter() - start

    def run(self, seconds: float) -> dict:
        setups = repeated_setup(self.speed, self.setup)
        references = {}
        accounting = {}
        for program in self.programs:
            references[program.name] = bytecode_reference(
                program.source, program.name, MAX_STEPS)
            interp = self._runner("interp", program)
            interp.run_main(program.name)
            accounting[program.name] = (interp.steps,
                                        dict(interp.check_counts))
        cells = {(p.name, tier): [] for p in self.programs
                 for tier in TIERS}
        loads = {p.name: [] for p in self.programs}
        trace_stats = {}
        order = [(p, tier) for p in self.programs for tier in TIERS]
        speed = self.speed
        # what set-up built lives through the run: the collector skips it,
        # so the gc.collect() before each load sample costs little
        gc.collect()
        gc.freeze()
        try:
            speed.checkpoint()
            deadline = perf_counter() + seconds
            rounds = 0
            while rounds == 0 or perf_counter() < deadline:
                self._round(rounds, order, cells, loads, references,
                            accounting, trace_stats)
                rounds += 1
        finally:
            gc.unfreeze()
        return self._metrics(setups, cells, loads, rounds, accounting,
                             trace_stats)

    def _round(self, rounds, order, cells, loads, references, accounting,
               trace_stats) -> None:
        speed = self.speed
        random.Random(self.seed * 1_000_003 + rounds).shuffle(order)
        for program, tier in order:
            runs = []
            start = perf_counter()
            for _ in range(program.reps):
                runner = self._runner(tier, program)
                runs.append((runner, runner.run_main(program.name)))
            speed.add(cells[(program.name, tier)], perf_counter() - start)
            speed.checkpoint()
            for runner, result in runs:
                self._check(tier, program, runner, result,
                            references, accounting)
            if tier == "trace":
                trace_stats[program.name] = runner.trace_stats()
        for _ in range(LOADS):
            # every sample starts from the same collector state; else a
            # full collection lands in about one load in ten and moves p90
            gc.collect()
            speed.checkpoint()
            for program in self.programs:
                start = perf_counter()
                load_module(program.wire, cache=False)
                speed.add(loads[program.name], perf_counter() - start)
            speed.checkpoint()

    def _check(self, tier, program, runner, result, references,
               accounting) -> None:
        observed = (result.stdout, result.exception_name())
        if observed != references[program.name]:
            self.outcomes.fail("wrong-output")
        elif tier != "jit" and (runner.steps, dict(runner.check_counts)) \
                != accounting[program.name]:
            self.outcomes.fail("accounting-divergence")
        else:
            self.outcomes.ok()

    def _metrics(self, setups, cells, loads, rounds, accounting,
                 trace_stats) -> dict:
        median_s = {cell: statistics.median(times)
                    for cell, times in cells.items()}
        load_ms = [sum(times) * 1e3 for times in zip(*loads.values())]
        timed = sum(sum(times) for times in cells.values())
        e2e = {
            "setup_s": statistics.median(setups),
            "success_rate": self.outcomes.success_rate,
            "latency_ms_p50": geomean(median_s.values()) * 1e3,
            "latency_ms_tail": max(median_s.values()) * 1e3,
            "throughput_per_s": rounds * len(cells) / timed,
            "wire_bytes": sum(len(p.wire) for p in self.programs),
            "verdict_ms_p50": statistics.median(load_ms),
            "verdict_ms_p90": quantile(load_ms, 0.90),
        }
        layers = {}
        for tier in TIERS:
            layers[f"tier.{tier}.s"] = geomean(
                median_s[(p.name, tier)] for p in self.programs)
            for program in self.programs:
                layers[f"{tier}.{program.name}.s"] = \
                    median_s[(program.name, tier)]
        layers["loader.ms"] = sum(statistics.median(times) * 1e3
                                  for times in loads.values())
        layers["interp.steps"] = sum(steps for steps, _ in
                                     accounting.values())
        for kind in ("nullcheck", "idxcheck", "upcast"):
            layers[f"interp.checks.{kind}"] = sum(
                checks[kind] for _, checks in accounting.values())
        layers["interp.checks"] = sum(
            sum(checks.values()) for _, checks in accounting.values())
        for key in ("entries", "trips", "preloaded"):
            layers[f"trace.{key}"] = sum(stats[key] for stats
                                         in trace_stats.values())
        layers["trace.blacklisted"] = sum(p.blacklisted
                                          for p in self.programs)
        layers["trace.trips_per_entry"] = \
            layers["trace.trips"] / layers["trace.entries"] \
            if layers["trace.entries"] else 0.0
        layers["trace.record_ms"] = self.speed.factor() * sum(
            statistics.median(times) * 1e3
            for times in self.record_s.values())
        samples = {"setup_s": setups, "verdict_ms": load_ms}
        samples.update({f"{tier}.{name}.s": times
                        for (name, tier), times in cells.items()})
        return {"end_to_end": e2e, "per_layer": layers,
                "samples": {key: summarize(values)
                            for key, values in samples.items()},
                "detail": {"rounds": rounds,
                           "host_speed": self.speed.report(),
                           "reps": dict(REPS),
                           "trace_stats": trace_stats}}
