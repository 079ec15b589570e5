"""The ``request`` workload: ROADMAP E0, one cold mobile-code request at
a time in a closed loop with one client.

Each unit of the seeded draw goes compile (``cache=False``, default
passes) -> ``ModuleStore.put`` + ``PublishLog.append`` on an on-disk
store -> ``ModuleStore.get`` through a fresh reader -> consumer.  For an
honest unit the consumer is ``load_module(cache=False)`` then
``Interpreter.run_main``, and the request's wall time is one sample.
One unit in four is hostile: after the fetch, the delivered bytes are
replaced by a seeded ``mutate_stream`` mutant and only the loader's time
from those bytes to a verdict is a sample.  Samples are scaled to the
reference host speed by readings of the speed kernel taken between
requests and just before each verdict
(:class:`perfbench.common.HostSpeed`).

The draw is unbounded: unit ``i`` is ``generate_seeded`` program
``seed * 1000003 + i``, except that every 32nd unit is one of the eight
short corpus programs (in a seeded order).  Its first ``DRAW_UNITS``
units are the fixed draw whose total v1 bytes (``wire_bytes``) and
digest fingerprint are exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from repro.analysis.diagnostics import codes_equivalent
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import CompilationSession
from repro.encode.deserializer import DecodeError, decode_module
from repro.fuzz.gen import RandomSource, generate_seeded
from repro.fuzz.mutate import mutate_stream
from repro.interp import Interpreter
from repro.loader import load_module
from repro.serve.log import PublishLog
from repro.serve.store import ModuleStore
from repro.tsa.verifier import VerifyError, verify_module

from perfbench.common import (
    HostSpeed,
    Outcomes,
    Tracer,
    bytecode_reference,
    error_cause,
    quantile,
    repeated_setup,
    summarize,
)

#: units whose bytes, digests and IR sizes are summed exactly
DRAW_UNITS = 256
#: every 32nd unit is a short corpus program
CORPUS_EVERY = 32
#: unit ``i`` is hostile when ``i % HOSTILE_EVERY == HOSTILE_SLOT``
HOSTILE_EVERY = 4
HOSTILE_SLOT = 1
#: the corpus programs that run in milliseconds
SHORT_CORPUS = tuple(name for name in CORPUS_PROGRAMS
                     if name not in ("BitSieve", "Linpack"))
MAX_STEPS = 5_000_000
SIGNING_KEY = b"perfbench-publisher"
TENANT = "perfbench"

#: the layer spans of one honest request, in call order
LAYERS = ("frontend", "ssa", "opt", "encode", "store.put", "log.append",
          "store.get", "loader.accept", "interp")
PASSES = ("constprop", "safephi", "cse", "dce", "cleanup")


def draw_unit(seed: int, index: int) -> tuple[str, str, str]:
    """``(name, source, main class)`` of unit ``index`` of the draw."""
    if index % CORPUS_EVERY == CORPUS_EVERY - 1:
        order = list(SHORT_CORPUS)
        random.Random(seed).shuffle(order)
        name = order[(index // CORPUS_EVERY) % len(order)]
        return name, corpus_source(name), name
    program = generate_seeded(seed * 1_000_003 + index)
    return f"gen-{index}", program.source, program.main_class


def is_hostile(index: int) -> bool:
    return index % HOSTILE_EVERY == HOSTILE_SLOT


def compile_wire(source: str) -> bytes:
    session = CompilationSession(optimize=True, cache=False)
    return session.encode(session.compile(source))


def fingerprint(digests) -> str:
    """sha256 over the per-unit wire digests of the draw, in order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def draw_fingerprint(seed: int) -> dict:
    """Compile the fixed draw from scratch: its fingerprint and bytes.
    Run in a subprocess under another ``PYTHONHASHSEED``."""
    digests, total = [], 0
    for index in range(DRAW_UNITS):
        wire = compile_wire(draw_unit(seed, index)[1])
        digests.append(hashlib.sha256(wire).hexdigest())
        total += len(wire)
    return {"fingerprint": fingerprint(digests), "wire_bytes": total}


def phi_count(module) -> int:
    return sum(len(block.phis) for function in module.functions.values()
               for block in function.reachable_blocks())


def _verdict(load, data: bytes):
    """``("accept", None)`` or ``("reject", code)``; anything else
    raises."""
    try:
        load(data)
    except (DecodeError, VerifyError) as error:
        return "reject", error.code
    return "accept", None


def _two_pass(data: bytes) -> None:
    """The reference verdict: full decode, then the full verifier."""
    verify_module(decode_module(data))


class _Publisher:
    """One on-disk module store and its publish log."""

    def __init__(self, root: Path):
        self.root = root
        self.store = ModuleStore(str(root))
        self.log = PublishLog(SIGNING_KEY, path=str(root / "log.jsonl"))


class RequestWorkload:
    def __init__(self, root: Path, seed: int, traced: bool):
        self.root = root
        self.seed = seed
        self.traced = traced
        self.work = root / ".perfbench_work" / f"request-{os.getpid()}"
        self.tracer = Tracer(False)
        self.outcomes = Outcomes()
        self.speed = HostSpeed()
        self._blocks = 0
        self._references: dict[str, tuple] = {}

    # -- one request ----------------------------------------------------

    def _publisher(self) -> _Publisher:
        self._blocks += 1
        return _Publisher(self.work / f"store-{self._blocks}")

    def _produce(self, name: str, source: str, publisher: _Publisher):
        """Producer half plus the fetch: the bytes the consumer gets."""
        span = self.tracer.span
        session = CompilationSession(optimize=True, cache=False)
        with span("frontend"):
            session.frontend(source)
        with span("ssa"):
            module = session.build_module(source)
        with span("opt"):
            session.optimize(module)
        with span("encode"):
            wire = session.encode(module)
        with span("store.put"):
            digest = publisher.store.put(wire)
        with span("log.append"):
            publisher.log.append(name=name, tenant=TENANT, digest=digest,
                                 format_version="stsa1", size=len(wire))
        with span("store.get"):
            fetched = ModuleStore(str(publisher.root)).get(digest)
        return session, module, wire, fetched

    def _consume(self, fetched: bytes, main_class: str):
        span = self.tracer.span
        with span("loader.accept"):
            loaded = load_module(fetched, cache=False)
        with span("interp"):
            interp = Interpreter(loaded, max_steps=MAX_STEPS)
            result = interp.run_main(main_class)
        return interp, result

    def _reference(self, name: str, source: str, main_class: str):
        cached = self._references.get(name)
        if cached is None:
            cached = bytecode_reference(source, main_class, MAX_STEPS)
            if name in SHORT_CORPUS:
                self._references[name] = cached
        return cached

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Open a store and log, then run three fixed warm-up requests
        so lazy imports and first-use tables are built before timing.
        Returns its own seconds."""
        start = perf_counter()
        publisher = self._publisher()
        warm = [("warm-0", generate_seeded(-1).source, "Main"),
                ("Environment", corpus_source("Environment"),
                 "Environment"),
                ("MiniVM", corpus_source("MiniVM"), "MiniVM")]
        for name, source, main_class in warm:
            _s, _m, _w, fetched = self._produce(name, source, publisher)
            self._consume(fetched, main_class)
        return perf_counter() - start

    # -- the run --------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setups = repeated_setup(self.speed, self.setup)
            return self._measure(seconds, setups)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    def _measure(self, seconds: float, setups: list[float]) -> dict:
        tally = _Tally()
        deadline = perf_counter() + seconds
        index = 0
        while perf_counter() < deadline:
            if index % DRAW_UNITS == 0:
                # a fresh store per pass over the draw keeps every put a
                # disk write; the traced run gives its twin its own
                publishers = [self._publisher()
                              for _ in range(1 + self.traced)]
            unit = draw_unit(self.seed, index)
            try:
                if is_hostile(index):
                    self._hostile(index, unit, publishers[0], tally)
                else:
                    self._honest(index, unit, publishers, tally)
            except Exception as error:  # any raw escape is a failure
                self.outcomes.fail_exception(error)
            index += 1
        self._finish_draw(tally.draw)
        hashed = self._hash_seed_check(tally.draw)
        return self._metrics(setups, tally, hashed)

    def _honest(self, index: int, unit, publishers, tally) -> None:
        """One honest unit.  The traced run requests it twice, plain and
        span-instrumented in alternating order, so tracing overhead is
        measured on identical programs."""
        name, source, main_class = unit
        modes = [False, True] if self.traced else [False]
        if index % 2:
            modes.reverse()
        walls = {}
        for traced in modes:
            self.tracer.enabled = traced
            self.tracer.request = index
            before = len(self.tracer.records)
            try:
                start = perf_counter()
                session, module, wire, fetched = self._produce(
                    name, source, publishers[traced])
                interp, result = self._consume(fetched, main_class)
                elapsed = perf_counter() - start
            except BaseException:
                del self.tracer.records[before:]
                raise
            finally:
                self.tracer.enabled = False
            walls[traced] = elapsed
            if not traced:
                self.speed.add(tally.honest_ms, elapsed * 1e3)
                self.speed.add(tally.timed, elapsed)
            self.speed.checkpoint()
            # -- outside the timed region ------------------------------
            good = fetched == wire and self._reference(
                name, source, main_class) == (result.stdout,
                                              result.exception_name())
            self._record(good, "wrong-output")
            if traced:
                tally.traced_ms.append(elapsed * 1e3)
                tally.add_passes(session.pass_report())
                continue
            tally.units += 1
            if index < DRAW_UNITS:
                _count_draw(tally.draw, index, wire, module, interp)
        if len(walls) == 2:
            tally.overheads.append(walls[True] / walls[False])

    def _hostile(self, index: int, unit, publisher, tally) -> None:
        """One hostile unit: honest production and fetch, then the
        fetched bytes are swapped for a mutant and only the loader's
        time to a verdict is a sample."""
        name, source, _main_class = unit
        start = perf_counter()
        _session, module, wire, fetched = self._produce(name, source,
                                                        publisher)
        produced = perf_counter() - start
        self.speed.add(tally.timed, produced)
        mutant = mutate_stream(fetched, RandomSource(
            self.seed * 1_000_003 + index))[1]
        self.speed.checkpoint()
        start = perf_counter()
        verdict = _verdict(lambda data: load_module(data, cache=False),
                           mutant)
        verdict_s = perf_counter() - start
        self.speed.add(tally.timed, verdict_s)
        self.speed.add(tally.verdict_ms, verdict_s * 1e3)
        self.speed.checkpoint()
        # -- outside the timed region ----------------------------------
        tally.units += 1
        tally.rejected += verdict[0] == "reject"
        try:
            expected = _verdict(_two_pass, mutant)
        except Exception as error:
            expected = ("raw", error_cause(error))
        good = fetched == wire and verdict[0] == expected[0] and (
            verdict[0] == "accept"
            or codes_equivalent(verdict[1], expected[1]))
        self._record(good, "wrong-verdict")
        if index < DRAW_UNITS:
            _count_draw(tally.draw, index, wire, module, None)

    def _record(self, good: bool, cause: str) -> None:
        if good:
            self.outcomes.ok()
        else:
            self.outcomes.fail(cause)

    # -- the exact draw -------------------------------------------------

    def _finish_draw(self, draw: dict) -> None:
        """Units of the draw the run did not reach (or that failed) are
        compiled untimed, so the exact counts always cover all of it."""
        for index in range(DRAW_UNITS):
            if index in draw["digests"]:
                continue
            name, source, main_class = draw_unit(self.seed, index)
            try:
                session = CompilationSession(optimize=True, cache=False)
                module = session.compile(source)
                wire = session.encode(module)
                interp = None
                if not is_hostile(index):
                    interp = Interpreter(load_module(wire, cache=False),
                                         max_steps=MAX_STEPS)
                    interp.run_main(main_class)
            except Exception as error:
                self.outcomes.fail_exception(error)
                continue
            _count_draw(draw, index, wire, module, interp)

    def _hash_seed_check(self, draw: dict) -> dict:
        """Recompile the draw in a subprocess under a different
        ``PYTHONHASHSEED``: wire bytes must not depend on it."""
        current = os.environ.get("PYTHONHASHSEED")
        other = "1" if current != "1" else "2"
        env = dict(os.environ, PYTHONHASHSEED=other)
        env.pop("REPRO_CACHE_DIR", None)
        command = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--fingerprint", "--seed", str(self.seed)]
        completed = subprocess.run(command, cwd=self.root, env=env,
                                   capture_output=True, text=True,
                                   timeout=150)
        mine = fingerprint(draw["digests"].get(index, "-")
                           for index in range(DRAW_UNITS))
        try:
            theirs = json.loads(completed.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            theirs = {"fingerprint": None, "wire_bytes": None}
        same = theirs["fingerprint"] == mine \
            and theirs["wire_bytes"] == draw["wire_bytes"]
        self._record(same, "hash-seed-divergence")
        return {"fingerprint": mine, "other_pythonhashseed": other,
                "other_fingerprint": theirs["fingerprint"],
                "identical": same}

    # -- metrics --------------------------------------------------------

    def _metrics(self, setups, tally, hashed) -> dict:
        honest_ms, verdict_ms = tally.honest_ms, tally.verdict_ms
        draw = tally.draw
        samples = {"setup_s": setups, "latency_ms": honest_ms,
                   "verdict_ms": verdict_ms}
        e2e = {
            "setup_s": statistics.median(setups),
            "success_rate": self.outcomes.success_rate,
            "latency_ms_p50": statistics.median(honest_ms)
            if honest_ms else None,
            "latency_ms_tail": quantile(honest_ms, 0.95)
            if honest_ms else None,
            "throughput_per_s": tally.units / sum(tally.timed)
            if tally.timed else None,
            "wire_bytes": draw["wire_bytes"],
            "verdict_ms_p50": statistics.median(verdict_ms)
            if verdict_ms else None,
            "verdict_ms_p90": quantile(verdict_ms, 0.90)
            if verdict_ms else None,
        }
        layers = {
            "ir.instructions": draw["instructions"],
            "ir.phis": draw["phis"],
            "interp.steps": draw["steps"],
            "interp.checks": draw["checks"],
            "loader.reject_frac": tally.rejected / len(verdict_ms)
            if verdict_ms else 0.0,
            "loader.reject.ms": statistics.mean(verdict_ms)
            if verdict_ms else 0.0,
        }
        if self.traced and tally.traced_ms:
            layers.update(self._layer_split(tally))
            samples["traced_latency_ms"] = tally.traced_ms
        return {"end_to_end": e2e, "per_layer": layers,
                "samples": {key: summarize(values)
                            for key, values in samples.items()},
                "detail": {"fingerprint": hashed, "units": tally.units,
                           "host_speed": self.speed.report(),
                           "hostile": len(verdict_ms),
                           "rejected": tally.rejected,
                           "draw_units": DRAW_UNITS}}

    def _layer_split(self, tally) -> dict:
        """Mean milliseconds per traced request for each layer span,
        and what no span covers, scaled by the run's median host-speed
        factor."""
        count = len(tally.traced_ms)
        scale = self.speed.factor() / count
        totals = self.tracer.totals()
        wall_ms = sum(tally.traced_ms)
        layers = {}
        covered = 0.0
        for layer in LAYERS:
            spent = totals.get(layer, 0.0) * 1e3
            covered += spent
            layers[f"{layer}.ms"] = spent * scale
        layers["other.ms"] = (wall_ms - covered) * scale
        layers["span_coverage"] = covered / wall_ms
        for pass_name in PASSES:
            layers[f"opt.{pass_name}.ms"] = \
                tally.pass_seconds[pass_name] * 1e3 * scale
        computed, hits = tally.analysis
        layers["analysis.consumers_per_computed"] = \
            (computed + hits) / computed if computed else 0.0
        layers["tracing.overhead"] = statistics.median(tally.overheads)
        if layers["span_coverage"] < 0.95:
            self.outcomes.fail("span-coverage-below-95pct")
        return layers


class _Tally:
    """What one run of the loop accumulates."""

    def __init__(self):
        self.honest_ms: list[float] = []   # plain honest requests, scaled
        self.traced_ms: list[float] = []   # span-instrumented twins, raw
        self.overheads: list[float] = []   # traced / plain, per unit
        self.verdict_ms: list[float] = []  # hostile units, scaled
        self.rejected = 0
        self.timed: list[float] = []       # scaled seconds per unit
        self.units = 0
        self.pass_seconds = {name: 0.0 for name in PASSES}
        self.analysis = [0, 0]             # computed, hits
        self.draw = {"digests": {}, "wire_bytes": 0, "instructions": 0,
                     "phis": 0, "steps": 0, "checks": 0}

    def add_passes(self, report: dict) -> None:
        for name in PASSES:
            self.pass_seconds[name] += report["pass_seconds"].get(name, 0.0)
        self.analysis[0] += report["analysis_cache"]["computed"]
        self.analysis[1] += report["analysis_cache"]["hits"]


def _count_draw(draw: dict, index: int, wire: bytes, module,
                interp) -> None:
    draw["digests"][index] = hashlib.sha256(wire).hexdigest()
    draw["wire_bytes"] += len(wire)
    draw["instructions"] += module.instruction_count()
    draw["phis"] += phi_count(module)
    if interp is not None:
        draw["steps"] += interp.steps
        draw["checks"] += sum(interp.check_counts.values())

