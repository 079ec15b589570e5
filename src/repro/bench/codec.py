"""Codec throughput benchmark: the bit codec, the module path and the
compilation cache.

The honest unit of measurement for the bit codec is the *primitive-op
trace*: the exact sequence of ``write_bounded`` / ``write_gamma`` /
``write_bits`` / ... calls the serializer makes while externalising the
corpus.  Replaying that trace times the codec alone under the format's
real field-width distribution (about four bits per symbol), without
attributing serializer or deserializer object construction to it.  The
module-path numbers (full ``encode_module`` / ``decode_module``
wall-clock) are reported alongside for the end-to-end view.
"""

from __future__ import annotations

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import TRANSMITTED_FLAGS, bench_repeats, best_of
from repro.cache import CompilationCache
from repro.driver import CompilationSession
from repro.encode.bitio import BitReader, BitWriter
from repro.encode.deserializer import decode_module
from repro.encode.serializer import encode_module
from repro.tsa.verifier import verify_module

#: (writer method, reader method) per trace-op tag.
_OPS = {
    "bits": ("write_bits", "read_bits"),
    "bounded": ("write_bounded", "read_bounded"),
    "gamma": ("write_gamma", "read_gamma"),
    "sgamma": ("write_signed_gamma", "read_signed_gamma"),
    "flag": ("write_flag", "read_flag"),
    "bytes": ("write_bytes", "read_bytes"),
}


def _tracing_writer(ops: list):
    """A BitWriter subclass recording every top-level primitive op."""

    class Tracer(BitWriter):
        _depth = 0  # write_signed_gamma calls write_gamma: record once

        def _record(self, tag, args):
            if Tracer._depth == 0:
                ops.append((tag,) + args)

    def _wrap(tag, method_name):
        base = getattr(BitWriter, method_name)

        def method(self, *args):
            self._record(tag, args)
            Tracer._depth += 1
            try:
                return base(self, *args)
            finally:
                Tracer._depth -= 1
        return method

    for tag, (writer_method, _reader_method) in _OPS.items():
        setattr(Tracer, writer_method, _wrap(tag, writer_method))
    return Tracer


def capture_corpus_trace(programs=None):
    """Compile the corpus (both transmitted forms) and record the write
    trace.

    Returns ``(ops, stream)`` where ``stream`` is the replayed bit
    stream all further measurements run against.
    """
    from repro.encode import serializer

    ops: list = []
    modules = []
    unpruned = CompilationSession(prune_phis=False, cache=False)
    optimizing = CompilationSession(optimize=True, cache=False)
    for name in (programs or CORPUS_PROGRAMS):
        source = corpus_source(name)
        modules.append(unpruned.compile(source))
        modules.append(optimizing.compile(source))
    tracer = _tracing_writer(ops)
    original = serializer.BitWriter
    serializer.BitWriter = tracer
    try:
        for module in modules:
            serializer.encode_module(module)
    finally:
        serializer.BitWriter = original
    return ops, replay_write(BitWriter, ops)


def _write_calls(writer, ops):
    return [(getattr(writer, _OPS[op[0]][0]), op[1:]) for op in ops]


def _read_calls(reader, ops):
    calls = []
    for op in ops:
        tag = op[0]
        method = getattr(reader, _OPS[tag][1])
        if tag in ("gamma", "sgamma", "flag"):
            calls.append((method, ()))
        elif tag == "bytes":
            calls.append((method, (len(op[1]),)))
        else:  # bits / bounded read back their width argument
            calls.append((method, (op[-1],)))
    return calls


def _run_calls(calls) -> None:
    for method, args in calls:
        method(*args)


def replay_write(writer_class, ops) -> bytes:
    writer = writer_class()
    _run_calls(_write_calls(writer, ops))
    return writer.getvalue()


def replay_read(reader_class, ops, stream) -> None:
    _run_calls(_read_calls(reader_class(stream), ops))


def check_read_values(ops, stream) -> None:
    """Replay the trace asserting every decoded value (used by tests)."""
    reader = BitReader(stream)
    for op in ops:
        tag = op[0]
        method = getattr(reader, _OPS[tag][1])
        if tag in ("gamma", "sgamma", "flag"):
            value = method()
        elif tag == "bytes":
            value = method(len(op[1]))
        else:
            value = method(op[-1])
        if value != op[1]:
            raise AssertionError(f"replayed {op} but read {value!r}")


def measure_codec_throughput(programs=None, repeats: int = 3) -> dict:
    """Trace-replay MB/s of the codec.  Each timed run replays the trace
    against a fresh writer or reader whose bound methods are resolved
    off the clock, so the number is the codec's, not dispatch's."""
    ops, stream = capture_corpus_trace(programs)
    size = len(stream)

    def replay(setup) -> float:
        return best_of(_run_calls, repeats, setup=setup)

    seconds = {
        "encode": replay(lambda: _write_calls(BitWriter(), ops)),
        "decode": replay(lambda: _read_calls(BitReader(stream), ops)),
    }
    mbps = {key: size / secs / 1e6 for key, secs in seconds.items()}
    return {
        "trace_ops": len(ops),
        "stream_bytes": size,
        "encode_mbps": round(mbps["encode"], 3),
        "decode_mbps": round(mbps["decode"], 3),
    }


def codec_report(programs=None, repeats=None) -> dict:
    """All the numbers behind ``BENCH_codec.json``."""
    repeats = bench_repeats(repeats)
    programs = list(programs or CORPUS_PROGRAMS)
    report: dict = {"programs": programs, "repeats": repeats}

    # 1. the codec itself: trace replay.  Replaying the trace is cheap,
    # so take at least five repeats: on a busy single-CPU machine three
    # minima still carry visible noise.
    report["codec"] = measure_codec_throughput(programs,
                                               repeats=max(repeats, 5))

    # 2. the module path: full encode/decode plus per-stage compile time
    sessions = [CompilationSession(cache=False, **flags)
                for flags in TRANSMITTED_FLAGS]
    modules = [session.compile(corpus_source(name))
               for name in programs for session in sessions]
    stage_seconds: dict = {}
    for session in sessions:
        for stage, seconds in session.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    wires = [encode_module(module) for module in modules]
    stage_seconds["encode"] = best_of(
        lambda: [encode_module(module) for module in modules], repeats)
    stage_seconds["decode"] = best_of(
        lambda: [decode_module(wire) for wire in wires], repeats)
    stage_seconds["verify"] = best_of(
        lambda: [verify_module(module) for module in modules], repeats)
    wire_bytes = sum(len(wire) for wire in wires)
    report["module_path"] = {
        "modules": len(modules),
        "wire_bytes": wire_bytes,
        "encode_mbps": round(
            wire_bytes / stage_seconds["encode"] / 1e6, 3),
        "decode_mbps": round(
            wire_bytes / stage_seconds["decode"] / 1e6, 3),
        "stage_seconds": {stage: round(seconds, 4)
                          for stage, seconds in stage_seconds.items()},
    }

    # 3. the compilation cache.  Cold: the corpus's compile+encode work,
    # best of ``repeats``.  Warm: the same compiles through a cache that
    # best_of's warmup round fills.
    jobs = [(corpus_source(name), flags)
            for name in programs for flags in TRANSMITTED_FLAGS]
    cold_s = best_of(lambda: [encode_module(CompilationSession(
        cache=False, **flags).compile(source)) for source, flags in jobs],
        repeats, warmup=0)
    cache = CompilationCache()
    warm_s = best_of(lambda: [CompilationSession(
        cache=cache, **flags).compile(source) for source, flags in jobs],
        repeats)
    report["cache"] = {
        "corpus_compiles": len(jobs),
        "cold_serial_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "hit_rate": round(cache.hit_rate, 4),
        **{key: value for key, value in cache.stats().items()
           if key != "hit_rate"},
    }
    return report


def codec_table(report: dict) -> str:
    codec = report["codec"]
    cache = report["cache"]
    return "\n".join([
        f"  trace encode   {codec['encode_mbps']:7.3f} MB/s",
        f"  trace decode   {codec['decode_mbps']:7.3f} MB/s",
        f"  corpus compile {cache['cold_serial_seconds']:.2f}s cold, "
        f"{cache['warm_seconds']:.2f}s from cache "
        f"(hit rate {cache['hit_rate']:.0%})",
    ])
