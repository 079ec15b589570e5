"""Codec throughput benchmark: word-at-a-time vs the seed codec.

The honest unit of comparison for the bit codec is the *primitive-op
trace*: the exact sequence of ``write_bounded`` / ``write_gamma`` /
``write_bits`` / ... calls the serializer makes while externalising the
corpus.  Replaying that trace against both codecs times the codec alone
under the format's real field-width distribution (about four bits per
symbol), without attributing serializer or deserializer object
construction to either side.  The module-path numbers (full
``encode_module`` / ``decode_module`` wall-clock) are reported alongside
for the end-to-end view.

Both codecs must produce byte-identical streams for the replay to be
meaningful; :func:`capture_corpus_trace` asserts exactly that, which
also serves as a whole-corpus differential test of the rewrite.
"""

from __future__ import annotations

from time import perf_counter

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode._bitio_reference import (
    ReferenceBitReader,
    ReferenceBitWriter,
)
from repro.encode.bitio import BitReader, BitWriter
from repro.driver import CompilationSession

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
    """Compile the corpus (both transmitted forms), record the write
    trace, and check the two codecs agree byte-for-byte on it.

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
    stream = replay_write(BitWriter, ops)
    reference = replay_write(ReferenceBitWriter, ops)
    if stream != reference:
        raise AssertionError(
            "word-at-a-time and reference codecs produced different "
            "bytes for the corpus trace")
    return ops, stream


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


def replay_write(writer_class, ops) -> bytes:
    writer = writer_class()
    for method, args in _write_calls(writer, ops):
        method(*args)
    return writer.getvalue()


def replay_read(reader_class, ops, stream) -> None:
    reader = reader_class(stream)
    for method, args in _read_calls(reader, ops):
        method(*args)


def _timed_write(writer_class, ops) -> float:
    """Seconds for the op loop alone, with the bound methods resolved
    up front -- dispatch overhead would be charged equally to both
    codecs and compress the ratio between them."""
    writer = writer_class()
    calls = _write_calls(writer, ops)
    start = perf_counter()
    for method, args in calls:
        method(*args)
    return perf_counter() - start


def _timed_read(reader_class, ops, stream) -> float:
    reader = reader_class(stream)
    calls = _read_calls(reader, ops)
    start = perf_counter()
    for method, args in calls:
        method(*args)
    return perf_counter() - start


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


def _best_of(fn, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    return min(fn() for _ in range(repeats))


def measure_codec_throughput(programs=None, repeats: int = 3) -> dict:
    """Trace-replay MB/s for both codecs plus the speedup ratios."""
    ops, stream = capture_corpus_trace(programs)
    size = len(stream)
    seconds = {
        "encode": _best_of(lambda: _timed_write(BitWriter, ops), repeats),
        "decode": _best_of(lambda: _timed_read(BitReader, ops, stream),
                           repeats),
        "ref_encode": _best_of(
            lambda: _timed_write(ReferenceBitWriter, ops), repeats),
        "ref_decode": _best_of(
            lambda: _timed_read(ReferenceBitReader, ops, stream), repeats),
    }
    mbps = {key: size / secs / 1e6 for key, secs in seconds.items()}
    return {
        "trace_ops": len(ops),
        "stream_bytes": size,
        "encode_mbps": round(mbps["encode"], 3),
        "decode_mbps": round(mbps["decode"], 3),
        "ref_encode_mbps": round(mbps["ref_encode"], 3),
        "ref_decode_mbps": round(mbps["ref_decode"], 3),
        "encode_speedup": round(seconds["ref_encode"]
                                / seconds["encode"], 2),
        "decode_speedup": round(seconds["ref_decode"]
                                / seconds["decode"], 2),
        "combined_speedup": round(
            (seconds["ref_encode"] + seconds["ref_decode"])
            / (seconds["encode"] + seconds["decode"]), 2),
    }
