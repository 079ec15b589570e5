"""Primitive-op traces of the bit codec, for the differential tests.

A trace is the exact sequence of ``write_bounded`` / ``write_gamma`` /
``write_bits`` / ... calls the serializer makes while externalising
modules, recorded as ``(tag, *args)`` tuples.  Replaying a trace
through a writer or a reader drives a codec under the format's real
field-width distribution, so two codecs can be compared op for op:
``tests/test_codec_rewrite.py`` replays traces through the shipped
codec and through ``bitio_reference``.
"""

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.driver import CompilationSession
from repro.encode.bitio import BitReader, BitWriter


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

    Returns ``(ops, stream)`` where ``stream`` is the bit stream the
    trace replays to through the shipped writer.
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
