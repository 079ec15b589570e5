"""Wire-format v2 (``repro.encode.format`` + ``repro.loader.stream``).

The acceptance contract for the distribution layer:

* resolution is *containment*: every v2 unit reduces to exact v1 bytes
  that then pass through the unmodified verifying decoder, and the
  default encode path is still bit-for-bit v1;
* reject-or-equivalent extends to envelopes: a missing dictionary, a
  tampered or mismatched delta, a truncated envelope -- each dies with
  its registered stable code, checked both by targeted probes and by a
  seeded mutation campaign;
* streaming is just v1 decoding split across feeds: any chunking of
  any corpus artifact produces the identical module, every truncation
  rejects, and ``main`` can execute while later bodies are pending.
"""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import STABLE_CODES
from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.cache import CompilationCache, DictionaryStore
from repro.encode.common import MAGIC, MAGIC_V2, wire_format_version
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.format import (
    MAX_DICTIONARIES,
    MIN_DICTIONARY_BYTES,
    MODE_DELTA,
    MODE_FULL,
    blob_digest,
    build_shared_dictionary,
    encode_delta,
    encode_modules_v2,
    encode_v2,
    resolve_stream,
)
from repro.encode.serializer import encode_module
from repro.fuzz import run_campaign
from repro.interp.interpreter import Interpreter
from repro.loader import StreamingLoader, stream_module
from repro.tsa.verifier import verify_module


def _encode(source: str, optimize: bool = False) -> bytes:
    return encode_module(compile_source(source, optimize=optimize))


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


SMALL_SOURCE = ("class T { static int f(int a, int b) { return a / b; }"
                "  static int g(int n) { int s = 0;"
                "  for (int i = 0; i < n; i = i + 1) { s = s + i; }"
                "  return s; } }")

RUN_SOURCE = ("class Main {"
              "  static int helper(int x) { return x * 3; }"
              "  static void main() { System.out.println(helper(14)); }"
              "  static int epilogue(int x) { return x + 1; }"
              "}")


@pytest.fixture(scope="module")
def corpus_wires():
    """The 20 benchmark artifacts: every corpus program, unoptimised
    and optimised."""
    wires = {}
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        for optimize in (False, True):
            wires[(name, optimize)] = _encode(source, optimize)
    return wires


def _observed(module):
    result = Interpreter(module).run_main()
    return (result.stdout, result.exception_name())


# ======================================================================
# envelopes and deltas resolve to exact v1 bytes


class TestEnvelopeRoundTrip:
    def test_default_encode_is_still_v1(self):
        module = compile_source(SMALL_SOURCE)
        wire = encode_module(module)
        assert wire.startswith(MAGIC)
        assert encode_module(module, format_version="stsa1") == wire

    def test_unknown_format_version_rejected(self):
        module = compile_source(SMALL_SOURCE)
        with pytest.raises(ValueError):
            encode_module(module, format_version="stsa9")

    def test_self_contained_envelope(self):
        wire = _encode(RUN_SOURCE)
        store = DictionaryStore()
        envelope = encode_v2(wire, store=store)
        assert envelope.startswith(MAGIC_V2)
        assert resolve_stream(envelope, store) == wire
        module = decode_module(envelope, store=store)
        verify_module(module)
        assert _observed(module) == ("42\n", None)

    def test_dictionary_envelope(self):
        wire = _encode(RUN_SOURCE)
        store = DictionaryStore()
        envelope = encode_v2(wire, (wire[:60],), store=store)
        assert resolve_stream(envelope, store) == wire
        assert len(envelope) < len(wire)  # 60-byte prefix became 32+6

    def test_encode_v2_rejects_non_prefix_dictionary(self):
        wire = _encode(SMALL_SOURCE)
        with pytest.raises(ValueError):
            encode_v2(wire, (b"\xff" * 16,), store=DictionaryStore())

    def test_serializer_v2_path(self):
        module = compile_source(SMALL_SOURCE)
        store = DictionaryStore()
        envelope = encode_module(module, format_version="stsa2",
                                 store=store)
        assert resolve_stream(envelope, store) == encode_module(module)

    def test_shared_dictionary_across_modules(self, corpus_wires):
        """A real publisher pair (plain + optimised Scanner) shares a
        long bit-packed header: factoring it must pay for itself."""
        plain = corpus_wires[("Scanner", False)]
        optimized = corpus_wires[("Scanner", True)]
        dictionary = build_shared_dictionary([plain, optimized])
        assert plain.startswith(dictionary)
        assert optimized.startswith(dictionary)
        assert len(dictionary) >= MIN_DICTIONARY_BYTES
        store = DictionaryStore()
        envelopes = encode_modules_v2([plain, optimized], store=store)
        assert resolve_stream(envelopes[0], store) == plain
        assert resolve_stream(envelopes[1], store) == optimized
        # the factored pair plus the blob once beats shipping raw
        shipped = sum(map(len, envelopes)) + len(dictionary)
        assert shipped < len(plain) + len(optimized)

    def test_delta_round_trip(self):
        plain = _encode(SMALL_SOURCE)
        optimized = _encode(SMALL_SOURCE, optimize=True)
        store = DictionaryStore()
        delta = encode_delta(plain, optimized, store=store)
        assert resolve_stream(delta, store) == optimized
        verify_module(decode_module(delta, store=store))

    def test_delta_of_identical_streams_is_tiny(self):
        wire = _encode(SMALL_SOURCE)
        store = DictionaryStore()
        delta = encode_delta(wire, wire, store=store)
        assert resolve_stream(delta, store) == wire
        # framing + two digests + three varints, no literal
        assert len(delta) <= len(MAGIC_V2) + 1 + 32 + 32 + 15

    def test_corpus_envelopes_resolve_bit_identically(self, corpus_wires):
        store = DictionaryStore()
        for (name, optimize), wire in corpus_wires.items():
            envelope = encode_v2(wire, store=store)
            assert resolve_stream(envelope, store) == wire, \
                f"{name} optimize={optimize}"


# ======================================================================
# reject-or-equivalent for envelopes: targeted probes


class TestEnvelopeRejection:
    def _code(self, unit: bytes, store=None) -> str:
        with pytest.raises(DecodeError) as info:
            decode_module(unit, store=store or DictionaryStore())
        assert info.value.code in STABLE_CODES
        return info.value.code

    def test_missing_dictionary(self):
        wire = _encode(SMALL_SOURCE)
        envelope = encode_v2(wire, (wire[:20],), store=DictionaryStore())
        # fresh (empty) store on the consumer side: digest unknown
        assert self._code(envelope) == "DEC-DICT"

    def test_missing_delta_base(self):
        plain = _encode(SMALL_SOURCE)
        optimized = _encode(SMALL_SOURCE, optimize=True)
        delta = encode_delta(plain, optimized, store=DictionaryStore())
        assert self._code(delta) == "DEC-DELTA-BASE"

    def test_tampered_delta_literal(self):
        plain = _encode(SMALL_SOURCE)
        optimized = _encode(SMALL_SOURCE, optimize=True)
        store = DictionaryStore()
        delta = bytearray(encode_delta(plain, optimized, store=store))
        delta[-40] ^= 0x01  # inside the literal, before the digest
        assert self._code(bytes(delta), store) == "DEC-DELTA-BASE"

    def test_unknown_mode_byte(self):
        unit = MAGIC_V2 + bytes([0x7F])
        assert self._code(unit) == "DEC-MALFORMED"

    def test_truncated_envelope(self):
        wire = _encode(SMALL_SOURCE)
        store = DictionaryStore()
        envelope = encode_v2(wire, (wire[:20],), store=store)
        # cut inside the digest list: the envelope itself is incomplete
        assert self._code(envelope[:len(MAGIC_V2) + 1 + 1 + 16],
                          store) == "DEC-STREAM"

    def test_trailing_bytes_after_delta(self):
        plain = _encode(SMALL_SOURCE)
        optimized = _encode(SMALL_SOURCE, optimize=True)
        store = DictionaryStore()
        delta = encode_delta(plain, optimized, store=store)
        assert self._code(delta + b"\x00", store) == "DEC-TRAILING"

    def test_too_many_dictionaries(self):
        unit = MAGIC_V2 + bytes([MODE_FULL]) \
            + _varint(MAX_DICTIONARIES + 1)
        assert self._code(unit) == "DEC-LIMIT"

    def test_oversized_varint(self):
        unit = MAGIC_V2 + bytes([MODE_FULL]) + b"\xff\xff\xff\xff\xff"
        assert self._code(unit) == "DEC-LIMIT"

    def test_delta_copy_bounds(self):
        base = _encode(SMALL_SOURCE)
        store = DictionaryStore()
        digest = store.put(base)
        unit = (MAGIC_V2 + bytes([MODE_DELTA]) + digest
                + _varint(len(base) + 1) + _varint(0) + _varint(0)
                + blob_digest(base))
        assert self._code(unit, store) == "DEC-DELTA"

    def test_damaged_store_blob_is_absent_not_wrong(self, tmp_path):
        """Content addressing: a corrupted on-disk blob resolves as
        *missing* (DEC-DICT), never as wrong payload bytes."""
        wire = _encode(SMALL_SOURCE)
        store = DictionaryStore(str(tmp_path))
        envelope = encode_v2(wire, (wire[:20],), store=store)
        blob_path = next(tmp_path.glob("??/*.blob"))
        blob_path.write_bytes(b"\x00" * 20)
        fresh = DictionaryStore(str(tmp_path))
        with pytest.raises(DecodeError) as info:
            decode_module(envelope, store=fresh)
        assert info.value.code == "DEC-DICT"


# ======================================================================
# streaming decode


class TestStreaming:
    def test_every_corpus_artifact_streams_identically(self, corpus_wires):
        """Chunked feeds (a size coprime to every natural boundary)
        over all 20 corpus artifacts reproduce the one-shot module bit
        for bit."""
        for (name, optimize), wire in corpus_wires.items():
            chunks = [wire[i:i + 97] for i in range(0, len(wire), 97)]
            module = stream_module(chunks)
            assert encode_module(module) == wire, \
                f"{name} optimize={optimize}"

    def test_chunk_boundary_sweep_small_artifact(self):
        """Every chunk size from 1 byte up on one artifact: the split
        points can never change the result."""
        wire = _encode(SMALL_SOURCE)
        for size in list(range(1, 24)) + [64, len(wire), len(wire) + 7]:
            chunks = [wire[i:i + size] for i in range(0, len(wire), size)]
            module = stream_module(chunks)
            assert encode_module(module) == wire, f"chunk size {size}"

    def test_truncation_at_every_byte_rejects(self):
        wire = _encode(SMALL_SOURCE)
        for cut in range(len(wire)):
            loader = StreamingLoader()
            loader.feed(wire[:cut])
            with pytest.raises(DecodeError) as info:
                loader.finish()
            assert info.value.code in STABLE_CODES, f"cut at {cut}"

    def test_main_executes_mid_stream(self):
        wire = _encode(RUN_SOURCE, optimize=True)
        loader = StreamingLoader()
        ran_mid_stream = False
        for index in range(len(wire)):
            module = loader.feed(wire[index:index + 1])
            if module is None or ran_mid_stream:
                continue
            main = next((m for m in module.functions
                         if m.name == "main" and m.is_static), None)
            if main is None or not module.functions.ready(main):
                continue
            if module.functions.pending:
                # later bodies still in flight -- execute now
                assert _observed(module) == ("42\n", None)
                ran_mid_stream = True
        assert ran_mid_stream, "main only became ready at end of stream"
        final = loader.finish()
        assert loader.complete
        assert encode_module(final) == wire

    def test_pending_body_raises_stream_code(self):
        wire = _encode(RUN_SOURCE)
        loader = StreamingLoader()
        module = None
        for index in range(0, len(wire), 16):
            module = loader.feed(wire[index:index + 16])
            if module is not None and module.functions.pending:
                break
        assert module is not None and module.functions.pending
        pending = [m for m in module.functions
                   if not module.functions.ready(m)]
        with pytest.raises(DecodeError) as info:
            module.functions[pending[-1]]
        assert info.value.code == "DEC-STREAM"

    def test_feed_after_finish_rejects(self):
        wire = _encode(SMALL_SOURCE)
        loader = StreamingLoader()
        loader.feed(wire)
        loader.finish()
        with pytest.raises(DecodeError) as info:
            loader.feed(b"\x00")
        assert info.value.code == "DEC-TRAILING"

    def test_rejection_poisons_the_stream(self):
        """Bad magic is deterministic: it rejects on the very feed that
        exposes it, and every later call re-raises that same error."""
        wire = _encode(SMALL_SOURCE)
        loader = StreamingLoader()
        with pytest.raises(DecodeError) as first:
            loader.feed(bytes([wire[0] ^ 0xFF]) + wire[1:])
        assert first.value.code == "DEC-MAGIC"
        with pytest.raises(DecodeError) as second:
            loader.feed(b"")
        assert second.value is first.value
        with pytest.raises(DecodeError) as third:
            loader.finish()
        assert third.value is first.value

    def test_v2_envelope_streams(self):
        wire = _encode(RUN_SOURCE)
        store = DictionaryStore()
        envelope = encode_v2(wire, (wire[:60],), store=store)
        chunks = [envelope[i:i + 7] for i in range(0, len(envelope), 7)]
        module = stream_module(chunks, store=store)
        assert encode_module(module) == wire

    def test_unknown_digest_rejects_mid_stream(self):
        """A deterministic envelope error surfaces on the feed that
        exposes it -- waiting for more bytes cannot fix a digest the
        store does not have."""
        wire = _encode(SMALL_SOURCE)
        envelope = encode_v2(wire, (wire[:20],), store=DictionaryStore())
        loader = StreamingLoader()  # empty default store
        prefix = len(MAGIC_V2) + 1 + 1 + 32  # through the digest
        with pytest.raises(DecodeError) as info:
            loader.feed(envelope[:prefix])
        assert info.value.code == "DEC-DICT"

    def test_delta_streams_all_or_nothing(self):
        plain = _encode(SMALL_SOURCE)
        optimized = _encode(SMALL_SOURCE, optimize=True)
        store = DictionaryStore()
        delta = encode_delta(plain, optimized, store=store)
        loader = StreamingLoader(store=store)
        assert loader.feed(delta[:-1]) is None  # patch incomplete
        module = loader.feed(delta[-1:])
        assert module is not None
        assert encode_module(loader.finish()) == optimized


# ======================================================================
# cache keying across format versions


class TestCacheKeys:
    def test_wire_format_version_sniff(self):
        wire = _encode(SMALL_SOURCE)
        envelope = encode_v2(wire, store=DictionaryStore())
        assert wire_format_version(wire) == "stsa1"
        assert wire_format_version(envelope) == "stsa2"
        assert wire_format_version(b"junk") == "unknown"

    def test_compilation_cache_keys_on_format_version(self):
        key = CompilationCache.key
        assert key(SMALL_SOURCE) == key(SMALL_SOURCE,
                                        format_version="stsa1")
        assert key(SMALL_SOURCE) != key(SMALL_SOURCE,
                                        format_version="stsa2")
        assert key(SMALL_SOURCE, format_version="stsa2") == \
            key(SMALL_SOURCE, format_version="stsa2")


# ======================================================================
# the seeded v2 mutation campaign gate


@pytest.mark.slow
class TestV2MutationCampaign:
    def test_reject_or_equivalent_holds(self):
        result = run_campaign(seed=20010620, budget=300,
                              mode="streams-v2", minimize=False)
        assert result.ok, [str(f) for f in result.findings]
        assert result.mutations == 300
        assert result.rejected > 0
        assert result.accepted > 0  # some mutants survive -- and passed
        for code in result.taxonomy:
            # rejections carry registered codes; accepted mutants are
            # classified by run class ("ran", "bounded", ...)
            if code.startswith(("DEC-", "STSA-")):
                assert code in STABLE_CODES, code
