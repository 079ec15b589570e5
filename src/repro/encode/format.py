"""Versioned wire-format core: the distribution envelope around the
verifying codec.

Wire-format **v1** (``STSA1``, :mod:`repro.encode.serializer` /
:mod:`repro.encode.deserializer`) is the *verified* representation:
every symbol is drawn from a context-computed alphabet, so decoding is
verification.  Nothing here changes that.  **v2** (``STSA2``) is a
*distribution envelope* whose resolution always produces a v1 stream
that then goes through the unmodified verifying decoder -- the safety
argument is containment, not trust:

``full`` mode (0x01)
    ``STSA2 | 0x01 | varint dict_count | dict_count x 32-byte sha256 |
    literal tail``.  Each digest names a content-addressed *dictionary
    blob* in a :class:`repro.cache.DictionaryStore`; the payload is the
    concatenation of the blobs followed by the literal tail.  A
    dictionary blob is a literal stream *prefix* (it includes the
    ``STSA1`` magic when it is the first section), so self-similar
    modules from one publisher -- which share their bit-packed type
    table and member tables -- amortize that common prefix down to 32
    bytes each.  A missing digest is ``DEC-DICT``; content addressing
    makes "present but wrong" impossible.

``delta`` mode (0x02)
    ``STSA2 | 0x02 | 32-byte base sha256 | varint prefix_len | varint
    suffix_len | varint literal_len | literal | 32-byte target
    sha256``.  The payload is ``base[:prefix_len] + literal +
    base[len(base)-suffix_len:]`` and must hash to the target digest
    (``DEC-DELTA-BASE`` otherwise -- the reject-or-equivalent invariant
    extended to patches: a tampered or mismatched delta is rejected
    with a stable code, never decoded unverified).  A delta may target
    another envelope, bounded by :data:`MAX_DELTA_DEPTH`.

Streaming: :func:`resolve_stream_prefix` maps a *partial* envelope to
the longest payload prefix derivable from it, so the chunk-feedable
loader (:mod:`repro.loader.stream`) can verify-and-execute early
bodies while later bytes are still arriving.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.encode.common import MAGIC_V2, wire_format_version
from repro.encode.deserializer import DecodeError

DIGEST_BYTES = 32

#: section mode bytes inside a v2 envelope
MODE_FULL = 0x01
MODE_DELTA = 0x02

#: hard caps -- resource bounds checked before any allocation
MAX_DICTIONARIES = 64
MAX_DELTA_DEPTH = 4
MAX_VARINT_BYTES = 5  # 35 bits: far above any legal section size

#: a shared dictionary shorter than this costs more than it saves
#: (32-byte digest + envelope framing)
MIN_DICTIONARY_BYTES = 48


def blob_digest(blob: bytes) -> bytes:
    """Content address of a dictionary/base blob (raw sha256)."""
    return hashlib.sha256(blob).digest()


class _Incomplete(Exception):
    """Internal: the envelope needs more bytes (not a format error)."""


# -- varints ------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    """LEB128, low 7 bits first."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for i in range(MAX_VARINT_BYTES):
        if pos >= len(data):
            raise _Incomplete
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << (7 * i)
        if not byte & 0x80:
            return value, pos
    raise DecodeError("oversized varint in v2 envelope", "DEC-LIMIT")


# -- v2 resolution ------------------------------------------------------

def _resolve_v2(data: bytes, store, depth: int) -> bytes:
    if depth >= MAX_DELTA_DEPTH:
        raise DecodeError("v2 envelope chain too deep", "DEC-DELTA")
    pos = len(MAGIC_V2)
    if pos >= len(data):
        raise _Incomplete
    mode = data[pos]
    pos += 1
    if mode == MODE_FULL:
        payload, _pos = _resolve_full(data, pos, store)
        return payload
    if mode == MODE_DELTA:
        target, pos = _resolve_delta(data, pos, store)
        if pos != len(data):
            raise DecodeError(
                f"{len(data) - pos} trailing bytes after delta envelope",
                "DEC-TRAILING")
        if target[:len(MAGIC_V2)] == MAGIC_V2:
            return _resolve_v2(target, store, depth + 1)
        return target
    raise DecodeError(f"unknown v2 section mode {mode:#04x}",
                      "DEC-MALFORMED")


def _resolve_full(data: bytes, pos: int, store) -> tuple[bytes, int]:
    """Full mode: dictionary digests then the literal tail.  Returns
    everything resolvable so far -- the tail is open-ended, which is
    exactly what streaming needs."""
    count, pos = _read_varint(data, pos)
    if count > MAX_DICTIONARIES:
        raise DecodeError(f"{count} dictionary sections exceeds the "
                          f"limit of {MAX_DICTIONARIES}", "DEC-LIMIT")
    parts = []
    for _ in range(count):
        if pos + DIGEST_BYTES > len(data):
            raise _Incomplete
        digest = bytes(data[pos:pos + DIGEST_BYTES])
        pos += DIGEST_BYTES
        blob = store.get(digest)
        if blob is None:
            raise DecodeError(
                f"dictionary {digest.hex()[:16]} is not in the store",
                "DEC-DICT")
        parts.append(blob)
    parts.append(bytes(data[pos:]))
    return b"".join(parts), len(data)


def _resolve_delta(data: bytes, pos: int, store) -> tuple[bytes, int]:
    """Delta mode: patch a stored base, then check the target digest.
    Needs the complete envelope -- a patch is all-or-nothing."""
    if pos + DIGEST_BYTES > len(data):
        raise _Incomplete
    base_digest = bytes(data[pos:pos + DIGEST_BYTES])
    pos += DIGEST_BYTES
    prefix_len, pos = _read_varint(data, pos)
    suffix_len, pos = _read_varint(data, pos)
    literal_len, pos = _read_varint(data, pos)
    if pos + literal_len + DIGEST_BYTES > len(data):
        raise _Incomplete
    literal = bytes(data[pos:pos + literal_len])
    pos += literal_len
    target_digest = bytes(data[pos:pos + DIGEST_BYTES])
    pos += DIGEST_BYTES
    base = store.get(base_digest)
    if base is None:
        raise DecodeError(
            f"delta base {base_digest.hex()[:16]} is not in the store",
            "DEC-DELTA-BASE")
    if prefix_len + suffix_len > len(base):
        raise DecodeError(
            f"delta copies {prefix_len}+{suffix_len} bytes from a "
            f"{len(base)}-byte base", "DEC-DELTA")
    target = base[:prefix_len] + literal \
        + (base[len(base) - suffix_len:] if suffix_len else b"")
    if blob_digest(target) != target_digest:
        raise DecodeError("delta reconstruction does not match the "
                          "target digest", "DEC-DELTA-BASE")
    return target, pos


def _default_store(store):
    if store is not None:
        return store
    from repro.cache import default_dictionary_store
    return default_dictionary_store()


# -- resolution (the consumer side) ------------------------------------

def resolve_stream(data: bytes, store=None, depth: int = 0) -> bytes:
    """Reduce a distribution unit to its v1 payload.

    v1 streams (and unrecognized bytes -- the v1 decoder owns that
    rejection, keeping ``DEC-MAGIC`` stable) pass through unchanged.
    v2 envelopes are resolved against ``store``; every failure mode is
    a :class:`DecodeError` with a stable registered code -- an envelope
    never "partially" resolves.
    """
    if wire_format_version(data) != "stsa2":
        return bytes(data)
    try:
        return _resolve_v2(data, _default_store(store), depth)
    except _Incomplete:
        raise DecodeError("truncated v2 envelope", "DEC-STREAM") from None


def resolve_stream_prefix(data: bytes, store=None) -> bytes:
    """Longest v1-payload prefix derivable from a *partial* unit.

    Returns ``b""`` while too little has arrived to resolve anything
    (including the first 4 bytes, where v1 and v2 share the ``STSA``
    magic prefix and the unit is not yet classifiable).  Deterministic
    envelope errors -- unknown dictionary, bad mode, oversized varint
    -- raise immediately: waiting for more bytes cannot fix them.
    """
    if len(data) < len(MAGIC_V2):
        return b""
    if wire_format_version(data) != "stsa2":
        return bytes(data)
    try:
        return _resolve_v2(data, _default_store(store), 0)
    except _Incomplete:
        return b""


# -- encoding (the producer side) --------------------------------------

def encode_v2(wire: bytes, dictionaries: Sequence[bytes] = (), *,
              store=None) -> bytes:
    """Wrap a v1 stream in a v2 full envelope.

    Each dictionary must be a literal prefix of ``wire`` at its running
    offset (the envelope is a *factoring* of the stream, never a
    rewrite); blobs are published to ``store`` so the consumer's
    resolution can find them.  With no dictionaries the envelope is
    self-contained: 6 bytes of framing around the unchanged stream.
    """
    store = _default_store(store)
    out = bytearray(MAGIC_V2)
    out.append(MODE_FULL)
    _write_varint(out, len(dictionaries))
    pos = 0
    for blob in dictionaries:
        if not blob:
            raise ValueError("empty dictionary blob")
        if wire[pos:pos + len(blob)] != blob:
            raise ValueError(
                f"dictionary does not match the stream at offset {pos}")
        out += store.put(blob)
        pos += len(blob)
    out += wire[pos:]
    return bytes(out)


def encode_delta(base: bytes, target: bytes, *, store=None) -> bytes:
    """Encode ``target`` as a patch against ``base``.

    The base is published to ``store`` by content address; the patch
    carries the target digest so resolution is self-checking end to
    end.  Patch shape is prefix-copy + literal + suffix-copy -- the
    right shape for streams that share a bit-packed header (type table,
    member tables) and diverge in the bodies.
    """
    store = _default_store(store)
    limit = min(len(base), len(target))
    prefix = 0
    while prefix < limit and base[prefix] == target[prefix]:
        prefix += 1
    suffix = 0
    while (suffix < limit - prefix
           and base[len(base) - 1 - suffix] == target[len(target) - 1 - suffix]):
        suffix += 1
    literal = target[prefix:len(target) - suffix]
    out = bytearray(MAGIC_V2)
    out.append(MODE_DELTA)
    out += store.put(base)
    _write_varint(out, prefix)
    _write_varint(out, suffix)
    _write_varint(out, len(literal))
    out += literal
    out += blob_digest(target)
    return bytes(out)


def build_shared_dictionary(wires: Sequence[bytes]) -> bytes:
    """Longest common prefix of the given streams -- the shareable part.

    Self-similar modules (one publisher, one class library) share their
    bit-packed type table and member tables byte for byte, since those
    sections precede every body; the common prefix captures exactly
    that without parsing anything.
    """
    if not wires:
        return b""
    shortest = min(wires, key=len)
    for i in range(len(shortest)):
        byte = shortest[i]
        if any(wire[i] != byte for wire in wires):
            return bytes(shortest[:i])
    return bytes(shortest)


def encode_modules_v2(wires: Sequence[bytes], *, store=None) -> list[bytes]:
    """Publisher batch path: factor one shared dictionary out of a
    module set and envelope each stream against it.  Falls back to
    plain (zero-dictionary) envelopes when the common prefix is too
    short to pay for its digest."""
    store = _default_store(store)
    dictionary = build_shared_dictionary(wires)
    shared = (dictionary,) if len(dictionary) >= MIN_DICTIONARY_BYTES \
        else ()
    return [encode_v2(wire, shared, store=store) for wire in wires]
