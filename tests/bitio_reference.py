"""Reference bit codec for the differential codec tests.

This is the seed bit-at-a-time codec, kept verbatim as the oracle that
the word-at-a-time :mod:`repro.encode.bitio` must agree with bit for
bit (``tests/test_codec_rewrite.py``).  Nothing under ``src/`` imports
it.  Original docstring:

Bit-level I/O with the three primitive codes of the wire format:

* ``bounded`` -- phase-in (truncated binary) codes for symbols from a
  finite alphabet of known size;
* ``gamma`` -- Elias gamma codes for small unbounded counts;
* ``bits`` -- raw fixed-width fields (IEEE floats, chars).
"""

from __future__ import annotations

from repro.encode.bitio import BitIOError


class ReferenceBitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_buffer = 0
        self._bit_count = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or (width and value >> width):
            raise BitIOError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bit_buffer = (self._bit_buffer << 1) | ((value >> shift) & 1)
            self._bit_count += 1
            if self._bit_count == 8:
                self._bytes.append(self._bit_buffer)
                self._bit_buffer = 0
                self._bit_count = 0

    def write_bounded(self, value: int, alphabet_size: int) -> None:
        """Phase-in code: symbols 0..n-1, using floor(log2 n) or
        ceil(log2 n) bits."""
        if alphabet_size <= 0:
            raise BitIOError("empty alphabet has no encoding")
        if not 0 <= value < alphabet_size:
            raise BitIOError(
                f"symbol {value} outside alphabet of {alphabet_size}")
        if alphabet_size == 1:
            return  # the only symbol costs zero bits
        width = (alphabet_size - 1).bit_length()
        threshold = (1 << width) - alphabet_size
        if value < threshold:
            self.write_bits(value, width - 1)
        else:
            self.write_bits(value + threshold, width)

    def write_gamma(self, value: int) -> None:
        """Elias gamma for value >= 0 (encodes value + 1)."""
        if value < 0:
            raise BitIOError("gamma encodes non-negative values only")
        n = value + 1
        width = n.bit_length()
        self.write_bits(0, width - 1)
        self.write_bits(n, width)

    def write_signed_gamma(self, value: int) -> None:
        """Zig-zag then gamma, for ints of either sign."""
        zig = ((-value) << 1) - 1 if value < 0 else value << 1
        self.write_gamma(zig)

    def write_flag(self, flag: bool) -> None:
        self.write_bits(1 if flag else 0, 1)

    def write_bytes(self, data: bytes) -> None:
        for byte in data:
            self.write_bits(byte, 8)

    def getvalue(self) -> bytes:
        result = bytearray(self._bytes)
        if self._bit_count:
            result.append(self._bit_buffer << (8 - self._bit_count))
        return bytes(result)

    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._bit_count


class ReferenceBitReader:
    """Reads the codes written by :class:`ReferenceBitWriter`."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            byte_index = self._pos >> 3
            if byte_index >= len(self._data):
                raise BitIOError("unexpected end of stream")
            bit = (self._data[byte_index] >> (7 - (self._pos & 7))) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value

    def read_bounded(self, alphabet_size: int) -> int:
        if alphabet_size <= 0:
            raise BitIOError("empty alphabet: no value can be referenced "
                             "here")
        if alphabet_size == 1:
            return 0
        width = (alphabet_size - 1).bit_length()
        threshold = (1 << width) - alphabet_size
        value = self.read_bits(width - 1)
        if value < threshold:
            return value
        value = (value << 1) | self.read_bits(1)
        return value - threshold

    def read_gamma(self) -> int:
        zeros = 0
        while self.read_bits(1) == 0:
            zeros += 1
            if zeros > 64:
                raise BitIOError("gamma code too long")
        n = 1
        for _ in range(zeros):
            n = (n << 1) | self.read_bits(1)
        return n - 1

    def read_signed_gamma(self) -> int:
        zig = self.read_gamma()
        if zig & 1:
            return -((zig + 1) >> 1)
        return zig >> 1

    def read_flag(self) -> bool:
        return bool(self.read_bits(1))

    def read_bytes(self, count: int) -> bytes:
        return bytes(self.read_bits(8) for _ in range(count))

    # -- helpers the deserializer now relies on (not part of the seed
    # codec, but they do not touch the wire format) ---------------------

    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def at_end(self) -> bool:
        remaining = self.bits_remaining()
        if remaining >= 8:
            return False
        if remaining == 0:
            return True
        return (self._data[-1] & ((1 << remaining) - 1)) == 0
