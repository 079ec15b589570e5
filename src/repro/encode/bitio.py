"""Bit-level I/O with the three primitive codes of the wire format:

* ``bounded`` -- phase-in (truncated binary) codes for symbols from a
  finite alphabet of known size;
* ``gamma`` -- Elias gamma codes for small unbounded counts;
* ``bits`` -- raw fixed-width fields (IEEE floats, chars).

The implementation is word-at-a-time.  The writer accumulates bits in a
single Python int and flushes whole bytes with one ``int.to_bytes`` per
chunk; the reader keeps the next few dozen bits in an int accumulator
refilled from the byte buffer in whole-word slices, so narrow fields
cost a shift and a mask instead of a per-bit loop, and gamma codes scan
their zero prefix with one ``bit_length`` call.  The per-code methods
(``bounded``, ``gamma``, ``flag``) manipulate the accumulator directly
rather than calling ``write_bits``/``read_bits``: at the ~4 bits of the
format's average field, one avoided Python call is worth more than any
bit trick.

The wire format is bit-for-bit identical to the seed bit-at-a-time
codec, which is kept as :mod:`repro.encode._bitio_reference` and
compared against by the golden fixtures in ``tests/golden/wire`` and
the differential tests.
"""

from __future__ import annotations

#: Flush the writer's accumulator once it holds this many bits.  Every
#: append shifts the whole accumulator, so the threshold trades flush
#: amortisation against shift width; 256 bits measured fastest on the
#: corpus trace (2.3x over 4096).  A whole number of bytes, so flushing
#: never splits a byte.
_FLUSH_BITS = 256

#: How many bytes the reader pulls into its accumulator per refill,
#: trading refill amortisation against mask width like _FLUSH_BITS.
_REFILL_BYTES = 16


#: The message of the one :class:`BitIOError` whose cause is the
#: buffer, not the bits: the reader ran out of data.
END_OF_STREAM = "unexpected end of stream"


class BitIOError(Exception):
    """Malformed bit stream (ran out of bits, impossible symbol)."""


class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0       # pending bits, MSB-first, value < 2**_nbits
        self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        # value >> 0 is value itself, so a nonzero value with width == 0
        # (which the seed codec silently dropped) is rejected here too
        if width < 0 or value < 0 or value >> width:
            raise BitIOError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width
        if self._nbits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def _flush_whole_bytes(self) -> None:
        whole, keep = divmod(self._nbits, 8)
        if not whole:
            return
        self._bytes += (self._acc >> keep).to_bytes(whole, "big")
        self._acc &= (1 << keep) - 1
        self._nbits = keep

    def write_bounded(self, value: int, alphabet_size: int) -> None:
        """Phase-in code: symbols 0..n-1, using floor(log2 n) or
        ceil(log2 n) bits."""
        if not 0 <= value < alphabet_size:
            if alphabet_size <= 0:
                raise BitIOError("empty alphabet has no encoding")
            raise BitIOError(
                f"symbol {value} outside alphabet of {alphabet_size}")
        if alphabet_size == 1:
            return  # the only symbol costs zero bits
        width = (alphabet_size - 1).bit_length()
        threshold = (1 << width) - alphabet_size
        if value < threshold:
            width -= 1
        else:
            value += threshold
        self._acc = (self._acc << width) | value
        self._nbits += width
        if self._nbits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def write_gamma(self, value: int) -> None:
        """Elias gamma for value >= 0 (encodes value + 1)."""
        if value < 0:
            raise BitIOError("gamma encodes non-negative values only")
        n = value + 1
        # width-1 zero bits then the width bits of n, as a single field
        width = 2 * n.bit_length() - 1
        self._acc = (self._acc << width) | n
        self._nbits += width
        if self._nbits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def write_signed_gamma(self, value: int) -> None:
        """Zig-zag then gamma, for ints of either sign."""
        zig = ((-value) << 1) - 1 if value < 0 else value << 1
        self.write_gamma(zig)

    def write_flag(self, flag: bool) -> None:
        self._acc = (self._acc << 1) | (1 if flag else 0)
        self._nbits += 1
        if self._nbits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def write_bytes(self, data: bytes) -> None:
        if not data:
            return
        width = 8 * len(data)
        self._acc = (self._acc << width) | int.from_bytes(data, "big")
        self._nbits += width
        if self._nbits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def getvalue(self) -> bytes:
        self._flush_whole_bytes()
        result = bytearray(self._bytes)
        if self._nbits:
            result.append(self._acc << (8 - self._nbits))
        return bytes(result)

    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nbits


class BitReader:
    """Reads the codes written by :class:`BitWriter`.

    ``start_bit`` positions the reader mid-stream; the streaming loader
    uses it to resume at the start of the next function body once more
    data has arrived.  It is a read-side affordance only -- the wire
    format itself has no length prefixes and is unchanged.
    """

    def __init__(self, data: bytes, start_bit: int = 0):
        self._data = data
        self._byte_pos = 0  # next byte to pull into the accumulator
        self._acc = 0       # the next _nacc bits, MSB-first
        self._nacc = 0
        if start_bit:
            if not 0 <= start_bit <= len(data) * 8:
                raise BitIOError(f"start bit {start_bit} outside the "
                                 "stream")
            self._byte_pos = start_bit >> 3
            rest = start_bit & 7
            if rest:
                # accumulate the tail of the straddled byte
                self._acc = data[self._byte_pos] & ((1 << (8 - rest)) - 1)
                self._nacc = 8 - rest
                self._byte_pos += 1

    def bit_position(self) -> int:
        """The number of bits consumed so far (the read cursor)."""
        return self._byte_pos * 8 - self._nacc

    def _refill(self, need: int) -> None:
        """Grow the accumulator to at least ``need`` bits."""
        take = (need - self._nacc + 7) >> 3
        if take < _REFILL_BYTES:
            take = _REFILL_BYTES
        chunk = self._data[self._byte_pos:self._byte_pos + take]
        if self._nacc + 8 * len(chunk) < need:
            raise BitIOError(END_OF_STREAM)
        self._byte_pos += len(chunk)
        self._acc = (self._acc << (8 * len(chunk))) \
            | int.from_bytes(chunk, "big")
        self._nacc += 8 * len(chunk)

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise BitIOError(f"cannot read {width} bits")
        nacc = self._nacc
        if width > nacc:
            self._refill(width)
            nacc = self._nacc
        nacc -= width
        value = self._acc >> nacc
        self._acc &= (1 << nacc) - 1
        self._nacc = nacc
        return value

    def read_bounded(self, alphabet_size: int) -> int:
        if alphabet_size <= 1:
            if alphabet_size == 1:
                return 0
            raise BitIOError("empty alphabet: no value can be referenced "
                             "here")
        width = (alphabet_size - 1).bit_length()
        threshold = (1 << width) - alphabet_size
        short = width - 1
        nacc = self._nacc
        if short > nacc:
            # refill for the short form only: it may be the last field
            # in the stream, with no spare bit after it
            self._refill(short)
            nacc = self._nacc
        if nacc > short:  # the usual case: the long form fits as well
            rest = nacc - short
            value = self._acc >> rest
            if value < threshold:
                self._acc &= (1 << rest) - 1
                self._nacc = rest
                return value
            rest -= 1
            value = self._acc >> rest
            self._acc &= (1 << rest) - 1
            self._nacc = rest
            return value - threshold
        # exactly the short form's bits are left in the buffer
        value = self._acc
        self._acc = 0
        self._nacc = 0
        if value < threshold:
            return value
        self._refill(1)
        rest = self._nacc - 1
        value = (value << 1) | (self._acc >> rest)
        self._acc &= (1 << rest) - 1
        self._nacc = rest
        return value - threshold

    def read_gamma(self) -> int:
        # fast path: the whole code (zero prefix, stop bit, payload) is
        # already accumulated, which holds for every small count
        acc = self._acc
        if acc:
            significant = acc.bit_length()
            zeros = self._nacc - significant
            if significant > zeros and zeros <= 64:
                rest = significant - zeros - 1
                value = acc >> rest
                self._acc = acc & ((1 << rest) - 1)
                self._nacc = rest
                return value - 1
        # count the zero prefix a word at a time: within the accumulator
        # the number of leading zeros is _nacc - acc.bit_length()
        zeros = 0
        while True:
            if not self._nacc:
                self._refill(1)
            significant = self._acc.bit_length()
            if significant:
                zeros += self._nacc - significant
                self._nacc = significant  # the zeros are consumed
                break
            zeros += self._nacc
            self._nacc = 0
            if zeros > 64:
                raise BitIOError("gamma code too long")
        if zeros > 64:
            raise BitIOError("gamma code too long")
        # the stop bit plus the zeros payload bits form value + 1 directly
        width = zeros + 1
        nacc = self._nacc
        if width > nacc:
            self._refill(width)
            nacc = self._nacc
        nacc -= width
        value = self._acc >> nacc
        self._acc &= (1 << nacc) - 1
        self._nacc = nacc
        return value - 1

    def read_signed_gamma(self) -> int:
        zig = self.read_gamma()
        if zig & 1:
            return -((zig + 1) >> 1)
        return zig >> 1

    def read_flag(self) -> bool:
        nacc = self._nacc
        if not nacc:
            self._refill(1)
            nacc = self._nacc
        nacc -= 1
        value = self._acc >> nacc
        self._acc &= (1 << nacc) - 1
        self._nacc = nacc
        return bool(value)

    def read_bytes(self, count: int) -> bytes:
        if count < 0:
            raise BitIOError(f"cannot read {count} bytes")
        if not self._nacc:  # empty accumulator means byte-aligned
            start = self._byte_pos
            if start + count > len(self._data):
                raise BitIOError(END_OF_STREAM)
            self._byte_pos = start + count
            return bytes(self._data[start:start + count])
        return self.read_bits(8 * count).to_bytes(count, "big")

    def bits_remaining(self) -> int:
        """Bits between the read position and the end of the buffer."""
        return (len(self._data) - self._byte_pos) * 8 + self._nacc

    def at_end(self) -> bool:
        """True iff nothing but zero padding to the byte boundary remains.

        The wire format pads the final byte with zero bits, so a reader
        that stopped mid-byte is "at the end" exactly when fewer than
        eight bits remain and all of them are zero -- the same rule the
        deserializer's trailing-bits check enforces.  (The seed codec
        compared ``pos >= len(data) * 8``, which could never be true
        after a mid-byte stop on a padded stream.)
        """
        remaining = self.bits_remaining()
        if remaining >= 8:
            return False
        if remaining == 0:
            return True
        return self._acc == 0  # < 8 bits left, so all are accumulated
