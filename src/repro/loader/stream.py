"""Chunk-feedable streaming decode: verify-and-execute while arriving.

The wire format has no length prefixes, so a cold decode is strictly
sequential -- but every primitive read is *prefix-stable*: a read that
succeeds against a prefix of the stream consumes the same bits and
returns the same value against any extension, and a read that runs out
of data always raises (``BitIOError``) rather than returning padded
zeros.  That makes retry-from-a-recorded-bit-position a sound streaming
strategy, and it is the whole trick here:

* each :meth:`StreamingLoader.feed` appends a chunk, then retries the
  next not-yet-decoded unit (first the header, then one body at a
  time) from its recorded start bit against the grown buffer;
* a retry that ran off the end of the buffer while more data may
  arrive just waits -- prefix stability guarantees a *deterministic*
  rejection (bad magic, alphabet violation, limit breach) never hides
  behind that: any read that did not hit end-of-stream would fail
  identically on the complete unit, and surfaces the moment enough
  bytes exist;
* each body that lands is immediately residual-checked (the same
  :class:`~repro.loader.fused._ResidualChecker` sweep as a cold fused
  load), so the module is *verified as far as it exists* at every
  moment.

``module.functions`` is a :class:`StreamFunctions` view: bodies that
arrived behave normally, touching a body that has not arrived yet
raises ``DecodeError`` with code ``DEC-STREAM``.  Since the interpreter
locates ``main`` by key iteration only, a consumer can run ``main`` as
soon as its body (and whatever it actually calls) has landed -- while
later bodies are still in flight.

:meth:`StreamingLoader.finish` declares end-of-input: everything
pending must now decode, and the v1 trailing-padding rule runs
(``DEC-TRAILING``).  A cut outside any body therefore rejects with
``DEC-STREAM`` -- aliased to the one-shot path's ``DEC-IO`` in
:data:`repro.analysis.diagnostics.CODE_ALIASES`, same defect, two
delivery paths; a cut inside a body keeps the body decoder's located
``DEC-IO``.

v2 envelopes stream too: :func:`repro.encode.format.
resolve_stream_prefix` maps the buffered envelope prefix to the longest
derivable payload prefix (dictionary sections resolve as their digests
arrive; a delta is all-or-nothing), and deterministic envelope errors
-- unknown dictionary, bad mode -- raise mid-stream without waiting.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from contextlib import contextmanager
from typing import Optional

from repro.encode.bitio import END_OF_STREAM, BitReader
from repro.encode.deserializer import DecodeError, decode_errors
from repro.encode.format import resolve_stream, resolve_stream_prefix
from repro.loader.fused import FusedDecoder, _ResidualChecker
from repro.ssa.ir import Function, Module


class _NeedMoreData(Exception):
    """Internal: the next unit ran off the buffered prefix."""


@contextmanager
def _stream_decode_errors(final: bool):
    """:func:`~repro.encode.deserializer.decode_errors` plus the one
    streaming rule: running off the end of the buffered payload means
    "wait" while more data may arrive, and is a truncation once it
    cannot.  Prefix stability guarantees every other rejection
    surfaces identically on the complete unit, so nothing is masked."""
    try:
        with decode_errors():
            yield
    except DecodeError as error:
        if error.code != "DEC-IO" or END_OF_STREAM not in str(error):
            raise
        if not final:
            raise _NeedMoreData from None
        if error.function is not None:
            raise  # a cut body keeps its located DEC-IO
        raise DecodeError(END_OF_STREAM, "DEC-STREAM") from None


class StreamFunctions(MutableMapping):
    """``module.functions`` for a module still arriving.

    Keys, length, and membership come from the header's member tables
    (stream order), so entry-point lookup works before any body lands;
    fetching a body that has not arrived raises ``DecodeError`` with
    the stable code ``DEC-STREAM`` -- an honest "not here yet", never a
    silently absent function.
    """

    def __init__(self, bodies):
        self._order = list(bodies)
        self._pending = set(bodies)
        self._functions: dict = {}

    def _arrived(self, method, function: Function) -> None:
        self._pending.discard(method)
        self._functions[method] = function

    def __getitem__(self, method) -> Function:
        function = self._functions.get(method)
        if function is not None:
            return function
        if method in self._pending:
            raise DecodeError(
                f"body of {method} has not arrived yet", "DEC-STREAM")
        raise KeyError(method)

    def __setitem__(self, method, function) -> None:
        if method not in self._functions and method not in self._pending:
            self._order.append(method)
        self._arrived(method, function)

    def __delitem__(self, method) -> None:
        self._order.remove(method)  # raises ValueError if absent
        self._functions.pop(method, None)
        self._pending.discard(method)

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, method) -> bool:
        return method in self._functions or method in self._pending

    @property
    def pending(self) -> int:
        """Bodies announced by the header but not yet arrived."""
        return len(self._pending)

    def ready(self, method) -> bool:
        """True once ``method``'s body has arrived and verified --
        probe-without-raising for consumers racing the stream."""
        return method in self._functions


class StreamingLoader:
    """Incremental verify-as-it-arrives load of one distribution unit.

    Feed chunks with :meth:`feed`; it returns the module as soon as the
    header has decoded (and the same module thereafter), ``None`` while
    the header is still incomplete.  Call :meth:`finish` when the
    transport reports end-of-input -- it completes and returns the
    fully verified module, or raises a stable rejection exactly when
    the one-shot loader rejects.  The first reported code may differ
    from the one-shot loader's: the stream residual-checks each body as
    it lands, before later bodies decode, and a truncation reads
    ``DEC-STREAM`` where the one-shot loader reads ``DEC-IO``.

    Any rejection poisons the stream: the error is re-raised on every
    later call.
    """

    def __init__(self, *, store=None):
        self.store = store
        self.module: Optional[Module] = None
        #: per-body ``(start_bit, end_bit)`` observed so far
        self.boundaries: list[tuple[int, int]] = []
        self._buffer = bytearray()
        self._payload = b""
        self._decoder: Optional[FusedDecoder] = None
        self._bodies: list = []
        self._functions: Optional[StreamFunctions] = None
        self._header_end = 0
        self._next_body = 0
        self._finished = False
        self._error: Optional[BaseException] = None

    @property
    def complete(self) -> bool:
        """True once :meth:`finish` returned a fully checked module."""
        return self._finished and self._error is None

    def feed(self, chunk: bytes) -> Optional[Module]:
        """Append ``chunk`` and decode as far as the data now allows."""
        if self._error is not None:
            raise self._error
        if self._finished:
            raise DecodeError(
                f"{len(chunk)} bytes fed after end of stream",
                "DEC-TRAILING")
        self._buffer += chunk
        self._advance(final=False)
        return self.module

    def finish(self) -> Module:
        """Declare end-of-input; everything pending must decode now."""
        if self._error is not None:
            raise self._error
        if self._finished:
            return self.module
        try:
            self._payload = resolve_stream(bytes(self._buffer), self.store)
            self._advance(final=True)
            self._finish_trailing()
        except _NeedMoreData:  # pragma: no cover - final never waits
            raise AssertionError("streaming decode waited at finish")
        except Exception as error:
            self._error = error
            raise
        self._finished = True
        return self.module

    # -- the retry state machine ----------------------------------------

    def _advance(self, final: bool) -> None:
        try:
            if not final:
                # deterministic envelope errors (unknown dictionary,
                # bad mode) raise here, mid-stream; an incomplete
                # envelope just yields a shorter payload prefix
                self._payload = resolve_stream_prefix(
                    bytes(self._buffer), self.store)
            if self._decoder is None and not self._try_header(final):
                return
            self._decode_arrived_bodies(final)
        except _NeedMoreData:
            if final:  # pragma: no cover - prefix stability violated
                raise AssertionError("streaming decode waited at finish")
        except Exception as error:
            self._error = error
            raise

    def _try_header(self, final: bool) -> bool:
        """Retry the header against the grown payload.  A fresh decoder
        each time: a header that ran off the buffer leaves partially
        linked world state behind, so nothing of the failed attempt is
        kept."""
        decoder = FusedDecoder(self._payload)
        try:
            with _stream_decode_errors(final):
                bodies = decoder.decode_header()
        except _NeedMoreData:
            return False
        self._decoder = decoder
        self._bodies = bodies
        self._header_end = decoder.reader.bit_position()
        self._functions = StreamFunctions(bodies)
        decoder.module.functions = self._functions
        self.module = decoder.module
        return True

    def _decode_arrived_bodies(self, final: bool) -> None:
        """Decode every body the buffered prefix now covers, in stream
        order, residual-checking each as it lands -- the cold fused
        path, one body at a time."""
        decoder = self._decoder
        while self._next_body < len(self._bodies):
            start = self.boundaries[-1][1] if self.boundaries \
                else self._header_end
            reader = BitReader(self._payload, start_bit=start)
            method = self._bodies[self._next_body]
            try:
                with _stream_decode_errors(final):
                    body_decoder = decoder._function_decoder(method, reader)
                    function = body_decoder.decode()
            except _NeedMoreData:
                return
            _ResidualChecker(decoder.module, function, body_decoder.domtree,
                             body_decoder.dispatch_of).verify()
            self.boundaries.append((start, reader.bit_position()))
            self._functions._arrived(method, function)
            self._next_body += 1

    def _finish_trailing(self) -> None:
        """The v1 end-of-stream rule, against the complete payload."""
        decoder = self._decoder
        end = self.boundaries[-1][1] if self.boundaries \
            else self._header_end
        decoder.reader = BitReader(self._payload, start_bit=end)
        with _stream_decode_errors(True):
            decoder._require_end()


def stream_module(chunks, *, store=None) -> Module:
    """Convenience one-call form: feed every chunk, then finish."""
    loader = StreamingLoader(store=store)
    for chunk in chunks:
        loader.feed(chunk)
    return loader.finish()
