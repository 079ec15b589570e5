"""Caches and content stores, all built on one blob primitive.

Everything the system persists is advisory: a verifying consumer
checks it again (every load re-decodes and re-verifies the wire, the
trace compiler re-derives guards), so a stale or damaged entry can cost
time but never soundness.
:class:`BlobStore` therefore owns the whole storage decision once:

* **Layout.**  A blob is named by 64 lowercase hex and lives in memory
  and, given a directory, at ``<dir>/<name[:2]>/<name><SUFFIX>`` -- the
  two-hex fan-out keeps any one directory at ~1/256th of the entries.
  A name that is not 64 lowercase hex never reaches a path.
* **Write, then publish.**  The disk write is atomic (a temp file
  renamed over the target: a concurrent reader sees the old blob, the
  new blob or a miss, never a partial file), and the in-memory entry
  is set only after it succeeded, so a failed write leaves no phantom
  entry a retry would skip.  A published value is never changed in
  place.
* **Damage reads as absent.**  A disk read falls back into memory
  through the class's parse: a content-addressed blob must re-hash to
  its name, a typed payload must parse.  Anything else is a miss.

The subclasses supply only a suffix, a key function and a payload
format: ``.stsa`` compiled wire (:class:`CompilationCache`), ``.trace``
hot-loop paths (:class:`TraceCache`), and two content-addressed stores
(:class:`ContentStore`): ``.blob`` v2 sections
(:class:`DictionaryStore`) and ``.stsa`` served modules
(:class:`repro.serve.store.ModuleStore`).

``REPRO_CACHE_DIR`` enables the process-wide caches (``""`` for
memory-only) and persists them, and the dictionary store, under that
directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import threading
from pathlib import Path
from typing import Optional

#: Bump when the wire format (or anything the key does not capture)
#: changes meaning; old entries then miss instead of decoding garbage.
FORMAT_VERSION = "stsa1"

#: Version tag for persisted trace-cache entries; bumping it makes old
#: entries miss instead of replaying paths over a changed recorder.
TRACE_FORMAT_VERSION = "stsa-trace1"

_HEX = frozenset("0123456789abcdef")


def is_digest(text: str) -> bool:
    """Syntactic check for a blob name: 64 lowercase hex."""
    return len(text) == 64 and _HEX.issuperset(text)


class BlobStore:
    """Maps 64-hex names to values, in memory and optionally on disk.

    Subclasses set :attr:`SUFFIX` and override :meth:`_dump` /
    :meth:`_parse` for a typed payload; the defaults store raw bytes.
    """

    SUFFIX = ".blob"

    def __init__(self, cache_dir: Optional[str] = None):
        self._memory: dict = {}
        self._dir = Path(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0

    # -- payload format (subclass hooks) --------------------------------

    def _dump(self, value) -> bytes:
        return value

    def _parse(self, name: str, data: bytes):
        """The value a disk file holds, or None when it is damaged."""
        return data

    # -- storage --------------------------------------------------------

    def _path(self, name: str) -> Path:
        return self._dir / name[:2] / f"{name}{self.SUFFIX}"

    def _peek(self, name: str):
        """Memory, then disk, without counting; None on a miss."""
        value = self._memory.get(name)
        if value is None and self._dir is not None and is_digest(name):
            try:
                data = self._path(name).read_bytes()
            except OSError:
                return None
            value = self._parse(name, data)
            if value is not None:
                self._memory[name] = value
        return value

    def get(self, name: str):
        value = self._peek(name)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, name: str, value) -> None:
        if not is_digest(name):
            raise ValueError(f"blob name {name!r} is not 64 lowercase hex")
        if self._dir is not None:
            path = self._path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(self._dump(value))
                os.replace(temp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp)
                raise
        self._memory[name] = value

    def __contains__(self, name: str) -> bool:
        return self._peek(name) is not None

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        if self._dir is not None:
            for path in self._dir.glob(f"??/*{self.SUFFIX}"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # an *empty* store is still an enabled store: without this,
        # ``if cache:`` at the call sites would fall through __len__
        # and silently disable caching until the first entry lands
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4), "entries": len(self)}


class ContentStore(BlobStore):
    """A blob's name is the SHA-256 hex of its bytes, so "present but
    wrong" is impossible by construction: a disk blob that no longer
    re-hashes to its name reads as absent, never served."""

    def _parse(self, name: str, data: bytes) -> Optional[bytes]:
        return data if hashlib.sha256(data).hexdigest() == name else None

    def put(self, blob: bytes) -> str:
        """Store ``blob``; returns its name.  Idempotent -- storing the
        same bytes twice is one entry (and one disk write)."""
        name = hashlib.sha256(blob).hexdigest()
        if name not in self._memory:
            super().put(name, bytes(blob))
        return name


class CompilationCache(BlobStore):
    """Compilation key -> encoded ``.stsa`` bytes.

    The producer side of the pipeline (parse, semantic analysis, SSA
    construction, optimisation) is the expensive half; the consumer
    side (decode + verify) is cheap by design -- the paper's asymmetry,
    and the reason results are cached as *encoded modules*.  A hit
    replays the consumer path only; a damaged entry fails that decode
    and the session compiles cold and overwrites it.
    """

    SUFFIX = ".stsa"

    @staticmethod
    def key(source: str, format_version: str = FORMAT_VERSION,
            **flags) -> str:
        """Content address of one compilation (source + pipeline flags).

        ``format_version`` is the *wire* format the entry's bytes are
        in ("stsa1" by default, "stsa2" for enveloped output): a v1 and
        a v2 encoding of the same compilation can never collide.
        """
        hasher = hashlib.sha256()
        hasher.update(format_version.encode())
        for name in sorted(flags):
            hasher.update(f"\x00{name}={flags[name]!r}".encode())
        hasher.update(b"\x00\x00")
        hasher.update(source.encode("utf-8"))
        return hasher.hexdigest()


class DictionaryStore(ContentStore):
    """Content-addressed store for wire-format v2 sections.

    Shared dictionaries and delta bases are named by their raw SHA-256
    digest -- the 32 bytes an envelope actually carries.  A damaged
    blob reads as absent, and the envelope's resolution then rejects
    with a stable ``DEC-*`` code; whatever the store returns is re-fed
    to the verifying decoder.
    """

    SUFFIX = ".blob"

    def put(self, blob: bytes) -> bytes:
        """Publish ``blob``; returns its 32-byte content address."""
        return bytes.fromhex(super().put(blob))

    def get(self, digest: bytes) -> Optional[bytes]:
        return super().get(digest.hex())

    def __contains__(self, digest: bytes) -> bool:
        return super().__contains__(digest.hex())


class TraceCache(BlobStore):
    """Remembers which hot paths a module's loops compiled to traces.

    One blob per wire digest maps ``(qualified function name, header
    index)`` to the recorded path as *reachable-block indices* -- block
    ids are process-local serials and do not survive a re-decode, but
    the deterministic ``reachable_blocks()`` order does.  A warm
    process (the serve path re-running a cached module) re-creates the
    compiled traces straight from the cache and skips the whole
    count/record cycle.  The trace compiler re-derives guards and phi
    moves from the decoded SSA, so a stale path at worst fails to
    compile (cold behaviour), never produces a wrong trace.
    """

    SUFFIX = ".trace"

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(cache_dir)
        # serve's run threads share one cache: a put merges into the
        # digest's published map, and two merges must not lose one
        self._merge = threading.Lock()

    def get(self, digest: str) -> dict[tuple[str, int], tuple[int, ...]]:
        return dict(super().get(digest) or {})

    def put(self, digest: str, name: str, header_index: int,
            path_indices: tuple[int, ...]) -> None:
        key, path = (name, int(header_index)), tuple(path_indices)
        with self._merge:
            entries = self._peek(digest) or {}
            if entries.get(key) != path:
                # copy on write: a published map is never mutated
                super().put(digest, {**entries, key: path})

    def _dump(self, entries: dict) -> bytes:
        lines = [TRACE_FORMAT_VERSION] + [
            f"{name}\t{header}\t{','.join(str(i) for i in indices)}"
            for (name, header), indices in sorted(entries.items())]
        return ("\n".join(lines) + "\n").encode()

    def _parse(self, name: str, data: bytes) -> Optional[dict]:
        try:
            version, *lines = data.decode().splitlines()
            if version != TRACE_FORMAT_VERSION:
                return None  # other format version: treat as a miss
            entries = {}
            for line in lines:
                function, header, joined = line.split("\t")
                header_index = int(header)
                # an empty path is a persisted blacklist: "this header
                # never traces profitably, skip the count/record cycle"
                indices = tuple(int(i) for i in joined.split(",")) \
                    if joined else ()
                if header_index < 0 or any(i < 0 for i in indices):
                    return None  # would wrap onto a real block: damage
                entries[(function, header_index)] = indices
            return entries or None
        except ValueError:
            return None  # damaged entry: miss, traces re-record

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._memory.values())


# ``REPRO_CACHE_DIR``, read once: unset leaves the process-wide caches
# off (the dictionary store is always present), "" makes them
# memory-only, a path persists them there.
_CONFIGURED = os.environ.get("REPRO_CACHE_DIR")
_ENABLED = _CONFIGURED is not None
_DEFAULT = CompilationCache(_CONFIGURED) if _ENABLED else None
_DEFAULT_TRACES = TraceCache(_CONFIGURED) if _ENABLED else None
_DEFAULT_DICTS = DictionaryStore(_CONFIGURED)


def default_cache() -> Optional[CompilationCache]:
    """The process-wide compilation cache, or None."""
    return _DEFAULT


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide trace cache, or None."""
    return _DEFAULT_TRACES


def default_dictionary_store() -> DictionaryStore:
    """The process-wide dictionary store.  Always present: an empty
    store deterministically rejects every digest reference."""
    return _DEFAULT_DICTS
