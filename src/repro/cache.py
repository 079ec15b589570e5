"""Content-addressed compilation cache: source + flags -> wire bytes.

The producer side of the pipeline (parse, semantic analysis, SSA
construction, optimisation) is the expensive half; the consumer side
(decode + verify) is cheap by design -- the paper's asymmetry, and the
reason mobile-code results are worth caching as *encoded modules* rather
than in-memory objects.  A hit replays the consumer path only:

    key  = SHA-256 over (format version, pipeline flags, source text)
    value = the encoded ``.stsa`` bytes for that exact compilation

Because the wire format is self-validating (decoding re-verifies every
reference), a stale or corrupted cache entry can produce a
``DecodeError`` but never an unsound module.

The cache is in-memory by default; pass ``cache_dir`` (or set the
``REPRO_CACHE_DIR`` environment variable) to persist entries on disk,
one file per key, written atomically.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.encode.common import wire_format_version

#: Bump when the wire format (or anything the key does not capture)
#: changes meaning; old entries then miss instead of decoding garbage.
FORMAT_VERSION = "stsa1"


class CompilationCache:
    """Maps compilation keys to encoded module bytes, counting hits."""

    def __init__(self, cache_dir: Optional[str] = None):
        self._memory: dict[str, bytes] = {}
        self._dir = Path(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0

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

    def get(self, key: str) -> Optional[bytes]:
        wire = self._memory.get(key)
        if wire is None and self._dir is not None:
            path = self._dir / f"{key}.stsa"
            if path.is_file():
                wire = path.read_bytes()
                self._memory[key] = wire
        if wire is None:
            self.misses += 1
            return None
        self.hits += 1
        return wire

    def put(self, key: str, wire: bytes) -> None:
        self._memory[key] = wire
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            # atomic publish: a concurrent reader sees the old entry,
            # the new entry, or a miss -- never a partial file
            fd, temp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(wire)
                os.replace(temp, self._dir / f"{key}.stsa")
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        if self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*.stsa"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # an *empty* cache is still an enabled cache: without this,
        # ``if cache:`` at the call sites would fall through __len__
        # and silently disable caching until the first entry lands
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "entries": len(self._memory)}


class VerifiedModuleCache:
    """Remembers which wire streams already passed verification.

    The fused loader keys on the SHA-256 of the exact wire bytes; a hit
    records that those bytes decoded and verified cleanly once, plus the
    per-function ``(start_bit, end_bit)`` body boundaries the sequential
    decode observed.  A warm load then skips the residual verification
    sweeps and a lazy load can seek straight to individual bodies --
    seeks the format itself cannot offer, having no length prefixes.

    Entries are advisory, never load-bearing for soundness: the decode
    itself still runs with every safety-by-construction check, so a
    stale or corrupted entry can produce a ``DecodeError`` but never an
    unsound module (the same guarantee :class:`CompilationCache`
    documents).  Boundaries are re-checked against the stream end on
    use.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self._memory: dict[str, list[tuple[int, int]]] = {}
        self._dir = Path(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(wire: bytes) -> str:
        """Content address of one distribution unit: its detected wire
        format version plus its exact bytes.  Mixing the version in
        means a v1 stream and a v2 envelope can never collide even if
        a hostile envelope embedded v1 bytes verbatim."""
        hasher = hashlib.sha256()
        hasher.update(FORMAT_VERSION.encode())
        hasher.update(b"\x00")
        hasher.update(wire_format_version(wire).encode())
        hasher.update(b"\x00verified\x00")
        hasher.update(wire)
        return hasher.hexdigest()

    def get(self, key: str) -> Optional[list[tuple[int, int]]]:
        boundaries = self._memory.get(key)
        if boundaries is None and self._dir is not None:
            path = self._dir / f"{key}.verified"
            if path.is_file():
                boundaries = self._parse(path.read_text())
                if boundaries is not None:
                    self._memory[key] = boundaries
        if boundaries is None:
            self.misses += 1
            return None
        self.hits += 1
        return boundaries

    def put(self, key: str, boundaries: list[tuple[int, int]]) -> None:
        self._memory[key] = list(boundaries)
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            text = FORMAT_VERSION + "\n" + "".join(
                f"{start} {end}\n" for start, end in boundaries)
            fd, temp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(temp, self._dir / f"{key}.verified")
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise

    @staticmethod
    def _parse(text: str) -> Optional[list[tuple[int, int]]]:
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_VERSION:
            return None  # other format version: treat as a miss
        try:
            boundaries = []
            for line in lines[1:]:
                start, end = line.split()
                boundaries.append((int(start), int(end)))
            return boundaries
        except ValueError:
            return None  # damaged entry: miss, the cold path re-runs

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        if self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*.verified"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        return True  # an empty cache is still an enabled cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "entries": len(self._memory)}


class DictionaryStore:
    """Content-addressed blob store for wire-format v2 sections.

    Shared dictionaries and delta bases are named by their raw SHA-256
    digest -- the 32 bytes an envelope actually carries -- so "present
    but wrong" is impossible by construction: a blob that does not hash
    to its key is treated as absent (and the envelope's resolution then
    rejects with a stable ``DEC-*`` code).  Like the caches above the
    store is advisory for performance, never load-bearing for
    soundness: whatever it returns is re-fed to the verifying decoder.

    Memory-only by default; with ``cache_dir`` blobs persist as
    ``<digest-hex>.blob`` files, written atomically.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self._memory: dict[bytes, bytes] = {}
        self._dir = Path(cache_dir) if cache_dir else None

    def put(self, blob: bytes) -> bytes:
        """Publish ``blob``; returns its 32-byte content address."""
        digest = hashlib.sha256(blob).digest()
        if digest not in self._memory:
            self._memory[digest] = bytes(blob)
            if self._dir is not None:
                self._dir.mkdir(parents=True, exist_ok=True)
                fd, temp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(temp, self._dir / f"{digest.hex()}.blob")
                except BaseException:
                    try:
                        os.unlink(temp)
                    except OSError:
                        pass
                    raise
        return digest

    def get(self, digest: bytes) -> Optional[bytes]:
        blob = self._memory.get(digest)
        if blob is None and self._dir is not None:
            path = self._dir / f"{digest.hex()}.blob"
            if path.is_file():
                blob = path.read_bytes()
                if hashlib.sha256(blob).digest() != digest:
                    return None  # damaged blob: absent, not wrong
                self._memory[digest] = blob
        return blob

    def __contains__(self, digest: bytes) -> bool:
        return self.get(digest) is not None

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        return True  # an empty store is still an enabled store

    def clear(self) -> None:
        self._memory.clear()
        if self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*.blob"):
                path.unlink(missing_ok=True)


#: Version tag for persisted trace-cache entries; bumping it makes old
#: entries miss instead of replaying paths over a changed recorder.
TRACE_FORMAT_VERSION = "stsa-trace1"


class TraceCache:
    """Remembers which hot paths a module's loops compiled to traces.

    Keyed on ``(wire digest, qualified function name, header index)``
    with the recorded path stored as *reachable-block indices* -- block
    ids are process-local serials and do not survive a re-decode, but
    the deterministic ``reachable_blocks()`` order does.  A warm
    process (the serve path re-running a cached module) re-creates the
    compiled traces straight from the cache and skips the whole
    count/record cycle.

    Entries are advisory, never load-bearing: the trace compiler
    re-derives guards and phi moves from the decoded SSA, so a stale
    path at worst fails to compile (cold behaviour), never produces a
    wrong trace.

    Memory-only by default; with ``cache_dir`` each digest persists as
    a ``<digest>.trace`` file, written atomically.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self._memory: dict[str, dict[tuple[str, int], tuple[int, ...]]] = {}
        self._dir = Path(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0

    def get(self, digest: str) -> dict[tuple[str, int], tuple[int, ...]]:
        entries = self._memory.get(digest)
        if entries is None and self._dir is not None:
            path = self._dir / f"{digest}.trace"
            if path.is_file():
                entries = self._parse(path.read_text())
                if entries is not None:
                    self._memory[digest] = entries
        if not entries:
            self.misses += 1
            return {}
        self.hits += 1
        return dict(entries)

    def put(self, digest: str, name: str, header_index: int,
            path_indices: tuple[int, ...]) -> None:
        entries = self._memory.setdefault(digest, {})
        key = (name, int(header_index))
        if entries.get(key) == tuple(path_indices):
            return
        entries[key] = tuple(path_indices)
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            lines = [TRACE_FORMAT_VERSION]
            for (entry_name, header), indices in sorted(entries.items()):
                joined = ",".join(str(i) for i in indices)
                lines.append(f"{entry_name}\t{header}\t{joined}")
            fd, temp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write("\n".join(lines) + "\n")
                os.replace(temp, self._dir / f"{digest}.trace")
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise

    @staticmethod
    def _parse(
            text: str
    ) -> Optional[dict[tuple[str, int], tuple[int, ...]]]:
        lines = text.splitlines()
        if not lines or lines[0] != TRACE_FORMAT_VERSION:
            return None  # other format version: treat as a miss
        try:
            entries: dict[tuple[str, int], tuple[int, ...]] = {}
            for line in lines[1:]:
                name, header, joined = line.split("\t")
                header_index = int(header)
                # an empty path is a persisted blacklist: "this header
                # never traces profitably, skip the count/record cycle"
                indices = tuple(int(i) for i in joined.split(",")) \
                    if joined else ()
                if header_index < 0 or any(i < 0 for i in indices):
                    return None  # would wrap onto a real block: damage
                entries[(name, header_index)] = indices
            return entries
        except ValueError:
            return None  # damaged entry: miss, traces re-record

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        if self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*.trace"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._memory.values())

    def __bool__(self) -> bool:
        return True  # an empty cache is still an enabled cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "entries": len(self)}


def default_dictionary_store() -> DictionaryStore:
    """The process-wide dictionary store.  Always present (an empty
    store deterministically rejects every digest reference), persisted
    under ``REPRO_CACHE_DIR`` when that is set."""
    return _DEFAULT_DICTS


def default_module_cache() -> Optional[VerifiedModuleCache]:
    """The process-wide verified-module cache, enabled alongside the
    compilation cache by ``REPRO_CACHE_DIR`` ("" for memory-only)."""
    return _DEFAULT_MODULES


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide trace cache, enabled alongside the other caches
    by ``REPRO_CACHE_DIR`` ("" for memory-only)."""
    return _DEFAULT_TRACES


def default_cache() -> Optional[CompilationCache]:
    """The process-wide cache, enabled by ``REPRO_CACHE_DIR`` ("" for
    memory-only) or by :func:`enable_default_cache`."""
    return _DEFAULT


def enable_default_cache(
        cache_dir: Optional[str] = None) -> CompilationCache:
    global _DEFAULT
    if _DEFAULT is None or (cache_dir and _DEFAULT._dir is None):
        _DEFAULT = CompilationCache(cache_dir or None)
    return _DEFAULT


def _from_environment() -> Optional[CompilationCache]:
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured is None:
        return None
    return CompilationCache(configured or None)


def _modules_from_environment() -> Optional[VerifiedModuleCache]:
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured is None:
        return None
    return VerifiedModuleCache(configured or None)


def _traces_from_environment() -> Optional[TraceCache]:
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured is None:
        return None
    return TraceCache(configured or None)


_DEFAULT: Optional[CompilationCache] = _from_environment()
_DEFAULT_MODULES: Optional[VerifiedModuleCache] = _modules_from_environment()
_DEFAULT_TRACES: Optional[TraceCache] = _traces_from_environment()
_DEFAULT_DICTS: DictionaryStore = DictionaryStore(
    os.environ.get("REPRO_CACHE_DIR") or None)
