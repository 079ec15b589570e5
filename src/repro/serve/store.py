"""Content-addressed module store: the serving-side twin of
:class:`repro.cache.DictionaryStore`.

Modules are keyed by the SHA-256 hex of their exact distribution bytes
-- a v1 stream and a v2 envelope of the same compilation are distinct
units, each fetchable under its own digest (the envelope's dictionary
blobs resolve separately through the
:class:`~repro.cache.DictionaryStore`).  Layout, atomic writes and the
damage rule are :class:`repro.cache.BlobStore`'s: shards at
``<root>/ab/<digest>.stsa``, and a shard that no longer hashes to its
name is absent, never served.
"""

from __future__ import annotations

import hashlib

from repro.cache import ContentStore, is_digest

__all__ = ["ModuleStore", "is_digest", "wire_digest"]


def wire_digest(wire: bytes) -> str:
    """Content address of one distribution unit: sha256 hex of its
    exact bytes."""
    return hashlib.sha256(wire).hexdigest()


class ModuleStore(ContentStore):
    """Maps wire digests to distribution bytes, sharded on disk."""

    SUFFIX = ".stsa"
