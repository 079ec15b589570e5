"""Signed module manifests on a hash-chained publish log.

SafeTSA makes the *bytes* of a module intrinsically safe; this module
makes their *history* auditable.  Every publish appends one entry::

    entry = {
        "seq":       n,                  # dense, from 0
        "prev":      <hex>,              # hash of entry n-1 (GENESIS at 0)
        "manifest":  {digest, format, name, published_at, size, tenant},
        "signature": <hex>,              # HMAC-SHA256 over the manifest
    }
    entry_hash = sha256(b"stsa-log\\x00" + canonical_json(entry))

Hashes are computed over **canonical JSON** (sorted keys, minimal
separators, UTF-8) so any two implementations serialize an entry to the
same bytes.  Because each ``prev`` covers the previous entry *in full*
-- manifest, signature, and its own ``prev`` -- editing any historical
payload or splicing the chain changes every later hash: an auditing
client holding only the current head detects the rewrite, and a client
holding any previously seen ``(seq, hash)`` pair detects a fork at that
point (the "stamped chain" records of the SSMDE lineage; certificate
thinking from abstraction-carrying code, applied to provenance).

Signatures are HMAC-SHA256 under the publisher key -- shared-secret
attestation, deliberately stdlib-only.  The chain is tamper-*evident*
without the key; signatures additionally bind entries to the key
holder.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from pathlib import Path
from typing import Callable, Optional

from repro.serve.errors import ServeError

#: ``prev`` of the first entry: no predecessor, by construction.
GENESIS = "0" * 64

_HASH_CONTEXT = b"stsa-log\x00"
_SIGN_CONTEXT = b"stsa-manifest\x00"

#: the manifest's exact key set -- part of the wire contract
MANIFEST_KEYS = frozenset(
    {"digest", "format", "name", "published_at", "size", "tenant"})


def canonical_json(value) -> bytes:
    """The one byte serialization every hash and signature is over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def entry_hash(entry: dict) -> str:
    """Hash of one log entry (over everything, ``prev`` included)."""
    return hashlib.sha256(
        _HASH_CONTEXT + canonical_json(entry)).hexdigest()


def sign_manifest(key: bytes, manifest: dict) -> str:
    return hmac.new(key, _SIGN_CONTEXT + canonical_json(manifest),
                    hashlib.sha256).hexdigest()


def manifest_signed(key: bytes, manifest: dict, signature) -> bool:
    """Whether ``signature`` is the publisher's; anything but an ASCII
    string (what ``hmac.compare_digest`` accepts) is simply not."""
    if not isinstance(signature, str) or not signature.isascii():
        return False
    return hmac.compare_digest(sign_manifest(key, manifest), signature)


def audit_chain(entries: list[dict], *, key: Optional[bytes] = None,
                head: Optional[str] = None) -> str:
    """Verify a publish log; returns its head hash.

    Checks, in order per entry: the entry and manifest shapes (JSON
    objects with the exact key sets), the dense ``seq``, the ``prev``
    link to the previous entry's recomputed hash, and -- when the
    publisher ``key`` is supplied -- the manifest signature.  ``head``,
    when given, must match the final hash (the client's pinned
    expectation).  Any violation raises :class:`ServeError` with
    ``SERVE-CHAIN`` (``SERVE-SIG`` for a bad signature); an empty log
    audits to :data:`GENESIS`.  The entries may come from a hostile
    server or a damaged file, so no shape raises anything else.
    """
    if not isinstance(entries, list):
        raise ServeError("publish log is not a list of entries",
                         "SERVE-CHAIN", {"seq": 0})
    prev = GENESIS
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) \
                or set(entry) != {"seq", "prev", "manifest", "signature"}:
            raise ServeError(f"log entry {index} has a foreign shape",
                             "SERVE-CHAIN", {"seq": index})
        manifest = entry["manifest"]
        if not isinstance(manifest, dict) \
                or set(manifest) != MANIFEST_KEYS:
            raise ServeError(
                f"log entry {index} manifest has a foreign shape",
                "SERVE-CHAIN", {"seq": index})
        if entry["seq"] != index:
            raise ServeError(
                f"log entry {index} carries seq {entry['seq']}",
                "SERVE-CHAIN", {"seq": index})
        if entry["prev"] != prev:
            raise ServeError(
                f"log entry {index} prev does not chain to entry "
                f"{index - 1}", "SERVE-CHAIN",
                {"seq": index, "expected": prev, "found": entry["prev"]})
        if key is not None and not manifest_signed(
                key, manifest, entry["signature"]):
            raise ServeError(
                f"log entry {index} signature does not verify",
                "SERVE-SIG", {"seq": index})
        prev = entry_hash(entry)
    if head is not None and head != prev:
        raise ServeError("log head does not match the pinned head",
                         "SERVE-CHAIN",
                         {"expected": head, "found": prev})
    return prev


class PublishLog:
    """The append-only server-side log.

    In memory always; with ``path`` each entry is also appended to a
    JSON-lines file (one ``fsync``-free append per publish -- the log
    is evidence, the store is truth), and an existing file is replayed
    (and audited) on construction, so a restarted server continues the
    same chain.  A final segment without its newline is an append torn
    by a crash: replay truncates the file back to the last newline and
    drops that entry.  A complete line that is not a JSON object is
    damage, not a torn append, and raises ``SERVE-CHAIN``.
    """

    def __init__(self, key: bytes, *,
                 clock: Callable[[], float] = None,
                 path: Optional[str] = None):
        if not key:
            raise ValueError("publish log requires a signing key")
        self._key = key
        self._clock = clock
        self._path = Path(path) if path else None
        self.entries: list[dict] = []
        self.head = GENESIS
        if self._path is not None and self._path.is_file():
            self._replay()
            self.head = audit_chain(self.entries, key=self._key)

    def _replay(self) -> None:
        data = self._path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            with self._path.open("r+b") as handle:
                handle.truncate(complete)
        for number, line in enumerate(
                data[:complete].split(b"\n")[:-1], start=1):
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                raise ServeError(
                    f"publish log line {number} is not a JSON object",
                    "SERVE-CHAIN", {"line": number})
            self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def _now(self) -> float:
        if self._clock is None:
            import time
            return time.time()
        return float(self._clock())

    def append(self, *, name: str, tenant: str, digest: str,
               format_version: str, size: int) -> dict:
        """Publish one manifest; returns the appended entry."""
        manifest = {
            "digest": digest,
            "format": format_version,
            "name": name,
            "published_at": round(self._now(), 6),
            "size": size,
            "tenant": tenant,
        }
        entry = {
            "seq": len(self.entries),
            "prev": self.head,
            "manifest": manifest,
            "signature": sign_manifest(self._key, manifest),
        }
        self.entries.append(entry)
        self.head = entry_hash(entry)
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("a") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def since(self, seq: int = 0) -> list[dict]:
        """Entries from ``seq`` on (the incremental-audit fetch)."""
        return self.entries[max(seq, 0):]

    def audit(self, *, key: Optional[bytes] = None) -> str:
        """Self-audit; returns (and re-checks) the head hash."""
        head = audit_chain(self.entries,
                           key=key if key is not None else self._key)
        if head != self.head:
            raise ServeError("recorded head does not match the chain",
                             "SERVE-CHAIN",
                             {"expected": self.head, "found": head})
        return head
