"""The auditing client: HTTP access plus client-side verification.

A SafeTSA consumer never extends trust to the distribution channel --
the loader re-verifies every byte it decodes.  :class:`ServeClient`
applies the same posture to serving metadata: ``fetch`` re-hashes the
returned bytes against the requested digest (a store that serves the
wrong bytes is detected, not believed), and ``audit`` replays the
publish log through :func:`repro.serve.log.audit_chain` locally --
chain linkage, dense sequence numbers, manifest shape, and (given the
publisher key) manifest signatures are all checked on the client's own
CPU.  A server that edits a historical entry or splices the chain
fails the client's audit even though every individual response it sent
was well-formed JSON.

Server-side rejections arrive as the stable error envelope and are
re-raised as :class:`~repro.serve.errors.ServeError`, so client code
handles local and remote failures through one exception type with one
code taxonomy.

Transport is a small keep-alive connection pool over stdlib
``http.client``: idle connections are reused across requests (HTTP/1.1
persistent connections), checked out under a lock so the client stays
thread-safe -- the conformance suite and the benchmark both hammer one
server from many threads.  A connection that went stale while idle
(server restarted, keep-alive timeout) is discarded and the request
retried once on a fresh connection.
"""

from __future__ import annotations

import hashlib
import base64
import json
import threading
from http.client import BadStatusLine, HTTPConnection, ResponseNotReady
from typing import Optional

from repro.cache import DictionaryStore
from repro.serve.errors import ServeError
from repro.serve.log import GENESIS, audit_chain
from repro.serve.store import wire_digest


class ServeClient:
    """A blocking JSON client for one ``repro.serve`` endpoint set."""

    #: idle connections kept per client; excess connections (transient
    #: thread bursts) are closed on release rather than pooled
    POOL_SIZE = 8

    def __init__(self, host: str, port: int, *,
                 tenant: str = "public", timeout: float = 30.0):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[HTTPConnection] = []

    @classmethod
    def for_url(cls, url: str, **kwargs) -> "ServeClient":
        from urllib.parse import urlsplit
        parts = urlsplit(url)
        return cls(parts.hostname or "127.0.0.1", parts.port or 80,
                   **kwargs)

    # -- transport ------------------------------------------------------

    def _checkout(self) -> tuple[HTTPConnection, bool]:
        """An idle pooled connection (``reused=True``) or a fresh one."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return HTTPConnection(self.host, self.port,
                              timeout=self.timeout), False

    def _release(self, conn: HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every idle pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> dict:
        """One round trip; error envelopes re-raise as ServeError."""
        body = None
        headers = {}
        if payload is not None:
            payload = dict(payload)
            payload.setdefault("tenant", self.tenant)
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        elif method.upper() == "GET" and "tenant=" not in path:
            sep = "&" if "?" in path else "?"
            path = f"{path}{sep}tenant={self.tenant}"
        conn, reused = self._checkout()
        try:
            data = self._round_trip(conn, method, path, body, headers)
        except (BadStatusLine, ResponseNotReady, ConnectionError,
                BrokenPipeError, OSError):
            # a pooled connection can go stale while idle; retry exactly
            # once on a fresh connection.  A fresh connection's failure
            # is genuine and propagates.
            conn.close()
            if not reused:
                raise
            conn = HTTPConnection(self.host, self.port,
                                  timeout=self.timeout)
            try:
                data = self._round_trip(conn, method, path, body, headers)
            except BaseException:
                conn.close()
                raise
        except BaseException:
            conn.close()
            raise
        self._release(conn)
        if "error" in data:
            raise ServeError.from_payload(data)
        return data

    @staticmethod
    def _round_trip(conn: HTTPConnection, method: str, path: str,
                    body: Optional[bytes], headers: dict) -> dict:
        conn.request(method.upper(), path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read().decode("utf-8")
        if response.will_close:
            conn.close()
        return json.loads(payload)

    # -- endpoint wrappers ----------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")

    def compile(self, source: str, *, optimize: bool = False,
                passes: Optional[str] = None, wire_v2: bool = False,
                return_bytes: bool = False) -> dict:
        payload = {"source": source, "optimize": optimize,
                   "wire_v2": wire_v2, "return_bytes": return_bytes}
        if passes is not None:
            payload["passes"] = passes
        result = self.request("POST", "/v1/compile", payload)
        if return_bytes:
            result["wire"] = base64.b64decode(result.pop("wire_b64"))
        return result

    def publish(self, name: str, *, source: Optional[str] = None,
                wire: Optional[bytes] = None, optimize: bool = False,
                passes: Optional[str] = None,
                wire_v2: bool = False) -> dict:
        payload: dict = {"name": name}
        if wire is not None:
            payload["wire_b64"] = \
                base64.b64encode(wire).decode("ascii")
        elif source is not None:
            payload.update(source=source, optimize=optimize,
                           wire_v2=wire_v2)
            if passes is not None:
                payload["passes"] = passes
        else:
            raise ValueError("publish needs source or wire")
        return self.request("POST", "/v1/publish", payload)

    def publish_batch(self, modules: list, *,
                      wire_v2: bool = True) -> dict:
        return self.request("POST", "/v1/publish",
                            {"modules": modules, "wire_v2": wire_v2})

    def fetch(self, digest: str) -> bytes:
        """Fetch a module and *re-verify* its content address -- bytes
        that do not hash to the requested digest are refused."""
        result = self.request("GET", f"/v1/fetch/{digest}")
        wire = base64.b64decode(result["wire_b64"])
        if wire_digest(wire) != digest:
            raise ServeError(
                f"fetched bytes hash to {wire_digest(wire)[:16]}..., "
                f"not the requested {digest[:16]}...", "SERVE-CHAIN",
                {"requested": digest, "received": wire_digest(wire)})
        return wire

    def fetch_dictionary(self, digest: str) -> bytes:
        result = self.request("GET", f"/v1/dict/{digest}")
        blob = base64.b64decode(result["blob_b64"])
        if hashlib.sha256(blob).hexdigest() != digest:
            raise ServeError(
                f"dictionary bytes do not hash to {digest[:16]}...",
                "SERVE-CHAIN", {"requested": digest})
        return blob

    def dictionary_store(self) -> DictionaryStore:
        """A memory-only :class:`~repro.cache.DictionaryStore` whose
        misses ask this server (:meth:`fetch_dictionary`, which
        re-hashes what it gets).  Pass it as a loader's ``store`` to
        load a wire-format v2 unit that names shared dictionaries or
        a delta base: a blob the server lacks stays a miss, so the
        envelope still rejects with its own ``DEC-*`` code."""
        return _FetchingDictionaryStore(self)

    def verify(self, *, digest: Optional[str] = None,
               wire: Optional[bytes] = None) -> dict:
        return self.request("POST", "/v1/verify",
                            self._unit(digest, wire))

    def run(self, *, digest: Optional[str] = None,
            wire: Optional[bytes] = None,
            class_name: Optional[str] = None,
            max_steps: Optional[int] = None,
            trace=None) -> dict:
        """``trace=True`` (or an int threshold) executes through the
        server's speculative trace tier; the response then carries the
        run's trace statistics under ``"trace"``."""
        payload = self._unit(digest, wire)
        if class_name is not None:
            payload["class"] = class_name
        if max_steps is not None:
            payload["max_steps"] = max_steps
        if trace is not None:
            payload["trace"] = trace
        return self.request("POST", "/v1/run", payload)

    @staticmethod
    def _unit(digest: Optional[str], wire: Optional[bytes]) -> dict:
        if digest is not None:
            return {"digest": digest}
        if wire is not None:
            return {"wire_b64": base64.b64encode(wire).decode("ascii")}
        raise ValueError("need digest or wire")

    # -- the audit path -------------------------------------------------

    def log_entries(self, since: int = 0) -> dict:
        return self.request("GET", f"/v1/log?since={since}")

    def audit(self, *, key: Optional[bytes] = None,
              expect_head: Optional[str] = None) -> str:
        """Fetch the full log and audit it locally; returns the head.

        The server's claimed head must equal the head *recomputed from
        the entries* -- a server cannot assert one history and serve
        another.  With ``key``, manifest signatures are checked too;
        with ``expect_head`` (a previously pinned head), any rewrite of
        already-seen history raises ``SERVE-CHAIN``.
        """
        result = self.log_entries(0)
        if not isinstance(result, dict):
            result = {}
        # a missing or non-list log is a chain break (SERVE-CHAIN)
        entries = result.get("entries")
        head = audit_chain(entries, key=key)
        if head != result.get("head", GENESIS):
            raise ServeError(
                "server-claimed head does not match the entries it "
                "served", "SERVE-CHAIN",
                {"claimed": result.get("head"), "recomputed": head})
        if expect_head is not None and expect_head != GENESIS:
            # a pinned head must still be *reachable*: some prefix of
            # the served (already chain-valid) entries must hash to it
            from repro.serve.log import entry_hash
            prefix_heads = [entry_hash(entry) for entry in entries]
            if expect_head not in prefix_heads:
                raise ServeError(
                    "pinned head is not on the served chain -- "
                    "history was rewritten", "SERVE-CHAIN",
                    {"pinned": expect_head,
                     "claimed": result.get("head")})
        return head


class _FetchingDictionaryStore(DictionaryStore):
    """See :meth:`ServeClient.dictionary_store`."""

    def __init__(self, client: ServeClient):
        super().__init__()
        self._client = client

    def get(self, digest: bytes) -> Optional[bytes]:
        blob = super().get(digest)
        if blob is None:
            try:
                blob = self._client.fetch_dictionary(digest.hex())
            except ServeError as error:
                if error.code != "SERVE-NOT-FOUND":
                    raise
                return None
            self.put(blob)
        return blob
