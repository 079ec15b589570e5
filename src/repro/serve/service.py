"""The distribution service: HTTP/JSON over the existing toolchain.

:class:`ServeService` is the application -- a table of endpoints over
the producer (:class:`~repro.driver.session.CompilationSession`) and
consumer (:func:`repro.loader.load_module`) paths plus the serving
state (module store, publish log, quotas, caches).  :class:`ServeServer`
is the transport -- a small asyncio HTTP/1.1 server (stdlib only, no
framework dependency) that parses requests, dispatches, and writes JSON
responses.  The split keeps every endpoint unit-testable without a
socket (``service.handle(...)``) while the conformance suite exercises
the real wire through ``tests/conftest.py``'s ``serve_client`` fixture.

Concurrency model: the event loop owns all serving state; CPU-bound
work (compile, decode+verify, execute) runs in one thread pool so the
accept loop keeps breathing under load.  Identical in-flight compiles
coalesce: requests are keyed on the compilation-cache key (source +
canonical pass spec + SSA flags -- the same key
:class:`~repro.driver.session.CompilationSession` uses), the first
request starts the compile, every concurrent duplicate awaits the same
future, and all of them receive bit-identical wire bytes.  Settled
compiles hit the :class:`~repro.cache.CompilationCache`.

Verified modules are memoized in process: a bounded LRU maps the
SHA-256 of the delivered bytes to the decoded, verified
:class:`~repro.ssa.ir.Module`, so a repeat verify/run of the same bytes
skips the decode entirely.  The trust rule: the memo lives only in this
process, is never persisted, and is filled only after a full cold fused
verify of exactly those bytes succeeded -- a miss runs the cold path,
and a rejection is never remembered.  SafeTSA's guarantees are
properties of the bytes, so a second decode of the same bytes could
learn nothing new.  Sharing one module between requests is sound
because all execution state lives on the per-request interpreter.

Endpoints (all JSON; errors are ``{"error": {code, message, detail?}}``
with the ``SERVE-*`` status mapping from :mod:`repro.serve.errors`)::

    GET  /v1/healthz                liveness + store/log summary
    GET  /v1/stats                  counters, cache stats, quota usage
    POST /v1/compile                {source, optimize?, passes?,
                                     wire_v2?, tenant?, return_bytes?}
    POST /v1/publish                {name, source|wire_b64, ...} or
                                    {modules: [...], wire_v2?} (batch)
    GET  /v1/fetch/<digest>         stored distribution unit, base64
    GET  /v1/dict/<digest>          shared-dictionary blob, base64
    POST /v1/verify                 {digest|wire_b64}
    POST /v1/run                    {digest|wire_b64, class?, max_steps?}
    GET  /v1/log?since=N            publish-log entries + head

See ``docs/SERVE.md`` for the full wire schema.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.cache import CompilationCache, DictionaryStore, TraceCache
from repro.serve.errors import ServeError
from repro.serve.log import PublishLog
from repro.serve.quota import QuotaManager, TenantLimits
from repro.serve.store import ModuleStore, is_digest, wire_digest
from repro.ssa.ir import Module

#: tenant assumed when a request does not name one
DEFAULT_TENANT = "public"

#: server-side ceiling on interpreter steps per /v1/run
MAX_RUN_STEPS = 50_000_000

#: verified modules kept in process; a decoded corpus module is about
#: 350 KB, and its first run keeps about 250 KB more of interpreter
#: block plans on it (tracemalloc: MiniVM 213, Parser 261, BigInt 253
#: KiB), so a full memo of modules that have run holds about 40 MB
MODULE_MEMO_CAPACITY = 64


def _b64decode(text: str, field: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception:
        raise ServeError(f"{field} is not valid base64",
                         "SERVE-BAD-REQUEST") from None


def _check_compile_fields(payload: dict) -> None:
    """A compile or publish request's flags must have their JSON types:
    ``bool("no")`` is true, and a pass name that is not a string would
    leave the session as a raw ``TypeError``.  Checked before anything
    compiles; an absent or null field takes its default."""
    for field in ("optimize", "wire_v2", "return_bytes"):
        value = payload.get(field)
        if value is not None and not isinstance(value, bool):
            raise ServeError(f"'{field}' must be a boolean",
                             "SERVE-BAD-REQUEST")
    passes = payload.get("passes")
    if passes is not None and not isinstance(passes, str) and not (
            isinstance(passes, list)
            and all(isinstance(name, str) for name in passes)):
        raise ServeError("'passes' must be a pass spec string or a list "
                         "of pass names", "SERVE-BAD-REQUEST")


class ModuleMemo:
    """Bounded LRU: SHA-256 hex of delivered bytes -> the decoded,
    verified module.

    Only :meth:`ServeService._load_checked` fills it, and only after a
    cold fused verify of exactly those bytes succeeded; nothing is ever
    persisted.  Callers share the returned module and must not mutate
    it.  ``stats()`` has the ``{hits, misses, hit_rate, entries}`` shape
    ``/v1/stats`` reports under ``module_cache``.
    """

    def __init__(self):
        self._modules: OrderedDict[str, Module] = OrderedDict()
        # the event loop and synchronous handle() callers may both reach
        # the memo; get and put are check-then-act on the order
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, digest: str) -> Optional[Module]:
        with self._lock:
            module = self._modules.get(digest)
            if module is None:
                self.misses += 1
                return None
            self._modules.move_to_end(digest)
            self.hits += 1
            return module

    def put(self, digest: str, module: Module) -> None:
        with self._lock:
            self._modules[digest] = module
            self._modules.move_to_end(digest)
            while len(self._modules) > MODULE_MEMO_CAPACITY:
                self._modules.popitem(last=False)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {"hits": self.hits, "misses": self.misses,
                    "hit_rate": round(self.hits / total, 4)
                    if total else 0.0,
                    "entries": len(self._modules)}


class ServeService:
    """Endpoint logic + serving state; transport-free and test-friendly."""

    def __init__(self, *, store_dir: Optional[str] = None,
                 signing_key: bytes = b"repro-serve-dev-key",
                 limits: Optional[TenantLimits] = None,
                 clock=None, log_path: Optional[str] = None,
                 max_run_steps: int = MAX_RUN_STEPS,
                 executor_workers: Optional[int] = None):
        self.store = ModuleStore(store_dir)
        self.dicts = DictionaryStore(
            f"{store_dir}/dicts" if store_dir else None)
        self.module_cache = ModuleMemo()
        self.compile_cache = CompilationCache()
        # compiled hot-loop traces, shared across /v1/run requests:
        # keyed on wire digest, so a warm re-run of the same unit skips
        # the count/record cycle (see repro.interp.trace)
        self.trace_cache = TraceCache()
        self.signing_key = signing_key
        if log_path is None and store_dir is not None:
            log_path = f"{store_dir}/publish-log.jsonl"
        self.log = PublishLog(signing_key, clock=clock, path=log_path)
        self.quotas = QuotaManager(limits, clock=clock) if clock \
            else QuotaManager(limits)
        self.max_run_steps = max_run_steps
        self.counters: dict[str, int] = {
            "requests": 0, "errors": 0,
            "compile_requests": 0, "compiles_performed": 0,
            "compiles_coalesced": 0, "publishes": 0, "fetches": 0,
            "verifies": 0, "runs": 0,
        }
        self._inflight: dict[str, asyncio.Task] = {}
        self._executor_workers = executor_workers
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- plumbing -------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._executor_workers,
                thread_name_prefix="repro-serve")
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    async def _offload(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._pool(), fn, *args)

    def handle(self, method: str, path: str, payload=None) -> dict:
        """Synchronous one-shot dispatch (unit tests, the smoke check)."""
        return asyncio.run(self.dispatch(method, path, payload))

    # -- dispatch -------------------------------------------------------

    async def dispatch(self, method: str, path: str,
                       payload=None) -> dict:
        """Route one request; raises :class:`ServeError` on rejection."""
        self.counters["requests"] += 1
        parts = urlsplit(path)
        query = {key: values[-1]
                 for key, values in parse_qs(parts.query).items()}
        payload = payload if isinstance(payload, dict) else {}
        tenant = str(payload.get("tenant")
                     or query.get("tenant") or DEFAULT_TENANT)
        try:
            route = (method.upper(), *parts.path.strip("/").split("/"))
            self.quotas.check_rate(tenant)
            if route == ("GET", "v1", "healthz"):
                return self._healthz()
            if route == ("GET", "v1", "stats"):
                return self._stats()
            if route == ("GET", "v1", "log"):
                return self._log_entries(query)
            if route[:3] == ("GET", "v1", "fetch") and len(route) == 4:
                return self._fetch(route[3])
            if route[:3] == ("GET", "v1", "dict") and len(route) == 4:
                return self._dict_blob(route[3])
            if route == ("POST", "v1", "compile"):
                return await self._compile_endpoint(payload, tenant)
            if route == ("POST", "v1", "publish"):
                return await self._publish_endpoint(payload, tenant)
            if route == ("POST", "v1", "verify"):
                return await self._verify_endpoint(payload)
            if route == ("POST", "v1", "run"):
                return await self._run_endpoint(payload)
            raise ServeError(f"no endpoint {method.upper()} {parts.path}",
                             "SERVE-ENDPOINT")
        except ServeError:
            self.counters["errors"] += 1
            raise
        except OSError as error:
            # the server's own storage failed, not the request
            self.counters["errors"] += 1
            raise ServeError(f"internal error: {error}", "SERVE-INTERNAL",
                             {"errno": error.errno}) from error

    # -- introspection --------------------------------------------------

    def _healthz(self) -> dict:
        return {"ok": True, "modules": len(self.store),
                "log_entries": len(self.log), "log_head": self.log.head}

    def _stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "store": self.store.stats(),
            "compile_cache": self.compile_cache.stats(),
            "module_cache": self.module_cache.stats(),
            "log": {"entries": len(self.log), "head": self.log.head},
            "quotas": [self.quotas.usage(tenant)
                       for tenant in self.quotas.tenants()],
        }

    def _log_entries(self, query: dict) -> dict:
        try:
            since = int(query.get("since", 0))
        except ValueError:
            raise ServeError("since must be an integer",
                             "SERVE-BAD-REQUEST") from None
        return {"entries": self.log.since(since), "head": self.log.head,
                "total": len(self.log)}

    # -- store reads ----------------------------------------------------

    def _fetch(self, digest: str) -> dict:
        self.counters["fetches"] += 1
        if not is_digest(digest):
            raise ServeError(f"{digest!r} is not a module digest",
                             "SERVE-BAD-REQUEST")
        wire = self.store.get(digest)
        if wire is None:
            raise ServeError(f"no module {digest[:16]}... in the store",
                             "SERVE-NOT-FOUND", {"digest": digest})
        from repro.encode.common import wire_format_version
        return {"digest": digest, "size": len(wire),
                "format": wire_format_version(wire),
                "wire_b64": base64.b64encode(wire).decode("ascii")}

    def _dict_blob(self, digest: str) -> dict:
        if not is_digest(digest):
            raise ServeError(f"{digest!r} is not a blob digest",
                             "SERVE-BAD-REQUEST")
        blob = self.dicts.get(bytes.fromhex(digest))
        if blob is None:
            raise ServeError(
                f"no dictionary blob {digest[:16]}... in the store",
                "SERVE-NOT-FOUND", {"digest": digest})
        return {"digest": digest, "size": len(blob),
                "blob_b64": base64.b64encode(blob).decode("ascii")}

    # -- compile (with coalescing) --------------------------------------

    def _session(self, payload: dict):
        from repro.driver import CompilationSession
        try:
            return CompilationSession(
                optimize=bool(payload.get("optimize", False)),
                passes=payload.get("passes"),
                filename=str(payload.get("filename", "<request>")),
                cache=self.compile_cache)
        except ValueError as error:
            raise ServeError(f"bad pass spec: {error}",
                             "SERVE-BAD-REQUEST") from None

    async def _compiled_wire(self, payload: dict,
                             tenant: str) -> tuple[bytes, bool]:
        """The v1 wire bytes for one compile request: compilation-cache
        hit, coalesced join of an identical in-flight compile, or a
        fresh compile in the pool.  Returns ``(wire, coalesced)``."""
        source = payload.get("source")
        if not isinstance(source, str) or not source:
            raise ServeError("request needs a non-empty 'source'",
                             "SERVE-BAD-REQUEST")
        self.counters["compile_requests"] += 1
        session = self._session(payload)
        key = session.cache_key(source)
        cached = self.compile_cache.get(key)
        if cached is not None:
            return cached, False
        task = self._inflight.get(key)
        if task is not None:
            self.counters["compiles_coalesced"] += 1
            return await task, True
        self.quotas.check_compile(tenant)
        task = asyncio.ensure_future(
            self._offload(self._compile_sync, session, source,
                          key, tenant))
        self._inflight[key] = task
        task.add_done_callback(
            lambda _done: self._inflight.pop(key, None))
        return await task, False

    def _compile_sync(self, session, source: str, key: str,
                      tenant: str) -> bytes:
        self.counters["compiles_performed"] += 1
        start = perf_counter()
        try:
            module = session.build_module(source)
            session.optimize(module)
            wire = session.encode(module)
        except Exception as error:
            raise ServeError(f"compilation failed: {error}",
                             "SERVE-COMPILE") from None
        finally:
            self.quotas.charge_compile(tenant, perf_counter() - start)
        self.compile_cache.put(key, wire)
        return wire

    async def _compile_endpoint(self, payload: dict,
                                tenant: str) -> dict:
        _check_compile_fields(payload)
        wire, coalesced = await self._compiled_wire(payload, tenant)
        format_version = "stsa1"
        if payload.get("wire_v2"):
            from repro.encode.format import encode_v2
            wire = encode_v2(wire, store=self.dicts)
            format_version = "stsa2"
        digest = self._store_charged(wire, tenant)
        result = {"digest": digest, "size": len(wire),
                  "format": format_version, "coalesced": coalesced}
        if payload.get("return_bytes"):
            result["wire_b64"] = base64.b64encode(wire).decode("ascii")
        return result

    # -- publish --------------------------------------------------------

    def _store_charged(self, wire: bytes, tenant: str) -> str:
        """Store ``wire``, charging the tenant only for *new* bytes --
        content addressing deduplicates, so re-publishing is free."""
        digest = wire_digest(wire)
        if digest not in self.store:
            self.quotas.charge_stored(tenant, len(wire))
        return self.store.put(wire)

    async def _publish_one(self, payload: dict, tenant: str) -> dict:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError("publish needs a module 'name'",
                             "SERVE-BAD-REQUEST")
        if "wire_b64" in payload:
            wire = _b64decode(payload["wire_b64"], "wire_b64")
            await self._load_checked(wire)  # verify before serving
        else:
            wire, _ = await self._compiled_wire(payload, tenant)
            if payload.get("wire_v2"):
                from repro.encode.format import encode_v2
                wire = encode_v2(wire, store=self.dicts)
        digest = self._store_charged(wire, tenant)
        from repro.encode.common import wire_format_version
        entry = self.log.append(
            name=name, tenant=tenant, digest=digest,
            format_version=wire_format_version(wire), size=len(wire))
        self.counters["publishes"] += 1
        return {"digest": digest, "seq": entry["seq"],
                "entry": entry, "head": self.log.head}

    async def _publish_endpoint(self, payload: dict,
                                tenant: str) -> dict:
        _check_compile_fields(payload)
        modules = payload.get("modules")
        if modules is None:
            return await self._publish_one(payload, tenant)
        # batch publish: compile everything (coalescing applies), then
        # factor one shared dictionary across the batch when asked
        if not isinstance(modules, list) or not modules:
            raise ServeError("'modules' must be a non-empty list",
                             "SERVE-BAD-REQUEST")
        for module in modules:
            if not isinstance(module, dict):
                raise ServeError("each batch entry must be an object",
                                 "SERVE-BAD-REQUEST")
            _check_compile_fields(module)
        wires = []
        for module in modules:
            if "wire_b64" in module:
                wire = _b64decode(module["wire_b64"], "wire_b64")
                await self._load_checked(wire)
            else:
                wire, _ = await self._compiled_wire(module, tenant)
            wires.append(wire)
        dictionaries: list[str] = []
        if payload.get("wire_v2"):
            from repro.encode.format import (
                MIN_DICTIONARY_BYTES,
                build_shared_dictionary,
                encode_modules_v2,
            )
            shared = build_shared_dictionary(wires)
            wires = encode_modules_v2(wires, store=self.dicts)
            if len(shared) >= MIN_DICTIONARY_BYTES:
                from repro.encode.format import blob_digest
                dictionaries.append(blob_digest(shared).hex())
        published = []
        for module, wire in zip(modules, wires):
            entry = await self._publish_one(
                {"name": module.get("name"), "wire_b64":
                 base64.b64encode(wire).decode("ascii")}, tenant)
            published.append(entry)
        return {"published": published, "dictionaries": dictionaries,
                "head": self.log.head}

    # -- verify / run ---------------------------------------------------

    async def _load_checked(self, wire: bytes) -> Module:
        """The verified module for ``wire``: a memo hit, or a cold fused
        verifying load whose success is memoized.  Rejection surfaces as
        ``SERVE-REJECTED`` carrying the stable ``DEC-*`` code in
        ``detail`` and is never memoized."""
        digest = wire_digest(wire)
        module = self.module_cache.get(digest)
        if module is not None:
            return module
        from repro.encode.deserializer import DecodeError

        def load():
            from repro.loader import load_module
            return load_module(wire, store=self.dicts)
        try:
            module = await self._offload(load)
        except DecodeError as error:
            raise ServeError(
                f"module rejected: {error}", "SERVE-REJECTED",
                {"code": error.code,
                 "location": error.location()}) from None
        self.module_cache.put(digest, module)
        return module

    async def _wire_from(self, payload: dict) -> bytes:
        digest = payload.get("digest")
        if digest is not None:
            if not isinstance(digest, str) or not is_digest(digest):
                raise ServeError("bad 'digest'", "SERVE-BAD-REQUEST")
            wire = self.store.get(digest)
            if wire is None:
                raise ServeError(
                    f"no module {digest[:16]}... in the store",
                    "SERVE-NOT-FOUND", {"digest": digest})
            return wire
        if "wire_b64" in payload:
            return _b64decode(payload["wire_b64"], "wire_b64")
        raise ServeError("request needs 'digest' or 'wire_b64'",
                         "SERVE-BAD-REQUEST")

    async def _verify_endpoint(self, payload: dict) -> dict:
        self.counters["verifies"] += 1
        wire = await self._wire_from(payload)
        module = await self._load_checked(wire)
        return {"ok": True, "digest": module.wire_digest,
                "classes": len(module.classes),
                "instructions": module.instruction_count()}

    async def _run_endpoint(self, payload: dict) -> dict:
        self.counters["runs"] += 1
        max_steps = payload.get("max_steps", self.max_run_steps)
        if not isinstance(max_steps, int) or isinstance(max_steps, bool):
            raise ServeError("'max_steps' must be an integer",
                             "SERVE-BAD-REQUEST")
        max_steps = min(max_steps, self.max_run_steps)
        main_class = payload.get("class")
        if main_class is not None and not isinstance(main_class, str):
            raise ServeError("'class' must be a class name string",
                             "SERVE-BAD-REQUEST")
        trace = payload.get("trace")
        if trace is not None and not isinstance(trace, (bool, int)):
            raise ServeError("'trace' must be a bool or an int "
                             "threshold", "SERVE-BAD-REQUEST")
        wire = await self._wire_from(payload)
        module = await self._load_checked(wire)

        def execute():
            from repro.interp.interpreter import Interpreter
            if trace:
                from repro.interp.trace import (TRACE_DEFAULT_THRESHOLD,
                                                TracingInterpreter)
                threshold = trace if isinstance(trace, int) \
                    and not isinstance(trace, bool) \
                    else TRACE_DEFAULT_THRESHOLD
                interp = TracingInterpreter(
                    module, max_steps=max_steps, threshold=threshold,
                    trace_cache=self.trace_cache)
                return interp.run_main(main_class), interp.trace_stats()
            interp = Interpreter(module, max_steps=max_steps)
            return interp.run_main(main_class), None
        from repro.interp.interpreter import InterpreterError
        try:
            result, trace_stats = await self._offload(execute)
        except InterpreterError as error:
            raise ServeError(f"execution failed: {error}",
                             "SERVE-BAD-REQUEST") from None
        response = {"value": result.value, "stdout": result.stdout,
                    "steps": result.steps,
                    "exception": result.exception_name()}
        if trace_stats is not None:
            response["trace"] = trace_stats
        return response


# ======================================================================
# the transport: a minimal asyncio HTTP/1.1 server


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error"}

_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER_LINES = 64
#: seconds a declared request body may take to arrive in full; a body
#: that stops short would otherwise hold its connection open for good
_BODY_DEADLINE = 30.0


async def _read_body(reader: asyncio.StreamReader,
                     length: int) -> Optional[bytes]:
    """The ``length``-byte request body, or ``None`` when it has not
    arrived in full within :data:`_BODY_DEADLINE`.  A timer cancels
    the read: ``asyncio.wait_for`` would run it as a second task, and
    the extra loop turns would cost every POST, whose body is almost
    always buffered already."""
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(_BODY_DEADLINE, expire)
    try:
        return await reader.readexactly(length)
    except asyncio.CancelledError:
        if not expired:
            raise  # the server is shutting down
        return None
    finally:
        timer.cancel()


class ServeServer:
    """Binds a :class:`ServeService` to a TCP port.

    ``serve_forever()`` blocks (the ``repro-cc serve`` path);
    ``start()`` runs the loop in a daemon thread and returns once the
    port is bound (the test-fixture and benchmark path), ``stop()``
    tears it down.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    # -- request handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    return
                try:
                    method, target, _version = \
                        request_line.decode("latin-1").split(None, 2)
                except ValueError:
                    await self._respond(writer, 400, {"error": {
                        "code": "SERVE-BAD-REQUEST",
                        "message": "malformed request line"}})
                    return
                headers = {}
                for _ in range(_MAX_HEADER_LINES):
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _sep, value = \
                        line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    await self._respond(writer, 400, {"error": {
                        "code": "SERVE-BAD-REQUEST",
                        "message": f"bad Content-Length {declared!r}"}})
                    return
                length = int(declared)
                if length > _MAX_BODY:
                    await self._respond(writer, 413, {"error": {
                        "code": "SERVE-QUOTA-BYTES",
                        "message": f"{length}-byte body exceeds the "
                                   f"{_MAX_BODY}-byte request limit"}})
                    return
                body = await _read_body(reader, length) if length \
                    else b""
                if body is None:
                    await self._respond(writer, 400, {"error": {
                        "code": "SERVE-BAD-REQUEST",
                        "message": f"{length}-byte body did not arrive "
                                   f"within {_BODY_DEADLINE} s"}})
                    return
                status, response = await self._dispatch_body(
                    method, target, body)
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                await self._respond(writer, status, response,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            # server shutdown with the connection parked between
            # requests (keep-alive): finish normally -- the stdlib
            # stream protocol's done-callback calls task.exception(),
            # which raises on a task that ends cancelled
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass  # shutdown races the close handshake

    async def _dispatch_body(self, method: str, target: str,
                             body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body) if body else None
        except json.JSONDecodeError as error:
            bad = ServeError(f"request body is not JSON: {error}",
                             "SERVE-BAD-REQUEST")
            return bad.http_status, {"error": bad.as_payload()}
        try:
            return 200, await self.service.dispatch(method, target,
                                                    payload)
        except ServeError as error:
            return error.http_status, {"error": error.as_payload()}
        except Exception as error:  # never leak a traceback as a 000
            internal = ServeError(f"internal error: "
                                  f"{type(error).__name__}: {error}",
                                  "SERVE-INTERNAL")
            return internal.http_status, {"error": internal.as_payload()}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, *,
                       keep_alive: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- lifecycle ------------------------------------------------------

    async def _serve(self) -> None:
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await server.serve_forever()

    def serve_forever(self) -> None:
        """Run in the calling thread until interrupted (CLI path)."""
        asyncio.run(self._serve())

    def start(self) -> "ServeServer":
        """Run in a daemon thread; returns once the port is bound."""
        def main():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._serve())
            except asyncio.CancelledError:
                pass
            except BaseException as error:  # surface bind failures
                self._failure = error
                self._started.set()
            finally:
                # drain per-connection handlers (keep-alive clients
                # leave them parked on readline) before the loop dies,
                # or close() destroys them mid-cancel
                pending = [task for task in
                           asyncio.all_tasks(self._loop)
                           if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
                self._loop.close()
        self._thread = threading.Thread(target=main, daemon=True,
                                        name="repro-serve-server")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            try:
                for task in asyncio.all_tasks(self._loop):
                    self._loop.call_soon_threadsafe(task.cancel)
            except RuntimeError:
                pass  # the loop closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
