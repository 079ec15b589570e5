"""The ``serve`` workload: a live ``ServeServer`` on loopback.

Set-up starts ``ServeServer(ServeService(executor_workers=2, limits
unlimited))``, publishes the eight short corpus programs as v1 singles
and again as one v2 shared-dictionary batch, then fetches, verifies and
runs every published unit once so the server's caches are warm.  Two
``ServeClient`` threads then run a closed loop over one seeded, fixed
request sequence, in quarter-second segments with a host-speed reading
between two (:class:`perfbench.common.HostSpeed`).  Each block of 20
requests holds 12 ``fetch``, 4 ``verify``, 2 ``run``, 1 ``publish`` of
a fresh generated source and 1 ``log``, shuffled.

Checks: fetched bytes hash to the digest asked for and equal the bytes
published; ``verify`` reports the instruction count of a two-pass
decode of the program's own v1 unit; ``run`` prints what the bytecode
baseline prints; every ``log`` slice chains; after the loop every
fresh publish must equal a local compile of its source, and the whole
publish log must audit under the signing key.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import threading
import time
from contextlib import ExitStack
from time import perf_counter

from repro.bench.corpus import corpus_source
from repro.encode.deserializer import decode_module
from repro.fuzz.gen import generate_seeded
from repro.serve import (
    ServeClient,
    ServeError,
    ServeServer,
    ServeService,
    TenantLimits,
)
from repro.serve.log import entry_hash
from repro.serve.store import wire_digest
from repro.tsa.verifier import verify_module

from perfbench.common import (
    HostSpeed,
    Outcomes,
    bytecode_reference,
    quantile,
    repeated_setup,
    summarize,
)
from perfbench.request import SHORT_CORPUS, compile_wire

#: requests of each route in one block of 20
MIX = {"fetch": 12, "verify": 4, "run": 2, "publish": 1, "log": 1}
ROUTES = tuple(MIX)
BLOCK = sum(MIX.values())
CLIENTS = 2
#: seconds of closed-loop traffic between two host-speed readings
SEGMENT_S = 0.25
SIGNING_KEY = b"perfbench-serve-key"
TENANT = "perfbench"
UNLIMITED = TenantLimits(requests_per_window=None, stored_bytes=None,
                         compile_seconds=None)
#: the log route asks for at most this many trailing entries
LOG_TAIL = 16
#: requests per route replayed in process for the service-side split
REPLAYS = {"fetch": 40, "verify": 20, "run": 10, "publish": 6, "log": 20}


class _Unit:
    """One published distribution unit."""

    def __init__(self, name: str, digest: str):
        self.name = name
        self.digest = digest
        self.wire = b""


class _Sequence:
    """The seeded request sequence: ``op(i)`` is ``(route, argument)``.

    A route that names a unit takes the units round-robin in a seeded
    order, so every seed asks for each unit equally often and the seed
    changes only the order.  The latency quantiles of this mix sit
    between the fast routes and the slow ones, where a few percent more
    requests for one costly unit would move them.
    """

    def __init__(self, seed: int, units: list[_Unit]):
        self.seed = seed
        self.units = units
        self._orders = {}
        for route in ("fetch", "verify", "run"):
            order = list(units)
            random.Random(f"{seed}/{route}").shuffle(order)
            self._orders[route] = order
        self._blocks: dict[int, list] = {}
        self._lock = threading.Lock()

    def op(self, index: int):
        block, slot = divmod(index, BLOCK)
        with self._lock:
            ops = self._blocks.get(block)
            if ops is None:
                ops = self._blocks[block] = self._block(block)
        return ops[slot]

    def _block(self, block: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + block)
        ops = []
        for route, count in MIX.items():
            for n in range(block * count, (block + 1) * count):
                if route in self._orders:
                    order = self._orders[route]
                    ops.append((route, order[n % len(order)]))
                elif route == "publish":
                    ops.append((route, self.fresh_source(block)))
                else:
                    ops.append((route, None))
        rng.shuffle(ops)
        return ops

    def fresh_source(self, index: int) -> str:
        return generate_seeded(self.seed * 1_000_003 + 500_000
                               + index).source


class ServeWorkload:
    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.traced = traced
        self.outcomes = Outcomes()
        self.speed = HostSpeed()
        self.server = None
        self.units: list[_Unit] = []
        self.dictionary_bytes = 0
        self._expected: dict[str, tuple] = {}
        self._log_total = 0
        self._published: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    # -- set-up ---------------------------------------------------------

    def _expectations(self) -> None:
        """Per program: its local v1 digest, the instruction count of a
        two-pass decode of it, and the bytecode baseline's output."""
        for name in SHORT_CORPUS:
            source = corpus_source(name)
            wire = compile_wire(source)
            module = decode_module(wire)
            verify_module(module)
            self._expected[name] = (
                wire_digest(wire), module.instruction_count(),
                bytecode_reference(source, name, 50_000_000))

    def setup(self) -> float:
        start = perf_counter()
        service = ServeService(executor_workers=2, limits=UNLIMITED,
                               signing_key=SIGNING_KEY)
        server = ServeServer(service).start()
        try:
            with ServeClient(server.host, server.port,
                             tenant=TENANT) as client:
                units = []
                for name in SHORT_CORPUS:
                    result = client.publish(name, source=corpus_source(name),
                                            optimize=True)
                    units.append(_Unit(name, result["digest"]))
                batch = client.publish_batch(
                    [{"name": name, "source": corpus_source(name),
                      "optimize": True} for name in SHORT_CORPUS],
                    wire_v2=True)
                for name, entry in zip(SHORT_CORPUS, batch["published"]):
                    units.append(_Unit(name, entry["digest"]))
                for unit in units:
                    unit.wire = client.fetch(unit.digest)
                    client.verify(digest=unit.digest)
                    client.run(digest=unit.digest)
                dictionaries = sum(len(client.fetch_dictionary(digest))
                                   for digest in batch["dictionaries"])
        except BaseException:
            server.stop()
            raise
        elapsed = perf_counter() - start
        if self.server is not None:
            self.server.stop()
        self.server, self.units = server, units
        self.dictionary_bytes = dictionaries
        return elapsed

    # -- one request ----------------------------------------------------

    def _call(self, client: ServeClient, route: str, argument):
        if route == "fetch":
            return client.fetch(argument.digest)
        if route == "verify":
            return client.verify(digest=argument.digest)
        if route == "run":
            return client.run(digest=argument.digest)
        if route == "publish":
            return client.publish("fresh", source=argument, optimize=True)
        with self._lock:
            since = max(0, self._log_total - LOG_TAIL)
        return client.log_entries(since), since

    def _correct(self, route: str, argument, response) -> bool:
        if route == "fetch":
            return response == argument.wire
        if route in ("verify", "run"):
            _digest, instructions, reference = \
                self._expected[argument.name]
            if route == "verify":
                return response.get("ok") is True \
                    and response.get("instructions") == instructions
            return (response.get("stdout"),
                    response.get("exception")) == reference
        if route == "publish":
            with self._lock:
                self._published.append((argument, response["digest"]))
            return response["entry"]["manifest"]["digest"] \
                == response["digest"]
        payload, since = response
        with self._lock:
            self._log_total = max(self._log_total, payload["total"])
        return _chained(payload, since)

    def _client_loop(self, client: ServeClient, sequence: _Sequence,
                     counter, deadline, samples: list) -> None:
        while perf_counter() < deadline:
            with self._lock:
                index = next(counter)
            route, argument = sequence.op(index)
            start = perf_counter()
            try:
                response = self._call(client, route, argument)
            except Exception as error:
                samples.append((route, perf_counter() - start))
                with self._lock:
                    self.outcomes.fail_exception(error)
                continue
            samples.append((route, perf_counter() - start))
            good = self._correct(route, argument, response)
            with self._lock:
                if good:
                    self.outcomes.ok()
                else:
                    self.outcomes.fail(f"wrong-{route}")

    # -- the run --------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self._expectations()
        try:
            setups = repeated_setup(self.speed, self.setup)
            for unit in self.units[:len(SHORT_CORPUS)]:
                if unit.digest != self._expected[unit.name][0]:
                    self.outcomes.fail("publish-digest-divergence")
            return self._measure(seconds, setups)
        finally:
            if self.server is not None:
                self.server.stop()

    def _measure(self, seconds: float, setups: list[float]) -> dict:
        sequence = _Sequence(self.seed, self.units)
        with ServeClient(self.server.host, self.server.port,
                         tenant=TENANT) as client:
            self._log_total = client.log_entries(0)["total"]
            before = client.stats()
        counter = iter(range(1 << 62))
        latency_ms: list[float] = []
        by_route = {route: [] for route in ROUTES}
        walls: list[float] = []
        wall = cpu = 0.0
        with ExitStack() as stack:
            clients = [stack.enter_context(ServeClient(
                self.server.host, self.server.port, tenant=TENANT))
                for _ in range(CLIENTS)]
            self.speed.checkpoint()
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                segment = self._segment(clients, sequence, counter,
                                        min(deadline, perf_counter()
                                            + SEGMENT_S))
                wall += segment["wall"]
                cpu += segment["cpu"]
                self.speed.add(walls, segment["wall"])
                for route, elapsed in segment["samples"]:
                    self.speed.add(latency_ms, elapsed * 1e3)
                    self.speed.add(by_route[route], elapsed * 1e3)
                self.speed.checkpoint()
        with ServeClient(self.server.host, self.server.port,
                         tenant=TENANT) as client:
            after = client.stats()
            self._after_checks(client)
        replayed = self._replay(sequence) if self.traced else {}
        return self._metrics(setups, latency_ms, by_route, walls, wall, cpu,
                             before, after, replayed)

    def _segment(self, clients, sequence: _Sequence, counter,
                 deadline: float) -> dict:
        """One client thread per client runs the closed loop until
        ``deadline``; the server is idle before and after."""
        samples: list[tuple[str, float]] = []
        threads = [threading.Thread(
            target=self._client_loop,
            args=(client, sequence, counter, deadline, samples),
            name=f"perfbench-client-{n}")
            for n, client in enumerate(clients)]
        cpu_start = time.process_time()
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"wall": perf_counter() - start,
                "cpu": time.process_time() - cpu_start,
                "samples": samples}

    def _after_checks(self, client: ServeClient) -> None:
        """Determinism of every fresh publish, then a full audit."""
        for source, digest in self._published:
            if wire_digest(compile_wire(source)) == digest:
                self.outcomes.ok()
            else:
                self.outcomes.fail("publish-digest-divergence")
        try:
            client.audit(key=SIGNING_KEY)
            self.outcomes.ok()
        except ServeError as error:
            self.outcomes.fail_exception(error)

    # -- service-side replay (traced run) -------------------------------

    def _replay(self, sequence: _Sequence) -> dict[str, list[float]]:
        """Each route's server-side work without the transport: the
        same ``ServeService.dispatch`` the HTTP server calls, driven on
        a private event loop while the clients are idle."""
        service = self.server.service
        loop = asyncio.new_event_loop()
        times = {route: [] for route in ROUTES}
        rng = random.Random(self.seed)
        try:
            for route, count in REPLAYS.items():
                for n in range(count):
                    unit = rng.choice(self.units)
                    if route == "fetch":
                        request = ("GET", f"/v1/fetch/{unit.digest}", None)
                    elif route in ("verify", "run"):
                        request = ("POST", f"/v1/{route}",
                                   {"digest": unit.digest})
                    elif route == "publish":
                        request = ("POST", "/v1/publish", {
                            "name": "replay", "optimize": True,
                            "source": sequence.fresh_source(
                                1_000_000 + n)})
                    else:
                        since = max(0, len(service.log) - LOG_TAIL)
                        request = ("GET", f"/v1/log?since={since}", None)
                    start = perf_counter()
                    loop.run_until_complete(service.dispatch(*request))
                    times[route].append(perf_counter() - start)
        finally:
            loop.close()
        return times

    # -- metrics --------------------------------------------------------

    def _metrics(self, setups, latency_ms, by_route, walls, wall, cpu,
                 before, after, replayed) -> dict:
        """``latency_ms``, ``by_route`` and ``walls`` are scaled to the
        reference host speed; ``wall`` and ``cpu`` are raw seconds."""
        verify_ms = by_route["verify"]
        requests = len(latency_ms)
        factor = self.speed.factor()
        e2e = {
            "setup_s": statistics.median(setups),
            "success_rate": self.outcomes.success_rate,
            "latency_ms_p50": statistics.median(latency_ms),
            "latency_ms_tail": quantile(latency_ms, 0.99),
            "throughput_per_s": requests / sum(walls),
            "wire_bytes": sum(len(unit.wire) for unit in self.units)
            + self.dictionary_bytes,
            "verdict_ms_p50": statistics.median(verify_ms),
            "verdict_ms_p90": quantile(verify_ms, 0.90),
        }
        layers = {}
        for route in ROUTES:
            layers[f"serve.{route}.ms"] = statistics.mean(by_route[route]) \
                if by_route[route] else 0.0
        layers.update(_cache_rates(before, after))
        layers["serve.cpu_ms_per_req"] = cpu * 1e3 * factor / requests
        # requests/s x CPU s per request: near 1 means the process
        # never ran Python on both cores at once
        layers["serve.gil_bound_ratio"] = cpu / wall
        if replayed:
            transport = 0.0
            for route in ROUTES:
                service_ms = statistics.mean(replayed[route]) * 1e3 \
                    * factor
                layers[f"serve.service.{route}.ms"] = service_ms
                share = len(by_route[route]) / requests
                transport += share * (layers[f"serve.{route}.ms"]
                                      - service_ms)
            layers["serve.transport.ms"] = transport
        summary = {"setup_s": summarize(setups),
                   "latency_ms": summarize(latency_ms)}
        summary.update({f"{route}_ms": summarize(values)
                        for route, values in by_route.items()})
        return {"end_to_end": e2e, "per_layer": layers,
                "samples": summary,
                "detail": {"requests": requests, "wall_s": wall,
                           "cpu_s": cpu,
                           "host_speed": self.speed.report(),
                           "fresh_publishes": len(self._published),
                           "route_counts": {route: len(values) for
                                            route, values in
                                            by_route.items()}}}


def _chained(payload: dict, since: int) -> bool:
    """A log slice is dense from ``since``, links entry to entry, and
    ends at the claimed head when it reaches the end of the log."""
    entries = payload["entries"]
    for offset, entry in enumerate(entries):
        if entry["seq"] != since + offset:
            return False
        if offset and entry["prev"] != entry_hash(entries[offset - 1]):
            return False
    if entries and since + len(entries) == payload["total"]:
        return payload["head"] == entry_hash(entries[-1])
    return True


def _cache_rates(before: dict, after: dict) -> dict:
    def rate(name: str) -> float:
        hits = after[name]["hits"] - before[name]["hits"]
        misses = after[name]["misses"] - before[name]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0
    return {
        "serve.module_cache.hit_rate": rate("module_cache"),
        "serve.compile_cache.hit_rate": rate("compile_cache"),
        "serve.compiles_performed":
            after["counters"]["compiles_performed"]
            - before["counters"]["compiles_performed"],
    }
