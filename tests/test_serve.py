"""End-to-end conformance suite for the distribution service.

Four layers of gate, mirroring the serving stack:

* **unit** -- the content-addressed store (damaged shards read as
  absent), the hash-chained publish log (canonical JSON, dense
  sequence, signatures), and the quota meters under a manual clock;
* **protocol** -- every endpoint over real HTTP through the shared
  ``serve_client`` fixture, including the structured ``SERVE-*`` error
  envelopes and the coalescing bit-identity contract;
* **adversarial** -- a server whose publish log was edited after the
  fact (payload edit, ``prev`` splice, foreign signature) must be
  caught by the *auditing client*, not trusted;
* **reachability** -- every registered ``SERVE-*`` and ``DEC-*`` code
  is raised by at least one pinned fixture in this repository, and no
  raise site in ``src/`` uses an unregistered code.  Codes a hostile
  byte stream cannot reach (the bounded-alphabet reference encoding
  makes an out-of-range operand *unencodable* -- the paper's
  referential security by construction; a seeded search of 200k+
  mutations produced zero hits) are pinned as wrapper/contract tests
  against the exact internal surface that would raise them.

The full-corpus campaign is marked ``slow``; ``pytest -m "not slow"``
keeps the unit/protocol lanes fast.
"""

from __future__ import annotations

import base64
import errno
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import SERVE_TEST_KEY

from repro.analysis.diagnostics import STABLE_CODES
from repro.serve import (
    ManualClock,
    ModuleStore,
    PublishLog,
    QuotaManager,
    ServeClient,
    ServeError,
    ServeServer,
    ServeService,
    TenantLimits,
    audit_chain,
    canonical_json,
)
from repro.serve.log import entry_hash, sign_manifest
from repro.serve.store import is_digest, wire_digest

REPO = Path(__file__).resolve().parent.parent
ATTACKS_DIR = REPO / "tests" / "golden" / "attacks"

SOURCE = "class Main { static int main() { return 6 * 7; } }"
SOURCE_PRINT = ('class Main { static int main() '
                '{ System.out.println("hi"); return 1; } }')
#: a static initializer that throws before ``main`` can run
SOURCE_CLINIT_THROWS = ("class Main { static int[] a = new int[2];"
                        " static int x = a[5];"
                        " static void main() { System.out.println(x); } }")


def _wire(source: str = SOURCE, optimize: bool = False) -> bytes:
    from repro.api import compile_source
    from repro.encode.serializer import encode_module
    return encode_module(compile_source(source, optimize=optimize))


# ======================================================================
# unit: the content-addressed store


class TestModuleStore:
    def test_put_is_idempotent_and_content_addressed(self):
        store = ModuleStore()
        wire = _wire()
        digest = store.put(wire)
        assert digest == wire_digest(wire) and is_digest(digest)
        assert store.put(wire) == digest
        assert len(store) == 1
        assert store.get(digest) == wire

    def test_absent_digest_is_none(self):
        assert ModuleStore().get("ab" * 32) is None

    def test_disk_shards_round_trip(self, tmp_path):
        store = ModuleStore(str(tmp_path))
        digest = store.put(_wire())
        shard = tmp_path / digest[:2] / f"{digest}.stsa"
        assert shard.is_file()
        # a fresh store over the same root serves the shard
        fresh = ModuleStore(str(tmp_path))
        assert fresh.get(digest) == _wire()

    def test_damaged_shard_is_absent_never_wrong(self, tmp_path):
        store = ModuleStore(str(tmp_path))
        digest = store.put(_wire())
        shard = tmp_path / digest[:2] / f"{digest}.stsa"
        shard.write_bytes(b"rotted" + shard.read_bytes())
        fresh = ModuleStore(str(tmp_path))
        assert fresh.get(digest) is None  # absent, not wrong


def _replace_failing_once(failed: list):
    """An ``os.replace`` whose first call fails with ENOSPC; the target
    it refused lands in ``failed``."""
    real_replace = os.replace

    def replace(source, target):
        if not failed:
            failed.append(target)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_replace(source, target)
    return replace


class TestFailedStoreWrite:
    def test_publish_retry_is_served_after_a_restart(self, tmp_path,
                                                     monkeypatch):
        """A publish whose store write failed leaves no entry behind,
        so its retry writes the module and every digest the replayed
        log names is still served by a restarted service."""
        failed = []
        monkeypatch.setattr(os, "replace", _replace_failing_once(failed))
        service = ServeService(store_dir=str(tmp_path),
                               signing_key=SERVE_TEST_KEY)
        request = {"name": "m", "source": SOURCE, "tenant": "t"}
        with pytest.raises(ServeError) as caught:
            service.handle("POST", "/v1/publish", request)
        assert caught.value.code == "SERVE-INTERNAL"
        assert caught.value.detail == {"errno": errno.ENOSPC}
        assert service.counters["errors"] == 1
        assert failed
        published = service.handle("POST", "/v1/publish", request)
        assert published["seq"] == 0
        service.close()

        restarted = ServeService(store_dir=str(tmp_path),
                                 signing_key=SERVE_TEST_KEY)
        digests = [entry["manifest"]["digest"] for entry
                   in restarted.handle("GET", "/v1/log")["entries"]]
        assert digests == [published["digest"]]
        for digest in digests:
            fetched = restarted.handle("GET", f"/v1/fetch/{digest}")
            assert wire_digest(base64.b64decode(fetched["wire_b64"])) \
                == digest

    def test_failed_write_is_a_500_over_http(self, tmp_path, monkeypatch):
        """A server-side write fault reaches the client as HTTP 500
        ``SERVE-INTERNAL``, not as a bad request, and the retried
        publish is served."""
        from http.client import HTTPConnection
        failed = []
        monkeypatch.setattr(os, "replace", _replace_failing_once(failed))
        service = ServeService(store_dir=str(tmp_path),
                               signing_key=SERVE_TEST_KEY)
        server = ServeServer(service).start()
        try:
            conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
            body = json.dumps({"name": "m", "source": SOURCE,
                               "tenant": "t"})
            conn.request("POST", "/v1/publish", body=body, headers={
                "Content-Type": "application/json",
                "Connection": "close"})
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
            conn.close()
            assert failed
            assert response.status == 500
            assert error["code"] == "SERVE-INTERNAL"
            assert error["detail"] == {"errno": errno.ENOSPC}
            with ServeClient("127.0.0.1", server.port,
                             tenant="t") as client:
                published = client.publish("m", source=SOURCE)
                assert wire_digest(client.fetch(published["digest"])) \
                    == published["digest"]
        finally:
            server.stop()
            service.close()


# ======================================================================
# unit: the hash-chained publish log


def _log_with(count: int, key: bytes = SERVE_TEST_KEY) -> PublishLog:
    log = PublishLog(key, clock=ManualClock())
    for index in range(count):
        log.append(name=f"m{index}", tenant="t", digest="ab" * 32,
                   format_version="stsa1", size=10 + index)
    return log


class TestPublishLog:
    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]}) \
            == b'{"a":[2,{"y":1,"z":0}],"b":1}'

    def test_chain_links_and_audits(self):
        log = _log_with(3)
        head = audit_chain(log.entries, key=SERVE_TEST_KEY,
                           head=log.head)
        assert head == log.head == entry_hash(log.entries[-1])
        assert log.audit() == head
        assert [entry["seq"] for entry in log.entries] == [0, 1, 2]

    def test_payload_edit_breaks_the_chain(self):
        log = _log_with(3)
        log.entries[1]["manifest"]["name"] = "evil"
        with pytest.raises(ServeError) as caught:
            audit_chain(log.entries, head=log.head)
        assert caught.value.code == "SERVE-CHAIN"

    def test_prev_splice_breaks_the_chain(self):
        log = _log_with(3)
        log.entries[2]["prev"] = entry_hash(log.entries[0])
        with pytest.raises(ServeError) as caught:
            audit_chain(log.entries)
        assert caught.value.code == "SERVE-CHAIN"

    def test_foreign_signature_is_rejected_with_key(self):
        log = _log_with(2)
        log.entries[1]["signature"] = sign_manifest(
            b"impostor", log.entries[1]["manifest"])
        # without the key the chain itself no longer verifies (the
        # signature is covered by the entry hash)
        with pytest.raises(ServeError):
            audit_chain(log.entries, head=log.head)
        # with the key, the signature check names the precise failure
        with pytest.raises(ServeError) as caught:
            audit_chain(log.entries, key=SERVE_TEST_KEY)
        assert caught.value.code == "SERVE-SIG"

    @pytest.mark.parametrize("entry", [5, None])
    def test_non_object_entry_is_a_chain_break(self, entry):
        entries = _log_with(2).entries
        entries[1] = entry
        with pytest.raises(ServeError) as caught:
            audit_chain(entries)
        assert caught.value.code == "SERVE-CHAIN"
        assert caught.value.detail == {"seq": 1}

    @pytest.mark.parametrize("entries", [5, None, {"seq": 0}])
    def test_non_list_log_is_a_chain_break(self, entries):
        with pytest.raises(ServeError) as caught:
            audit_chain(entries)
        assert caught.value.code == "SERVE-CHAIN"
        assert caught.value.detail == {"seq": 0}

    @pytest.mark.parametrize("signature", [5, "\u00e9" * 64],
                             ids=["int", "non-ascii"])
    def test_unusable_signature_fails_to_verify(self, signature):
        log = _log_with(2)
        log.entries[1]["signature"] = signature
        with pytest.raises(ServeError) as caught:
            audit_chain(log.entries, key=SERVE_TEST_KEY)
        assert caught.value.code == "SERVE-SIG"
        assert caught.value.detail == {"seq": 1}

    def test_replayed_int_signature_is_rejected_at_restart(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._persisted(path, 2)
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["signature"] = 7
        lines[1] = json.dumps(entry, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServeError) as caught:
            PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                       path=str(path))
        assert caught.value.code == "SERVE-SIG"
        assert caught.value.detail == {"seq": 1}

    def test_jsonl_persistence_replays_the_chain(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                         path=str(path))
        for index in range(2):
            log.append(name=f"m{index}", tenant="t", digest="cd" * 32,
                       format_version="stsa2", size=5)
        resumed = PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                             path=str(path))
        assert resumed.head == log.head and len(resumed) == 2
        # a tampered line is caught at construction, before serving
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"m0"', '"mX"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServeError) as caught:
            PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                       path=str(path))
        # the replay audits with the key, so the edited manifest is
        # caught by its signature before the next entry's prev link
        assert caught.value.code in ("SERVE-SIG", "SERVE-CHAIN")

    def _persisted(self, path, count: int) -> PublishLog:
        log = PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                         path=str(path))
        for index in range(count):
            log.append(name=f"m{index}", tenant="t", digest="cd" * 32,
                       format_version="stsa1", size=5)
        return log

    def test_torn_tail_is_truncated_and_the_chain_continues(
            self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = self._persisted(path, 2)
        first = log.entries[0]
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # a crash mid-append
        resumed = PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                             path=str(path))
        assert resumed.entries == [first]
        assert resumed.head == entry_hash(first)
        assert path.read_bytes() == data[:data.index(b"\n") + 1]
        entry = resumed.append(name="next", tenant="t",
                               digest="cd" * 32, format_version="stsa1",
                               size=5)
        assert entry["seq"] == 1 and entry["prev"] == entry_hash(first)
        again = PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                           path=str(path))
        assert len(again) == 2 and again.head == resumed.head

    def test_corrupt_complete_line_is_a_chain_break(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._persisted(path, 3)
        lines = path.read_bytes().split(b"\n")
        for damage in (lines[1][:-7], b"[1, 2]"):
            path.write_bytes(b"\n".join([lines[0], damage, *lines[2:]]))
            with pytest.raises(ServeError) as caught:
                PublishLog(SERVE_TEST_KEY, clock=ManualClock(),
                           path=str(path))
            assert caught.value.code == "SERVE-CHAIN"
            assert caught.value.detail == {"line": 2}


# ======================================================================
# unit: quotas under a manual clock


class TestQuotas:
    def test_rate_window_fills_and_refills(self):
        clock = ManualClock()
        quotas = QuotaManager(
            TenantLimits(requests_per_window=2, window_seconds=60.0),
            clock=clock)
        quotas.check_rate("t")
        quotas.check_rate("t")
        with pytest.raises(ServeError) as caught:
            quotas.check_rate("t")
        assert caught.value.code == "SERVE-RATE"
        quotas.check_rate("other")  # windows are per tenant
        clock.advance(61.0)
        quotas.check_rate("t")  # the window rolled over

    def test_stored_bytes_meter(self):
        quotas = QuotaManager(TenantLimits(stored_bytes=100))
        quotas.charge_stored("t", 80)
        with pytest.raises(ServeError) as caught:
            quotas.charge_stored("t", 30)
        assert caught.value.code == "SERVE-QUOTA-BYTES"
        assert quotas.usage("t")["stored_bytes"] == 80  # not charged

    def test_compile_budget(self):
        quotas = QuotaManager(TenantLimits(compile_seconds=1.0))
        quotas.check_compile("t")
        quotas.charge_compile("t", 1.5)
        with pytest.raises(ServeError) as caught:
            quotas.check_compile("t")
        assert caught.value.code == "SERVE-QUOTA-COMPILE"


# ======================================================================
# protocol: endpoints over real HTTP


class TestEndpoints:
    def test_lifecycle_compile_publish_fetch_verify_run(
            self, serve_client):
        compiled = serve_client.compile(SOURCE, return_bytes=True)
        published = serve_client.publish("answer", source=SOURCE)
        assert published["digest"] == compiled["digest"]
        wire = serve_client.fetch(published["digest"])
        assert wire == compiled["wire"]
        verified = serve_client.verify(digest=published["digest"])
        assert verified["ok"] and verified["classes"] == 1
        result = serve_client.run(digest=published["digest"])
        assert result["value"] == 42 and result["exception"] is None

    def test_manifest_is_signed_and_auditable(self, serve_client):
        serve_client.publish("a", source=SOURCE)
        serve_client.publish("b", source=SOURCE_PRINT)
        head = serve_client.audit(key=SERVE_TEST_KEY)
        assert head == serve_client.healthz()["log_head"]
        entries = serve_client.log_entries()["entries"]
        assert [e["manifest"]["name"] for e in entries] == ["a", "b"]
        assert set(entries[0]["manifest"]) == {
            "digest", "format", "name", "published_at", "size",
            "tenant"}

    def test_v2_batch_shares_a_dictionary(self, serve_client):
        modules = [{"name": f"m{i}",
                    "source": SOURCE.replace("6 * 7", str(i))}
                   for i in range(4)]
        batch = serve_client.publish_batch(modules, wire_v2=True)
        assert len(batch["published"]) == 4
        for entry in batch["published"]:
            assert entry["entry"]["manifest"]["format"] == "stsa2"
            # each envelope round-trips through fetch + verify + run
            serve_client.fetch(entry["digest"])
            assert serve_client.verify(digest=entry["digest"])["ok"]
        values = [serve_client.run(digest=e["digest"])["value"]
                  for e in batch["published"]]
        assert values == [0, 1, 2, 3]
        for digest in batch["dictionaries"]:
            assert serve_client.fetch_dictionary(digest)

    def test_rejection_carries_the_decoder_code(self, serve_client):
        with pytest.raises(ServeError) as caught:
            serve_client.verify(wire=b"\x00" * 40)
        assert caught.value.code == "SERVE-REJECTED"
        assert caught.value.detail["code"] in STABLE_CODES

    def test_rejection_location_is_stable(self, serve_client):
        # a mid-body rejection names its block by decode position, so
        # the same hostile bytes verified twice report the same place
        hostile = (ATTACKS_DIR / "24657d6f98b724c5.bin").read_bytes()
        details = []
        for _ in range(2):
            with pytest.raises(ServeError) as caught:
                serve_client.verify(wire=hostile)
            assert caught.value.code == "SERVE-REJECTED"
            details.append(caught.value.detail)
        assert ":B" in details[0]["location"]
        assert details[0] == details[1]

    @pytest.mark.parametrize("argument", [
        {"max_steps": "abc"}, {"max_steps": [1]}, {"class": 5}])
    def test_bad_run_arguments_are_bad_requests(self, serve_client,
                                                argument):
        digest = serve_client.publish("answer", source=SOURCE)["digest"]
        with pytest.raises(ServeError) as caught:
            serve_client.request("POST", "/v1/run",
                                 {"digest": digest, **argument})
        assert caught.value.code == "SERVE-BAD-REQUEST"
        # named by the field, not a 500 "internal error" wrapping a
        # raw Python exception
        assert f"'{next(iter(argument))}'" in caught.value.message

    @pytest.mark.parametrize("trace", [False, True])
    def test_a_clinit_exception_is_the_runs_exception(self, serve_client,
                                                      trace):
        digest = serve_client.publish(
            "clinit", source=SOURCE_CLINIT_THROWS)["digest"]
        result = serve_client.request("POST", "/v1/run",
                                      {"digest": digest, "trace": trace})
        assert (result["stdout"], result["exception"]) == \
            ("", "java.lang.ArrayIndexOutOfBoundsException")

    @pytest.mark.parametrize("source, argument", [
        ("class Main { static void main() { int i = 0;"
         " while (true) { i = i + 1; } } }", {"max_steps": 1000}),
        ("class Main { static int down(int n) { if (n == 0) return 0;"
         " return 1 + down(n - 1); }"
         " static void main() { System.out.println(down(5000)); } }",
         {}),
    ], ids=["steps", "stack"])
    def test_a_bounded_run_is_a_bad_request(self, serve_client, source,
                                            argument):
        digest = serve_client.publish("bounded", source=source)["digest"]
        with pytest.raises(ServeError) as caught:
            serve_client.request("POST", "/v1/run",
                                 {"digest": digest, **argument})
        assert caught.value.code == "SERVE-BAD-REQUEST"
        assert caught.value.message.startswith("execution failed: ")

    @pytest.mark.parametrize("route, field, value, where", [
        ("compile", "passes", 5, "request"),
        ("compile", "passes", [5], "request"),
        ("compile", "passes", [["cse"]], "request"),
        ("compile", "optimize", "no", "request"),
        ("compile", "optimize", "false", "request"),
        ("compile", "wire_v2", 1, "request"),
        ("compile", "return_bytes", "yes", "request"),
        ("publish", "passes", 5, "request"),
        ("publish", "optimize", "no", "request"),
        ("publish", "wire_v2", "false", "request"),
        ("publish", "passes", [5], "entry"),
        ("publish", "optimize", "no", "entry"),
        ("publish", "wire_v2", "yes", "batch"),
    ])
    def test_bad_compile_arguments_are_bad_requests(
            self, serve_stack, route, field, value, where):
        """Compile flags of the wrong JSON type answer 400 before
        anything compiles: a bare ``bool()`` would read ``"no"`` as
        true, and a non-string pass name would escape as a 500."""
        from http.client import HTTPConnection
        service, server, _clock = serve_stack
        if where == "request":
            payload = {"name": "m", "source": SOURCE, field: value}
        else:
            # the bad entry comes last, so a check made per compile
            # would already have compiled the first one
            modules = [{"name": "a", "source": SOURCE}]
            if where == "entry":
                modules.append({"name": "b", "source": SOURCE_PRINT,
                                field: value})
            payload = {"modules": modules}
            if where == "batch":
                payload[field] = value
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", f"/v1/{route}", body=json.dumps(payload),
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        response = conn.getresponse()
        error = json.loads(response.read())["error"]
        conn.close()
        assert (response.status, error["code"]) == \
            (400, "SERVE-BAD-REQUEST")
        assert f"'{field}'" in error["message"]
        assert service.counters["compile_requests"] == 0
        assert len(service.store) == 0

    def test_unknown_digest_and_endpoint(self, serve_client):
        with pytest.raises(ServeError) as caught:
            serve_client.fetch("ab" * 32)
        assert caught.value.code == "SERVE-NOT-FOUND"
        with pytest.raises(ServeError) as caught:
            serve_client.request("GET", "/v1/nope")
        assert caught.value.code == "SERVE-ENDPOINT"

    def test_stats_count_the_traffic(self, serve_client):
        serve_client.publish("m", source=SOURCE)
        serve_client.verify(digest=wire_digest(_wire()))
        stats = serve_client.stats()
        assert stats["counters"]["publishes"] == 1
        assert stats["counters"]["verifies"] == 1
        assert stats["log"]["entries"] == 1
        assert stats["store"]["entries"] == 1


def _raw_exchange(port: int, request: bytes,
                  timeout: float = 10) -> tuple[int, dict]:
    """Send ``request`` over a fresh socket; the status and JSON body
    of what the server answers before it closes the connection."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _sep, body = response.partition(b"\r\n\r\n")
    assert head, "the server closed the connection without an answer"
    return int(head.split()[1]), json.loads(body)


class TestHostileTransport:
    @pytest.mark.parametrize("length", ["abc", "-5", "\u00b2"])
    def test_a_bad_content_length_is_a_bad_request(self, serve_stack,
                                                   serve_client, length):
        _service, server, _clock = serve_stack
        status, body = _raw_exchange(
            server.port, f"POST /v1/verify HTTP/1.1\r\n"
                         f"Content-Length: {length}\r\n\r\n{{}}"
            .encode("utf-8"))
        assert status == 400
        assert body["error"]["code"] == "SERVE-BAD-REQUEST"
        assert body["error"]["code"] in STABLE_CODES
        # the server is still live
        assert serve_client.healthz()["ok"]

    def test_a_body_that_stops_short_is_a_bad_request(
            self, serve_stack, serve_client, monkeypatch):
        from repro.serve import service
        monkeypatch.setattr(service, "_BODY_DEADLINE", 0.2)
        _service, server, _clock = serve_stack
        status, body = _raw_exchange(
            server.port, b"POST /v1/verify HTTP/1.1\r\n"
                         b"Content-Length: 5\r\n\r\n{}", timeout=5)
        assert status == 400
        assert body["error"]["code"] == "SERVE-BAD-REQUEST"
        assert "0.2 s" in body["error"]["message"]
        assert serve_client.healthz()["ok"]


class TestCoalescing:
    def test_identical_concurrent_compiles_are_bit_identical(
            self, serve_stack):
        service, server, _clock = serve_stack
        clients = 6
        barrier = threading.Barrier(clients)
        wires: list = [None] * clients

        def worker(index: int) -> None:
            client = ServeClient("127.0.0.1", server.port,
                                 tenant="coalesce")
            barrier.wait()
            result = client.compile(SOURCE_PRINT, optimize=True,
                                    return_bytes=True)
            wires[index] = result["wire"]

        with ThreadPoolExecutor(max_workers=clients) as pool:
            for _ in pool.map(worker, range(clients)):
                pass
        assert all(wire is not None for wire in wires)
        assert len({bytes(wire) for wire in wires}) == 1
        # one barrier fan-in costs at most two underlying compiles
        # (two only when a request lands after the winner settled)
        assert 1 <= service.counters["compiles_performed"] <= 2
        coalesced = service.counters["compiles_coalesced"]
        cache_hits = service.compile_cache.hits
        assert coalesced + cache_hits >= clients - 2

    def test_settled_compiles_hit_the_compilation_cache(
            self, serve_client, serve_stack):
        service, _server, _clock = serve_stack
        serve_client.compile(SOURCE)
        performed = service.counters["compiles_performed"]
        serve_client.compile(SOURCE)
        assert service.counters["compiles_performed"] == performed


def _b64(wire: bytes) -> str:
    return base64.b64encode(wire).decode("ascii")


class TestVerifiedModuleMemo:
    """The in-process memo of verified modules: keyed on the exact
    delivered bytes, filled only by a successful cold verify."""

    def test_rejection_is_never_memoized(self, serve_client):
        honest = _wire(SOURCE_PRINT)
        serve_client.verify(wire=honest)
        hostile = bytearray(honest)
        hostile[-2] ^= 0xFF  # one byte away from a memoized unit
        before = serve_client.stats()["module_cache"]
        codes = []
        for _ in range(2):
            with pytest.raises(ServeError) as caught:
                serve_client.verify(wire=bytes(hostile))
            assert caught.value.code == "SERVE-REJECTED"
            codes.append(caught.value.detail["code"])
        assert codes[0].startswith("DEC-") and codes[0] == codes[1]
        after = serve_client.stats()["module_cache"]
        assert after["entries"] == before["entries"]
        assert after["misses"] == before["misses"] + 2
        assert after["hits"] == before["hits"]

    def test_wire_and_digest_share_one_entry(self, serve_client):
        wire = _wire(SOURCE_PRINT)
        digest = serve_client.publish("p", source=SOURCE_PRINT)["digest"]
        assert digest == wire_digest(wire)
        by_digest = serve_client.verify(digest=digest)
        by_wire = serve_client.verify(wire=wire)
        assert by_wire == by_digest
        assert serve_client.run(wire=wire)["stdout"] == "hi\n"
        stats = serve_client.stats()["module_cache"]
        assert set(stats) == {"hits", "misses", "hit_rate", "entries"}
        assert (stats["entries"], stats["misses"], stats["hits"]) \
            == (1, 1, 2)

    def test_least_recently_used_unit_is_evicted(self):
        from repro.serve.service import MODULE_MEMO_CAPACITY
        service = ServeService(signing_key=SERVE_TEST_KEY)
        wires = [_wire(SOURCE.replace("6 * 7", str(index)))
                 for index in range(MODULE_MEMO_CAPACITY + 1)]

        def verify(index: int) -> dict:
            return service.handle("POST", "/v1/verify",
                                  {"wire_b64": _b64(wires[index])})
        try:
            first = [verify(index)
                     for index in range(MODULE_MEMO_CAPACITY)]
            verify(0)  # a hit refreshes unit 0; unit 1 is now oldest
            verify(MODULE_MEMO_CAPACITY)
            stats = service.module_cache.stats()
            assert stats["entries"] == MODULE_MEMO_CAPACITY
            assert verify(0) == first[0]
            assert service.module_cache.stats()["misses"] \
                == stats["misses"]
            assert verify(1) == first[1]  # evicted: a cold re-verify
            assert service.module_cache.stats()["misses"] \
                == stats["misses"] + 1
        finally:
            service.close()


# hot loops for the trace tier; Trap leaves its trace through a failing
# idxcheck guard, and Loop's static counter would print more than 1 if
# one run saw another's statics through the shared module
STRESS_SOURCES = {
    "Loop": """
class Loop {
    static int runs;
    static int main() {
        runs = runs + 1;
        int sum = 0;
        for (int i = 0; i < 300; i++) {
            sum = sum + i * 3;
            if (i % 100 == 0) System.out.println(sum);
        }
        System.out.println(runs);
        return sum;
    }
}""",
    "Trap": """
class Trap {
    static int main() {
        int[] cells = new int[60];
        int sum = 0;
        for (int i = 0; i <= 60; i++) {
            cells[i] = i;
            sum = sum + cells[i];
        }
        return sum;
    }
}""",
}


class TestSharedModuleStress:
    """Many client threads run and verify the same digests at once, so
    every request shares one memoized module; each response must equal
    the serial one."""

    ROUNDS = 10

    @staticmethod
    def _observed(route: str, response: dict) -> tuple:
        if route == "verify":
            return response["classes"], response["instructions"]
        return (response["value"], response["stdout"], response["steps"],
                response["exception"])

    def _serial(self, wires: dict) -> dict:
        service = ServeService(signing_key=SERVE_TEST_KEY)
        expected = {}
        try:
            for name, wire in wires.items():
                for route, trace in (("verify", None), ("run", None),
                                     ("run", True)):
                    payload = {"wire_b64": _b64(wire)}
                    if trace:
                        payload["trace"] = trace
                    expected[name, route, trace] = self._observed(
                        route, service.handle("POST", f"/v1/{route}",
                                              payload))
        finally:
            service.close()
        return expected

    def test_concurrent_requests_match_the_serial_results(
            self, serve_stack):
        service, server, _clock = serve_stack
        wires = {name: _wire(source)
                 for name, source in STRESS_SOURCES.items()}
        expected = self._serial(wires)
        assert expected["Trap", "run", None][3] is not None
        with ServeClient("127.0.0.1", server.port) as client:
            digests = {name: client.publish(name, source=source)["digest"]
                       for name, source in STRESS_SOURCES.items()}
        ops = list(expected)
        threads_count = max(8, (os.cpu_count() or 1) + 2)
        barrier = threading.Barrier(threads_count, timeout=30)
        mismatches: list = []
        completed: list = []

        def client_thread(index: int) -> None:
            with ServeClient("127.0.0.1", server.port,
                             tenant="stress") as client:
                barrier.wait()
                for step in range(self.ROUNDS * len(ops)):
                    name, route, trace = ops[(index + step) % len(ops)]
                    try:
                        if route == "verify":
                            response = client.verify(digest=digests[name])
                        else:
                            response = client.run(digest=digests[name],
                                                  trace=trace)
                        observed = self._observed(route, response)
                    except Exception as error:  # recorded, not lost
                        observed = repr(error)
                    if observed != expected[name, route, trace]:
                        mismatches.append((name, route, trace, observed))
            completed.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client_thread, args=(n,),
                                        name=f"stress-{n}")
                       for n in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(completed) == list(range(threads_count))
        assert mismatches == []
        stats = service.module_cache.stats()
        assert stats["entries"] == len(wires)
        assert stats["hits"] + stats["misses"] \
            == threads_count * self.ROUNDS * len(ops)


# ======================================================================
# adversarial: the auditing client vs a lying server


class TestTamperDetection:
    def _published(self, serve_client, count: int = 3) -> list:
        for index in range(count):
            serve_client.publish(
                f"m{index}",
                source=SOURCE.replace("6 * 7", str(index + 10)))
        return serve_client.log_entries()["entries"]

    def test_honest_log_audits_clean(self, serve_client):
        self._published(serve_client)
        assert serve_client.audit(key=SERVE_TEST_KEY)

    def test_edited_payload_is_detected(self, serve_stack,
                                        serve_client):
        service, _server, _clock = serve_stack
        self._published(serve_client)
        pinned = serve_client.audit()
        # the server rewrites history: entry 0 now claims another size
        service.log.entries[0]["manifest"]["size"] = 1
        with pytest.raises(ServeError) as caught:
            serve_client.audit()
        assert caught.value.code == "SERVE-CHAIN"
        assert pinned  # the old head is simply no longer served

    def test_spliced_prev_is_detected(self, serve_stack, serve_client):
        service, _server, _clock = serve_stack
        self._published(serve_client)
        entries = service.log.entries
        entries[2]["prev"] = entries[1]["prev"]  # drop entry 1's edit
        with pytest.raises(ServeError) as caught:
            serve_client.audit()
        assert caught.value.code == "SERVE-CHAIN"

    def test_wholesale_rewrite_fails_the_pinned_head(
            self, serve_stack, serve_client):
        service, _server, clock = serve_stack
        self._published(serve_client, count=2)
        pinned = serve_client.audit(key=SERVE_TEST_KEY)
        # the server discards history and rebuilds a fresh, internally
        # consistent log -- every entry valid, every signature good
        service.log.entries.clear()
        service.log.head = "0" * 64
        service.log.append(name="rewritten", tenant="t",
                           digest="ee" * 32, format_version="stsa1",
                           size=9)
        assert serve_client.audit(key=SERVE_TEST_KEY)  # looks clean...
        with pytest.raises(ServeError) as caught:
            serve_client.audit(expect_head=pinned)  # ...until pinned
        assert caught.value.code == "SERVE-CHAIN"

    @pytest.mark.parametrize("served", [
        {"head": "0" * 64}, {"entries": None}, [], "log", None,
    ], ids=["no-entries", "null-entries", "list", "str", "null"])
    def test_log_without_entries_is_a_chain_break(self, monkeypatch,
                                                  served):
        # a hostile server's /v1/log answer, no connection needed
        client = ServeClient("127.0.0.1", 1)
        monkeypatch.setattr(client, "log_entries", lambda since=0: served)
        with pytest.raises(ServeError) as caught:
            client.audit()
        assert caught.value.code == "SERVE-CHAIN"

    def test_store_serving_wrong_bytes_is_refused(self, serve_stack,
                                                  serve_client):
        service, _server, _clock = serve_stack
        digest = serve_client.publish("m", source=SOURCE)["digest"]
        service.store._memory[digest] = _wire(SOURCE_PRINT)
        with pytest.raises(ServeError) as caught:
            serve_client.fetch(digest)
        assert caught.value.code == "SERVE-CHAIN"


# ======================================================================
# quotas over the wire


class TestQuotaEnforcement:
    def test_rate_quota_returns_serve_rate(self):
        clock = ManualClock()
        service = ServeService(
            signing_key=SERVE_TEST_KEY, clock=clock,
            limits=TenantLimits(requests_per_window=3,
                                window_seconds=60.0))
        server = ServeServer(service).start()
        try:
            client = ServeClient("127.0.0.1", server.port, tenant="t")
            for _ in range(3):
                client.healthz()
            with pytest.raises(ServeError) as caught:
                client.healthz()
            assert caught.value.code == "SERVE-RATE"
            clock.advance(61.0)
            client.healthz()
        finally:
            server.stop()

    def test_storage_quota_returns_serve_quota_bytes(self):
        service = ServeService(signing_key=SERVE_TEST_KEY,
                               limits=TenantLimits(stored_bytes=10))
        with pytest.raises(ServeError) as caught:
            service.handle("POST", "/v1/publish",
                           {"name": "m", "source": SOURCE,
                            "tenant": "t"})
        assert caught.value.code == "SERVE-QUOTA-BYTES"

    def test_compile_quota_returns_serve_quota_compile(self):
        service = ServeService(signing_key=SERVE_TEST_KEY,
                               limits=TenantLimits(compile_seconds=0.0))
        with pytest.raises(ServeError) as caught:
            service.handle("POST", "/v1/compile",
                           {"source": SOURCE, "tenant": "t"})
        assert caught.value.code == "SERVE-QUOTA-COMPILE"


# ======================================================================
# reachability audit: every registered code has a pinned trigger


def _decode_code(fn) -> str:
    from repro.encode.deserializer import DecodeError
    try:
        fn()
    except DecodeError as error:
        return error.code
    raise AssertionError("stream was accepted")


def _v2_triggers() -> dict:
    """Handmade byte-level triggers, one per directly craftable code."""
    from repro.cache import DictionaryStore
    from repro.encode.deserializer import decode_module
    from repro.encode.format import (
        MAGIC_V2,
        MAX_DICTIONARIES,
        MAX_VARINT_BYTES,
        MODE_DELTA,
        MODE_FULL,
        _write_varint,
        blob_digest,
    )
    from repro.loader import load_module

    wire = _wire()
    store = DictionaryStore()
    base_digest = store.put(wire)

    over_count = bytearray(MAGIC_V2)
    over_count.append(MODE_FULL)
    _write_varint(over_count, MAX_DICTIONARIES + 1)

    overcopy = bytearray(MAGIC_V2)
    overcopy.append(MODE_DELTA)
    overcopy += base_digest
    _write_varint(overcopy, len(wire) + 7)  # copies past the base
    _write_varint(overcopy, 0)
    _write_varint(overcopy, 0)
    overcopy += blob_digest(b"unreached")

    return {
        "DEC-MAGIC": lambda: load_module(b"XXXX" + wire),
        "DEC-IO": lambda: decode_module(wire[:-3]),
        "DEC-TRAILING": lambda: load_module(wire + b"\x01",
                                            cache=False),
        "DEC-LIMIT": lambda: load_module(bytes(over_count),
                                         cache=False),
        "DEC-DELTA": lambda: load_module(bytes(overcopy), store=store,
                                         cache=False),
    }


def _contract_pins() -> dict:
    """Codes a hostile byte stream cannot reach, pinned against the
    exact internal surface that raises them.

    ``DEC-REF`` guards the reference resolver's bookkeeping: the
    bounded-alphabet encoding makes an out-of-range operand
    *unencodable* (referential security by construction -- a seeded
    search over 200k+ byte mutations of branchy two-class programs
    produced zero DEC-REF rejections), so the pin drives the resolver
    with an entry count its scope chain cannot satisfy.
    ``DEC-WORLD`` / ``DEC-TABLE`` / ``DEC-VALUE`` are the decode
    boundary's wrapping contract for lower-layer validation errors:
    the pin raises each wrapped exception mid-decode and asserts the
    stable code surfaces.
    """
    from repro.encode import deserializer
    from repro.typesys.table import TypeTableError
    from repro.typesys.world import WorldError

    def dec_ref():
        decoder = deserializer._FunctionDecoder.__new__(
            deserializer._FunctionDecoder)

        class MaxSymbolReader:
            def read_bounded(self, alphabet):
                return alphabet - 1

        class Block:
            id = 0

        block = Block()
        decoder.reader = MaxSymbolReader()
        decoder._current_block = block
        decoder._entry_counts = {"int": 3}  # claims 3 inherited regs
        decoder._chain = {}                 # ...the chain holds none
        decoder.planes = {0: {}}
        decoder._resolve_ref(block, "int", 0)

    def wrapped(exception):
        def trigger(monkeypatch_wire=_wire()):
            def explode(self):
                raise exception("lower layer said no")
            original = deserializer._ModuleDecoder.decode
            deserializer._ModuleDecoder.decode = explode
            try:
                deserializer.decode_module(monkeypatch_wire)
            finally:
                deserializer._ModuleDecoder.decode = original
        return trigger

    return {
        "DEC-REF": dec_ref,
        "DEC-WORLD": wrapped(WorldError),
        "DEC-TABLE": wrapped(TypeTableError),
        "DEC-VALUE": wrapped(ValueError),
    }


def _serve_triggers() -> dict:
    """One transport-free trigger per SERVE code."""

    def with_service(limits, method, path, payload):
        def trigger():
            service = ServeService(signing_key=SERVE_TEST_KEY,
                                   limits=limits)
            service.handle(method, path, payload)
        return trigger

    def rate():
        service = ServeService(
            signing_key=SERVE_TEST_KEY, clock=ManualClock(),
            limits=TenantLimits(requests_per_window=1))
        service.handle("GET", "/v1/healthz", {"tenant": "t"})
        service.handle("GET", "/v1/healthz", {"tenant": "t"})

    def chain():
        log = _log_with(2)
        log.entries[0]["manifest"]["name"] = "edited"
        audit_chain(log.entries)

    def signature():
        audit_chain(_log_with(1).entries, key=b"not-the-publisher")

    def internal():
        # a store under a regular file: every write fails with ENOTDIR
        with tempfile.TemporaryDirectory() as tmp:
            blocker = Path(tmp) / "file"
            blocker.write_bytes(b"")
            service = ServeService(store_dir=str(blocker / "store"),
                                   signing_key=SERVE_TEST_KEY)
            service.handle("POST", "/v1/publish",
                           {"name": "m", "source": SOURCE})

    generous = TenantLimits(requests_per_window=None,
                            stored_bytes=None, compile_seconds=None)
    garbage = base64.b64encode(b"\x00" * 30).decode("ascii")
    return {
        "SERVE-RATE": rate,
        "SERVE-QUOTA-BYTES": with_service(
            TenantLimits(stored_bytes=5), "POST", "/v1/publish",
            {"name": "m", "source": SOURCE, "tenant": "t"}),
        "SERVE-QUOTA-COMPILE": with_service(
            TenantLimits(compile_seconds=0.0), "POST", "/v1/compile",
            {"source": SOURCE, "tenant": "t"}),
        "SERVE-NOT-FOUND": with_service(
            generous, "GET", f"/v1/fetch/{'ab' * 32}", None),
        "SERVE-BAD-REQUEST": with_service(
            generous, "POST", "/v1/compile", {}),
        "SERVE-ENDPOINT": with_service(
            generous, "GET", "/v1/never-registered", None),
        "SERVE-COMPILE": with_service(
            generous, "POST", "/v1/compile",
            {"source": "class { syntax error"}),
        "SERVE-REJECTED": with_service(
            generous, "POST", "/v1/verify", {"wire_b64": garbage}),
        "SERVE-CHAIN": chain,
        "SERVE-SIG": signature,
        "SERVE-INTERNAL": internal,
    }


class TestCodeReachability:
    """Every registered code is raised by >=1 pinned fixture; no raise
    site uses an unregistered code."""

    def test_every_dec_code_is_reachable(self):
        manifest = json.loads((ATTACKS_DIR / "manifest.json")
                              .read_text())
        covered = {entry["code"] for entry in manifest.values()}
        for code, trigger in _v2_triggers().items():
            assert _decode_code(trigger) == code
            covered.add(code)
        from repro.encode.deserializer import DecodeError
        for code, trigger in _contract_pins().items():
            with pytest.raises(DecodeError) as caught:
                trigger()
            assert caught.value.code == code
            covered.add(code)
        registered = {code for code in STABLE_CODES
                      if code.startswith("DEC-")}
        assert covered >= registered, \
            f"unpinned decoder codes: {sorted(registered - covered)}"

    def test_every_serve_code_is_reachable(self):
        triggers = _serve_triggers()
        registered = {code for code in STABLE_CODES
                      if code.startswith("SERVE-")}
        assert set(triggers) == registered, \
            "trigger table out of sync with the registry"
        for code, trigger in sorted(triggers.items()):
            with pytest.raises(ServeError) as caught:
                trigger()
            assert caught.value.code == code, \
                f"{code} trigger raised {caught.value.code}"

    def test_no_raise_site_uses_an_unregistered_code(self):
        pattern = re.compile(
            r'"((?:DEC|SERVE)-[A-Z]+(?:-[A-Z0-9]+)*)"')
        unregistered = {}
        for path in sorted((REPO / "src").rglob("*.py")):
            for literal in pattern.findall(path.read_text()):
                if literal not in STABLE_CODES:
                    unregistered.setdefault(literal, path.name)
        assert not unregistered


# ======================================================================
# the CLI surface


class TestServeCli:
    def test_publish_then_fetch_round_trips(self, serve_stack,
                                            serve_client, tmp_path,
                                            capsys):
        from repro.cli import main
        _service, server, _clock = serve_stack
        url = f"http://127.0.0.1:{server.port}"
        java = tmp_path / "Demo.java"
        java.write_text(SOURCE_PRINT)
        assert main(["publish", str(java), "--name", "demo",
                     "--url", url]) == 0
        out = capsys.readouterr().out
        digest = re.search(r"digest ([0-9a-f]{64})", out).group(1)
        fetched = tmp_path / "demo.stsa"
        assert main(["fetch", digest, "--url", url,
                     "-o", str(fetched)]) == 0
        assert wire_digest(fetched.read_bytes()) == digest
        assert main(["fetch", digest, "--url", url, "--run"]) == 0
        assert "hi" in capsys.readouterr().out

    def test_fetch_unknown_digest_fails(self, serve_stack, capsys):
        from repro.cli import main
        _service, server, _clock = serve_stack
        url = f"http://127.0.0.1:{server.port}"
        assert main(["fetch", "ab" * 32, "--url", url]) == 1
        assert "SERVE-NOT-FOUND" in capsys.readouterr().err


class TestRunStream:
    """``repro-cc run - --stream``: the wire arrives on stdin in
    chunks through the incremental StreamingLoader."""

    def _cli(self, stdin_chunks, *args):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "-",
             "--stream", *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"})
        for chunk in stdin_chunks:
            process.stdin.write(chunk)
            process.stdin.flush()
        process.stdin.close()
        out = process.stdout.read().decode()
        err = process.stderr.read().decode()
        return process.wait(), out, err

    def test_chunked_pipe_executes(self):
        wire = _wire(SOURCE_PRINT)
        chunks = [wire[i:i + 5] for i in range(0, len(wire), 5)]
        code, out, err = self._cli(chunks)
        assert code == 0, err
        assert out == "hi\n"

    def test_truncated_pipe_is_rejected(self):
        wire = _wire(SOURCE_PRINT)
        code, _out, err = self._cli([wire[:max(len(wire) // 2, 8)]])
        assert code == 1
        assert "REJECTED" in err and "DEC-" in err

    def test_tampered_pipe_is_rejected(self):
        wire = bytearray(_wire(SOURCE_PRINT))
        wire[-2] ^= 0xFF
        code, _out, err = self._cli([bytes(wire)])
        assert code == 1
        assert "REJECTED" in err


# ======================================================================
# docs stay in sync


class TestDocsSync:
    def test_serve_doc_lists_every_code(self):
        text = (REPO / "docs" / "SERVE.md").read_text()
        for code, (layer, _severity, description) in \
                STABLE_CODES.items():
            if layer != "serve":
                continue
            assert code in text, f"{code} missing from docs/SERVE.md"
            assert description in text, \
                f"{code} description drifted in docs/SERVE.md"

    def test_serve_doc_lists_every_endpoint(self):
        text = (REPO / "docs" / "SERVE.md").read_text()
        for endpoint in ("/v1/compile", "/v1/publish", "/v1/fetch",
                         "/v1/verify", "/v1/run", "/v1/log",
                         "/v1/dict", "/v1/stats", "/v1/healthz"):
            assert endpoint in text


# ======================================================================
# the full-corpus serving campaign (slow lane)


@pytest.mark.slow
class TestServingConformance:
    def test_corpus_over_http_with_concurrent_clients(
            self, serve_stack):
        from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
        service, server, _clock = serve_stack
        names = list(CORPUS_PROGRAMS)

        def lifecycle(item):
            index, name = item
            client = ServeClient("127.0.0.1", server.port,
                                 tenant=f"tenant-{index % 3}")
            source = corpus_source(name)
            plain = client.publish(name, source=source)
            opt = client.publish(f"{name}.opt", source=source,
                                 optimize=True, wire_v2=True)
            digests = []
            for entry, fmt in ((plain, "stsa1"), (opt, "stsa2")):
                assert entry["entry"]["manifest"]["format"] == fmt
                wire = client.fetch(entry["digest"])  # digest-checked
                assert wire_digest(wire) == entry["digest"]
                verdict = client.verify(digest=entry["digest"])
                assert verdict["ok"] and verdict["classes"] >= 1
                result = client.run(digest=entry["digest"],
                                    class_name=name)
                assert result["exception"] is None
                digests.append(entry["digest"])
            return name, digests

        with ThreadPoolExecutor(max_workers=5) as pool:
            results = dict(pool.map(lifecycle, enumerate(names)))
        assert len(results) == len(names)
        artifacts = {digest for _name, digests in results.items()
                     for digest in digests}
        assert len(artifacts) == 2 * len(names)  # all 20 distinct

        # one auditing client checks the whole interleaved history
        auditor = ServeClient("127.0.0.1", server.port,
                              tenant="auditor")
        head = auditor.audit(key=SERVE_TEST_KEY)
        entries = auditor.log_entries()["entries"]
        assert len(entries) == 2 * len(names)
        assert head == service.log.head
        published = {entry["manifest"]["digest"] for entry in entries}
        assert published == artifacts

        # determinism across the network: republishing yields the
        # same content addresses, and the store deduplicates
        stored_before = service.store.stats()["entries"]
        again = ServeClient("127.0.0.1", server.port,
                            tenant="replayer")
        for name in names[:3]:
            entry = again.publish(name, source=corpus_source(name))
            assert entry["digest"] in artifacts
        assert service.store.stats()["entries"] == stored_before
