"""Serving smoke check: ``python -m repro.serve.smoke``.

Starts a real server on an ephemeral port, then walks the whole
distribution lifecycle once over HTTP -- compile, publish (single and
v2 batch), fetch (digest re-verified client-side), verify, run,
concurrent first runs of a verified module on the server's executor
threads, a rejected hostile stream, a quota rejection, and a full
client-side chain audit.  Exits nonzero on the first broken invariant; CI runs
this as the fast serving gate (``make serve-smoke``) next to the
sharded pytest lanes.
"""

from __future__ import annotations

import sys
import threading

from repro.serve import (
    ManualClock,
    ServeClient,
    ServeError,
    ServeServer,
    ServeService,
    TenantLimits,
)

SOURCE = """\
class Main {
    static int main() {
        int total = 0;
        for (int i = 0; i < 10; i = i + 1) { total = total + i; }
        return total;
    }
}
"""


#: /v1/run requests per client thread in the concurrent first-run step
RACING_RUNS = 4


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}")
    raise SystemExit(1)


def main() -> int:
    clock = ManualClock()
    service = ServeService(
        clock=clock,
        limits=TenantLimits(requests_per_window=64, window_seconds=60.0))
    server = ServeServer(service).start()
    try:
        client = ServeClient("127.0.0.1", server.port, tenant="smoke")
        if not client.healthz()["ok"]:
            fail("healthz not ok")

        compiled = client.compile(SOURCE, optimize=True,
                                  return_bytes=True)
        published = client.publish("sum", source=SOURCE, optimize=True)
        if published["digest"] != compiled["digest"]:
            fail("publish digest disagrees with compile digest")
        wire = client.fetch(published["digest"])
        if wire != compiled["wire"]:
            fail("fetched bytes are not the compiled bytes")
        if client.verify(digest=published["digest"])["classes"] != 1:
            fail("verify miscounted classes")
        if client.run(digest=published["digest"])["value"] != 45:
            fail("run returned the wrong value")

        batch = client.publish_batch(
            [{"name": f"m{i}", "source": SOURCE.replace("10", str(i))}
             for i in range(2, 5)], wire_v2=True)
        for entry in batch["published"]:
            if entry["entry"]["manifest"]["format"] != "stsa2":
                fail("batch publish did not produce v2 envelopes")
            client.verify(digest=entry["digest"])

        # two clients race on a module the server has verified but
        # never run, so its executor threads build the module's shared
        # block plans at once; every run must agree
        unrun = batch["published"][1]["digest"]
        outcomes, errors = [], []
        barrier = threading.Barrier(2)

        def run_unrun():
            try:
                barrier.wait(timeout=30)
                for _ in range(RACING_RUNS):
                    response = client.run(digest=unrun)
                    outcomes.append((response["value"], response["steps"]))
            except Exception as error:  # reported below
                errors.append(error)

        racers = [threading.Thread(target=run_unrun) for _ in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=60)
        if errors:
            fail(f"concurrent first run raised {errors[0]!r}")
        if len(outcomes) != 2 * RACING_RUNS or len(set(outcomes)) != 1 \
                or outcomes[0][0] != 3:
            fail(f"concurrent first runs disagree: {sorted(set(outcomes))}")

        try:
            client.verify(wire=b"not a module at all")
        except ServeError as error:
            if error.code != "SERVE-REJECTED":
                fail(f"hostile stream raised {error.code}, "
                     f"not SERVE-REJECTED")
        else:
            fail("hostile stream was accepted")

        head = client.audit(key=b"repro-serve-dev-key")
        if head != client.healthz()["log_head"]:
            fail("audited head does not match the server head")

        try:
            while True:  # the rate window must close eventually
                client.healthz()
        except ServeError as error:
            if error.code != "SERVE-RATE":
                fail(f"rate exhaustion raised {error.code}")

        total = len(batch["published"]) + 1
        print(f"serve-smoke: OK: published {total} modules, "
              f"{len(outcomes)} concurrent first runs agree, "
              f"head {head[:16]}..., rate limit enforced")
        return 0
    finally:
        server.stop()


if __name__ == "__main__":
    sys.exit(main())
