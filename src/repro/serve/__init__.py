"""The mobile-code distribution service: the missing half of "mobile".

The paper's producer/consumer split assumes a *network* between the two
halves; this package is that network's server side.  A
:class:`ServeService` exposes the existing toolchain over HTTP/JSON --
``compile`` / ``publish`` / ``fetch`` / ``verify`` / ``run`` -- on top
of four serving-specific pieces:

* a **sharded content-addressed module store**
  (:class:`~repro.serve.store.ModuleStore`): wire bytes keyed by their
  SHA-256, v1 streams and STSA2 envelopes both servable, dictionary
  blobs resolvable through the process
  :class:`~repro.cache.DictionaryStore`;
* **coalescing of identical in-flight compiles**
  (:class:`ServeService`): concurrent requests for the same
  (source, flags) share one underlying compile and receive
  bit-identical wire bytes, and an in-process memo of verified
  modules serves repeat verify/run requests without re-decoding;
* **per-tenant quotas** (:class:`~repro.serve.quota.QuotaManager`):
  request rate, stored bytes, and compile seconds, rejecting with
  stable ``SERVE-*`` codes registered in
  :data:`repro.analysis.diagnostics.STABLE_CODES`;
* **signed manifests on a hash-chained publish log**
  (:mod:`repro.serve.log`): every publish appends a canonical-JSON
  entry whose hash covers the previous entry's hash, so an auditing
  client (:meth:`~repro.serve.client.ServeClient.audit`) detects any
  retroactive edit or splice of the timeline -- provenance layered on
  top of SafeTSA's intrinsic safety.

The HTTP layer is a small asyncio HTTP/1.1 server
(:class:`~repro.serve.service.ServeServer`, stdlib only); CPU-bound
work (compile, load, run) runs in a thread pool so the accept loop
stays responsive.  ``repro-cc serve`` / ``publish`` / ``fetch`` are the
CLI surface; ``python -m repro.serve.smoke`` is the self-check CI runs.
"""

from repro.serve.client import ServeClient
from repro.serve.errors import ServeError
from repro.serve.log import PublishLog, audit_chain, canonical_json
from repro.serve.quota import ManualClock, QuotaManager, TenantLimits
from repro.serve.service import ServeServer, ServeService
from repro.serve.store import ModuleStore

__all__ = [
    "ManualClock",
    "ModuleStore",
    "PublishLog",
    "QuotaManager",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServeService",
    "TenantLimits",
    "audit_chain",
    "canonical_json",
]
