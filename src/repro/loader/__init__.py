"""Consumer-side fast path: the fused verifying loader.

The two-pass consumer (``decode_module`` then ``verify_module``) walks
every function three times: once to materialize it from the wire, once
to recompute dominators and re-check every reference, and once more for
the rule sweep.  The paper's point is that the first walk already
*proves* almost everything -- the wire format cannot represent an
out-of-range reference or a wrong-plane operand -- so this package
collapses verification into the decode and keeps only the handful of
residual rules as a cheap post-pass (:mod:`repro.loader.fused`).

On top of the fused pass sit two consumer conveniences:

* **lazy loading** (:mod:`repro.loader.lazy`): the header and type
  table decode eagerly, function bodies decode-and-verify on first
  touch;
* a **verified-module cache** (:class:`repro.cache.VerifiedModuleCache`)
  keyed on the wire-bytes digest: repeat loads skip the residual
  verification sweeps and gain random access to individual bodies;
* **streaming decode** (:mod:`repro.loader.stream`): a chunk-feedable
  front that verifies each body the moment its bits have arrived, so
  ``main`` can execute while later bodies are still in flight.

The legacy two-pass path is kept as the reference oracle; the
differential gate in ``tests/test_loader.py`` holds the fused path to
verdict-for-verdict agreement with it.
"""

from repro.loader.fused import ModuleLoader, load_module
from repro.loader.stream import StreamingLoader, stream_module

__all__ = ["ModuleLoader", "StreamingLoader", "load_module",
           "stream_module"]
