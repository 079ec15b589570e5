"""E12: wire-format v2 distribution cost -- size and time-to-first-execute.

The paper's Figure 5 sizes the *verified* representation; this
benchmark sizes the *distribution* layer built on top of it (the ACC
"shrink what is shipped, not what is verified" line).  Three questions,
over every corpus program compiled plain and optimised:

* **shared dictionaries** -- per program, the plain and optimised
  streams are factored against their common prefix (the bit-packed
  type table and member tables, identical between the two) and
  enveloped; total shipped bytes = both envelopes + the dictionary
  blob once.  The corpus ratio vs raw v1 is the headline number.
* **deltas** -- the optimised stream encoded as a patch against the
  plain stream's digest: the "publisher pushes a recompiled module"
  cost, compared to shipping the optimised stream whole.
* **time-to-first-execute** -- chunks "arrive" on a simulated
  fixed-bandwidth link (a discrete-event clock, no sleeping: feed *i*
  cannot start before byte *i* has arrived or before feed *i-1*
  finished, and each feed's real CPU cost advances the clock).  The
  streaming loader decodes-and-verifies each body inside the arrival
  gaps and stops the clock when the entry point's body is ready; the
  eager baseline must wait for the full transfer and then decode
  everything.  The gap is exactly the decode work streaming overlaps
  with the transfer -- the paper's "verify while the code arrives"
  claim, measured.  Each reader returns its simulated seconds, so the
  two are the sides of one :func:`repro.bench.metrics.paired` record
  per program (both artifacts summed per call); the totals, the ratio
  and the guard read its medians.

Every sized unit is also resolved and decoded back (outside the
timers) and must reproduce the original stream -- a benchmark that
ships the wrong bytes measures nothing.  The report lands in
``BENCH_wire.json``; CI guards that the v2 corpus ratio and the delta
ratio stay below 1.0 and that streaming TTFE stays at or below eager.
"""

from __future__ import annotations

import time

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import paired
from repro.cache import DictionaryStore
from repro.driver import CompilationSession
from repro.encode.deserializer import decode_module
from repro.encode.format import (
    MIN_DICTIONARY_BYTES,
    build_shared_dictionary,
    encode_delta,
    encode_v2,
    resolve_stream,
)
from repro.encode.serializer import encode_module
from repro.loader import StreamingLoader, load_module
from repro.tsa.verifier import verify_module

#: chunk size for the streaming TTFE measurement -- small enough that
#: every corpus artifact spans several feeds
STREAM_CHUNK = 256

#: simulated link bandwidth (bytes/second) for the TTFE discrete-event
#: clock.  32 KiB/s is a mobile-code-era link: slow enough that decode
#: work fits inside the arrival gaps, which is the regime the paper's
#: streaming argument is about.  Both sides pay the same transfer time;
#: only the overlap differs.
STREAM_BANDWIDTH = 32 * 1024


def _wires(programs) -> list[tuple[str, bytes, bytes]]:
    """(name, plain wire, optimised wire) per corpus program."""
    wires = []
    plain_session = CompilationSession(cache=False)
    optimizing = CompilationSession(optimize=True, cache=False)
    for name in programs:
        source = corpus_source(name)
        plain = plain_session.compile(source)
        optimized = optimizing.compile(source)
        wires.append((name, encode_module(plain),
                      encode_module(optimized)))
    return wires


def _main_method(module):
    for method in module.functions:
        if method.name == "main" and method.is_static:
            return method
    return None


def _ttfe_stream(wire: bytes) -> float:
    """Simulated time until ``main`` could start when decode overlaps
    the transfer.  Feed *i* cannot begin before its last byte arrived
    or before feed *i-1* returned; each feed's real measured CPU cost
    advances the clock.  Retry overhead therefore only hurts when it
    spills out of an arrival gap -- exactly as it would on a real
    link."""
    loader = StreamingLoader()
    clock = 0.0
    for offset in range(0, len(wire), STREAM_CHUNK):
        chunk = wire[offset:offset + STREAM_CHUNK]
        arrival = (offset + len(chunk)) / STREAM_BANDWIDTH
        start = time.perf_counter()
        module = loader.feed(chunk)
        ready = False
        if module is not None:
            main = _main_method(module)
            ready = main is not None and module.functions.ready(main)
        cpu = time.perf_counter() - start
        clock = max(clock, arrival) + cpu
        if ready:
            return clock
    raise AssertionError("corpus artifact has no static main")


def _ttfe_eager(wire: bytes) -> float:
    """The eager baseline: the full transfer must land before the
    one-shot decode can even begin, so TTFE is transfer time plus the
    whole measured decode."""
    start = time.perf_counter()
    module = load_module(wire)
    main = _main_method(module)
    cpu = time.perf_counter() - start
    if main is None:
        raise AssertionError("corpus artifact has no static main")
    return len(wire) / STREAM_BANDWIDTH + cpu


def wire_report(programs=None, *, pairs: int) -> dict:
    """All the numbers behind ``BENCH_wire.json``."""
    programs = list(programs or CORPUS_PROGRAMS)
    store = DictionaryStore()  # memory-only: no disk I/O in timings

    rows = []
    totals = {"v1": 0, "v2_shipped": 0, "dict": 0, "v1_opt": 0,
              "delta": 0, "ttfe_stream_ms": 0.0, "ttfe_eager_ms": 0.0}
    for name, plain, optimized in _wires(programs):
        dictionary = build_shared_dictionary([plain, optimized])
        shared = (dictionary,) \
            if len(dictionary) >= MIN_DICTIONARY_BYTES else ()
        envelopes = [encode_v2(wire, shared, store=store)
                     for wire in (plain, optimized)]
        delta = encode_delta(plain, optimized, store=store)

        # correctness outside the timers: every unit must resolve to
        # the exact v1 bytes and decode to a verifying module
        for unit, wire in zip(envelopes + [delta],
                              (plain, optimized, optimized)):
            if resolve_stream(unit, store) != wire:
                raise AssertionError(f"{name}: v2 unit does not resolve "
                                     "to its v1 bytes")
        verify_module(decode_module(envelopes[0], store=store))

        dict_bytes = len(dictionary) if shared else 0
        ttfe = paired(
            lambda: _ttfe_stream(plain) + _ttfe_stream(optimized),
            lambda: _ttfe_eager(plain) + _ttfe_eager(optimized), pairs)

        row = {
            "program": name,
            "v1_bytes": len(plain) + len(optimized),
            "v2_envelope_bytes": sum(map(len, envelopes)),
            "dict_bytes": dict_bytes,
            "v2_shipped_bytes": sum(map(len, envelopes)) + dict_bytes,
            "v1_opt_bytes": len(optimized),
            "delta_bytes": len(delta),
            "ttfe_stream_ms": ttfe["first"],
            "ttfe_eager_ms": ttfe["second"],
            "ttfe_ratio": ttfe["ratio"],
        }
        totals["v1"] += row["v1_bytes"]
        totals["v2_shipped"] += row["v2_shipped_bytes"]
        totals["dict"] += dict_bytes
        totals["v1_opt"] += row["v1_opt_bytes"]
        totals["delta"] += row["delta_bytes"]
        totals["ttfe_stream_ms"] += ttfe["first"]["median"]
        totals["ttfe_eager_ms"] += ttfe["second"]["median"]
        rows.append(row)

    def ratio(numerator: float, denominator: float):
        return round(numerator / denominator, 4) if denominator else None

    v2_ratio = ratio(totals["v2_shipped"], totals["v1"])
    delta_ratio = ratio(totals["delta"], totals["v1_opt"])
    ttfe_ratio = ratio(totals["ttfe_stream_ms"], totals["ttfe_eager_ms"])
    report = {
        "programs": programs,
        "pairs": pairs,
        "stream_chunk": STREAM_CHUNK,
        "stream_bandwidth": STREAM_BANDWIDTH,
        "rows": rows,
        "totals": {key: round(value, 3) if isinstance(value, float)
                   else value for key, value in totals.items()},
        "ratios": {
            # corpus bytes shipped under shared-dictionary v2, vs raw v1
            "v2_vs_v1": v2_ratio,
            # pushing a recompile as a delta, vs shipping it whole
            "delta_vs_v1_opt": delta_ratio,
            # time until main could start on the simulated link:
            # overlapped streaming decode vs transfer-then-decode
            "ttfe_stream_vs_eager": ttfe_ratio,
        },
        "guard": {
            "v2_smaller_than_v1": totals["v2_shipped"] < totals["v1"],
            "delta_smaller_than_full": totals["delta"] < totals["v1_opt"],
            "streaming_ttfe_le_eager":
                totals["ttfe_stream_ms"] <= totals["ttfe_eager_ms"],
        },
    }
    return report


def wire_table(report: dict) -> str:
    """Fixed-width rendering of a :func:`wire_report` (RESULTS.txt)."""
    lines = [
        f"{'Program':16} {'v1':>7} {'v2+dict':>8} {'delta':>7} "
        f"{'ttfe-s':>8} {'ttfe-e':>8} {'s/e':>6} {'iqr':>6}",
        "-" * 72,
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['program']:16} {row['v1_bytes']:>7} "
            f"{row['v2_shipped_bytes']:>8} {row['delta_bytes']:>7} "
            f"{row['ttfe_stream_ms']['median']:>8.2f} "
            f"{row['ttfe_eager_ms']['median']:>8.2f} "
            f"{row['ttfe_ratio']['median']:>6.3f} "
            f"{row['ttfe_ratio']['iqr']:>6.3f}")
    totals = report["totals"]
    lines.append("-" * 72)
    lines.append(
        f"{'TOTAL':16} {totals['v1']:>7} {totals['v2_shipped']:>8} "
        f"{totals['delta']:>7} {totals['ttfe_stream_ms']:>8.2f} "
        f"{totals['ttfe_eager_ms']:>8.2f}")
    ratios = report["ratios"]
    lines.append("")
    lines.append(
        f"v2 shipped vs v1: {ratios['v2_vs_v1']}x; delta vs full "
        f"optimised: {ratios['delta_vs_v1_opt']}x; streaming vs eager "
        f"time-to-first-execute: {ratios['ttfe_stream_vs_eager']}x")
    lines.append(f"ttfe: simulated ms, medians of {report['pairs']} "
                 "alternating pairs per program; s/e is the per-pair "
                 "ratio")
    return "\n".join(lines)
