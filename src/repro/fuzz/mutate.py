"""Wire-stream mutation fuzzing: the *reject-or-equivalent* invariant.

Every mutated stream must fall into one of exactly two buckets:

* **rejected** -- :class:`~repro.encode.deserializer.DecodeError` (with
  its stable ``DEC-*`` code) or
  :class:`~repro.tsa.verifier.VerifyError` (``STSA-*``), or
* **equivalent** -- the stream decodes to a module that verifies,
  executes without host-level errors, behaves identically under the
  interpreter, the trace tier and the JIT, and behaves identically
  after a further encode/decode round trip.

Anything else -- ``IndexError``, ``KeyError``, ``struct.error``,
``RecursionError``, an interpreter invariant violation on a module the
verifier accepted -- is a *finding*: evidence that malformed input can
reach code that assumed well-formedness.

Execution of accepted mutants is resource-bounded: a small step budget
(`StepLimitExceeded` counts as a clean run), an array-allocation cap
(`AllocationLimitExceeded` likewise), and a recursion guard
(`RecursionError` *during execution* maps to Java's
``StackOverflowError`` semantics, not to a finding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.fuzz.gen import DrawSource

#: step budget for executing accepted mutants -- mutated programs may
#: loop forever or print per iteration, so this stays deliberately small
EXEC_MAX_STEPS = 20_000
#: array-allocation cap for accepted mutants (a mutated length constant
#: must not make the harness swap)
EXEC_MAX_ARRAY = 1 << 16
#: back-edge arrivals before the trace tier records a mutant's loop: low,
#: so that short bounded runs still enter traces
EXEC_TRACE_THRESHOLD = 2


@dataclass(frozen=True)
class StreamOutcome:
    """Classification of one (possibly mutated) wire stream."""

    kind: str      # "rejected" | "accepted" | "finding"
    code: str      # DEC-* / STSA-* code, run class, or exception name
    detail: str = ""

    @property
    def is_finding(self) -> bool:
        return self.kind == "finding"


# ======================================================================
# mutation operators

def _bit_flip(data: bytearray, src: DrawSource) -> bytearray:
    position = src.integer(0, len(data) * 8 - 1)
    data[position // 8] ^= 1 << (position % 8)
    return data


def _byte_set(data: bytearray, src: DrawSource) -> bytearray:
    data[src.integer(0, len(data) - 1)] = src.integer(0, 255)
    return data


def _burst(data: bytearray, src: DrawSource) -> bytearray:
    """XOR a short run of bytes -- clobbers one coded field."""
    start = src.integer(0, len(data) - 1)
    for offset in range(src.integer(1, 8)):
        if start + offset >= len(data):
            break
        data[start + offset] ^= src.integer(1, 255)
    return data


def _truncate(data: bytearray, src: DrawSource) -> bytearray:
    return data[:src.integer(0, len(data) - 1)]


def _extend(data: bytearray, src: DrawSource) -> bytearray:
    """Trailing data must never ride along unnoticed."""
    tail = bytes(src.integer(0, 255) for _ in range(src.integer(1, 8)))
    return data + tail


def _splice(data: bytearray, src: DrawSource) -> bytearray:
    """Copy one chunk over another: gamma fields and bounded symbols
    land on plausible-but-wrong values from elsewhere in the stream."""
    length = src.integer(1, max(1, len(data) // 4))
    source = src.integer(0, len(data) - 1)
    target = src.integer(0, len(data) - 1)
    chunk = bytes(data[source:source + length])
    data[target:target + len(chunk)] = chunk
    return data


def _delete(data: bytearray, src: DrawSource) -> bytearray:
    """Remove a chunk: every later symbol shifts phase."""
    length = src.integer(1, max(1, len(data) // 4))
    start = src.integer(0, len(data) - 1)
    del data[start:start + length]
    return data


def _duplicate(data: bytearray, src: DrawSource) -> bytearray:
    length = src.integer(1, max(1, len(data) // 4))
    start = src.integer(0, len(data) - 1)
    chunk = bytes(data[start:start + length])
    at = src.integer(0, len(data))
    data[at:at] = chunk
    return data


def _header(data: bytearray, src: DrawSource) -> bytearray:
    """Target the bytes right after the magic: type-table entry count,
    array-element and superclass indexes, member tables."""
    from repro.encode.common import MAGIC
    lo = len(MAGIC)
    hi = min(len(data) - 1, lo + 24)
    if hi < lo:
        return data
    data[src.integer(lo, hi)] ^= src.integer(1, 255)
    return data


def _zero_run(data: bytearray, src: DrawSource) -> bytearray:
    """Zeros decode as the smallest symbol everywhere -- dominator-pair
    ``(l, r)`` references collapse onto register 0."""
    start = src.integer(0, len(data) - 1)
    for offset in range(src.integer(1, 6)):
        if start + offset >= len(data):
            break
        data[start + offset] = 0
    return data


MUTATORS: tuple[tuple[str, Callable], ...] = (
    ("bitflip", _bit_flip),
    ("bitflip", _bit_flip),     # weighted: single flips find the most
    ("byteset", _byte_set),
    ("burst", _burst),
    ("truncate", _truncate),
    ("extend", _extend),
    ("splice", _splice),
    ("delete", _delete),
    ("duplicate", _duplicate),
    ("header", _header),
    ("zero", _zero_run),
)


def mutate_stream(data: bytes, src: DrawSource) -> tuple[str, bytes]:
    """Apply one randomly chosen mutation operator; returns its name
    and the mutated bytes."""
    if not data:
        return "extend", bytes(_extend(bytearray(), src))
    name, operator = src.choice(MUTATORS)
    return name, bytes(operator(bytearray(data), src))


# ----------------------------------------------------------------------
# v2 envelope operators: aimed at the fields the v1 operators only hit
# by luck -- digests, the mode byte, the section counts

def _v2_mode(data: bytearray, src: DrawSource) -> bytearray:
    """Rewrite the envelope mode byte (full <-> delta <-> garbage)."""
    from repro.encode.common import MAGIC_V2
    position = len(MAGIC_V2)
    if position >= len(data):
        return _extend(data, src)
    data[position] = src.integer(0, 255)
    return data


def _v2_count(data: bytearray, src: DrawSource) -> bytearray:
    """Rewrite the first varint byte (dictionary count / prefix_len):
    phantom sections, oversized counts, continuation-bit runs."""
    from repro.encode.common import MAGIC_V2
    position = len(MAGIC_V2) + 1
    if position >= len(data):
        return _extend(data, src)
    data[position] = src.integer(0, 255)
    return data


def _v2_digest(data: bytearray, src: DrawSource) -> bytearray:
    """Corrupt a digest byte -- either in the leading digest region
    (dictionary refs / delta base) or in the trailing 32 bytes (the
    delta target digest).  Content addressing must turn every such
    corruption into a stable rejection, never a wrong blob."""
    from repro.encode.common import MAGIC_V2
    lo = len(MAGIC_V2) + 2
    if lo >= len(data):
        return _extend(data, src)
    if len(data) > 40 and src.integer(0, 1):
        position = src.integer(len(data) - 32, len(data) - 1)
    else:
        position = src.integer(lo, min(len(data) - 1, lo + 40))
    data[position] ^= src.integer(1, 255)
    return data


#: the v2 lane: envelope-targeted operators plus every generic byte
#: operator (envelopes must survive arbitrary corruption too)
V2_MUTATORS: tuple[tuple[str, Callable], ...] = (
    ("v2mode", _v2_mode),
    ("v2count", _v2_count),
    ("v2digest", _v2_digest),
    ("v2digest", _v2_digest),   # weighted: digests are the new surface
) + MUTATORS


def mutate_stream_v2(data: bytes, src: DrawSource) -> tuple[str, bytes]:
    """One mutation from the v2 lane (envelope-aware operator mix)."""
    if not data:
        return "extend", bytes(_extend(bytearray(), src))
    name, operator = src.choice(V2_MUTATORS)
    return name, bytes(operator(bytearray(data), src))


# ======================================================================
# the invariant checker

def _default_args(method) -> Optional[list]:
    """Zero values for a static method's parameters, or None when a
    parameter type has no obvious default."""
    args = []
    for param in method.param_types:
        if param.is_reference():
            args.append(None)
        else:
            name = getattr(param, "name", "")
            args.append(0.0 if name in ("float", "double") else
                        False if name == "boolean" else 0)
    return args


def _entry(module) -> Optional[tuple]:
    """The first runnable static method body with its arguments, or
    None when the module has nothing to run."""
    for method, function in module.functions.items():
        if method.is_static and method.name != "<clinit>":
            return function, _default_args(method)
    return None


def _observe(runner, entry: tuple) -> tuple:
    """Run ``entry`` on ``runner`` under the array cap; returns ``(end,
    stdout, exception name, steps, check counts)``.  ``end`` is
    ``"ran"``, ``"steps"`` or ``"allocation"`` when a bound stopped the
    run, or ``"stackoverflow"``: ``RecursionError`` maps to Java's
    ``StackOverflowError`` semantics, not to a finding."""
    from repro.interp.interpreter import (
        AllocationLimitExceeded,
        StepLimitExceeded,
    )
    runner.max_array_length = EXEC_MAX_ARRAY
    end, exception = "ran", None
    try:
        exception = runner.run_function(*entry).exception_name()
    except StepLimitExceeded:
        end = "steps"
    except AllocationLimitExceeded:
        end = "allocation"
    except RecursionError:
        end = "stackoverflow"
    return (end, "".join(runner.runtime.stdout), exception, runner.steps,
            getattr(runner, "check_counts", None))


def _behaviour(observed: Optional[tuple]) -> tuple:
    """What two runs of equivalent modules must agree on."""
    if observed is None:
        return ("no-entry", None)
    end, stdout, exception = observed[:3]
    if end == "ran":
        return (stdout, exception)
    return ("stackoverflow" if end == "stackoverflow" else "bounded", None)


def _tier_divergence(module, expected: tuple,
                     max_steps: int) -> Optional[str]:
    """Run the module's entry under the trace tier and, when the
    interpreter run ``expected`` finished inside its bounds, under the
    JIT; describe the first way either differs from the interpreter, or
    None.

    The trace tier must match on stdout, exception, steps and check
    counts, except that a cap that fires inside a trace leaves the
    trace's uncommitted trips uncounted (stdout still matches).  Python
    frames per Java call differ between tiers, so a run that overflows
    the stack is not compared.  The JIT counts no steps, so it can bound
    no run and runs only the mutants that finished."""
    from repro.cache import TraceCache
    from repro.interp.jit import JitCompiler
    from repro.interp.trace import TracingInterpreter
    end = expected[0]
    if end == "stackoverflow":
        return None
    entry = _entry(module)
    traced = _observe(TracingInterpreter(
        module, max_steps=max_steps, threshold=EXEC_TRACE_THRESHOLD,
        trace_cache=TraceCache()), entry)
    compared = 3 if end == "allocation" else 5
    if traced[:compared] != expected[:compared]:
        return f"trace: {traced!r} != interp {expected!r}"
    if end != "ran":
        return None
    jit = _observe(JitCompiler(module), entry)
    if jit[:3] != expected[:3]:
        return f"jit: {jit[:3]!r} != interp {expected[:3]!r}"
    return None


def check_stream(data: bytes, *, max_steps: int = EXEC_MAX_STEPS,
                 store=None) -> StreamOutcome:
    """Classify one stream against the reject-or-equivalent invariant.

    ``store`` resolves v2 envelopes (the v2 mutation lane passes the
    campaign's dictionary store so honest envelopes decode and mutated
    ones must reject); the default ``None`` uses the environment store,
    under which digest references simply reject as missing.  An
    accepted module runs under the interpreter, the trace tier and the
    JIT (:func:`_tier_divergence`), and again under the interpreter
    after a further encode/decode round trip.
    """
    from repro.encode.deserializer import DecodeError, decode_module
    from repro.encode.serializer import encode_module
    from repro.interp.interpreter import Interpreter
    from repro.tsa.verifier import VerifyError, verify_module

    try:
        module = decode_module(data, store=store)
    except DecodeError as error:
        return StreamOutcome("rejected",
                             getattr(error, "code", "DEC-MALFORMED"),
                             str(error)[:200])
    except Exception as error:  # the whole point of the fuzzer
        return StreamOutcome("finding", type(error).__name__,
                             f"decode: {error!r}"[:300])

    try:
        verify_module(module)
    except VerifyError as error:
        return StreamOutcome("rejected", error.code, str(error)[:200])
    except Exception as error:
        return StreamOutcome("finding", type(error).__name__,
                             f"verify: {error!r}"[:300])

    def run(target_module) -> Optional[tuple]:
        entry = _entry(target_module)
        if entry is None:
            return None
        return _observe(Interpreter(target_module, max_steps=max_steps),
                        entry)

    try:
        observed = run(module)
    except Exception as error:
        return StreamOutcome("finding", type(error).__name__,
                             f"execute: {error!r}"[:300])
    first = _behaviour(observed)

    if observed is not None:
        try:
            divergence = _tier_divergence(module, observed, max_steps)
        except Exception as error:
            return StreamOutcome("finding", type(error).__name__,
                                 f"tiers: {error!r}"[:300])
        if divergence is not None:
            return StreamOutcome("finding", "TierDivergence",
                                 divergence[:300])

    # equivalence across a further round trip: re-encode, decode,
    # re-run -- behaviour must be identical
    try:
        reencoded = encode_module(module)
        second_module = decode_module(reencoded)
        verify_module(second_module)
        second = _behaviour(run(second_module))
    except Exception as error:
        return StreamOutcome("finding", type(error).__name__,
                             f"reencode: {error!r}"[:300])
    if second != first:
        return StreamOutcome(
            "finding", "ReencodeDivergence",
            f"first run {first!r} != round-tripped run {second!r}"[:300])
    return StreamOutcome("accepted", "ran" if first[0] != "no-entry"
                         else "no-entry")
