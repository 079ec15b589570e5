"""Differential oracle: every pipeline pair we claim agrees, checked.

For one source program the oracle runs the full agreement matrix and
reports the *first* divergence:

==================  ===================================================
pipeline            what it checks
==================  ===================================================
``interp``          reference: plain module, SafeTSA interpreter
``optimized``       producer-side optimisation preserves semantics
``passes:<spec>``   each explicit pass spec (via CompilationSession)
``wire``            encode -> decode -> execute, plus re-encode
                    bit-identity (``encode(decode(w)) == w``)
``wire-v2``         v2 envelope and delta resolve to the identical v1
                    bytes, decode, verify, and execute identically
``rebuild``         a second fresh optimising session emits
                    bit-identical wire bytes
``jit``             consumer code generation on the decoded module
``trace``           speculative trace tier vs untraced interpreter:
                    same output, trap identity, steps, check counts
``bytecode``        the independent JVM-bytecode baseline
==================  ===================================================

Two pipelines agree when their observable behaviour -- stdout plus the
Java-level exception name -- is identical.  A pipeline that *crashes*
(any Python exception escaping compile/verify/run) is itself a
divergence: the oracle never lets a host-level error masquerade as
disagreement-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: pass specs compared against the plain module by default; each one is
#: a legal ``--passes`` spec (see repro.driver.passes.PASSES).
#: The last lane is the full pipeline with the loop tier (preheader
#: insertion, LICM, check hoisting) enabled.
DEFAULT_PASS_SPECS = (
    "constprop",
    "constprop,cse_fields,dce",
    "constprop,safephi,hoist_checks,cse_fields,licm,dce,cleanup",
)

_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Divergence:
    """Two pipelines disagreed (or one crashed)."""

    pipeline: str
    expected: object
    actual: object
    detail: str = ""

    def __str__(self) -> str:
        text = (f"{self.pipeline}: expected {self.expected!r}, "
                f"got {self.actual!r}")
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class OracleResult:
    """Outcome of one program's trip through the agreement matrix."""

    source: str
    outcomes: dict[str, tuple] = field(default_factory=dict)
    divergence: Optional[Divergence] = None
    #: the source failed the front end -- nothing to compare (only
    #: reachable for shrunken candidates, never for generated programs)
    invalid: bool = False

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.invalid

    @property
    def pipelines(self) -> int:
        return len(self.outcomes)


def _observed(result) -> tuple[str, Optional[str]]:
    return (result.stdout, result.exception_name())


def check_program(source: str, main_class: Optional[str] = None, *,
                  pass_specs=DEFAULT_PASS_SPECS,
                  max_steps: int = _MAX_STEPS) -> OracleResult:
    """Run ``source`` through the whole agreement matrix."""
    from repro.driver import CompilationSession
    from repro.encode.deserializer import decode_module
    from repro.frontend.errors import CompileError
    from repro.interp.interpreter import Interpreter
    from repro.interp.jit import JitCompiler
    from repro.jvm.interp import BytecodeInterpreter
    from repro.tsa.verifier import verify_module

    result = OracleResult(source)

    def diverged(pipeline: str, expected, actual, detail="") -> OracleResult:
        result.divergence = Divergence(pipeline, expected, actual, detail)
        return result

    # reference: plain compile, verify, interpret
    session = CompilationSession(cache=False)
    try:
        module = session.build_module(source)
    except CompileError:
        result.invalid = True
        return result
    except RecursionError:
        result.invalid = True
        return result
    try:
        verify_module(module)
        reference = _observed(
            Interpreter(module, max_steps=max_steps).run_main(main_class))
    except Exception as error:  # a crashing reference is a finding itself
        return diverged("interp", "clean run", type(error).__name__,
                        str(error)[:200])
    result.outcomes["interp"] = reference

    def compare(pipeline: str, run) -> bool:
        """Run one pipeline; record/compare; True to keep going."""
        try:
            observed = run()
        except Exception as error:
            diverged(pipeline, reference, type(error).__name__,
                     str(error)[:200])
            return False
        result.outcomes[pipeline] = observed
        if observed != reference:
            diverged(pipeline, reference, observed)
            return False
        return True

    # producer-side optimisation
    opt_session = CompilationSession(optimize=True, cache=False)
    opt_module = None

    def run_optimized():
        nonlocal opt_module
        opt_module = opt_session.build_module(source)
        opt_session.optimize(opt_module)
        verify_module(opt_module)
        return _observed(Interpreter(opt_module, max_steps=max_steps)
                         .run_main(main_class))

    if not compare("optimized", run_optimized):
        return result

    # each explicit pass spec
    for spec in pass_specs:
        def run_spec(spec=spec):
            spec_session = CompilationSession(passes=spec, cache=False)
            spec_module = spec_session.compile(source)
            verify_module(spec_module)
            return _observed(Interpreter(spec_module, max_steps=max_steps)
                             .run_main(main_class))
        if not compare(f"passes:{spec}", run_spec):
            return result

    # wire round trip: decode must verify, execute identically, and
    # re-encode to the very same bytes
    wire = holder = None
    try:
        wire = opt_session.encode(opt_module)
        decoded = decode_module(wire)
        verify_module(decoded)
        holder = decoded
    except Exception as error:
        return diverged("wire", "decodable module", type(error).__name__,
                        str(error)[:200])

    if not compare("wire", lambda: _observed(
            Interpreter(holder, max_steps=max_steps).run_main(main_class))):
        return result
    reencoded = opt_session.encode(holder)
    if reencoded != wire:
        return diverged("wire", f"{len(wire)} wire bytes",
                        f"{len(reencoded)} differing bytes",
                        "re-encode is not bit-identical")
    result.outcomes["reencode"] = ("bit-identical", None)

    # v1-vs-v2 round trip: a dictionary envelope and a delta against
    # the plain module's wire must both resolve to the very same v1
    # bytes and behave identically
    def run_wire_v2():
        from repro.cache import DictionaryStore
        from repro.encode.format import (
            encode_delta,
            encode_v2,
            resolve_stream,
        )
        store = DictionaryStore()
        units = [encode_v2(wire, (wire[:max(1, len(wire) // 2)],),
                           store=store),
                 encode_delta(session.encode(module), wire, store=store)]
        for unit in units:
            if resolve_stream(unit, store) != wire:
                return ("v2 unit did not resolve to the v1 bytes", None)
            decoded_v2 = decode_module(unit, store=store)
            verify_module(decoded_v2)
            observed = _observed(Interpreter(decoded_v2,
                                             max_steps=max_steps)
                                 .run_main(main_class))
            if observed != reference:
                return observed
        return reference

    if not compare("wire-v2", run_wire_v2):
        return result

    # a second fresh session on a different heap: bit-identical bytes
    # (compiler determinism must not hang on object addresses)
    def run_rebuild():
        rebuild = CompilationSession(optimize=True, cache=False)
        rebuild_module = rebuild.build_module(source)
        rebuild.optimize(rebuild_module)
        if rebuild.encode(rebuild_module) != wire:
            return ("rebuild produced different bytes", None)
        return reference

    if not compare("rebuild", run_rebuild):
        return result

    # consumer code generation over the decoded module
    if not compare("jit", lambda: _observed(
            JitCompiler(holder).run_main(main_class))):
        return result

    # the speculative trace tier: traced and untraced runs of the very
    # same decoded module must agree on stdout, trap identity, *and*
    # the interpreter's own accounting (steps, dynamic check counts) --
    # a trace that skips or double-counts a check diverges here even
    # when the printed output happens to match
    def run_trace():
        from repro.interp.trace import TracingInterpreter
        untraced = Interpreter(holder, max_steps=max_steps)
        plain = _observed(untraced.run_main(main_class))
        traced_interp = TracingInterpreter(holder, max_steps=max_steps,
                                           threshold=4)
        traced = _observed(traced_interp.run_main(main_class))
        if traced != plain:
            return traced
        if traced_interp.steps != untraced.steps:
            return (f"traced {traced_interp.steps} steps, untraced "
                    f"{untraced.steps}", None)
        if dict(traced_interp.check_counts) != dict(untraced.check_counts):
            return (f"traced checks {dict(traced_interp.check_counts)}, "
                    f"untraced {dict(untraced.check_counts)}", None)
        return plain

    if not compare("trace", run_trace):
        return result

    # the independent bytecode baseline (shares the session's parse)
    def run_bytecode():
        classes = session.compile_to_classfiles(source)
        _unit, world = session.frontend(source)
        return _observed(BytecodeInterpreter(
            classes, world, max_steps=max_steps).run_main(main_class))

    compare("bytecode", run_bytecode)
    return result
