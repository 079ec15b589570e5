"""Tests for the fuzzing subsystem (repro.fuzz) and its findings.

Four layers:

* unit tests for the generator, minimizer, and mutators (determinism
  contracts included);
* the differential oracle and the reject-or-equivalent checker on
  known-good and known-bad inputs;
* regression replay of every attack fixture under
  ``tests/golden/attacks/`` -- each shrunken crasher found by a past
  campaign must map to its stable rejection code forever;
* IR-level regressions for the verifier/decoder rules those findings
  forced (``STSA-REF-004`` / ``DEC-TRAP-REF``: a trapping subblock
  tail's result is undefined on paths through its exception edge).
"""

import json
from pathlib import Path

import pytest

from repro.driver import CompilationSession
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.fuzz.campaign import (
    BASE_PROGRAMS,
    program_seed,
    run_campaign,
    stream_bases,
)
from repro.fuzz.gen import RandomSource, generate_seeded
from repro.fuzz.minimize import (
    fixture_name,
    load_fixtures,
    minimize_bytes,
    minimize_lines,
    minimize_sequence,
    save_fixture,
)
from repro.fuzz.mutate import StreamOutcome, check_stream, mutate_stream
from repro.fuzz.oracle import check_program
from repro.ssa import ir
from repro.tsa.verifier import VerifyError, verify_module

ATTACKS_DIR = Path(__file__).parent / "golden" / "attacks"


# ======================================================================
# generator

class TestGenerator:
    def test_seeded_generation_is_deterministic(self):
        for seed in (0, 1, 7, 123456):
            assert generate_seeded(seed).source == \
                generate_seeded(seed).source

    def test_seeds_yield_distinct_programs(self):
        sources = {generate_seeded(seed).source for seed in range(20)}
        assert len(sources) > 15

    def test_generated_programs_compile_and_verify(self):
        for seed in range(15):
            generated = generate_seeded(seed)
            module = CompilationSession(cache=False).compile(
                generated.source)
            verify_module(module)

    def test_campaign_seed_derivation(self):
        assert program_seed(3, 0) == 3 * 1_000_003
        assert program_seed(3, 1) != program_seed(4, 0)


# ======================================================================
# differential oracle

class TestOracle:
    def test_agreement_on_known_good_program(self):
        name, source = BASE_PROGRAMS[0]
        result = check_program(source)
        assert result.ok, str(result.divergence)
        # the whole matrix ran
        assert result.pipelines >= 7
        assert "jit" in result.outcomes
        assert "bytecode" in result.outcomes
        assert result.outcomes["reencode"] == ("bit-identical", None)

    def test_exception_paths_compared(self):
        source = """
class T {
    static void main() {
        int[] xs = new int[2];
        try { xs[5] = 1; }
        finally { System.out.println("fin"); }
    }
}
"""
        result = check_program(source)
        assert result.ok, str(result.divergence)
        stdout, exception = result.outcomes["interp"]
        assert stdout == "fin\n"
        assert exception == "java.lang.ArrayIndexOutOfBoundsException"

    def test_uncompilable_source_is_invalid_not_divergent(self):
        result = check_program("class { nonsense")
        assert result.invalid
        assert result.divergence is None


# ======================================================================
# minimizer

class TestMinimizer:
    def test_ddmin_finds_minimal_core(self):
        items = list(range(20))
        failing = lambda seq: 3 in seq and 11 in seq
        assert minimize_sequence(items, failing) == [3, 11]

    def test_requires_failing_input(self):
        with pytest.raises(ValueError):
            minimize_sequence([1, 2, 3], lambda seq: False)

    def test_probe_budget_bounds_work(self):
        calls = []

        def failing(seq):
            calls.append(1)
            return 7 in seq

        minimize_sequence(list(range(200)), failing, max_probes=50)
        assert len(calls) <= 51  # initial check + at most max_probes

    def test_minimize_bytes_and_lines(self):
        data = b"aaaaXaaaa"
        assert minimize_bytes(data, lambda d: b"X" in d) == b"X"
        text = "one\nkeep\nthree\nfour"
        assert minimize_lines(text, lambda t: "keep" in t) == "keep"

    def test_fixture_round_trip(self, tmp_path):
        data = b"\x00\x01attack"
        meta = {"code": "DEC-IO", "mutator": "truncate"}
        path = save_fixture(tmp_path, data, meta)
        assert path.read_bytes() == data
        assert path.stem == fixture_name(data)
        fixtures = load_fixtures(tmp_path)
        assert fixtures == [(fixture_name(data), data, meta)]


# ======================================================================
# wire-stream mutation

class TestMutation:
    def test_mutators_are_deterministic(self):
        base = encode_module(
            CompilationSession(cache=False).compile(BASE_PROGRAMS[0][1]))
        first = [mutate_stream(base, RandomSource(99)) for _ in range(20)]
        second = [mutate_stream(base, RandomSource(99)) for _ in range(20)]
        # one RandomSource per run: the whole mutant sequence repeats
        run_a = []
        src = RandomSource(42)
        for _ in range(30):
            run_a.append(mutate_stream(base, src))
        run_b = []
        src = RandomSource(42)
        for _ in range(30):
            run_b.append(mutate_stream(base, src))
        assert run_a == run_b
        assert first[0] == second[0]

    def test_pristine_streams_are_accepted(self):
        for name, wire in stream_bases():
            outcome = check_stream(wire)
            assert outcome.kind == "accepted", (name, outcome)

    def test_garbage_is_rejected_with_codes(self):
        assert check_stream(b"").code == "DEC-IO"
        outcome = check_stream(b"not a safetsa stream at all")
        assert outcome.kind == "rejected"
        assert outcome.code == "DEC-MAGIC"

    def test_truncation_and_trailing_data_rejected(self):
        wire = stream_bases()[0][1]
        truncated = check_stream(wire[: len(wire) // 2])
        assert truncated.kind == "rejected"
        assert truncated.code.startswith("DEC-")
        trailing = check_stream(wire + b"\xff\xff\xff\xff")
        assert trailing.kind == "rejected"
        assert trailing.code == "DEC-TRAILING"

    def test_accepted_mutants_run_under_every_tier(self, monkeypatch):
        from repro.interp.jit import JitCompiler
        from repro.interp.trace import TracingInterpreter
        from tests.test_jit import NUL_NAME_MUTANT
        # the JIT raised ValueError on this accepted mutant
        assert check_stream(NUL_NAME_MUTANT) == StreamOutcome("accepted",
                                                              "ran")
        # a tier that prints nothing, or counts one block too many, is
        # a finding
        monkeypatch.setattr(JitCompiler, "call",
                            lambda self, function, args: None)
        outcome = check_stream(NUL_NAME_MUTANT)
        assert (outcome.kind, outcome.code) == ("finding", "TierDivergence")
        assert outcome.detail.startswith("jit: ")
        monkeypatch.undo()
        call = TracingInterpreter.call

        def one_more_step(self, function, args):
            self.steps += 1
            return call(self, function, args)

        monkeypatch.setattr(TracingInterpreter, "call", one_more_step)
        outcome = check_stream(NUL_NAME_MUTANT)
        assert (outcome.kind, outcome.code) == ("finding", "TierDivergence")
        assert outcome.detail.startswith("trace: ")

    @pytest.mark.slow
    def test_stream_smoke_campaign_holds_invariant(self):
        result = run_campaign(seed=11, budget=300, mode="streams",
                              minimize=False)
        assert result.mutations == 300
        assert result.rejected + result.accepted == 300
        assert result.ok, result.summary()
        # the taxonomy attributes every rejection to a stable code
        assert sum(result.taxonomy.values()) == 300
        assert all(code.startswith(("DEC-", "STSA-", "ran", "no-entry",
                                    "bounded", "stackoverflow"))
                   for code in result.taxonomy)

    @pytest.mark.slow
    def test_campaigns_are_deterministic(self):
        first = run_campaign(seed=5, budget=250, mode="streams",
                             minimize=False)
        second = run_campaign(seed=5, budget=250, mode="streams",
                              minimize=False)
        assert first.taxonomy == second.taxonomy
        assert first.mutator_counts == second.mutator_counts
        assert (first.rejected, first.accepted) == \
            (second.rejected, second.accepted)


# ======================================================================
# attack-fixture replay: once rejected, forever rejected

class TestAttackFixtures:
    def test_fixtures_exist(self):
        assert load_fixtures(ATTACKS_DIR), \
            "tests/golden/attacks/ must ship at least one crasher"

    def test_every_fixture_maps_to_its_stable_rejection(self):
        for name, data, meta in load_fixtures(ATTACKS_DIR):
            outcome = check_stream(data)
            assert outcome.kind == "rejected", (name, outcome)
            assert outcome.code == meta["code"], (name, outcome)

    def test_fixture_bytes_are_content_addressed(self):
        for name, data, _meta in load_fixtures(ATTACKS_DIR):
            assert name == fixture_name(data)


# ======================================================================
# the rules the findings forced

def _tamper_trap_shadow(module):
    """Recreate the campaign finding in-memory: point a later getelt's
    index at the trapping idxcheck inside the try block.  Needs the
    *optimized* module, where CSE merged the per-access nullchecks, so
    the try-block idxcheck and the later loop index the same array
    value (exactly the shape of the original mutated stream)."""
    function = next(f for m, f in module.functions.items()
                    if m.name == "main")
    early = None
    for block in function.blocks:
        if block.instrs and isinstance(block.instrs[-1], ir.IdxCheck) \
                and block.exc_succ() is not None:
            early = block.instrs[-1]
            break
    assert early is not None, "no trapping idxcheck in the try body"
    target = None
    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, ir.GetElt) and instr.operands[1] is not \
                    early and instr.operands[0] is early.operands[0]:
                target = instr
    assert target is not None, "no later getelt over the same array"
    target.operands[1] = early
    return function


class TestTrappingTailRule:
    SOURCE = BASE_PROGRAMS[2][1]  # arrays: try/catch over xs[7]

    def test_verifier_rejects_trap_shadow_reference(self):
        module = CompilationSession(optimize=True,
                                    cache=False).compile(self.SOURCE)
        _tamper_trap_shadow(module)
        with pytest.raises(VerifyError) as info:
            verify_module(module)
        assert info.value.code == "STSA-REF-004"

    def test_decoder_rejects_trap_shadow_reference(self):
        # the decoder enforces the same rule on the wire (the fixtures
        # under golden/attacks replay real mutated streams; this one is
        # synthesized, so the two tests fail independently)
        module = CompilationSession(optimize=True,
                                    cache=False).compile(self.SOURCE)
        _tamper_trap_shadow(module)
        with pytest.raises(DecodeError) as info:
            decode_module(encode_module(module))
        assert info.value.code == "DEC-TRAP-REF"

    def test_phi_operand_may_not_be_its_exception_edges_tail(self):
        source = """
class T {
    static int f(int a, int b, int c) {
        int x = 5;
        try { x = a / b; x = x / c; }
        catch (ArithmeticException e) { x = x + 1000; }
        return x;
    }
    static void main() { System.out.println(f(12, 3, 2)); }
}
"""
        module = CompilationSession(cache=False).compile(source)
        verify_module(module)
        function = next(f for m, f in module.functions.items()
                        if m.name == "f")
        tampered = False
        for block in function.blocks:
            kinds = {kind for _, kind in block.preds}
            if kinds != {"exc"} or not block.phis:
                continue
            for phi in block.phis:
                for index, (pred, _kind) in enumerate(block.preds):
                    tail = pred.instrs[-1] if pred.instrs else None
                    if tail is not None and tail.traps \
                            and tail.plane == phi.plane:
                        phi.operands[index] = tail
                        tampered = True
        assert tampered, "no dispatch phi with a plane-compatible tail"
        with pytest.raises(VerifyError) as info:
            verify_module(module)
        assert info.value.code == "STSA-REF-004"


class TestDecodeErrorCodes:
    def test_default_code(self):
        error = DecodeError("anything")
        assert error.code == "DEC-MALFORMED"
        assert "[DEC-MALFORMED]" in str(error)

    def test_empty_and_truncated_streams(self):
        with pytest.raises(DecodeError) as info:
            decode_module(b"")
        assert info.value.code == "DEC-IO"

    def test_bad_magic(self):
        with pytest.raises(DecodeError) as info:
            decode_module(b"XXXXXXXXXXXXXXXX")
        assert info.value.code == "DEC-MAGIC"

    def test_trailing_data(self):
        wire = encode_module(
            CompilationSession(cache=False).compile(BASE_PROGRAMS[0][1]))
        with pytest.raises(DecodeError) as info:
            decode_module(wire + b"\x01\x02\x03\x04")
        assert info.value.code == "DEC-TRAILING"


class TestExecutionGuards:
    def test_allocation_cap(self):
        from repro.interp.interpreter import (
            AllocationLimitExceeded,
            Interpreter,
        )
        source = ("class T { static void main() "
                  "{ int[] big = new int[70000]; } }")
        module = CompilationSession(cache=False).compile(source)
        interp = Interpreter(module, max_steps=10_000)
        interp.max_array_length = 1 << 16
        with pytest.raises(AllocationLimitExceeded):
            interp.run_main()
        # without the cap the same program runs fine
        assert Interpreter(module, max_steps=1_000_000).run_main() \
            .exception is None


# ======================================================================
# CLI + report plumbing

class TestCliAndReport:
    def test_cli_fuzz_smoke(self, tmp_path, capsys):
        from repro.cli import main
        report_path = tmp_path / "fuzz.json"
        code = main(["fuzz", "--seed", "0", "--budget", "50",
                     "--mode", "streams", "-q", "--no-minimize",
                     "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["streams"]["mutations"] == 50
        assert report["streams"]["findings"] == 0
        assert sum(report["streams"]["taxonomy"].values()) == 50
        out = capsys.readouterr().out
        assert "fuzz campaign" in out

    def test_report_shape(self):
        result = run_campaign(seed=1, budget=5, mode="all",
                              minimize=False)
        report = result.report()
        assert report["mode"] == "all"
        assert report["programs"]["count"] >= 1
        assert report["programs"]["divergences"] == 0
        # mode="all" runs the v1 stream lane at full budget plus the
        # v2 envelope lane at half budget
        assert report["streams"]["mutations"] == 5 + max(1, 5 // 2)
        # ...and the sources lane at a tenth of the budget
        assert report["sources"]["count"] == 1
        assert report["sources"]["violations"] == 0
        json.dumps(report)  # must be JSON-able as-is


# ======================================================================
# the sources lane: compile or CompileError, nothing else

class TestSourcesLane:
    def test_splices_are_deterministic(self):
        from repro.fuzz.sources import source_bases, splice_source
        bases = source_bases(3)
        first = [splice_source(bases, RandomSource(11)) for _ in range(5)]
        again = [splice_source(bases, RandomSource(11)) for _ in range(5)]
        assert first == again

    @pytest.mark.parametrize("body", ["int x = 0x;", "int y = 1\u00b2;",
                                      "double d = .\u00b2;"])
    def test_malformed_literal_is_diagnosed(self, body):
        from repro.fuzz.sources import check_source
        outcome = check_source(
            "class T { static void main() { " + body + " } }")
        assert (outcome.kind, outcome.code) == ("rejected", "CompileError")

    @pytest.mark.parametrize("source", [
        "class A extends Missing {}",
        "class A {} class A {}",
        "class A extends B {} class B extends A {}",
        "class A extends A {}",
    ])
    def test_bad_hierarchy_is_diagnosed(self, source):
        from repro.fuzz.sources import check_source
        assert check_source(source).kind == "rejected"

    def test_campaign_holds_the_invariant(self):
        result = run_campaign(seed=0, budget=80, mode="sources")
        assert result.sources == 80
        assert result.compiled + result.diagnosed == 80
        assert result.compiled, "some splices must still compile"
        assert result.ok, result.summary()

    def test_violation_is_recorded_with_its_type(self, monkeypatch):
        from repro.driver import CompilationSession

        def crash(self, source):
            raise KeyError("boom")

        monkeypatch.setattr(CompilationSession, "compile", crash)
        result = run_campaign(seed=0, budget=3, mode="sources",
                              minimize=False)
        assert not result.ok
        report = result.report()
        assert report["sources"]["violations"] == 3
        assert report["sources"]["violation_types"] == {"KeyError": 3}
        assert {f["kind"] for f in report["findings"]} == {"source"}
        assert "VIOLATION [KeyError]" in result.summary()
