"""The fused verifying loader (``repro.loader``).

The acceptance contract: the fused single-pass loader rejects exactly
the streams the legacy two-pass consumer (``decode_module`` +
``verify_module``) rejects, with the same stable code modulo the
documented ``DEC-*`` <-> ``STSA-*`` aliasing -- over the benchmark
corpus, the attack-fixture corpus, and a seeded stream-mutation
campaign.  The streaming loader is held to the same verdicts on the
hostile inputs, fed in small chunks.  Honest streams must come back
bit-identical whichever way they are delivered.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.diagnostics import STABLE_CODES, codes_equivalent
from repro.api import compile_source
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.fuzz.gen import RandomSource
from repro.fuzz.mutate import mutate_stream
from repro.loader import StreamingLoader, load_module, stream_module
from repro.tsa.verifier import VerifyError, verify_module

ATTACKS_DIR = Path(__file__).parent / "golden" / "attacks"

# ======================================================================
# artifacts


def _encode(source: str, optimize: bool) -> bytes:
    return encode_module(compile_source(source, optimize=optimize))


@pytest.fixture(scope="module")
def corpus_wires():
    """The 20 benchmark artifacts: every corpus program, unoptimised
    and optimised."""
    wires = {}
    for name in CORPUS_PROGRAMS:
        source = corpus_source(name)
        for optimize in (False, True):
            wires[(name, optimize)] = _encode(source, optimize)
    return wires


_MUTATION_BASES = (
    "class A { static int f(int a, int b) { return a / b + a % b; } }",
    "class B { static int f(int n) { int[] xs = new int[n];"
    "  int s = 0; try { for (int i = 0; i <= n; i = i + 1)"
    "  { xs[i] = i; s = s + xs[i]; } } catch (Exception e)"
    "  { s = -s; } return s; } }",
    "class C { int v; int get() { return v; }"
    "  static int f(C c, boolean p) { int r;"
    "  if (p) { r = c.get(); } else { r = 7; } return r; } }",
)


@pytest.fixture(scope="module")
def mutation_wires():
    wires = []
    for source in _MUTATION_BASES:
        for optimize in (False, True):
            wires.append(_encode(source, optimize))
    return wires


# ======================================================================
# verdicts


def two_pass_verdict(data: bytes):
    """The reference oracle: decode, then verify."""
    try:
        module = decode_module(data)
    except DecodeError as error:
        return ("reject", error.code)
    try:
        verify_module(module)
    except VerifyError as error:
        return ("reject", error.code)
    return ("accept", None)


def fused_verdict(data: bytes):
    try:
        load_module(data)
    except (DecodeError, VerifyError) as error:
        return ("reject", error.code)
    return ("accept", None)


def _chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i:i + size] for i in range(0, len(data), size)]


def streamed_verdict(data: bytes, chunk_size: int):
    """The streaming loader's verdict, whether it rejects mid-stream
    (a feed) or at end of input (finish)."""
    try:
        stream_module(_chunked(data, chunk_size))
    except (DecodeError, VerifyError) as error:
        return ("reject", error.code)
    return ("accept", None)


def assert_same_rejection(reference, fused, context: str) -> None:
    assert reference[0] == fused[0], \
        f"{context}: two-pass {reference} vs fused {fused}"
    if reference[0] == "reject":
        assert codes_equivalent(reference[1], fused[1]), \
            f"{context}: code {reference[1]} vs {fused[1]}"


# ======================================================================
# differential gate: honest artifacts


class TestHonestArtifacts:
    def test_corpus_accepted_and_bit_identical(self, corpus_wires):
        """The fused load reproduces the two-pass module bit for bit,
        over all 20 corpus artifacts, every time."""
        for (name, optimize), wire in corpus_wires.items():
            context = f"{name} optimize={optimize}"
            reference = encode_module(decode_module(wire))
            assert reference == wire, context  # round-trip sanity
            for _ in range(2):
                assert encode_module(load_module(wire)) == wire, context

    def test_cache_keyword_accepts_only_false(self, corpus_wires):
        wire = next(iter(corpus_wires.values()))
        assert encode_module(load_module(wire, cache=False)) == wire
        for value in (None, True, object()):
            with pytest.raises(TypeError):
                load_module(wire, cache=value)

    def test_corpus_verdicts_agree(self, corpus_wires):
        for (name, optimize), wire in corpus_wires.items():
            assert two_pass_verdict(wire) == ("accept", None)
            assert fused_verdict(wire) == ("accept", None)


# ======================================================================
# differential gate: attack fixtures


def _attack_fixtures():
    manifest = json.loads((ATTACKS_DIR / "manifest.json").read_text())
    return sorted(manifest)


class TestAttackFixtures:
    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_fused_rejects_like_two_pass(self, fixture):
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        reference = two_pass_verdict(data)
        assert reference[0] == "reject"
        assert_same_rejection(reference, fused_verdict(data), fixture)

    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_manifest_code_matches(self, fixture):
        manifest = json.loads((ATTACKS_DIR / "manifest.json").read_text())
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        verdict = fused_verdict(data)
        assert verdict[0] == "reject"
        assert codes_equivalent(verdict[1], manifest[fixture]["code"])

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_streaming_rejects_like_load_module(self, fixture,
                                                chunk_size):
        manifest = json.loads((ATTACKS_DIR / "manifest.json").read_text())
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        fused = fused_verdict(data)
        streamed = streamed_verdict(data, chunk_size)
        assert streamed[0] == "reject", fixture
        assert codes_equivalent(streamed[1], fused[1]), \
            f"{fixture}: streamed {streamed[1]} vs loaded {fused[1]}"
        assert codes_equivalent(streamed[1], manifest[fixture]["code"])

    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_rejection_location_is_stable(self, fixture):
        # locations name blocks by decode position, not by the
        # process-global Block.id, so a second load of the same bytes
        # (more blocks allocated in between) reports the same place
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        locations = []
        for _ in range(2):
            with pytest.raises(DecodeError) as caught:
                load_module(data)
            locations.append(caught.value.location())
        assert locations[0] == locations[1]


# ======================================================================
# differential gate: seeded stream-mutation campaign


@pytest.mark.slow
class TestMutationCampaign:
    CAMPAIGN_SEED = 20010620  # PLDI 2001
    BUDGET = 1200

    def test_campaign_verdicts_agree(self, mutation_wires):
        """>= 1000 seeded mutants: the fused loader and the two-pass
        oracle accept/reject in lockstep with equivalent codes."""
        src = RandomSource(self.CAMPAIGN_SEED)
        per_base = self.BUDGET // len(mutation_wires)
        accepted = rejected = 0
        for base_index, base in enumerate(mutation_wires):
            for case in range(per_base):
                mutator, mutant = mutate_stream(base, src)
                context = f"base {base_index} case {case} ({mutator})"
                reference = two_pass_verdict(mutant)
                assert_same_rejection(reference, fused_verdict(mutant),
                                      context)
                if reference[0] == "accept":
                    accepted += 1
                    # a surviving mutant is an honest stream: it must
                    # still round-trip bit-identically through the loader
                    assert encode_module(load_module(mutant)) == mutant, \
                        context
                else:
                    rejected += 1
        assert accepted + rejected >= 1000
        assert rejected > 0

    def test_campaign_streamed_verdicts_agree(self, mutation_wires):
        """Mutants fed to the streaming loader in 7-byte chunks are
        accepted or rejected exactly as one-shot loads are (the
        first-reported *code* may differ: the stream residual-checks
        each body as it lands, before later bodies decode), and an
        accepted mutant re-encodes bit-identically."""
        src = RandomSource(self.CAMPAIGN_SEED + 1)
        per_base = self.BUDGET // len(mutation_wires)
        accepted = rejected = 0
        for base_index, base in enumerate(mutation_wires):
            for case in range(per_base):
                mutator, mutant = mutate_stream(base, src)
                context = f"base {base_index} case {case} ({mutator})"
                loaded = fused_verdict(mutant)[0]
                try:
                    module = stream_module(_chunked(mutant, 7))
                except (DecodeError, VerifyError):
                    assert loaded == "reject", context
                    rejected += 1
                    continue
                assert loaded == "accept", context
                assert encode_module(module) == mutant, context
                accepted += 1
        assert accepted > 0 and rejected > 0


# ======================================================================
# truncation: every prefix dies with a coded DecodeError


class TestTruncation:
    SOURCE = ("class T { static int f(int a, int b) { return a / b; }"
              "  static int g(int n) { int s = 0;"
              "  for (int i = 0; i < n; i = i + 1) { s = s + i; }"
              "  return s; } }")

    def test_every_byte_prefix_rejected_with_code(self):
        wire = _encode(self.SOURCE, optimize=False)
        for cut in range(len(wire)):
            with pytest.raises(DecodeError) as info:
                load_module(wire[:cut])
            assert info.value.code in STABLE_CODES, f"cut at {cut}"

    def test_section_boundary_cuts(self):
        """Cuts exactly at the header end and at every per-function
        body boundary (the places a malicious packager would split)."""
        wire = _encode(self.SOURCE, optimize=False)
        loader = StreamingLoader()
        loader.feed(wire)
        loader.finish()
        boundaries = loader.boundaries
        assert boundaries  # two bodies
        header_end = boundaries[0][0]
        for bits in [0, len(b"SafeTSA") * 8, header_end] + \
                [end for _, end in boundaries[:-1]]:
            cut = wire[:(bits + 7) // 8][:-1 if bits % 8 else None] \
                if bits else b""
            with pytest.raises(DecodeError) as info:
                load_module(cut)
            assert info.value.code in STABLE_CODES, f"cut at bit {bits}"

    def test_truncation_mid_body_carries_location(self):
        wire = _encode(self.SOURCE, optimize=False)
        with pytest.raises(DecodeError) as info:
            load_module(wire[:-1])
        error = info.value
        assert error.code in STABLE_CODES
        assert error.function is not None
        assert error.location()


# ======================================================================
# error context


class TestDecodeErrorContext:
    def test_context_fields_default_to_none(self):
        error = DecodeError("boom", "DEC-IO")
        assert (error.function, error.block, error.instr) == \
            (None, None, None)

    def test_attach_fills_only_unknowns(self):
        error = DecodeError("boom", "DEC-REF", function="T.f",
                            instr=3)
        error.attach(function="T.g", block=2, instr=9)
        assert error.function == "T.f"  # inner raise site wins
        assert error.block == 2
        assert error.instr == 3

    def test_message_format_is_stable(self):
        error = DecodeError("bad stream", "DEC-MALFORMED")
        assert str(error) == "bad stream [DEC-MALFORMED]"


# ======================================================================
# the unified code registry (raise-site scan)


SRC_ROOT = Path(__file__).parent.parent / "src" / "repro"
_CODE_LITERAL = re.compile(
    r'"((?:DEC|STSA|SERVE)-[A-Z]+(?:-[A-Z0-9]+)*)"')


class TestCodeRegistry:
    def test_every_raise_site_code_is_registered(self):
        """Any ``"DEC-…"``/``"STSA-…"`` string literal anywhere in the
        source tree must be in the unified registry -- an unregistered
        raise site fails here, in CI."""
        unregistered = {}
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for code in _CODE_LITERAL.findall(path.read_text()):
                if code not in STABLE_CODES:
                    unregistered.setdefault(code, []).append(
                        str(path.relative_to(SRC_ROOT)))
        assert not unregistered, \
            f"codes missing from STABLE_CODES: {unregistered}"

    def test_layers_partition_the_registry(self):
        from repro.analysis.diagnostics import (
            DIAGNOSTIC_CODES,
            LAYER_DECODER,
            LAYER_SERVE,
            layer_of,
        )
        for code in STABLE_CODES:
            if code.startswith("DEC-"):
                assert layer_of(code) == LAYER_DECODER
                assert code not in DIAGNOSTIC_CODES
            elif code.startswith("SERVE-"):
                assert layer_of(code) == LAYER_SERVE
                assert code not in DIAGNOSTIC_CODES
            else:
                assert layer_of(code) not in (LAYER_DECODER, LAYER_SERVE)
                assert code in DIAGNOSTIC_CODES

    def test_alias_classes(self):
        from repro.analysis.diagnostics import CODE_ALIASES, alias_class
        assert codes_equivalent("DEC-TRAP-REF", "STSA-REF-004")
        assert codes_equivalent("DEC-REF", "STSA-REF-001")
        assert codes_equivalent("DEC-IO", "DEC-IO")
        assert not codes_equivalent("DEC-IO", "STSA-REF-001")
        for aliases in CODE_ALIASES:
            for code in aliases:
                assert code in STABLE_CODES
                assert alias_class(code) == aliases


# ======================================================================
# session + API integration


class TestConsumerIntegration:
    def test_session_load_credits_load_stage(self):
        from repro.driver import CompilationSession
        session = CompilationSession(cache=False)
        wire = _encode(TestTruncation.SOURCE, optimize=False)
        module = session.load(wire)
        assert encode_module(module) == wire
        assert "load" in session.stage_seconds

    def test_api_load_module(self):
        from repro.api import load_module as api_load
        wire = _encode(TestTruncation.SOURCE, optimize=False)
        assert encode_module(api_load(wire)) == wire

    def test_jvm_verify_classfile_set(self):
        from repro.driver import CompilationSession
        from repro.jvm.verifier import verify_class, verify_classfile_set
        source = TestTruncation.SOURCE
        session = CompilationSession(cache=False)
        _, world = session.frontend(source)
        classes = session.compile_to_classfiles(source)
        total = verify_classfile_set(world, classes)
        assert total == sum(verify_class(world, c) for c in classes)
        assert total > 0
