"""The fused verifying loader (``repro.loader``).

The acceptance contract: the fused single-pass loader rejects exactly
the streams the legacy two-pass consumer (``decode_module`` +
``verify_module``) rejects, with the same stable code modulo the
documented ``DEC-*`` <-> ``STSA-*`` aliasing -- over the benchmark
corpus, the attack-fixture corpus, and a seeded stream-mutation
campaign.  Honest streams must come back bit-identical under every
load path (cold, warm, lazy cold, lazy warm).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.diagnostics import STABLE_CODES, codes_equivalent
from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.cache import VerifiedModuleCache
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.fuzz.gen import RandomSource
from repro.fuzz.mutate import mutate_stream
from repro.loader import ModuleLoader, load_module
from repro.loader.lazy import LazyFunctions
from repro.pipeline import compile_to_module
from repro.tsa.verifier import VerifyError, verify_module

ATTACKS_DIR = Path(__file__).parent / "golden" / "attacks"

# ======================================================================
# artifacts


def _encode(source: str, optimize: bool) -> bytes:
    return encode_module(compile_to_module(source, optimize=optimize))


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


def fused_verdict(data: bytes, **kwargs):
    kwargs.setdefault("cache", False)
    try:
        module = load_module(data, **kwargs)
        if kwargs.get("lazy"):
            module.functions.materialize_all()
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
    def test_corpus_accepted_and_bit_identical(self, corpus_wires,
                                               tmp_path):
        """Every load path reproduces the two-pass module bit for bit,
        over all 20 corpus artifacts."""
        cache = VerifiedModuleCache(str(tmp_path))
        for (name, optimize), wire in corpus_wires.items():
            context = f"{name} optimize={optimize}"
            reference = encode_module(decode_module(wire))
            assert reference == wire, context  # round-trip sanity

            cold = ModuleLoader(wire, cache=cache)
            assert encode_module(cold.load()) == wire, context
            assert not cold.cache_hit and cold.verified, context

            warm = ModuleLoader(wire, cache=cache)
            assert encode_module(warm.load()) == wire, context
            assert warm.cache_hit and not warm.verified, context

            lazy = load_module(wire, lazy=True, cache=cache)
            assert encode_module(lazy) == wire, context

            lazy_cold = load_module(wire, lazy=True, cache=False)
            assert encode_module(lazy_cold) == wire, context

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

    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_lazy_load_rejects(self, fixture):
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        assert fused_verdict(data, lazy=True)[0] == "reject"

    @pytest.mark.parametrize("fixture", _attack_fixtures())
    def test_rejection_location_is_stable(self, fixture):
        # locations name blocks by decode position, not by the
        # process-global Block.id, so a second load of the same bytes
        # (more blocks allocated in between) reports the same place
        data = (ATTACKS_DIR / f"{fixture}.bin").read_bytes()
        locations = []
        for _ in range(2):
            with pytest.raises(DecodeError) as caught:
                load_module(data, cache=False)
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
                    assert encode_module(
                        load_module(mutant, cache=False)) == mutant, \
                        context
                else:
                    rejected += 1
        assert accepted + rejected >= 1000
        assert rejected > 0

    def test_campaign_lazy_verdicts_agree(self, mutation_wires):
        """Lazy loads reject exactly the streams eager loads reject
        (the first-reported *code* may differ: residual rules fire per
        function at materialization, a documented ordering change)."""
        src = RandomSource(self.CAMPAIGN_SEED + 1)
        for base in mutation_wires:
            for _ in range(25):
                _, mutant = mutate_stream(base, src)
                eager = fused_verdict(mutant)
                lazy = fused_verdict(mutant, lazy=True)
                assert eager[0] == lazy[0]


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
                load_module(wire[:cut], cache=False)
            assert info.value.code in STABLE_CODES, f"cut at {cut}"

    def test_every_byte_prefix_rejected_lazily(self):
        """A truncated stream must never give the consumer a partial
        module: the lazy path raises a coded DecodeError no later than
        full materialization."""
        wire = _encode(self.SOURCE, optimize=False)
        for cut in range(len(wire)):
            with pytest.raises(DecodeError) as info:
                module = load_module(wire[:cut], lazy=True, cache=False)
                module.functions.materialize_all()
            assert info.value.code in STABLE_CODES, f"cut at {cut}"

    def test_section_boundary_cuts(self):
        """Cuts exactly at the header end and at every per-function
        body boundary (the places a malicious packager would split)."""
        wire = _encode(self.SOURCE, optimize=False)
        loader = ModuleLoader(wire, cache=False)
        loader.load()
        boundaries = loader.boundaries
        assert boundaries  # two bodies
        header_end = boundaries[0][0]
        for bits in [0, len(b"SafeTSA") * 8, header_end] + \
                [end for _, end in boundaries[:-1]]:
            cut = wire[:(bits + 7) // 8][:-1 if bits % 8 else None] \
                if bits else b""
            with pytest.raises(DecodeError) as info:
                load_module(cut, cache=False)
            assert info.value.code in STABLE_CODES, f"cut at bit {bits}"

    def test_truncation_mid_body_carries_location(self):
        wire = _encode(self.SOURCE, optimize=False)
        with pytest.raises(DecodeError) as info:
            load_module(wire[:-1], cache=False)
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
# verified-module cache


class TestVerifiedModuleCache:
    def test_key_is_digest_of_wire(self):
        assert VerifiedModuleCache.key(b"abc") == \
            VerifiedModuleCache.key(b"abc")
        assert VerifiedModuleCache.key(b"abc") != \
            VerifiedModuleCache.key(b"abd")

    def test_put_get_roundtrip(self, tmp_path):
        cache = VerifiedModuleCache(str(tmp_path))
        key = VerifiedModuleCache.key(b"wire")
        assert cache.get(key) is None
        cache.put(key, [(64, 128), (128, 200)])
        assert cache.get(key) == [(64, 128), (128, 200)]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_persists_across_instances(self, tmp_path):
        key = VerifiedModuleCache.key(b"wire")
        VerifiedModuleCache(str(tmp_path)).put(key, [(8, 9)])
        assert VerifiedModuleCache(str(tmp_path)).get(key) == [(8, 9)]

    def test_damaged_entry_is_a_miss(self, tmp_path):
        cache = VerifiedModuleCache(str(tmp_path))
        key = VerifiedModuleCache.key(b"wire")
        cache.put(key, [(8, 9)])
        path = next(Path(str(tmp_path)).glob("*.verified"))
        path.write_text("stsa1\n8 not-a-number\n")
        assert VerifiedModuleCache(str(tmp_path)).get(key) is None
        path.write_text("other-version\n8 9\n")
        assert VerifiedModuleCache(str(tmp_path)).get(key) is None

    def test_clear(self, tmp_path):
        cache = VerifiedModuleCache(str(tmp_path))
        key = VerifiedModuleCache.key(b"wire")
        cache.put(key, [(8, 9)])
        cache.clear()
        assert cache.get(key) is None


class TestCacheCorruptionSafety:
    """A stale or tampered cache entry may cost time, never soundness."""

    SOURCE = TestTruncation.SOURCE

    def test_implausible_boundaries_fall_back_cold(self, tmp_path):
        wire = _encode(self.SOURCE, optimize=False)
        cache = VerifiedModuleCache(str(tmp_path))
        cache.put(VerifiedModuleCache.key(wire), [(0, 1)])
        loader = ModuleLoader(wire, cache=cache)
        module = loader.load()
        assert not loader.cache_hit and loader.verified
        assert encode_module(module) == wire

    def test_shifted_boundaries_fall_back_cold(self, tmp_path):
        wire = _encode(self.SOURCE, optimize=False)
        honest = ModuleLoader(wire, cache=False)
        honest.load()
        lying = list(honest.boundaries)
        assert len(lying) >= 2
        (s0, e0), (_, e1) = lying[0], lying[1]
        # contiguous and in-stream (passes the shape check), but the
        # split point is wrong: body decode must disagree
        lying[0] = (s0, e0 + 8)
        lying[1] = (e0 + 8, e1)
        cache = VerifiedModuleCache(str(tmp_path))
        cache.put(VerifiedModuleCache.key(wire), lying)
        loader = ModuleLoader(wire, cache=cache)
        module = loader.load()
        assert not loader.cache_hit and loader.verified
        assert encode_module(module) == wire

    def test_lazy_load_survives_bad_cache_entry(self, tmp_path):
        wire = _encode(self.SOURCE, optimize=False)
        cache = VerifiedModuleCache(str(tmp_path))
        cache.put(VerifiedModuleCache.key(wire), [(0, 1)])
        module = load_module(wire, lazy=True, cache=cache)
        module.functions.materialize_all()
        assert encode_module(module) == wire

    def test_corrupt_version_byte_misses_and_rejects(self, tmp_path):
        """The cache key covers the wire format version, so a stream
        whose version byte was flipped can never reuse the honest
        entry's boundary index -- it misses, decodes cold, and dies on
        the magic check."""
        wire = _encode(self.SOURCE, optimize=False)
        cache = VerifiedModuleCache(str(tmp_path))
        load_module(wire, cache=cache)  # publish the honest index
        corrupt = bytes([wire[0] ^ 0xFF]) + wire[1:]
        assert VerifiedModuleCache.key(corrupt) != \
            VerifiedModuleCache.key(wire)
        with pytest.raises(DecodeError) as info:
            load_module(corrupt, cache=cache)
        assert info.value.code == "DEC-MAGIC"


# ======================================================================
# lazy loading


class TestLazyLoading:
    SOURCE = TestTruncation.SOURCE

    def test_header_available_without_body_decode(self):
        wire = _encode(self.SOURCE, optimize=False)
        module = load_module(wire, lazy=True, cache=False)
        functions = module.functions
        assert isinstance(functions, LazyFunctions)
        names = [method.name for method in functions]
        assert len(names) == len(functions)
        assert {"f", "g"} <= set(names)
        assert all(fn is None for fn in functions._state.decoded)

    def test_cold_touch_is_prefix_lazy(self, tmp_path):
        wire = _encode(self.SOURCE, optimize=False)
        cache = VerifiedModuleCache(str(tmp_path))
        loader = ModuleLoader(wire, lazy=True, cache=cache)
        module = loader.load()
        first = next(iter(module.functions))
        module.functions[first]
        state = module.functions._state
        assert state.decoded[0] is not None
        assert state.decoded[1] is None  # only the prefix decoded
        assert not loader.verified      # trailing check still pending
        last = list(module.functions)[-1]
        module.functions[last]
        assert loader.verified          # full stream consumed + checked
        # full materialization published the boundary index
        assert cache.get(VerifiedModuleCache.key(wire)) == \
            loader.boundaries

    def test_warm_touch_is_random_access(self, tmp_path):
        wire = _encode(self.SOURCE, optimize=False)
        cache = VerifiedModuleCache(str(tmp_path))
        load_module(wire, cache=cache)  # publish the index
        loader = ModuleLoader(wire, lazy=True, cache=cache)
        module = loader.load()
        assert loader.cache_hit
        last = list(module.functions)[-1]
        module.functions[last]
        state = module.functions._state
        assert state.decoded[-1] is not None
        assert state.decoded[0] is None  # earlier body untouched

    def test_failed_touch_poisons_later_touches(self):
        wire = _encode(self.SOURCE, optimize=False)
        module = load_module(wire[:-1], lazy=True, cache=False)
        methods = list(module.functions)
        with pytest.raises(DecodeError) as first:
            module.functions[methods[-1]]
        with pytest.raises(DecodeError) as second:
            module.functions[methods[-1]]
        assert second.value is first.value

    def test_lazy_module_runs(self):
        source = ("class Main { static int helper(int x) { return x * 3; }"
                  "  static void main() {"
                  "  System.out.println(helper(14)); } }")
        wire = _encode(source, optimize=True)
        from repro.interp.interpreter import Interpreter
        module = load_module(wire, lazy=True, cache=False)
        result = Interpreter(module).run_main()
        assert result.stdout == "42\n"


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
