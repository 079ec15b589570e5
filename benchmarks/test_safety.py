"""E6 -- the safety claims (Sections 1, 2, 10).

"SafeTSA is safe by construction, and cannot be manipulated to give
unsafe programs."  Operationally: any mutation of a wire stream either
fails to decode or decodes to a module that still passes full
verification -- there is no bit pattern that yields an ill-formed
program.  A deterministic xorshift PRNG drives the mutation fuzzing.
"""

from __future__ import annotations

import pytest

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.encode.deserializer import DecodeError, decode_module
from repro.encode.serializer import encode_module
from repro.tsa.verifier import VerifyError, verify_module


class XorShift:
    """Deterministic PRNG (no global random state in benchmarks)."""

    def __init__(self, seed: int = 0x9E3779B9):
        self.state = seed or 1

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x

    def below(self, n: int) -> int:
        return self.next() % n


@pytest.fixture(scope="module")
def wire():
    module = compile_source(corpus_source("Parser"), optimize=True)
    return encode_module(module)


def _attempt(data: bytes) -> str:
    """Decode + verify; classify the outcome."""
    try:
        module = decode_module(data)
    except DecodeError:
        return "rejected"
    except RecursionError:  # pathological nesting guarded upstream
        return "rejected"
    try:
        verify_module(module)
    except VerifyError as error:  # pragma: no cover - would be a bug
        raise AssertionError(
            f"decoder accepted an ill-formed module: {error}")
    return "accepted"


def test_bit_flip_fuzzing(wire):
    """Single bit flips: every outcome is reject-or-valid."""
    rng = XorShift(1)
    outcomes = {"rejected": 0, "accepted": 0}
    for _ in range(120):
        position = rng.below(len(wire) * 8)
        mutated = bytearray(wire)
        mutated[position // 8] ^= 1 << (position % 8)
        outcomes[_attempt(bytes(mutated))] += 1
    print(f"\nbit flips: {outcomes}")
    assert outcomes["rejected"] + outcomes["accepted"] == 120


def test_byte_corruption_fuzzing(wire):
    rng = XorShift(7)
    outcomes = {"rejected": 0, "accepted": 0}
    for _ in range(80):
        mutated = bytearray(wire)
        for _ in range(1 + rng.below(4)):
            mutated[rng.below(len(mutated))] = rng.below(256)
        outcomes[_attempt(bytes(mutated))] += 1
    print(f"byte corruption: {outcomes}")
    assert outcomes["rejected"] + outcomes["accepted"] == 80


def test_truncation_fuzzing(wire):
    """Truncated streams can never smuggle a partial program through."""
    for length in range(0, len(wire), max(len(wire) // 60, 1)):
        outcome = _attempt(wire[:length])
        assert outcome == "rejected", f"truncation at {length} accepted"


def test_random_garbage_rejected():
    rng = XorShift(99)
    for size in (0, 1, 4, 16, 64, 256, 1024):
        data = bytes(rng.below(256) for _ in range(size))
        assert _attempt(data) == "rejected"


def test_magic_prefixed_garbage_rejected():
    from repro.encode.common import MAGIC
    rng = XorShift(1234)
    for size in (1, 8, 64, 512):
        data = MAGIC + bytes(rng.below(256) for _ in range(size))
        assert _attempt(data) == "rejected"


def test_figure1_attack_is_unrepresentable():
    """The paper's motivating attack (Section 2): reference a value from
    the wrong side of a phi-join.  In SafeTSA the reference is expressed
    relative to the dominator tree, so the layout cannot even *name* the
    non-dominating value."""
    from repro.ssa.ir import Block, Const, Function, Phi, Plane, Prim, Term
    from repro.ssa.cst import RBasic, RIf, RSeq, derive_cfg
    from repro.ssa.dominators import compute_dominators
    from repro.tsa.layout import FunctionLayout, LayoutError
    from repro.typesys.ops import lookup_op
    from repro.typesys.types import BOOLEAN, INT
    from repro.typesys.world import MethodInfo, World

    world = World()
    method = MethodInfo("attack", [], INT, is_static=True)
    method.declaring = world.require("java.lang.Object")
    function = Function(method, world.require("java.lang.Object"))
    entry = function.new_block()
    function.entry = entry
    cond = Const(BOOLEAN, True)
    entry.append(cond)
    entry.term = Term("branch", cond)
    then_block = function.new_block()
    then_value = Const(INT, 10)  # the value "(10)" from Figure 1
    then_block.append(then_value)
    then_block.term = Term("fall")
    else_block = function.new_block()
    else_value = Const(INT, 11)
    else_block.append(else_value)
    else_block.term = Term("fall")
    join = function.new_block()
    join.term = Term("return", None)
    function.cst = RSeq([
        RIf(entry, RBasic(then_block), RBasic(else_block)),
        RBasic(join),
    ])
    derive_cfg(function)
    layout = FunctionLayout(function)
    # the attack: from the join, reference the then-branch value directly
    with pytest.raises(LayoutError):
        layout.ref_of(join, then_value)
    # referencing it from its own block is of course fine
    assert layout.ref_of(then_block, then_value) == (0, 0)


def test_fuzz_throughput_benchmark(benchmark, wire):
    rng = XorShift(5)

    def one_round():
        mutated = bytearray(wire)
        mutated[rng.below(len(mutated))] ^= 0xFF
        return _attempt(bytes(mutated))

    outcome = benchmark(one_round)
    assert outcome in ("rejected", "accepted")
