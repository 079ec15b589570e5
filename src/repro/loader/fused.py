"""Fused verifying decoder: one load path, decode-and-check.

The decoder already enforces the bulk of the verifier's property set by
construction: every symbol is drawn from an alphabet computed over the
decoded context, so type separation, dominator-relative reference
validity, phi/predecessor agreement, member-table reachability, and the
trap-gate rule (``DEC-TRAP-REF``/``STSA-REF-004``) are all checked as
each instruction decodes.  What remains -- the *residual* rules -- are
the properties that constrain already-representable shapes:

* ``STSA-CFG-003``  block mixes normal and exception predecessors
* ``STSA-TYP-004``  result type absent from the type table
* ``STSA-EXC-003``  subblock with a trapping tail must fall through
* ``STSA-EXC-005``  exception edge without an exception point
* ``STSA-EXC-006``  exception edge escapes its try

:class:`_ResidualChecker` sweeps exactly these, reusing the verifier's
own rule methods (same codes, same messages), in the verifier's own
block order -- so a fused load rejects with the very code the two-pass
path would have produced.  The full verifier stays in
:mod:`repro.tsa.verifier` as the reference oracle.

A load therefore costs one decode plus an O(instructions) sweep, every
time: nothing about earlier loads of the same bytes is trusted.
"""

from __future__ import annotations

import hashlib

from repro.encode.deserializer import _ModuleDecoder, decode_errors
from repro.encode.format import resolve_stream
from repro.ssa.ir import Function, Module
from repro.tsa.verifier import _FunctionVerifier


class _ResidualChecker(_FunctionVerifier):
    """Only the verifier rules the decoder does not enforce by
    construction; everything else already failed during decode or
    cannot occur.  Inherits ``fail``/``_verify_pred_kinds``/
    ``_verify_exc_edge`` so codes and messages match the oracle
    exactly, and reuses the decoder's dominator tree and dispatch map
    instead of recomputing them from the IR.
    """

    def __init__(self, module: Module, function: Function,
                 domtree, dispatch_of):
        super().__init__(module, function)
        self.domtree = domtree
        self.dispatch_of = dispatch_of

    def verify(self) -> None:
        for block in self.function.blocks:
            if block not in self.domtree.idom:
                continue  # unreachable: never transmitted, never run
            self._verify_residual_block(block)

    def _verify_residual_block(self, block) -> None:
        self._ctx_block = block
        self._ctx_instr = None
        dispatch = self.dispatch_of.get(block.id)
        pred_kinds = {kind for _, kind in block.preds}
        self._verify_pred_kinds(block, pred_kinds)
        for instr in block.instrs:
            self._ctx_instr = instr
            plane = instr.plane
            if plane is not None and plane.kind != "safeidx" \
                    and plane.type not in self.table:
                self.fail(f"v{instr.id} produces a value of type "
                          f"{plane.type} absent from the type table",
                          "STSA-TYP-004")
            if instr.traps and dispatch is not None \
                    and (block.term is None or block.term.kind != "fall"):
                self.fail(f"B{block.id} with a trapping tail must fall "
                          "through", "STSA-EXC-003")
        self._ctx_instr = None
        self._verify_exc_edge(block, dispatch)


class FusedDecoder(_ModuleDecoder):
    """Sequential decoder that captures, per function, the dominator
    tree and dispatch map the residual sweep needs -- the fused path's
    replacement for the verifier's full recomputation."""

    def __init__(self, data: bytes):
        super().__init__(data)
        #: (function, domtree, dispatch_of) per decoded body, in order
        self.contexts: list[tuple] = []

    def _on_function(self, decoder, function: Function) -> None:
        self.contexts.append((function, decoder.domtree,
                              decoder.dispatch_of))


def residual_verify(module: Module, contexts) -> None:
    """Run the residual rule sweep for every decoded function, in
    decode order (= the order ``verify_module`` would visit them)."""
    for function, domtree, dispatch_of in contexts:
        _ResidualChecker(module, function, domtree, dispatch_of).verify()


def load_module(data: bytes, *, store=None, cache=False) -> Module:
    """Load (and thereby verify) a SafeTSA distribution unit.

    Resolves a v2 envelope through ``store`` (the
    :class:`repro.cache.DictionaryStore`; ``None`` for the environment
    default; v1 streams never touch it), decodes with every
    safety-by-construction check, then runs the residual sweep.  Raises
    ``DecodeError`` or ``VerifyError`` with a stable code.

    ``cache`` accepts only ``False``: loads are never cached, and the
    keyword remains only for callers written when they could be.
    """
    if cache is not False:
        raise TypeError(f"load_module(cache={cache!r}): loads are never "
                        "cached; only cache=False is accepted")
    decoder = FusedDecoder(resolve_stream(data, store))
    with decode_errors():
        module = decoder.decode()
    residual_verify(module, decoder.contexts)
    # the distribution unit's content address; the trace cache keys
    # compiled hot paths on it so warm processes skip re-recording
    module.wire_digest = hashlib.sha256(data).hexdigest()
    return module
