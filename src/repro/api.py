"""High-level public API: the producer / consumer pipeline in five calls.

The functions here wire the subsystems together::

    source --frontend--> typed AST --uast--> UAST --ssa--> SSA + CST
           --tsa.layout--> SafeTSA module --opt--> optimised module
           --encode--> wire bytes --decode--> module --interp--> result
"""

from __future__ import annotations

from typing import Optional


def compile_source(source: str, *, optimize: bool = False,
                   passes=None, prune_phis: bool = True,
                   filename: str = "<source>"):
    """Compile MiniJava++ source text to a SafeTSA :class:`~repro.tsa.module.Module`.

    ``optimize`` runs the paper's producer-side pipeline (constant
    propagation, CSE with memory dependence, check elimination, DCE)
    before layout; ``passes`` selects an explicit pipeline spec instead
    (see :func:`repro.driver.passes.parse_pass_spec`).  ``prune_phis``
    applies Briggs-style dead-phi pruning during SSA construction
    (Section 7 reports ~31% fewer phis).
    """
    from repro.pipeline import compile_to_module
    return compile_to_module(source, optimize=optimize, passes=passes,
                             prune_phis=prune_phis, filename=filename)


def compile_to_bytecode(source: str, *, filename: str = "<source>"):
    """Compile MiniJava++ source to the Java-bytecode baseline
    (:class:`~repro.jvm.classfile.ClassFileSet`)."""
    from repro.pipeline import compile_to_classfiles
    return compile_to_classfiles(source, filename=filename)


def encode_module(module, *, format_version: str = "stsa1",
                  store=None) -> bytes:
    """Externalize a SafeTSA module into its wire format.

    ``format_version="stsa2"`` wraps the stream in a self-contained v2
    distribution envelope (see :mod:`repro.encode.format`); the default
    is the bit-identical v1 stream.
    """
    from repro.encode.serializer import encode_module as _encode
    return _encode(module, format_version=format_version, store=store)


def decode_module(data: bytes, *, store=None):
    """Decode wire bytes into a verified SafeTSA module.

    Raises :class:`repro.encode.deserializer.DecodeError` on any stream in
    which a well-formed module is unrepresentable.  v2 envelopes are
    resolved against ``store`` (a :class:`repro.cache.DictionaryStore`;
    ``None`` for the environment default) before verification.
    """
    from repro.encode.deserializer import decode_module as _decode
    return _decode(data, store=store)


def load_module(data: bytes, *, lazy: bool = False, store=None):
    """Load wire bytes through the fused verifying loader.

    One pass decodes *and* verifies; repeat loads of the same bytes hit
    the verified-module cache and skip the residual rule sweeps.
    ``lazy=True`` defers each function body to first touch.  ``store``
    resolves v2 envelopes, as in :func:`decode_module`.
    Rejects exactly the streams :func:`decode_module` +
    ``verify_module`` reject (see ``docs/LOADER.md``).
    """
    from repro.loader import load_module as _load
    return _load(data, lazy=lazy, store=store)


def stream_module(chunks, *, store=None):
    """Feed wire bytes chunk by chunk through the streaming loader and
    return the fully verified module (see :mod:`repro.loader.stream`
    for the incremental ``StreamingLoader`` API)."""
    from repro.loader import stream_module as _stream
    return _stream(chunks, store=store)


def run_module(module, main_class: Optional[str] = None,
               method: str = "main"):
    """Execute a module's entry point; returns an ExecutionResult."""
    from repro.interp.interpreter import Interpreter
    return Interpreter(module).run_main(main_class, method)
