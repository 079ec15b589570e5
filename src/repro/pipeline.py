"""Compilation pipeline: source text to SafeTSA module (and the bytecode
baseline).

These are the historical convenience entry points; the machinery lives
in :mod:`repro.driver`.  Each call builds a one-shot
:class:`~repro.driver.session.CompilationSession`, which owns the front
end, the pass manager, the shared analysis cache, and the compilation
cache.  Hold a session yourself when compiling the same source more
than one way (SafeTSA + bytecode baseline share a parse) or when you
want pass reports and analysis-cache statistics.
"""

from __future__ import annotations

from repro.driver.session import (
    CompilationSession,
    _intern_type,
    _intern_used_types,
)
from repro.ssa.ir import Module

#: Producer-pipeline flag defaults; the compilation-cache key covers
#: exactly these, so cache writers and readers must agree on them.
#: ``optimize``/``passes`` jointly resolve to a canonical pipeline-spec
#: string (see :func:`repro.driver.passes.effective_passes`), which is
#: what the key actually hashes.
PIPELINE_FLAG_DEFAULTS = {
    "optimize": False, "passes": None,
    "prune_phis": True, "eager_phis": True}


def pipeline_cache_key(cache, source: str, **flags) -> str:
    """The cache key :func:`compile_to_module` uses for this compile.

    Unknown flag names raise ``TypeError``: a misspelled flag
    (``optimise=True``) would otherwise silently hash into a key no
    compile ever writes, turning every lookup into a miss.
    """
    unknown = sorted(set(flags) - set(PIPELINE_FLAG_DEFAULTS))
    if unknown:
        raise TypeError(
            f"unknown pipeline flag(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(PIPELINE_FLAG_DEFAULTS))}")
    from repro.driver.passes import effective_passes, spec_string
    merged = dict(PIPELINE_FLAG_DEFAULTS)
    merged.update(flags)
    spec = spec_string(effective_passes(merged["optimize"],
                                        merged["passes"]))
    return cache.key(source, passes=spec,
                     prune_phis=merged["prune_phis"],
                     eager_phis=merged["eager_phis"])


def compile_to_module(source: str, *, optimize: bool = False,
                      passes=None, prune_phis: bool = True,
                      eager_phis: bool = True,
                      filename: str = "<source>",
                      cache=None, stage_seconds=None) -> Module:
    """Full producer pipeline: parse, check, lower, build SSA, optimise.

    ``passes`` is an optional pipeline spec (a comma-separated string or
    an iterable of pass names, see :func:`repro.driver.passes.
    parse_pass_spec`) and overrides ``optimize`` when given.

    ``cache`` is an optional :class:`repro.cache.CompilationCache` (pass
    ``False`` to force a cold compile even when a process-wide default
    cache is enabled).  On a hit the producer pipeline is skipped
    entirely and the cached wire bytes are decoded -- the cheap,
    self-validating consumer path.

    ``stage_seconds`` is an optional mutable mapping; wall-clock seconds
    for the ``parse``, ``ssa`` and ``opt`` stages (and ``load`` on a
    cache hit -- the fused-loader consumer path) are accumulated into
    it.
    """
    session = CompilationSession(
        optimize=optimize, passes=passes, prune_phis=prune_phis,
        eager_phis=eager_phis, filename=filename, cache=cache)
    module = session.compile(source)
    if stage_seconds is not None:
        for stage, seconds in session.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return module


def compile_to_classfiles(source: str, *, filename: str = "<source>"):
    """Baseline pipeline: parse, check, lower, emit stack bytecode."""
    session = CompilationSession(filename=filename, cache=False)
    return session.compile_to_classfiles(source)
