"""The unified compile path: session, pass manager, analysis cache.

``repro.driver`` is the home of the machinery every entry point now
shares:

* :class:`~repro.driver.session.CompilationSession` -- owns the front
  end, the compilation cache, stage timing, and diagnostics for one
  compilation configuration;
* :class:`~repro.driver.manager.PassManager` -- runs a declarative
  pipeline spec (``"constprop,safephi,cse,dce,cleanup"``) over
  functions, producing structured
  :class:`~repro.driver.report.PassReport` timing/statistics;
* :class:`~repro.analysis.manager.AnalysisManager` (re-exported) --
  per-function cache of dataflow results, invalidated by each pass's
  ``preserves`` declaration.

:func:`repro.compile_source` is a one-shot session; a pass-only caller
runs a :class:`~repro.driver.manager.PassManager` directly.
"""

from repro.analysis.manager import ANALYSES, AnalysisManager, \
    register_analysis
from repro.driver.manager import PassManager
from repro.driver.passes import (
    ALL_PASSES,
    CANONICAL_SPEC,
    DEFAULT_PASSES,
    PASS_REGISTRY,
    Pass,
    PassCheckError,
    STEP_FUNCTIONS,
    effective_passes,
    parse_pass_spec,
    register_pass,
    spec_string,
)
from repro.driver.report import PassReport, merge_stats
from repro.driver.session import CompilationSession

__all__ = [
    "ALL_PASSES",
    "ANALYSES",
    "AnalysisManager",
    "CANONICAL_SPEC",
    "CompilationSession",
    "DEFAULT_PASSES",
    "PASS_REGISTRY",
    "Pass",
    "PassCheckError",
    "PassManager",
    "PassReport",
    "STEP_FUNCTIONS",
    "effective_passes",
    "merge_stats",
    "parse_pass_spec",
    "register_analysis",
    "register_pass",
    "spec_string",
]
