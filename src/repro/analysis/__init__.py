"""Reusable static analysis over the SafeTSA IR.

The paper's central claim is that safety is a *checkable property of the
representation*; this package turns that check into a reusable analysis
layer instead of a monolithic fail-fast verifier:

* :mod:`repro.analysis.diagnostics` -- structured diagnostics with stable
  error codes, severities and (function, block, instruction) locations;
* :mod:`repro.analysis.dataflow` -- a generic forward worklist solver
  over the CFG (lattice protocol, per-edge refinement, merges at joins
  including exception edges, widening at loop heads);
* :mod:`repro.analysis.nullness` -- which safe-ref facts already hold on
  each edge (forward must-analysis);
* :mod:`repro.analysis.range` -- interval analysis of ``int``-plane
  values with array lengths as symbolic bounds;
* :mod:`repro.analysis.loops` -- natural loops, loop nests and
  preheader insertion;
* :mod:`repro.analysis.manager` -- the per-function cache of analysis
  results that the optimizer, the verifier, the encoder and the lint
  driver share;
* :mod:`repro.analysis.lint` -- the rule table and lint driver that
  combines verifier diagnostics with analysis-backed lint rules.

The submodules that depend on :mod:`repro.tsa.verifier` (``lint``) are
imported lazily to keep ``repro.tsa.verifier -> repro.analysis.
diagnostics`` cycle-free; import them explicitly.
"""

from repro.analysis.diagnostics import (  # noqa: F401
    DIAGNOSTIC_CODES,
    Diagnostic,
    Severity,
    has_errors,
)

__all__ = ["DIAGNOSTIC_CODES", "Diagnostic", "Severity", "has_errors"]
