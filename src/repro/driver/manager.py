"""The pass manager: declarative pipelines over registered passes.

A :class:`PassManager` is constructed from a pipeline spec (see
:func:`repro.driver.passes.parse_pass_spec`) and runs the selected
passes over functions in canonical slot order, producing one
:class:`~repro.driver.report.PassReport` per function with per-pass
wall-clock timing and statistics.

Passes consume analyses through an :class:`~repro.analysis.manager.
AnalysisManager` -- the caller's, or one made for the call -- which
drops each function's results after every pass according to the pass's
``preserves`` declaration (a pass that changed nothing preserves
everything -- see :meth:`repro.driver.passes.Pass.preserved_after`).

``check_after_each_pass`` verifies the function before the first pass
and re-verifies it after every pass, and attributes the first violation
-- as a :class:`~repro.driver.passes.PassCheckError` carrying the
collected diagnostics -- to the pass that introduced it.  Each check
computes a fresh dominator tree instead of reading the cache it is
checking.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.analysis.diagnostics import Severity
from repro.analysis.manager import AnalysisManager
from repro.driver.passes import (
    PASSES,
    PassCheckError,
    PassSpec,
    parse_pass_spec,
    spec_string,
)
from repro.driver.report import PassReport


class PassManager:
    """Runs a declaratively specified pipeline over functions."""

    def __init__(self, passes: PassSpec = None, *,
                 check_after_each_pass: bool = False):
        self.names: tuple[str, ...] = parse_pass_spec(passes)
        self.check_after_each_pass = check_after_each_pass

    @property
    def spec(self) -> str:
        """The canonical spec string of this pipeline."""
        return spec_string(self.names)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PassManager [{self.spec}]>"

    # ------------------------------------------------------------------

    def run_function(self, function, module=None,
                     analyses: Optional[AnalysisManager] = None) \
            -> PassReport:
        """Run the pipeline on one function; returns its report."""
        if self.check_after_each_pass and module is None:
            raise ValueError("check_after_each_pass requires module=")
        if analyses is None:
            analyses = AnalysisManager()
        report = PassReport(function.name)
        if self.check_after_each_pass:
            self._check(module, function, "input")
        for name in self.names:
            pass_ = PASSES[name]
            start = perf_counter()
            stats = pass_.step(function, analyses)
            seconds = perf_counter() - start
            report.record(name, stats, seconds)
            preserved = pass_.preserved_after(stats)
            if preserved is not None:
                analyses.invalidate(function, preserved=preserved)
            if self.check_after_each_pass:
                self._check(module, function, name)
        return report

    def run_module(self, module,
                   analyses: Optional[AnalysisManager] = None) \
            -> list[PassReport]:
        """Run the pipeline on every function, serially."""
        return [self.run_function(function, module, analyses)
                for function in module.functions.values()]

    # ------------------------------------------------------------------

    @staticmethod
    def _check(module, function, pass_name: str) -> None:
        from repro.tsa.verifier import collect_diagnostics
        errors = [d for d in collect_diagnostics(module, function)
                  if d.severity == Severity.ERROR]
        if errors:
            raise PassCheckError(pass_name, function.name, errors)
