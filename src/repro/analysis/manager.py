"""Shared analysis results: compute once per function, reuse everywhere.

Every consumer of a dataflow analysis used to run the solver itself --
CSE computed its own dominator tree, DCE its own observability closure,
and each lint rule re-solved nullness or range from scratch, so the same
facts were derived three or four times per compilation.  *The ART of
Sharing Points-to Analysis* (Halalingaiah et al.) makes the case that
safely reusing analysis results across passes and compilations is where
industrial compile-time goes; this module is that idea for the SafeTSA
pipeline.

:class:`AnalysisManager` caches analysis results per ``(analysis,
function)`` pair.  Consumers call :meth:`AnalysisManager.get`; the pass
manager invalidates after every pass that does not declare the analysis
preserved (see :class:`repro.driver.passes.Pass`).  A pass whose
statistics show it changed nothing implicitly preserves everything.

The analyses are the fixed table :data:`ANALYSES`:

=============  ====================================================
``domtree``    :func:`repro.ssa.dominators.compute_dominators`
``observable`` :func:`repro.opt.dce.observable_values`
``nullness``   :func:`repro.analysis.nullness.analyze_nullness`
``range``      :func:`repro.analysis.range.analyze_ranges`
``loops``      :func:`repro.analysis.loops.find_loops`
=============  ====================================================

A manager belongs to one compilation session and is used on one thread.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.loops import find_loops
from repro.analysis.nullness import analyze_nullness
from repro.analysis.range import analyze_ranges
from repro.opt.dce import observable_values
from repro.ssa.dominators import compute_dominators
from repro.ssa.ir import Function

#: analysis name -> solver(function)
ANALYSES: dict[str, Callable[[Function], object]] = {
    "domtree": compute_dominators,
    "observable": observable_values,
    "nullness": analyze_nullness,
    "range": analyze_ranges,
    "loops": find_loops,
}


class AnalysisManager:
    """Per-function cache of analysis results with hit accounting.

    Results are keyed on the :class:`~repro.ssa.ir.Function` object,
    which hashes by identity: a manager outlives any number of modules,
    two functions never alias, and a function stays alive while any of
    its results are cached.
    """

    def __init__(self) -> None:
        self._cache: dict[Function, dict[str, object]] = {}
        self.computed = 0
        self.hits = 0
        self.invalidations = 0
        #: analysis name -> {"computed": n, "hits": n}
        self.per_analysis: dict[str, dict[str, int]] = {}

    # -- lookup ---------------------------------------------------------

    def get(self, name: str, function: Function):
        """The ``name`` analysis result for ``function``, cached."""
        solver = ANALYSES.get(name)
        if solver is None:
            raise KeyError(
                f"unknown analysis {name!r}; known: {sorted(ANALYSES)}")
        results = self._cache.setdefault(function, {})
        if name in results:
            self.hits += 1
            self._account(name)["hits"] += 1
            return results[name]
        value = results[name] = solver(function)
        self.computed += 1
        self._account(name)["computed"] += 1
        return value

    def cached(self, name: str, function: Function):
        """The cached result, or None without computing anything."""
        return self._cache.get(function, {}).get(name)

    def _account(self, name: str) -> dict:
        stats = self.per_analysis.get(name)
        if stats is None:
            stats = self.per_analysis[name] = {"computed": 0, "hits": 0}
        return stats

    # -- invalidation ---------------------------------------------------

    def invalidate(self, function: Function,
                   preserved: frozenset = frozenset()) -> None:
        """Drop ``function``'s results except the ``preserved`` names."""
        results = self._cache.get(function)
        if results is None:
            return
        for name in [name for name in results if name not in preserved]:
            del results[name]
            self.invalidations += 1
        if not results:
            del self._cache[function]

    # -- accounting -----------------------------------------------------

    @property
    def consumers_per_computed(self) -> float:
        """Average number of consumers each computed result served."""
        if not self.computed:
            return 0.0
        return (self.hits + self.computed) / self.computed

    def stats(self) -> dict:
        return {
            "computed": self.computed,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "consumers_per_computed": round(
                self.consumers_per_computed, 3),
            "per_analysis": {
                name: dict(counts)
                for name, counts in sorted(self.per_analysis.items())},
        }
