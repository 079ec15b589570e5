"""The SafeTSA lint driver: rule table + structured reports.

A lint run combines two diagnostic sources:

* the verifier in collect-all mode (:func:`repro.tsa.verifier.
  collect_diagnostics`) -- every well-formedness *error* plus the
  warning-severity findings fail-fast verification tolerates
  (unreachable blocks, ``STSA-CFG-101``);
* the analysis-backed rules below -- dead phis
  (``STSA-PHI-101``), and the redundant ``nullcheck``/``idxcheck``
  findings (``STSA-NULL-101`` / ``STSA-IDX-101``) the nullness and
  range dataflow facts prove can never trap.  These are the producer's
  Figure 6 check-elimination opportunities surfaced as diagnostics.

The rules are the fixed table :data:`LINT_RULES`; a rule takes
``(module, function, analyses)`` and yields :class:`Diagnostic` objects,
reading its facts through the :class:`~repro.analysis.manager.
AnalysisManager` ``analyses``.  :func:`lint_module` runs everything and
returns the deterministically sorted findings; :func:`lint_report`
shapes them into the stable JSON schema ``repro-cc lint --json`` emits.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.analysis.diagnostics import (
    Diagnostic,
    count_by_severity,
    sort_diagnostics,
)
from repro.analysis.manager import AnalysisManager
from repro.ssa import ir
from repro.ssa.ir import Function, Module
from repro.tsa.verifier import collect_diagnostics


def _dead_phi(module: Module, function: Function,
              analyses: AnalysisManager) -> Iterator[Diagnostic]:
    """A phi with no path to an observable use -- including cycles of
    phis that only feed each other -- does useful work for nobody."""
    observable = analyses.get("observable", function)
    for block in function.reachable_blocks():
        for phi in block.phis:
            if phi.id not in observable:
                yield Diagnostic(
                    "STSA-PHI-101",
                    f"phi v{phi.id} has no observable use",
                    function=function.name, block=block.id, instr=phi.id)


def _redundant_nullcheck(module: Module, function: Function,
                         analyses: AnalysisManager) \
        -> Iterator[Diagnostic]:
    facts = analyses.get("nullness", function)
    for block in function.reachable_blocks():
        for instr in block.instrs:
            if isinstance(instr, ir.NullCheck) \
                    and facts.is_nonnull_before(instr.operands[0], instr):
                yield Diagnostic(
                    "STSA-NULL-101",
                    f"nullcheck v{instr.id}: v{instr.operands[0].id} is "
                    "provably non-null here",
                    function=function.name, block=block.id,
                    instr=instr.id)


def _redundant_idxcheck(module: Module, function: Function,
                        analyses: AnalysisManager) \
        -> Iterator[Diagnostic]:
    facts = analyses.get("range", function)
    for block in function.reachable_blocks():
        for instr in block.instrs:
            if isinstance(instr, ir.IdxCheck) \
                    and facts.idxcheck_redundant(instr):
                yield Diagnostic(
                    "STSA-IDX-101",
                    f"idxcheck v{instr.id}: v{instr.index.id} is provably "
                    f"within v{instr.array.id}'s bounds here",
                    function=function.name, block=block.id,
                    instr=instr.id)


#: rule name -> rule(module, function, analyses) yielding diagnostics
LINT_RULES = {
    "dead-phi": _dead_phi,
    "redundant-nullcheck": _redundant_nullcheck,
    "redundant-idxcheck": _redundant_idxcheck,
}


def lint_function(module: Module, function: Function,
                  rules: Optional[Iterable[str]] = None,
                  include_verifier: bool = True,
                  analyses=None) -> list[Diagnostic]:
    """Run the verifier (collect mode) and the selected lint rules.

    ``analyses`` is an optional :class:`~repro.analysis.manager.
    AnalysisManager` whose cached results the verifier and the rules
    share; without one, this call makes its own.
    """
    names = list(rules) if rules is not None else sorted(LINT_RULES)
    if analyses is None:
        analyses = AnalysisManager()
    diagnostics: list[Diagnostic] = []
    if include_verifier:
        diagnostics.extend(
            collect_diagnostics(module, function, analyses=analyses))
    for name in names:
        diagnostics.extend(LINT_RULES[name](module, function, analyses))
    return sort_diagnostics(diagnostics)


def lint_module(module: Module,
                rules: Optional[Iterable[str]] = None,
                include_verifier: bool = True,
                analyses=None) -> list[Diagnostic]:
    """Lint every function of ``module``; deterministically sorted."""
    diagnostics: list[Diagnostic] = []
    for function in module.functions.values():
        diagnostics.extend(lint_function(
            module, function, rules=rules,
            include_verifier=include_verifier, analyses=analyses))
    return sort_diagnostics(diagnostics)


def lint_report(diagnostics: list[Diagnostic]) -> dict:
    """The stable machine-readable report schema (``lint --json``)."""
    return {
        "schema": "repro-lint/1",
        "counts": count_by_severity(diagnostics),
        "diagnostics": [d.as_dict() for d in sort_diagnostics(diagnostics)],
    }
