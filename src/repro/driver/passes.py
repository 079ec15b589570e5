"""The pass table and the pipeline-spec grammar.

Every optimisation pass is one entry of :data:`PASSES`, keyed by its
spec name (``constprop``, ``safephi``, ``hoist_checks``, ``cse``,
``cse_fields``, ``licm``, ``dce``, ``cleanup``).  Its :class:`Pass`
holds what the pass manager needs to schedule the work and keep the
shared analysis cache sound:

``slot``
    The canonical-order slot the pass occupies.  ``cse`` and
    ``cse_fields`` share the ``cse`` slot: they are variants, and at
    most one runs per pipeline (``cse_fields`` wins when both are
    selected).
``step``
    ``step(function, analyses)`` runs the pass on one function, reading
    analyses through the :class:`~repro.analysis.manager.
    AnalysisManager`, and returns its statistics.
``preserves``
    Analyses still valid after the pass *even when it changed the
    function*.  A pass whose statistics are all falsy changed nothing
    and implicitly preserves everything.  When any of the CFG-shape
    statistics (:data:`CFG_CHANGE_STATS`) is nonzero the pass rewired
    edges, so ``domtree`` is dropped from the preserved set regardless.

The pipeline spec grammar is a comma-separated list of pass names, e.g.
``"constprop,safephi,cse_fields,dce,cleanup"``.  Whitespace around
names is ignored; empty segments are dropped, so ``""`` is the explicit
no-op pipeline.  Iterables of names are accepted anywhere a spec string
is.  Passes always execute in canonical slot order regardless of the
order written, so two spellings of the same pass set hash to the same
compilation-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.manager import AnalysisManager
from repro.ssa.ir import Function

#: Canonical execution order (one name per slot).  ``hoist_checks``
#: runs before ``cse`` so a check hoisted to a preheader dominates --
#: and therefore subsumes, via CSE's memory dependence -- the redundant
#: in-loop checks of the same value; ``licm`` runs after ``cse`` so
#: reads whose checks were just eliminated or hoisted (now invariant
#: operands) can migrate out in the same pipeline run.
ALL_PASSES = ("constprop", "safephi", "hoist_checks", "cse", "licm",
              "dce", "cleanup")

#: The pipeline ``optimize=True`` selects when no explicit spec is
#: given.  The loop tier (``licm``, ``hoist_checks``) is opt-in via
#: ``--passes``: it inserts preheader blocks, so enabling it by default
#: would change every golden wire fixture.
DEFAULT_PASSES = ("constprop", "safephi", "cse", "dce", "cleanup")

#: The default pipeline as a spec string (stable cache-key alias).
CANONICAL_SPEC = ",".join(DEFAULT_PASSES)

#: Statistics keys whose nonzero value means the pass rewired CFG edges.
CFG_CHANGE_STATS = ("stale_exc_edges", "dead_handlers", "preheaders")


class PassCheckError(Exception):
    """``check_after_each_pass`` caught a pass breaking the invariants.

    ``pass_name`` is the blamed pass (``"input"`` when the function was
    already ill-formed before any pass ran); ``diagnostics`` holds every
    error-severity finding the verifier collected afterwards.
    """

    def __init__(self, pass_name: str, function_name: str,
                 diagnostics: list):
        self.pass_name = pass_name
        self.function = function_name
        self.diagnostics = diagnostics
        self.diagnostic = Diagnostic(
            "STSA-PASS-001",
            f"pass '{pass_name}' left {function_name} ill-formed: "
            f"{diagnostics[0] if diagnostics else 'unknown violation'}",
            function=function_name)
        super().__init__(str(self.diagnostic))


# ---------------------------------------------------------------------------
# step functions: step(function, analyses) mutates the function and
# returns its statistics
# ---------------------------------------------------------------------------

def _step_constprop(function, analyses) -> dict:
    from repro.opt.cleanup import remove_stale_exception_edges
    from repro.opt.constprop import run_constprop
    folded = run_constprop(function)
    # folding a trapping op (e.g. div by a non-zero constant) removes an
    # exception point; repair the edges so the IR stays verifiable
    return {"constprop_folded": folded,
            "stale_exc_edges": remove_stale_exception_edges(function)}


def _step_safephi(function, analyses) -> dict:
    from repro.opt.safephi import run_safe_phi_propagation
    return {"safephi_promoted": run_safe_phi_propagation(function)}


def _step_licm(function, analyses) -> dict:
    from repro.opt.licm import run_licm
    return run_licm(function, forest=analyses.get("loops", function))


def _step_hoist_checks(function, analyses) -> dict:
    from repro.opt.hoist_checks import run_hoist_checks
    return run_hoist_checks(function,
                            forest=analyses.get("loops", function))


def _step_cse(function, analyses, partition_memory=False) -> dict:
    from repro.opt.cleanup import remove_stale_exception_edges
    from repro.opt.cse import run_cse
    cse_stats = run_cse(function, partition_memory=partition_memory,
                        domtree=analyses.get("domtree", function))
    stats = {f"cse_{k}": v for k, v in cse_stats.as_dict().items()}
    # check elimination removes trapping instructions; see above
    stats["stale_exc_edges"] = remove_stale_exception_edges(function)
    return stats


def _step_cse_fields(function, analyses) -> dict:
    return _step_cse(function, analyses, partition_memory=True)


def _step_dce(function, analyses) -> dict:
    from repro.opt.dce import run_dce
    return {"dce_removed": run_dce(
        function, observable=analyses.get("observable", function))}


def _step_cleanup(function, analyses) -> dict:
    from repro.opt.cleanup import remove_dead_handlers, \
        remove_stale_exception_edges
    return {"stale_exc_edges": remove_stale_exception_edges(function),
            "dead_handlers": remove_dead_handlers(function)}


# ---------------------------------------------------------------------------
# the pass table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pass:
    """One pass: its canonical slot, its step and what it preserves."""

    slot: str
    step: Callable[[Function, AnalysisManager], dict]
    preserves: frozenset = frozenset()

    def preserved_after(self, stats: dict) -> Optional[frozenset]:
        """Analyses still valid after this pass produced ``stats``.

        Returns None for "everything" (the pass changed nothing).
        """
        if not any(bool(value) for value in stats.values()):
            return None  # no observable change: all results stay valid
        preserved = set(self.preserves)
        if any(stats.get(key) for key in CFG_CHANGE_STATS):
            preserved.discard("domtree")
        return frozenset(preserved)


_DOMTREE = frozenset({"domtree"})

#: pass name -> Pass.  The loop tier preserves the dominator tree only
#: when it did not have to materialise a preheader; ``preheaders`` is in
#: CFG_CHANGE_STATS, so preserved_after() withdraws "domtree" exactly in
#: that case.  DCE removes only values outside the observability
#: closure: the closure itself and the CFG are untouched, so both
#: results stay valid.
PASSES: dict[str, Pass] = {
    "constprop": Pass("constprop", _step_constprop, _DOMTREE),
    "safephi": Pass("safephi", _step_safephi, _DOMTREE),
    "licm": Pass("licm", _step_licm, _DOMTREE),
    "hoist_checks": Pass("hoist_checks", _step_hoist_checks, _DOMTREE),
    "cse": Pass("cse", _step_cse, _DOMTREE),
    "cse_fields": Pass("cse", _step_cse_fields, _DOMTREE),
    "dce": Pass("dce", _step_dce, frozenset({"domtree", "observable"})),
    "cleanup": Pass("cleanup", _step_cleanup),
}


# ---------------------------------------------------------------------------
# the pipeline-spec grammar
# ---------------------------------------------------------------------------

PassSpec = Union[None, str, Iterable[str]]


def parse_pass_spec(spec: PassSpec) -> tuple[str, ...]:
    """Resolve a pipeline spec to the canonically ordered pass tuple.

    ``None`` selects the default pipeline; a string is split on
    commas (``"constprop, dce"``); any iterable of names is accepted.
    Unknown names raise ``ValueError``.  At most one pass per slot
    survives; for the ``cse`` slot the ``cse_fields`` variant wins when
    both are named (historical behaviour of the ablation driver).
    """
    if spec is None:
        return DEFAULT_PASSES
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",")]
        names = [part for part in names if part]
    else:
        names = list(spec)
    unknown = sorted(set(names) - set(PASSES))
    if unknown:
        raise ValueError(
            f"unknown pass name(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(PASSES))}")
    by_slot: dict[str, str] = {}
    for name in names:
        slot = PASSES[name].slot
        current = by_slot.get(slot)
        if current is None or name == "cse_fields":
            by_slot[slot] = name
    return tuple(by_slot[slot] for slot in ALL_PASSES if slot in by_slot)


def effective_passes(optimize: bool, passes: PassSpec) -> tuple[str, ...]:
    """The pass tuple a compilation with these flags actually runs:
    an explicit ``passes`` spec wins; otherwise ``optimize`` selects the
    default pipeline or nothing."""
    if passes is None:
        return DEFAULT_PASSES if optimize else ()
    return parse_pass_spec(passes)


def spec_string(passes: Iterable[str]) -> str:
    """Canonical spec-string form (stable cache-key component)."""
    return ",".join(passes)
