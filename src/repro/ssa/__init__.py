"""SSA layer: CFG, dominators, and SafeTSA-form SSA construction.

The in-memory SSA produced here *is* the SafeTSA program (instructions on
type-separated register planes, structured by a Control Structure Tree);
the :mod:`repro.tsa` layer adds the dominator-relative ``(l, r)`` register
numbering and verification, and :mod:`repro.encode` externalises it.
"""

from repro.ssa import ir
from repro.ssa.cst import derive_cfg
from repro.ssa.dominators import DominatorTree, compute_dominators
from repro.ssa.construction import SsaBuilder, build_function
from repro.ssa.phi_pruning import prune_dead_phis

__all__ = [
    "ir",
    "derive_cfg",
    "DominatorTree",
    "compute_dominators",
    "SsaBuilder",
    "build_function",
    "prune_dead_phis",
]
