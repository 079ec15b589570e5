"""Producer-side optimisations (paper Section 8).

Passes: constant propagation, common subexpression elimination over a
``Mem``-threaded memory dependence structure, check elimination enabled by
type separation, and dead-code elimination.  All passes run on the SSA
form and preserve the invariant that every operand dominates its use on
the correct register plane.

The passes are run by :class:`repro.driver.manager.PassManager`.
"""
