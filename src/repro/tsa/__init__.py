"""SafeTSA consumer-side services: ``(l, r)`` layout and verification.

:mod:`repro.tsa.layout` computes the dominator-relative register numbering
used by the wire format (paper Section 2): a value reference is a pair
``(l, r)`` where ``l`` counts levels up the dominator tree from the using
block and ``r`` is the register index on the instruction's implied plane
within that block.  References to non-dominating definitions are simply
*unrepresentable*.

:mod:`repro.tsa.verifier` is the paper's cheap consumer check (Section 9:
"simple counters holding the numbers of defined values for each type in
each basic block") extended with the structural rules a decoded module
must satisfy; it exists mainly for hand-constructed attack modules and for
the verification-cost comparison against JVM bytecode dataflow analysis.
"""

from repro.tsa.layout import FunctionLayout
from repro.tsa.verifier import VerifyError, verify_function, verify_module

__all__ = [
    "FunctionLayout",
    "VerifyError",
    "verify_function",
    "verify_module",
    "ModuleBuilder",
]


def __getattr__(name):
    # lazy: these pull in heavier modules
    if name == "ModuleBuilder":
        from repro.tsa.builder import ModuleBuilder
        return ModuleBuilder
    if name == "format_function_lr":
        from repro.tsa.disasm import format_function_lr
        return format_function_lr
    if name == "format_module_lr":
        from repro.tsa.disasm import format_module_lr
        return format_module_lr
    raise AttributeError(name)
