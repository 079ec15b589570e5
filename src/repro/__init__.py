"""SafeTSA: a type-safe, referentially secure mobile-code representation.

Reproduction of Amme, Dalton, von Ronne & Franz, *SafeTSA: A Type Safe and
Referentially Secure Mobile-Code Representation Based on Static Single
Assignment Form* (PLDI 2001).

The package is organised as a complete producer/consumer toolchain:

- :mod:`repro.frontend` -- a Java-subset ("MiniJava++") lexer, parser and
  semantic analyser (the paper used a modified Pizza compiler).
- :mod:`repro.typesys` -- the Java-like type hierarchy and the SafeTSA
  *type table* with per-type operation tables.
- :mod:`repro.uast` -- the Unified Abstract Syntax Tree, the structured IR
  the SSA generator consumes.
- :mod:`repro.ssa` -- CFG, dominators, and eager Brandis/Moessenboeck-style
  SSA construction with Briggs phi pruning.
- :mod:`repro.tsa` -- the SafeTSA representation itself: type-separated
  register planes, dominator-relative ``(l, r)`` value references, the
  Control Structure Tree, and the counter-based consumer verifier.
- :mod:`repro.opt` -- producer-side optimisations (constant propagation,
  CSE over a ``Mem``-threaded memory SSA, dead-code and check elimination).
- :mod:`repro.encode` -- the three-phase bit-level wire format in which
  ill-formed references are unrepresentable.
- :mod:`repro.loader` -- the fused verifying loader: one decode pass
  plus a residual rule sweep on every load, whole or streamed.
- :mod:`repro.interp` -- a reference interpreter for SafeTSA modules (the
  stand-in for the paper's dynamic code generator).
- :mod:`repro.jvm` -- the Java-bytecode baseline: stack codegen, class-file
  size model, bytecode interpreter and dataflow verifier.
- :mod:`repro.bench` -- corpus and measurement harness regenerating the
  paper's Figure 5 and Figure 6.

Typical use::

    from repro import compile_source, encode_module, load_module
    module = compile_source(JAVA_SOURCE, optimize=True)
    wire = encode_module(module)
    received = load_module(wire)  # fused decode + verify

    from repro.interp import Interpreter
    result = Interpreter(received).run_main()
"""

from repro.api import (
    compile_source,
    compile_to_bytecode,
    decode_module,
    encode_module,
    load_module,
    run_module,
)

__all__ = [
    "compile_source",
    "compile_to_bytecode",
    "decode_module",
    "encode_module",
    "load_module",
    "run_module",
    "__version__",
]

__version__ = "1.0.0"
