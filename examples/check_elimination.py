"""Transporting the results of check elimination (paper Sections 1 and 4).

The paper's headline optimisation: because null-checked values live on
separate ``safe-ref`` register planes and bounds-checked indices on
per-array ``safe-index`` planes, the *producer* can eliminate redundant
checks and the consumer can trust the result without re-analysis --
a malicious producer cannot falsely claim a check is redundant, because
skipping a required check leaves an operand on the wrong plane, which is
unrepresentable in the wire format.

This example shows the static and dynamic effect on Linpack, the paper's
array-check showcase.

Run with:  python examples/check_elimination.py
"""

from repro.api import compile_source
from repro.bench.corpus import corpus_source
from repro.interp.interpreter import Interpreter


def measure(label: str, optimize: bool) -> None:
    source = corpus_source("Linpack")
    module = compile_source(source, optimize=optimize)
    interp = Interpreter(module, max_steps=50_000_000)
    result = interp.run_main("Linpack")
    assert result.exception is None
    print(f"{label}:")
    print(f"  static  null checks: {module.count_opcodes('nullcheck'):5}   "
          f"bounds checks: {module.count_opcodes('idxcheck'):5}")
    print(f"  dynamic null checks: {interp.check_counts['nullcheck']:5}   "
          f"bounds checks: {interp.check_counts['idxcheck']:5}")
    print(f"  output: {result.stdout.splitlines()[1]}")


def inspect_daxpy() -> None:
    """daxpy reads dy[i] twice (load + store): one bounds check after
    optimisation, two before."""
    source = corpus_source("Linpack")
    for optimize in (False, True):
        module = compile_source(source, optimize=optimize)
        daxpy = module.function_named("Linpack", "daxpy")
        nullchecks = sum(1 for b in daxpy.reachable_blocks()
                         for i in b.instrs if i.opcode == "nullcheck")
        idxchecks = sum(1 for b in daxpy.reachable_blocks()
                        for i in b.instrs if i.opcode == "idxcheck")
        label = "optimised" if optimize else "plain    "
        print(f"  daxpy {label}: {nullchecks} null checks, "
              f"{idxchecks} bounds checks, "
              f"{daxpy.instruction_count()} instructions")


def main() -> None:
    measure("before producer-side optimisation", optimize=False)
    print()
    measure("after  producer-side optimisation", optimize=True)
    print()
    print("the daxpy kernel (dy[i] = dy[i] + da*dx[i]):")
    inspect_daxpy()
    print()
    print("The eliminated checks are *gone from the transmitted code*;")
    print("the consumer executes fewer checks without re-deriving the")
    print("analysis, and cannot be tricked into skipping a required one.")


if __name__ == "__main__":
    main()
