"""Walking a program through the paper's own figures.

Takes a conditional fragment like the one in the paper's Figure 1 /
Appendix B and shows the stages:

1. the type-separated, reference-secure SafeTSA form in the paper's
   (l-r) register notation (Figures 4 and 9);
2. why the Figure 1 attack (referencing a value from the untaken branch)
   has no encoding;
3. the actual transmitted bits.

Run with:  python examples/paper_walkthrough.py
"""

from repro.api import compile_source
from repro.encode.serializer import encode_module
from repro.ssa.printer import format_function
from repro.tsa.disasm import format_function_lr
from repro.tsa.layout import FunctionLayout, LayoutError

# the shape of the paper's running example: two values produced on
# different branches, merged by a phi, used after the join
SOURCE = """
class Fragment {
    static int compute(boolean p, int i, int j) {
        int x;
        if (p) {
            x = i + j;      // value (10) in Figure 1's numbering
        } else {
            x = i - j;      // value (11)
        }
        return x * 2;       // uses the phi (12)
    }
}
"""


def main() -> None:
    module = compile_source(SOURCE)
    function = module.function_named("Fragment", "compute")

    print("=== SSA form (global value numbering, like Figure 1) ===")
    print(format_function(function))

    print()
    print("=== SafeTSA form: type-separated register planes with")
    print("=== dominator-relative (l-r) references (Figures 4/9) ===")
    print(format_function_lr(function))

    print()
    print("=== the Figure 1 attack is unrepresentable ===")
    layout = FunctionLayout(function)
    then_block = next(b for b in function.blocks
                      for i in b.instrs
                      if i.opcode == "primitive"
                      and i.operation.name == "add")
    add_value = next(i for i in then_block.instrs
                     if i.opcode == "primitive"
                     and i.operation.name == "add")
    join = next(b for b in function.blocks if b.phis)
    print(f"value (10) is the int.add in B{then_block.id}; "
          f"the join is B{join.id}")
    try:
        layout.ref_of(join, add_value)
        print("!! the attack had an encoding (must never happen)")
    except LayoutError as error:
        print(f"encoding it from the join raises: {error}")
    level, register = layout.ref_of(then_block, add_value)
    print(f"(from its own branch it is simply ({level}-{register}))")

    print()
    wire = encode_module(module)
    print(f"=== transmitted: {len(wire)} bytes "
          f"({module.instruction_count()} instructions, "
          "every reference alphabet-bounded) ===")
    print(wire.hex())


if __name__ == "__main__":
    main()
