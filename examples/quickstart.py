"""Quickstart: compile Java source to SafeTSA, ship it, run it.

Run with:  python examples/quickstart.py
"""

from repro import compile_source, encode_module, load_module
from repro.interp.interpreter import Interpreter
from repro.ssa.printer import format_function

SOURCE = """
class Greeter {
    String name;

    Greeter(String name) { this.name = name; }

    String greet(int times) {
        String out = "";
        for (int i = 0; i < times; i++) {
            out = out + "hello, " + name + "! ";
        }
        return out;
    }

    static void main() {
        Greeter greeter = new Greeter("SafeTSA");
        System.out.println(greeter.greet(3));
        int[] squares = new int[10];
        for (int i = 0; i < squares.length; i++) {
            squares[i] = i * i;
        }
        System.out.println("sum of squares: " + sum(squares));
    }

    static int sum(int[] values) {
        int total = 0;
        for (int i = 0; i < values.length; i++) {
            total += values[i];
        }
        return total;
    }
}
"""


def main() -> None:
    # 1. producer: compile (and optimise) to the SafeTSA representation
    module = compile_source(SOURCE, optimize=True)
    print(f"compiled {len(module.functions)} methods, "
          f"{module.instruction_count()} SafeTSA instructions")

    # 2. look at one method in SSA form
    greet = module.function_named("Greeter", "greet")
    print()
    print(format_function(greet))

    # 3. externalise: every reference becomes a dominator-relative (l, r)
    #    pair, so ill-formed programs have no encoding at all
    wire = encode_module(module)
    print(f"\nwire format: {len(wire)} bytes")

    # 4. consumer: the verifying loader decodes and checks in one pass;
    #    a stream it rejects never reaches the interpreter
    received = load_module(wire)

    # 5. execute
    result = Interpreter(received).run_main("Greeter")
    print("\nprogram output:")
    print(result.stdout, end="")


if __name__ == "__main__":
    main()
